"""Dynamic data-race prediction from observed concurrent traces.

The package re-exports the public names of its five layers; each layer's
``__all__`` is the one list of them.  ``racepred.cli`` and
``racepred.generators`` are imported by name.
"""

from . import ideal_engine, oracle, orders, realizability, trace_model
from .ideal_engine import *
from .oracle import *
from .orders import *
from .realizability import *
from .trace_model import *

__version__ = "0.1.0"

__all__ = [
    *trace_model.__all__,
    *orders.__all__,
    *ideal_engine.__all__,
    *realizability.__all__,
    *oracle.__all__,
]
