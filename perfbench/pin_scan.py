"""Re-pin the racy-pair counts of the ``scan`` workload's traces.

Usage, from the root of a checkout::

    python3 perfbench/pin_scan.py 0 1 2 3 4 5 > perfbench/scan_pins.json

Each argument is a ``gen_random_trace`` seed.  The counts come from the
engine itself (``scan`` on the ``auto`` route), so they guard against a
change in the answers, not against an error already present when pinned.
Pin only from a commit whose ``scan`` answers you trust.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from racepred.cli import scan  # noqa: E402
from racepred.generators import gen_random_trace  # noqa: E402

from workloads import SCAN_SHAPE  # noqa: E402


def main(seeds: list[int]) -> None:
    traces = []
    for seed in seeds:
        verdicts = scan(gen_random_trace(seed, **SCAN_SHAPE))
        traces.append({"seed": seed, "pairs": len(verdicts), "races": sum(v.race for v in verdicts)})
    json.dump({"shape": SCAN_SHAPE, "traces": traces}, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]])
