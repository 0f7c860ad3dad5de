"""The benchmark workloads' verdicts, decided and checked in tier 1.

Seeds 1 and 2 of the four workloads of ``perfbench/workloads.py`` are decided
as the benchmark decides them: each text parsed, then ``scan`` or one
``predict`` per query.  The benchmark's own ``Checker`` (``perfbench/run.py``)
checks every verdict against an answer the engine does not supply and every
witness with ``verify_witness``.  The race bits are hashed and compared with
the digest pinned in ``verdict_pins.json`` next to this file.  Only the race
bits are pinned: a change that finds other witnesses keeps them.

Run as a script from the root of a checkout to print the counts, the
race-bit digest and the full digest, which hashes ``Verdict.to_json()``
without ``wall_ms``, one sorted-key JSON line per verdict:

    PYTHONPATH=src python tests/test_verdict_gate.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from racepred.cli import Verdict, predict, scan
from racepred.trace_model import parse_trace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))  # imported, never written
import workloads
from run import Checker, conflicting_pairs

PINS = HERE / "verdict_pins.json"
WORKLOADS = ("ov", "scan", "indset", "long")
SEEDS = (1, 2)


def decide() -> tuple[list[tuple[str, int, Verdict]], Checker]:
    """Every verdict of the gated passes, in workload then seed order, each
    with its workload and seed, and the checker that saw them."""
    checker = Checker()
    out = []
    for name in WORKLOADS:
        for seed in SEEDS:
            for inst in workloads.WORKLOADS[name](seed):
                trace = parse_trace(inst.text)
                if inst.scan_races is not None:
                    verdicts = scan(trace)
                    pairs = conflicting_pairs(trace)
                    checker.scan(trace, inst.label, pairs, inst.scan_races, verdicts)
                else:
                    verdicts = []
                    for q in inst.queries:
                        v = predict(trace, q.e1, q.e2, algo=q.algo, distance=q.distance)
                        checker.verdict(trace, inst.label, q, v)
                        verdicts.append(v)
                out += [(name, seed, v) for v in verdicts]
    return out, checker


def race_bits_digest(verdicts: list[tuple[str, int, Verdict]]) -> str:
    """sha256 of one ``workload seed e1 e2 race`` line per verdict."""
    text = "".join(f"{name} {seed} {v.query[0]} {v.query[1]} {v.race:d}\n" for name, seed, v in verdicts)
    return hashlib.sha256(text.encode()).hexdigest()


def full_digest(verdicts: list[tuple[str, int, Verdict]]) -> str:
    """sha256 of one sorted-key JSON line of ``to_json()`` without
    ``wall_ms`` per verdict."""
    lines = []
    for _, _, v in verdicts:
        record = v.to_json()
        del record["stats"]["wall_ms"]
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def test_workload_verdicts_are_correct_and_match_the_pinned_race_bits():
    verdicts, checker = decide()
    assert checker.failed == 0, checker.notes
    pins = json.loads(PINS.read_text())
    assert checker.attempted == len(verdicts) == pins["verdicts"]
    assert sum(v.race for _, _, v in verdicts) == pins["races"]
    assert race_bits_digest(verdicts) == pins["race_bits"]


if __name__ == "__main__":
    verdicts, checker = decide()
    print(f"verdicts {len(verdicts)}, races {sum(v.race for _, _, v in verdicts)}, "
          f"failed {checker.failed}")
    print(f"race bits {race_bits_digest(verdicts)}")
    print(f"full      {full_digest(verdicts)}")
