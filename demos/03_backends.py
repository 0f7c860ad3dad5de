"""Three ways to decide one race, and when each one earns its keep.

general   sweeps every candidate ideal and searches its ideal graph —
          always sound and complete, cost grows with thread count.
tree      when the thread communication graph is a forest, a single
          lock-cone ideal decides the pair, and closure plus parent-first
          resolution replaces the search entirely.
bounded   answers "is there a witness that disturbs the observed order by
          at most L reversals?" — cheap screening with a one-sided promise.
bruteforce enumerates reorderings outright; the reference the others are
          checked against.
"""

import time

from racepred import communication_topology, parse_trace
from racepred.cli import predict

NEAR_MISS = """\
t1 acq l
t1 w x
t1 rel l
t2 acq l
t2 w y
t2 rel l
t2 w x
"""

TRIANGLE = """\
t1 w x
t2 r x
t2 w y
t3 r y
t3 w z
t1 r z
"""


def run(trace, e1, e2, algo, **kw):
    verdict = predict(trace, e1, e2, algo=algo, **kw)
    badge = "race" if verdict.race else "none"
    extra = f" distance={verdict.distance}" if verdict.distance is not None else ""
    print(
        f"    {algo:<10} -> {badge}{extra}  "
        f"(ideals={verdict.stats['ideals']}, "
        f"nodes={verdict.stats['search_nodes']}, "
        f"closure={verdict.stats['closure_edges']})"
    )
    return verdict


def main() -> None:
    trace = parse_trace(NEAR_MISS)
    print("two threads, one lock, conflicting writes on x (events 2 and 7):")
    topology = sorted(communication_topology(trace))
    print(f"    topology {topology} — a tree, so auto picks tree")
    for algo in ("tree", "general", "bruteforce"):
        run(trace, 2, 7, algo)
    print("  bounded asks a sharper question: how far from the observed order")
    print("  must a witness stray?  Here t2's critical section has to jump the")
    print("  queue ahead of t1's, which reverses one acquire pair:")
    run(trace, 2, 7, "bounded", distance=0)
    run(trace, 2, 7, "bounded", distance=1)

    trace = parse_trace(TRIANGLE)
    print("\nthree threads chained in a cycle (x -> y -> z back to t1):")
    topology = sorted(communication_topology(trace))
    print(f"    topology {topology} — not a tree, auto picks general")
    for algo in ("general", "bruteforce"):
        run(trace, 1, 2, algo)

    print("\nwhere the tree backend pays off — a 4-thread star, 2000 events:")
    items = []
    for i in range(334):
        for arm in ("t2", "t3", "t4"):
            items.append(f"t1 w {arm}_slot")
            items.append(f"{arm} r {arm}_slot")
    big = parse_trace("\n".join(items[:2000]))
    start = time.perf_counter()
    verdict = predict(big, 1, 2, algo="tree")
    elapsed = time.perf_counter() - start
    print(f"    {len(big)} events decided in {elapsed * 1000:.1f} ms: "
          f"{'race' if verdict.race else 'none'} via {verdict.algorithm}")


if __name__ == "__main__":
    main()
