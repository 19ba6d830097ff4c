"""Compare two sets of benchmark runs, e.g. a parent commit and a change.

    python3 perfbench/compare.py PARENT/results.jsonl CHANGE/results.jsonl

Each file is a ``.bench_work/results.jsonl`` written by ``run.py``.  For
every workload and end-to-end metric it prints both medians and quartiles
and a verdict: ``worse`` when the change's median is worse than the
parent's by more than the metric's bound in ``BENCHMARK.json``,
``unresolved`` when the parent's own quartile spread exceeds the bound, and
``ok`` otherwise.  Runs made under different interpreter settings (version,
``-O``, asserts) or run lengths are refused, so a switch such as ``-O``
cannot pass for a gain.  The exit code is 1 when any metric is worse, 2 when
the comparison is refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SETTINGS = ("python", "optimize", "asserts")


def load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    return [r for r in runs if r.get("trace") == 0 and r.get("end_to_end")]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    settings = {(tuple(r["env"].get(k) for k in SETTINGS), r["seconds"])
                for r in parent + change}
    if len(settings) != 1:
        print(f"refused: runs differ in interpreter settings or run length: {sorted(settings)}",
              file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    worse = False
    print("workload,metric,parent_median,parent_q1,parent_q3,change_median,"
          "change_q1,change_q3,change_pct,bound_pct,verdict")
    for workload in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        for m in metrics:
            name, bound = m["name"], m["bound"]
            p = [r["end_to_end"][name] for r in parent if r["workload"] == workload]
            c = [r["end_to_end"][name] for r in change if r["workload"] == workload]
            pq, cq = quartiles(p), quartiles(c)
            sign = 1 if m["better"] == "lower" else -1
            rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            if sign * rel > bound:
                verdict, worse = "worse", True
            elif pq[1] and (pq[2] - pq[0]) / pq[1] > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload},{name},{pq[1]:.6g},{pq[0]:.6g},{pq[2]:.6g},{cq[1]:.6g},"
                  f"{cq[0]:.6g},{cq[2]:.6g},{100 * rel:+.2f},{100 * bound:.0f},{verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
