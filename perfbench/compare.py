"""Compare two sets of run records, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records run.py writes to perfbench/out/
(<workload>-seed<n>-trace<t>.json).  For every metric the table shows each
side's median and interquartile spread and the change of the medians; an
end-to-end metric whose median got worse by more than its bound in
BENCHMARK.json is marked WORSE.  Records whose stamps differ in elimination
backend, Python version or CPU count are not comparable: the script then
refuses, exits 2 and prints nothing else.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
ENVIRONMENT = ("backend", "python", "nproc")


def load(directory):
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*-trace[01].json"))]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    envs = {tuple(r["stamp"][k] for k in ENVIRONMENT) for r in base + new}
    if len(envs) > 1:
        print(f"refusing to compare records from different {'/'.join(ENVIRONMENT)}: "
              f"{sorted(envs)}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = sorted({r["stamp"]["workload"] for r in base + new})
    for workload in workloads:
        print(f"== {workload}")
        for trace in (0, 1):
            side = [
                [r["result"]["metrics"] for r in rs
                 if r["stamp"]["workload"] == workload and r["stamp"]["trace"] == trace]
                for rs in (base, new)
            ]
            if not side[0] or not side[1]:
                continue
            for name in side[0][0]:
                b = [m[name]["value"] for m in side[0]]
                n = [m[name]["value"] for m in side[1]]
                mb, mn = statistics.median(b), statistics.median(n)
                change = mn / mb - 1 if mb else 0.0
                worse = change if lower[name] else -change
                flag = "WORSE" if name in bounds and worse > bounds[name]["bound"] else ""
                print(f"  {name:44s} {mb:12.6g} ±{spread(b):5.1%} -> {mn:12.6g} "
                      f"±{spread(n):5.1%} {change:+7.1%} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
