"""Check the benchmark itself, without timing anything.

    python3 perfbench/selfcheck.py

Runs every workload once at toy size (building (3,2), steinberg (2,3),
flags (2,2,2), survey on 20 d), untraced and traced, and exits 1 unless
every result has the schema BENCHMARK.json promises, every exact output
check passes, the spans read back from disk nest inside their parents with
non-negative self times that add up to the traced pass, and every counter
the workload should drive is nonzero.
"""

from __future__ import annotations

import json
import math
import sys

import run


def schema_problems(result, spec_metrics):
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
        return out
    if not isinstance(result["correct"], bool):
        out.append("correct is not a boolean")
    for key, least in (("attempted", 1), ("failed", 0)):
        v = result[key]
        if isinstance(v, bool) or not isinstance(v, int) or v < least:
            out.append(f"{key} = {v!r}")
    units = {m["name"]: m["unit"] for m in spec_metrics}
    if set(result["metrics"]) != set(units):
        out.append(f"metric names differ: {sorted(set(result['metrics']) ^ set(units))}")
    for name, m in result["metrics"].items():
        v = m.get("value")
        if set(m) != {"value", "unit"} or m["unit"] != units.get(name):
            out.append(f"{name}: {m}")
        elif isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            out.append(f"{name} value {v!r}")
    return out


def main():
    from tracer import read_spans

    spec = json.loads(run.SPEC.read_text())
    problems = []
    for workload in ("building", "steinberg", "flags", "survey"):
        for trace in (0, 1):
            result, record = run.run_workload(
                workload, seed=1, seconds=0, trace=trace, size="toy", measure_set_up=False
            )
            where = f"{workload} --trace {trace}"
            metrics = spec["per_layer" if trace else "end_to_end"]
            found = schema_problems(result, metrics)
            # Only an exact failure fails the self-check: the known inexact
            # log_embedding defect may show in `failed` on the toy survey too.
            if not result["correct"]:
                found += record["failure_messages"] or ["an exact check failed"]
            found += record["trace_problems"]
            if trace:
                found += read_spans(run.spans_path(workload)).problems()
            problems += [f"{where}: {p}" for p in found]
            print(f"{where}: {'ok' if not found else 'FAILED'}")
    for p in problems:
        print("  " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
