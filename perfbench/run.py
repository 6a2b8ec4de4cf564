"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload building --seed 1 --seconds 10 --trace 0

The library is imported from src/ next to this directory, never from an
installed copy.  A run repeats its workload's pass, one call after
another, while another pass still fits in --seconds (at least one pass),
checks every output, and prints a stamp, a table and, as the last line of
stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
spends half of --seconds on untraced passes and half on passes traced at
every layer, reports the per-layer metrics, and writes the spans to
perfbench/out/.  A full record of each run, stamped with the revision,
Python, elimination backend, CPU count and seed, goes to perfbench/out/
too; compare.py reads those records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 7
SHOWN_PROBLEMS = 5


def import_library():
    """Import steinberg from this checkout's src/ or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        import steinberg
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import steinberg from {SRC}: {exc}") from exc
    if Path(steinberg.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: steinberg was imported from {steinberg.__file__}, not {SRC}")
    return steinberg


def spans_path(workload):
    """Where the latest traced run of a workload leaves its spans."""
    return OUT / f"{workload}.spans"


def percentile(values, p):
    """Linear interpolation between closest ranks (statistics 'inclusive');
    0 for no values."""
    xs = sorted(values)
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def measure_setup(workload, seed):
    """Seconds from starting a fresh interpreter to its workload being ready,
    once per sample: import steinberg and generate the seeded inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(perf_counter() - t0)
            child.stdout.read()
        if line != "ready\n" or child.returncode != 0:
            raise SystemExit(f"perfbench: set-up child failed ({child.returncode})")
    return samples


def stamp(steinberg, workload, seed, trace):
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        top, rev = git.stdout.split()
        rev = rev if git.returncode == 0 and Path(top).resolve() == ROOT else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        rev = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_rev": rev,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "backend": steinberg.linalg.backend(),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Run:
    """Passes of one workload, with what they measured."""

    def __init__(self, wl):
        self.wl = wl
        self.walls = []
        self.untraced_extra = []  # what the workload measured itself, per untraced pass
        self.attempted = self.failed = self.exact_failed = 0
        self.aborted = False
        self.messages = []
        self.traced = []  # (run id, wall, counters, seen, extra) per traced pass

    def passes(self, seconds, tracer=None):
        """Run passes while another is expected to end within `seconds`."""
        from workloads import PassAborted, Recorder

        walls = []
        begin = perf_counter()
        while not self.aborted:
            rec = Recorder(tracer)
            if tracer is not None:
                tracer.run_id += 1
                tracer.counters, tracer.seen = {}, {}
                root = tracer.open("workload")
            t0 = perf_counter()
            try:
                self.wl.run(rec)
            except PassAborted:
                self.aborted = True
            finally:
                wall = perf_counter() - t0
                if tracer is not None:
                    tracer.close(root)
                    # The root span's own bounds, so that self times add up to it.
                    wall = tracer.end[root] - tracer.start[root]
            self.wl.check(rec)
            attempted, failed, exact = rec.summary()
            self.attempted += attempted
            self.failed += failed
            self.exact_failed += exact
            self.messages.extend(rec.messages[: rec.MAX_MESSAGES - len(self.messages)])
            if tracer is None:
                self.untraced_extra.append(rec.extra)
            else:
                self.traced.append((tracer.run_id, wall, tracer.counters, tracer.seen, rec.extra))
            walls.append(wall)
            if seconds - (perf_counter() - begin) < statistics.median(walls):
                break
        if tracer is None:
            self.walls.extend(walls)

    @property
    def correct(self):
        return not self.aborted and self.exact_failed == 0


def end_to_end(run, setup_samples):
    return {
        "wall_s": statistics.median(run.walls),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run, tracer, workload):
    """Per-layer metrics (median over traced passes) and wiring problems."""
    from layers import WORKING, per_layer_metrics

    tracer.write(spans_path(workload))
    spans = tracer.spans()
    passes = []
    problems = spans.problems()
    for run_id, wall, counters, seen, extra in run.traced:
        m = per_layer_metrics(spans, run_id, counters, seen, extra)
        total_self = sum(s for s, r in zip(spans.self_time, spans.run) if r == run_id)
        if abs(total_self - wall) > 1e-9 * wall:
            problems.append(f"pass {run_id}: self times sum to {total_self}, wall is {wall}")
        passes.append(m)
    metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(p[1] for p in run.traced) - statistics.median(run.walls)
    )
    metrics["fail_frac"] = run.failed / run.attempted if run.attempted else 0.0
    # Survey cell latencies and cache reads, from the untraced passes.
    cells = [s for extra in run.untraced_extra for s in extra.get("cell_s", ())]
    metrics["cell_p50_ms"] = percentile(cells, 50) * 1e3
    metrics["cell_p99_ms"] = percentile(cells, 99) * 1e3
    reads = [extra["cache_read_s"] for extra in run.untraced_extra if "cache_read_s" in extra]
    metrics["cache_read_s"] = statistics.median(reads) if reads else 0.0
    problems += [f"{k} is zero" for k in WORKING[workload] if not metrics[k]]
    problems += [f"no such attribute to trace: {t}" for t in tracer.missing]
    return metrics, problems


def run_workload(workload, seed, seconds, trace, size="full", measure_set_up=True):
    """Measure one workload; returns (result line, full record)."""
    steinberg = import_library()
    from layers import TARGETS
    from tracer import Tracer
    from workloads import SIZES, WORKLOADS

    OUT.mkdir(exist_ok=True)
    spec = json.loads(SPEC.read_text())
    setup_samples = measure_setup(workload, seed) if measure_set_up else [0.0]
    wl = WORKLOADS[workload](seed, SIZES[size][workload], str(OUT))
    run = Run(wl)
    tracer = None
    problems = []
    try:
        if not trace:
            run.passes(seconds)
            values = end_to_end(run, setup_samples)
        else:
            run.passes(seconds / 2)
            tracer = Tracer()
            tracer.install(TARGETS, "steinberg")
            try:
                run.passes(seconds / 2, tracer)
            finally:
                tracer.uninstall()
            values, problems = per_layer(run, tracer, workload)
    finally:
        close = getattr(wl, "close", None)
        if close is not None:
            close()
    listed = spec["per_layer" if trace else "end_to_end"]
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    record = {
        "stamp": stamp(steinberg, workload, seed, trace),
        "size": size,
        "seconds": seconds,
        "result": result,
        "pass_walls_s": run.walls,
        "traced_walls_s": [t[1] for t in run.traced],
        "setup_samples_s": setup_samples,
        "exact_failed": run.exact_failed,
        "failure_messages": run.messages,
        "trace_problems": problems,
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["building", "steinberg", "flags", "survey"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        import_library()
        from workloads import SIZES, WORKLOADS

        WORKLOADS[args.workload](args.seed, SIZES["full"][args.workload], str(OUT))
        print("ready", flush=True)
        return 0
    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
    problems = record["failure_messages"] + record["trace_problems"]
    for line in problems[:SHOWN_PROBLEMS]:
        print("  ! " + line, file=sys.stderr)
    if len(problems) > SHOWN_PROBLEMS:
        print(f"  ! ... {len(problems) - SHOWN_PROBLEMS} more in {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
