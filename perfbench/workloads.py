"""The four workloads: fixed sequences of the library's public calls.

Each workload makes the calls the matching CLI subcommand makes, one after
another (closed loop, one caller, in-process).  `run` makes the calls and
is what a pass times; `check` then verifies every output, outside the
timed region.  Calls go through module attributes (`complexes.tits_building`,
not a local binding) so that a traced pass sees them.
"""

from __future__ import annotations

import json
import math
import os
import random
from itertools import combinations
from time import perf_counter

from steinberg import complexes, flags, quadratic, stmodule, verify

SIZES = {
    "full": {
        "building": {"nq": [(4, 3), (4, 4)]},
        "steinberg": {"module": (3, 9), "apartments": (4, 2)},
        "flags": {"probes": [(3, 3, 2), (2, 2, 12)]},
        "survey": {"count": 1500, "bound": 10**4, "n": [2, 3, 4]},
    },
    "toy": {
        "building": {"nq": [(3, 2)]},
        "steinberg": {"module": (2, 3), "apartments": (2, 3)},
        "flags": {"probes": [(2, 2, 2)]},
        "survey": {"count": 20, "bound": 10**4, "n": [2, 3, 4]},
    },
}

# Outputs this revision produces for the fixed inputs.  No closed form is
# known to the benchmark for these, so a change that alters them is wrong
# until shown otherwise.
COINVARIANTS = {(3, 9): (0, 0), (2, 3): (0, 0)}
PROBE_RANKS = {(3, 3, 2): [0, 320], (2, 2, 12): [0], (2, 2, 2): [0]}

# Relative tolerance for the log-embedding coordinates of a unit summing to
# zero; log_embedding promises 50 digits before rounding to double.
LOG_SUM_TOL = 1e-9


class PassAborted(Exception):
    """A library call raised; the rest of the pass cannot run."""


class Recorder:
    """Timed calls of one pass and the outcome of checking their outputs.

    An operation is one output the benchmark checks: one call, or for the
    survey one cell or cached row.  ops holds [key, result, exact_failed,
    check_failed]; an exact failure is a wrong exact answer or a raised
    call, a check failure is any other failed check.
    """

    MAX_MESSAGES = 20

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []
        self.extra = {}
        self.messages = []

    def timed(self, key, fn, *args, **kwargs):
        """(result, seconds) of one call, under a step span when tracing."""
        span = self.tracer.open("step." + key[0]) if self.tracer else None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            op = self.add(key, None)
            self.fail(op, f"raised {type(exc).__name__}: {exc}")
            raise PassAborted(key) from exc
        finally:
            if span is not None:
                self.tracer.close(span)
        return result, perf_counter() - t0

    def call(self, key, fn, *args, **kwargs):
        result, _ = self.timed(key, fn, *args, **kwargs)
        self.add(key, result)
        return result

    def add(self, key, result):
        op = [key, result, False, False]
        self.ops.append(op)
        return op

    def fail(self, op, message, exact=True):
        op[2 if exact else 3] = True
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(f"{op[0]}: {message}")

    def outputs(self):
        """Ops whose call returned, so that their output can be checked."""
        return [op for op in self.ops if not op[2]]

    def expect(self, op, ok, message, exact=True):
        if not ok:
            self.fail(op, message, exact)

    def summary(self):
        """(attempted, failed, exact_failed) over the pass's operations."""
        failed = sum(1 for op in self.ops if op[2] or op[3])
        exact = sum(1 for op in self.ops if op[2])
        return len(self.ops), failed, exact


# -- building ----------------------------------------------------------------


def _qfactorial(k, q):
    out = 1
    for i in range(1, k + 1):
        out *= (q**i - 1) // (q - 1)
    return out


def flag_counts(n, q):
    """Flags V_0 < ... < V_k of proper nonzero subspaces of F_q^n, by k.

    A flag with dimensions d_0 < ... < d_k is counted by the q-multinomial
    [n; d_0, d_1 - d_0, ..., n - d_k]_q.
    """
    counts = []
    for k in range(n - 1):
        total = 0
        for dims in combinations(range(1, n), k + 1):
            bounds = (0,) + dims + (n,)
            c = _qfactorial(n, q)
            for a, b in zip(bounds, bounds[1:]):
                c //= _qfactorial(b - a, q)
            total += c
        counts.append(total)
    return counts


class Building:
    """`building homology`: reduced homology of Tits buildings."""

    def __init__(self, seed, size, out_dir):
        self.nq = size["nq"]

    def run(self, rec):
        for n, q in self.nq:
            X = rec.call(("tits_building", n, q), complexes.tits_building, n, q)
            rec.call(("reduced_homology_ranks", n, q), complexes.reduced_homology_ranks, X)

    def check(self, rec):
        for op in rec.outputs():
            kind, n, q = op[0]
            out = op[1]
            if kind == "tits_building":
                expected = flag_counts(n, q)
                cells = [out.n_cells(k) for k in range(out.dimension + 1)]
                rec.expect(op, cells == expected, f"cells {cells} != {expected}")
            else:
                top, st = n - 2, q ** (n * (n - 1) // 2)
                want = {k: (st if k == top else 0) for k in range(n - 1)}
                rec.expect(op, out == want, f"reduced ranks {out} != {want}")


# -- steinberg ---------------------------------------------------------------


class Steinberg:
    """`steinberg coinv --group gl` (plain and twisted) and `steinberg apartments`."""

    def __init__(self, seed, size, out_dir):
        self.n, self.q = size["module"]
        self.apartments = size["apartments"]
        self.gens = stmodule.gl_generators(self.n, self.q)
        self.twist = stmodule.CharacterTwist((-1,) * len(self.gens))

    def run(self, rec):
        n, q = self.n, self.q
        module = rec.call(("steinberg_module", n, q), stmodule.steinberg_module, n, q)
        action = rec.call(("action", n, q), module.action, self.gens)
        rec.call(("coinvariants_dim", "plain"), stmodule.coinvariants_dim, action)
        rec.call(("coinvariants_dim", "twisted"), stmodule.coinvariants_dim, action, self.twist)
        a, b = self.apartments
        small = rec.call(("steinberg_module", a, b), stmodule.steinberg_module, a, b)
        rec.call(("apartment_span_rank", a, b), stmodule.apartment_span_rank, small)

    def check(self, rec):
        plain, twisted = COINVARIANTS[(self.n, self.q)]
        dims = {}
        for op in rec.outputs():
            key, out = op[0], op[1]
            if key[0] == "steinberg_module":
                n, q = key[1:]
                want = q ** (n * (n - 1) // 2)
                dims[(n, q)] = out.dim
                rec.expect(op, out.dim == want, f"dim {out.dim} != {want}")
            elif key[0] == "action":
                d = dims[(self.n, self.q)]
                shapes = {(m.rows, m.cols) for m in out.matrices}
                ok = len(out.matrices) == len(self.gens) and shapes == {(d, d)}
                rec.expect(op, ok, f"{len(out.matrices)} matrices of shapes {shapes}")
            elif key[0] == "coinvariants_dim":
                want = plain if key[1] == "plain" else twisted
                rec.expect(op, out == want, f"{out} != {want}")
            else:
                want = dims[tuple(key[1:])]
                rec.expect(op, out == want, f"span rank {out} != dim {want}")


# -- flags -------------------------------------------------------------------


class Flags:
    """`flags probe` at two sizes, then the re-checks of the last truncation."""

    def __init__(self, seed, size, out_dir):
        self.probes = size["probes"]
        # Which 1-vertex of the last truncation the retraction starts from.
        self.pick = random.Random(seed).random()

    def run(self, rec):
        for n, m, h in self.probes:
            rec.call(("probe_report", n, m, h), flags.probe_report, n, m, h)
        n, m, h = self.probes[-1]
        bx = rec.call(("b_complex_truncated", n, m, h), flags.b_complex_truncated, n, m, h)
        rec.call(("verify_witnesses",), bx.verify_witnesses)
        ones = [v for v in bx.complex.labels if v[-1] % m == 1]
        w = ones[int(self.pick * len(ones))]
        rec.call(("case1_retraction", w), flags.case1_retraction, bx, w)

    def check(self, rec):
        m = self.probes[-1][1]
        for op in rec.outputs():
            key, out = op[0], op[1]
            if key[0] == "probe_report":
                want = PROBE_RANKS[key[1:]]
                rec.expect(op, out["ranks"] == want, f"ranks {out['ranks']} != {want}")
                rec.expect(op, out["witnesses_failed"] == 0, "witness failures")
            elif key[0] == "b_complex_truncated":
                rec.expect(op, out.witness_failures == 0, "witness failures")
                rec.expect(op, len(out.witnesses) == out.complex.total_cells(),
                           "a simplex lacks its certificate")
            elif key[0] == "verify_witnesses":
                rec.expect(op, out is True, f"returned {out!r}")
            else:
                w = key[1]
                rec.expect(op, out.w == w, "retraction of another vertex")
                for v, img in out.mapping.items():
                    shifted = tuple(a - b for a, b in zip(v, w)) if v[-1] % m == 1 else v
                    if img != shifted or img[-1] % m:
                        rec.fail(op, f"{v} maps to {img}")
                        break
                rec.expect(op, out.simplices_checked >= len(out.mapping),
                           "a link vertex went unchecked")


# -- survey ------------------------------------------------------------------


def _ring_info_pair(d):
    order = quadratic.make_order(d)
    unit = quadratic.fundamental_unit(order)
    return unit, quadratic.log_embedding(order, unit)


class Survey:
    """`survey` cold into a fresh cache, the same survey warm, then `ring info` units."""

    def __init__(self, seed, size, out_dir):
        pool = [d for d in range(-size["bound"], size["bound"] + 1) if quadratic.is_squarefree(d)]
        self.ds = random.Random(seed).sample(pool, size["count"])
        self.ns = size["n"]
        self.cache = os.path.join(out_dir, f"survey-cache-{os.getpid()}.jsonl")

    def run(self, rec):
        if os.path.exists(self.cache):
            os.remove(self.cache)
        latencies = []
        inner = verify.bounds_report

        def timed_cell(d, n):
            t0 = perf_counter()
            try:
                return inner(d, n)
            finally:
                latencies.append(perf_counter() - t0)

        verify.bounds_report = timed_cell
        try:
            cold, _ = rec.timed(("survey_cold",), verify.survey, self.ds, self.ns, self.cache)
        finally:
            verify.bounds_report = inner
        if len(latencies) != len(cold):
            op = rec.add(("survey_cold",), None)
            rec.fail(op, f"{len(latencies)} cell timings for {len(cold)} rows: a cell came from cache")
            raise PassAborted(op[0])
        rec.extra["cache_bytes"] = os.path.getsize(self.cache)
        warm, warm_s = rec.timed(("survey_warm",), verify.survey, self.ds, self.ns, self.cache)
        rec.extra["cell_s"] = latencies
        rec.extra["cache_read_s"] = warm_s
        for row in cold:
            rec.add(("cell", row["d"], row["n"]), row)
        for row in warm:
            rec.add(("cached", row["d"], row["n"]), row)
        for d in self.ds:
            if d > 0:
                rec.call(("ring_info", d), _ring_info_pair, d)

    def close(self):
        if os.path.exists(self.cache):
            os.remove(self.cache)

    def check(self, rec):
        cold = {}
        log_failed = 0
        for op in rec.outputs():
            key, out = op[0], op[1]
            if key[0] == "cell":
                cold[key[1:]] = out
                self._check_row(rec, op, key[1], out)
            elif key[0] == "cached":
                fresh = cold.get(key[1:])
                same = fresh is not None and _dump(out) == _dump(fresh)
                rec.expect(op, same, "cached row differs from the cold row")
            else:
                d = key[1]
                unit, emb = out
                norm = unit.norm()
                exact = unit.a * unit.a - d * unit.b * unit.b == norm * unit.denom**2
                rec.expect(op, norm in (1, -1) and exact, f"unit norm {norm}")
                row = cold.get((d, self.ns[0]))
                if row is not None:
                    minus = row["report"]["invariants"]["norm_minus_one"]["value"]
                    rec.expect(op, (norm == -1) == minus, "norm disagrees with the survey")
                finite = all(math.isfinite(x) for x in emb)
                if not finite or abs(emb[0] + emb[1]) > LOG_SUM_TOL * max(map(abs, emb)):
                    log_failed += 1
                    rec.fail(op, f"log embedding {emb} does not sum to 0", exact=False)
        rec.extra["log_embedding_failed"] = log_failed

    @staticmethod
    def _check_row(rec, op, d, row):
        if row.get("status") != "ok":
            rec.fail(op, f"status {row.get('status')}: {row.get('error')}")
            return
        report = row["report"]
        inv = {k: v["value"] for k, v in report["invariants"].items()}
        h, hn = inv["h"], inv["h_narrow"]
        rec.expect(op, report["passed"], f"report failures {report['failures']}")
        rec.expect(op, h >= 1 and hn in (h, 2 * h), f"h={h} h_narrow={hn}")
        unit = inv["fundamental_unit"]
        if d < 0:
            rec.expect(op, unit is None and not inv["norm_minus_one"], "imaginary unit data")
            return
        a, b, den, norm = unit["a"], unit["b"], unit["denom"], unit["norm"]
        ok = norm in (1, -1) and a * a - d * b * b == norm * den * den
        rec.expect(op, ok, f"unit {unit} is not a unit")
        rec.expect(op, (norm == -1) == inv["norm_minus_one"], "norm -1 verdict disagrees")


def _dump(row):
    return json.dumps(row, sort_keys=True)


WORKLOADS = {"building": Building, "steinberg": Steinberg, "flags": Flags, "survey": Survey}
