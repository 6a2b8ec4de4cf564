"""Verdict reports: invariant bundles, the level-2 pipeline, and surveys.

Every numeric field in a report carries a note naming the operation that
produced it, so a reader can re-derive any entry from the library alone.
Reports serialize to JSON and back without loss.

The survey keeps a JSON-lines cache keyed by (d, n) behind an advisory
file lock; cached cells are returned byte-identically to fresh ones, and
per-cell failures become error rows instead of aborting the run.
"""

from __future__ import annotations

import fcntl
import json
import math
from dataclasses import dataclass

from .errors import DEFAULT_SIMPLEX_BUDGET
from .formulas import (
    bordification_dim,
    nonvanishing_lower_bound,
    vanishing_applies,
    vcd_gl,
    vcd_sl,
)
from .linalg import ExactMatrix, smith_normal_form
from .quadratic import make_order, order_descriptor
from .stmodule import coinvariants_dim, dualizing_module_type, steinberg_module


@dataclass
class VerdictReport:
    """Input echo, noted invariants, and boolean/numeric verdicts."""

    inputs: dict
    invariants: dict
    verdicts: dict
    failures: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "inputs": self.inputs,
            "invariants": self.invariants,
            "verdicts": self.verdicts,
            "failures": list(self.failures),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerdictReport":
        data = json.loads(text)
        return cls(
            inputs=data["inputs"],
            invariants=data["invariants"],
            verdicts=data["verdicts"],
            failures=tuple(data["failures"]),
        )


def _noted(value, note) -> dict:
    return {"value": value, "note": note}


def bounds_report(d: int, n: int) -> VerdictReport:
    """Invariants and verdicts for GL_n over the quadratic order of d.

    Bundles ring invariants (unit, class numbers), the dimension formulas,
    the vanishing criterion with reason codes, the class-number lower
    bound, and the duality dichotomy verdict.  The report fails only if
    the internal dimension identity breaks.
    """
    order = make_order(d)
    desc = order_descriptor(order)
    r, s = desc["signature"]
    failures = []
    invariants = {
        "discriminant": _noted(desc["D"], "conductor-adjusted square-free kernel"),
        "signature": _noted([r, s], "real embeddings r and complex pairs s"),
        "fundamental_unit": _noted(
            desc["fundamental_unit"],
            "continued-fraction expansion of the generator; None for imaginary",
        ),
        "norm_minus_one": _noted(
            desc["norm_minus_one"], "norm of the fundamental unit equals -1"
        ),
        "h": _noted(desc["h"], "reduced binary quadratic form count"),
        "h_narrow": _noted(
            desc["h_narrow"], "reduction cycles of indefinite forms (wide h if d < 0)"
        ),
        "vcd_gl": _noted(vcd_gl(n, r, s), "r*C(n+1,2) + s*n^2 - n"),
        "vcd_sl": _noted(vcd_sl(n, r, s), "vcd_gl - r - s + 1"),
        "bordification_dim": _noted(
            bordification_dim(n, r, s), "r*n(n+1)/2 + s*n^2 - 1"
        ),
    }
    applies, reasons = vanishing_applies(n, order)
    bound = nonvanishing_lower_bound(n, order)
    verdicts = {
        "vanishing_applies": applies,
        "vanishing_reasons": list(reasons),
        "lower_bound": bound,
        "dualizing_type": dualizing_module_type(n, order).value,
    }
    if invariants["bordification_dim"]["value"] - invariants["vcd_gl"]["value"] - 1 != n - 2:
        failures.append("dimension identity bordification - vcd - 1 = n - 2")
    return VerdictReport({"d": d, "n": n}, invariants, verdicts, tuple(failures))


_GEN_A = ((1, 2), (0, 1))
_GEN_B = ((1, 0), (2, 1))
_GEN_C = ((-1, 0), (0, 1))
_GEN_D = ((1, 0), (0, -1))


def _mat_mul2(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _inv2(x):
    det = x[0][0] * x[1][1] - x[0][1] * x[1][0]
    if det not in (1, -1):
        raise ValueError("matrix not invertible over Z")
    return tuple(
        tuple(v * det for v in row)
        for row in ((x[1][1], -x[0][1]), (-x[1][0], x[0][0]))
    )


def verify_example_1_2(budget=DEFAULT_SIMPLEX_BUDGET) -> VerdictReport:
    """Three-part check of the level-2 congruence pipeline in rank 2.

    (a) the four generators lie in the level-2 congruence subgroup and
    satisfy the torsion/conjugation relations exactly; (b) those relations
    force the rational abelianization to rank 0 (upper bound, assuming the
    four matrices generate); (c) reduction mod 2 of primitive vectors is a
    well-defined map to lines over F_2, the generators act trivially mod
    2, and the coinvariants of the rank-2 Steinberg space under their
    images have dimension 2, which is nonzero.
    """
    failures = []
    gens = {"a": _GEN_A, "b": _GEN_B, "c": _GEN_C, "d": _GEN_D}
    ident = ((1, 0), (0, 1))
    for name, g in gens.items():
        if any((g[i][j] - ident[i][j]) % 2 for i in range(2) for j in range(2)):
            failures.append(f"({name}) not congruent to identity mod 2")
    relations = {
        "c^2 = 1": (_mat_mul2(_GEN_C, _GEN_C), ident),
        "d^2 = 1": (_mat_mul2(_GEN_D, _GEN_D), ident),
        "c a c^-1 = a^-1": (
            _mat_mul2(_mat_mul2(_GEN_C, _GEN_A), _inv2(_GEN_C)),
            _inv2(_GEN_A),
        ),
        "c b c^-1 = b^-1": (
            _mat_mul2(_mat_mul2(_GEN_C, _GEN_B), _inv2(_GEN_C)),
            _inv2(_GEN_B),
        ),
    }
    for name, (lhs, rhs) in relations.items():
        if lhs != rhs:
            failures.append(name)
    sub_a = not failures

    # In the abelianization each relation says twice a generator vanishes.
    rel_rows = [
        (2, 0, 0, 0),
        (0, 2, 0, 0),
        (0, 0, 2, 0),
        (0, 0, 0, 2),
    ]
    factors = smith_normal_form(ExactMatrix.from_rows(rel_rows, cols=4))
    rational_rank = 4 - len(factors)
    sub_b = rational_rank == 0
    if not sub_b:
        failures.append("abelianization has positive rational rank")

    sample = [
        (x, y)
        for x in range(-4, 5)
        for y in range(-4, 5)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1
    ]
    reduction_ok = all((x % 2, y % 2) != (0, 0) for x, y in sample)
    if not reduction_ok:
        failures.append("mod-2 reduction of a primitive vector vanished")
    invariant_ok = True
    for g in gens.values():
        for v in sample:
            gv = (g[0][0] * v[0] + g[0][1] * v[1], g[1][0] * v[0] + g[1][1] * v[1])
            if (gv[0] % 2, gv[1] % 2) != (v[0] % 2, v[1] % 2):
                invariant_ok = False
    if not invariant_ok:
        failures.append("generator moved a line mod 2")
    module = steinberg_module(2, 2, budget=budget)
    images = [tuple(tuple(x % 2 for x in row) for row in g) for g in gens.values()]
    coinv = coinvariants_dim(module.action(images))
    sub_c = reduction_ok and invariant_ok and coinv == 2
    if coinv != 2:
        failures.append(f"coinvariants dimension {coinv} != 2")

    invariants = {
        "relation_invariant_factors": _noted(
            [int(f) for f in factors], "integer invariant factors of the relation rows"
        ),
        "abelianization_rational_rank": _noted(
            rational_rank,
            "generators minus relation rank; upper bound assuming the four"
            " matrices generate",
        ),
        "coinvariants_dim": _noted(
            coinv, "rank-2 Steinberg space under the mod-2 generator images"
        ),
        "sample_size": _noted(len(sample), "primitive vectors with entries up to 4"),
    }
    verdicts = {
        "matrix_relations_hold": sub_a,
        "abelianization_rank_zero": sub_b,
        "reduction_surjection_nonzero": sub_c,
    }
    return VerdictReport({"example": "1-2"}, invariants, verdicts, tuple(failures))


def _cell_key(d, n):
    return f"{d}:{n}"


_VERDICT_KEYS = {"vanishing_applies", "vanishing_reasons", "lower_bound", "dualizing_type"}


def _cached_row(line):
    """The clean survey row stored on one cache line, or None if damaged.

    Rows are written as ASCII JSON, so a line that is not ASCII, does not
    parse, or lacks the fields of a clean row is a cache miss.
    """
    if not line.isascii():
        return None
    try:
        row = json.loads(line)
    except ValueError:
        return None
    if not isinstance(row, dict) or row.get("status") != "ok":
        return None
    if type(row.get("d")) is not int or type(row.get("n")) is not int:
        return None
    report = row.get("report")
    if not isinstance(report, dict):
        return None
    verdicts = report.get("verdicts")
    if not isinstance(verdicts, dict) or not _VERDICT_KEYS <= set(verdicts):
        return None
    return row


def survey(d_values, n_values, cache_path=None, budget=DEFAULT_SIMPLEX_BUDGET):
    """One verdict row per (d, n), cached across runs when a path is given.

    Rows are returned in the given (d-major) order.  A failing cell yields
    {"d", "n", "status": "error", "error"} and the survey continues; only
    clean rows are cached.  A damaged cache line (truncated, unparsable,
    or missing fields) is a miss: its cell is recomputed and appended.
    """
    rows = []
    cache = {}
    handle = None
    unterminated = False
    if cache_path is not None:
        handle = open(cache_path, "a+", encoding="utf-8", errors="replace")
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        handle.seek(0)
        for line in handle:
            unterminated = not line.endswith("\n")
            row = _cached_row(line.strip())
            if row is not None:
                cache[_cell_key(row["d"], row["n"])] = row
    try:
        for d in d_values:
            for n in n_values:
                key = _cell_key(d, n)
                if key in cache:
                    rows.append(cache[key])
                    continue
                try:
                    report = bounds_report(d, n)
                    row = {
                        "d": d,
                        "n": n,
                        "status": "ok",
                        "report": report.to_dict(),
                    }
                except Exception as exc:  # noqa: BLE001 - survey must not abort
                    row = {
                        "d": d,
                        "n": n,
                        "status": "error",
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                rows.append(row)
                if handle is not None and row["status"] == "ok":
                    if unterminated:
                        # Keep the fresh row off the damaged last line.
                        handle.write("\n")
                        unterminated = False
                    handle.write(json.dumps(row, sort_keys=True) + "\n")
                    handle.flush()
                    cache[key] = row
    finally:
        if handle is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()
    return rows
