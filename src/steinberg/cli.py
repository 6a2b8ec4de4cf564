"""Command-line front end.

Exit codes: 0 all checks pass, 1 a verification failed, 2 bad input or
budget exhaustion.  --json switches every command to a single JSON
document on stdout and is the only global flag: it may appear before or
after the subcommand words.  --budget goes only on the subcommands that
enumerate simplices of a size the input sets, where it bounds the
simplices, and on survey, where it bounds the (d, n) cells; verify
example-1-2 builds one fixed 3-vertex building and takes none.  --cache
goes only on survey.  --d and --n take a value starting with "-" (such
as -7..-1) after a space as well as after "=".
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import BudgetExceededError, DEFAULT_SIMPLEX_BUDGET
from .complexes import (
    check_building_budget,
    checked_generators,
    reduced_homology_ranks,
    tits_building,
)
from .flags import probe_report
from .quadratic import log_embedding, make_order, order_invariants
from .stmodule import (
    CharacterTwist,
    apartment_span_rank,
    coinvariants_dim,
    gl_generators,
    sl_generators,
    steinberg_module,
    trivial_generators,
)
from .verify import bounds_report, survey, verify_example_1_2

_FLOAT_NOTE = "50 significant digits internally; printed at double precision"


def _add_json(parser, root):
    # The root parser sets the default; a subparser's copy only overrides
    # it when given, so --json works on either side of the subcommand.
    parser.add_argument(
        "--json",
        action="store_true",
        default=False if root else argparse.SUPPRESS,
        help="emit one JSON document instead of text",
    )


def _add_budget(parser, unit="simplex"):
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_SIMPLEX_BUDGET,
        help=f"{unit} budget (default {DEFAULT_SIMPLEX_BUDGET})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinberg",
        description="Exact invariants of buildings, Steinberg spaces, and quadratic orders",
    )
    _add_json(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="quadratic order invariants")
    ring_sub = ring.add_subparsers(dest="subcommand", required=True)
    ring_info = ring_sub.add_parser("info", help="units, class numbers, embeddings")
    ring_info.add_argument("--d", type=int, required=True)
    _add_json(ring_info, root=False)
    ring_info.set_defaults(run=_cmd_ring_info)

    building = sub.add_parser("building", help="finite building computations")
    building_sub = building.add_subparsers(dest="subcommand", required=True)
    homology = building_sub.add_parser("homology", help="reduced homology ranks")
    homology.add_argument("--n", type=int, required=True)
    homology.add_argument("--q", type=int, required=True)
    _add_json(homology, root=False)
    _add_budget(homology)
    homology.set_defaults(run=_cmd_building_homology)

    st = sub.add_parser("steinberg", help="Steinberg space computations")
    st_sub = st.add_subparsers(dest="subcommand", required=True)
    apartments = st_sub.add_parser("apartments", help="span rank of apartment classes")
    apartments.add_argument("--n", type=int, required=True)
    apartments.add_argument("--q", type=int, required=True)
    _add_json(apartments, root=False)
    _add_budget(apartments)
    apartments.set_defaults(run=_cmd_apartments)
    coinv = st_sub.add_parser("coinv", help="coinvariant dimension under a group")
    coinv.add_argument("--n", type=int, required=True)
    coinv.add_argument("--q", type=int, required=True)
    coinv.add_argument(
        "--group",
        required=True,
        help="gl | sl | trivial | json:<list of matrices>",
    )
    coinv.add_argument("--twist", default=None, help="json list of +1/-1 per generator")
    _add_json(coinv, root=False)
    _add_budget(coinv)
    coinv.set_defaults(run=_cmd_coinv)

    bounds = sub.add_parser("bounds", help="formulas, criteria, and duality verdicts")
    bounds.add_argument("--d", type=int, required=True)
    bounds.add_argument("--n", type=int, required=True)
    _add_json(bounds, root=False)
    bounds.set_defaults(run=_cmd_bounds)

    verify = sub.add_parser("verify", help="end-to-end verification pipelines")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    example = verify_sub.add_parser("example-1-2", help="level-2 rank-2 pipeline")
    _add_json(example, root=False)
    example.set_defaults(run=_cmd_example)

    flags = sub.add_parser("flags", help="integer flag and truncation probes")
    flags_sub = flags.add_subparsers(dest="subcommand", required=True)
    probe = flags_sub.add_parser("probe", help="connectivity probe of a truncation")
    probe.add_argument("--n", type=int, required=True)
    probe.add_argument("--m", type=int, required=True)
    probe.add_argument("--height", type=int, required=True)
    _add_json(probe, root=False)
    _add_budget(probe)
    probe.set_defaults(run=_cmd_probe)

    surv = sub.add_parser("survey", help="verdict table over (d, n) grids")
    surv.add_argument("--d", required=True, help="comma list and/or a..b ranges")
    surv.add_argument("--n", required=True, help="comma list and/or a..b ranges")
    surv.add_argument("--cache", default=None, help="JSON-lines cache file for survey cells")
    _add_json(surv, root=False)
    _add_budget(surv, unit="(d, n) cell")
    surv.set_defaults(run=_cmd_survey)

    return parser


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_ring_info(args) -> int:
    order = make_order(args.d)
    inv = order_invariants(order)
    desc = inv.descriptor()
    payload = dict(desc)
    lines = [
        f"d = {desc['d']}  discriminant = {desc['D']}  signature = {tuple(desc['signature'])}",
        f"h = {desc['h']}  h_narrow = {desc['h_narrow']}  norm -1 unit: {desc['norm_minus_one']}",
    ]
    if inv.unit is not None:
        u = desc["fundamental_unit"]
        emb = log_embedding(order, inv.unit)
        payload["unit_log_embedding"] = list(emb)
        payload["float_note"] = _FLOAT_NOTE
        lines.append(
            f"fundamental unit = ({u['a']} + {u['b']}*sqrt({args.d}))/{u['denom']}"
            f"  norm = {u['norm']}"
        )
        lines.append(f"log embedding = {emb}  ({_FLOAT_NOTE})")
    _emit(args, payload, lines)
    return 0


def _cmd_building_homology(args) -> int:
    X = tits_building(args.n, args.q, budget=args.budget)
    ranks = reduced_homology_ranks(X)
    top = args.n - 2
    expected = args.q ** (args.n * (args.n - 1) // 2)
    concentrated = all(r == 0 for k, r in ranks.items() if k != top)
    ok = concentrated and ranks.get(top, 0) == expected
    payload = {
        "n": args.n,
        "q": args.q,
        "cells": [X.n_cells(k) for k in range(X.dimension + 1)],
        "reduced_ranks": {str(k): r for k, r in ranks.items()},
        "top_degree": top,
        "expected_top_rank": expected,
        "concentrated": concentrated,
        "passes": ok,
    }
    lines = [
        f"cells per dimension: {payload['cells']}",
        f"reduced homology ranks: {ranks}",
        f"top rank {ranks.get(top, 0)} vs q^(n(n-1)/2) = {expected}: "
        + ("ok" if ok else "MISMATCH"),
    ]
    _emit(args, payload, lines)
    return 0 if ok else 1


def _cmd_apartments(args) -> int:
    module = steinberg_module(args.n, args.q, budget=args.budget)
    span = apartment_span_rank(module)
    ok = span == module.dim
    payload = {
        "n": args.n,
        "q": args.q,
        "steinberg_dim": module.dim,
        "apartment_span_rank": span,
        "passes": ok,
    }
    lines = [
        f"Steinberg dimension {module.dim}, apartment span rank {span}: "
        + ("ok" if ok else "MISMATCH")
    ]
    _emit(args, payload, lines)
    return 0 if ok else 1


def _load_json_arg(text, flag):
    """The JSON value of text after an optional "json:" prefix, or a ValueError naming flag."""
    try:
        return json.loads(text[len("json:"):] if text.startswith("json:") else text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{flag} JSON is nested too deeply") from None


def _parse_matrices(text):
    """Generator list from json:<list>; checked_generators checks each matrix."""
    if not text.startswith("json:"):
        raise ValueError(
            f"unknown --group {text!r}: use gl, sl, trivial or json:<list of matrices>"
        )
    data = _load_json_arg(text, "--group")
    if not isinstance(data, list):
        raise ValueError("--group json: must be a list of matrices")
    return data


def _parse_twist(text):
    """Sign twist from json:<list>; CharacterTwist checks the entries."""
    signs = _load_json_arg(text, "--twist")
    if not isinstance(signs, list):
        raise ValueError("--twist must be a list of the integers 1 and -1")
    return CharacterTwist(tuple(signs))


def _cmd_coinv(args) -> int:
    # The building is counted before any generator is made: sl_generators
    # alone makes up to 2 n (n - 1) dense n x n matrices.
    check_building_budget(args.n, args.q, args.budget)
    if args.group == "gl":
        gens = gl_generators(args.n, args.q)
    elif args.group == "sl":
        gens = sl_generators(args.n, args.q)
    elif args.group == "trivial":
        gens = trivial_generators(args.n)
    else:
        gens = _parse_matrices(args.group)
    # Checked before the build, so a bad twist or generator exits at once;
    # the twist first.
    twist = None if args.twist is None else _parse_twist(args.twist)
    if twist is not None and len(twist.signs) != len(gens):
        raise ValueError("twist length does not match generator count")
    checked_generators(args.n, args.q, gens)
    module = steinberg_module(args.n, args.q, budget=args.budget)
    action = module.action(gens)
    dim = coinvariants_dim(action, twist)
    payload = {
        "n": args.n,
        "q": args.q,
        "group": args.group,
        "twisted": twist is not None,
        "steinberg_dim": module.dim,
        "coinvariants_dim": dim,
    }
    _emit(args, payload, [f"coinvariants dimension = {dim} (module dimension {module.dim})"])
    return 0


def _cmd_bounds(args) -> int:
    report = bounds_report(order_invariants(make_order(args.d)), args.n)
    payload = report.to_dict()
    inv = {k: v["value"] for k, v in report.invariants.items()}
    lines = [
        f"d = {args.d}, n = {args.n}: signature {tuple(inv['signature'])}, "
        f"h = {inv['h']}, h_narrow = {inv['h_narrow']}, norm -1: {inv['norm_minus_one']}",
        f"vcd_gl = {inv['vcd_gl']}  vcd_sl = {inv['vcd_sl']}  "
        f"bordification_dim = {inv['bordification_dim']}",
        f"vanishing applies: {report.verdicts['vanishing_applies']}"
        + (
            f" (reasons: {', '.join(report.verdicts['vanishing_reasons'])})"
            if report.verdicts["vanishing_reasons"]
            else ""
        ),
        f"lower bound: {report.verdicts['lower_bound']}",
        f"dualizing type: {report.verdicts['dualizing_type']}",
    ]
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _cmd_example(args) -> int:
    report = verify_example_1_2()
    payload = report.to_dict()
    lines = [f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in report.verdicts.items()]
    if report.failures:
        lines.append("failures: " + "; ".join(report.failures))
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _cmd_probe(args) -> int:
    payload = probe_report(args.n, args.m, args.height, budget=args.budget)
    lines = [
        f"n = {payload['n']}, m = {payload['m']}, H = {payload['H']}",
        f"reduced ranks in degrees 0..{args.n - 2}: {payload['ranks']}"
        if args.n >= 2 else f"reduced ranks: none, as n = {args.n} has no degrees 0..n-2",
        f"witness failures: {payload['witnesses_failed']}",
        f"minimal connected height observed: {payload['minimal_connected_H']}",
    ]
    _emit(args, payload, lines)
    return 0


def _parse_spans(text, flag):
    """The (lo, hi) spans of a list like "2,5,10..15"; a value v is (v, v).

    An empty item, an item that is neither an integer nor a span, and a
    span ending below its start raise ValueError naming flag.
    """
    spans = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"{flag} {text!r} has an empty item")
        lo, span, hi = chunk.partition("..")
        try:
            lo = int(lo)
            hi = int(hi) if span else lo
        except ValueError:
            raise ValueError(f"{flag} item {chunk!r} is not an integer or a lo..hi span") from None
        if hi < lo:
            raise ValueError(f"{flag} span {chunk!r} ends below its start")
        spans.append((lo, hi))
    return spans


def _span_values(spans):
    return [v for lo, hi in spans for v in range(lo, hi + 1)]


def _cmd_survey(args) -> int:
    d_spans = _parse_spans(args.d, "--d")
    n_spans = _parse_spans(args.n, "--n")
    # Counted from the spans, so an oversized survey lists no value.
    cells = sum(hi - lo + 1 for lo, hi in d_spans) * sum(hi - lo + 1 for lo, hi in n_spans)
    if cells > args.budget:
        raise BudgetExceededError(f"survey of {cells} cells exceeds the budget of {args.budget}")
    rows = survey(_span_values(d_spans), _span_values(n_spans), cache_path=args.cache)
    errored = [r for r in rows if r["status"] != "ok"]
    payload = {"rows": rows, "errors": len(errored)}
    lines = []
    for row in rows:
        if row["status"] == "ok":
            v = row["report"]["verdicts"]
            lines.append(
                f"d={row['d']} n={row['n']}: vanishing={v['vanishing_applies']} "
                f"bound={v['lower_bound']} type={v['dualizing_type']}"
            )
        else:
            lines.append(f"d={row['d']} n={row['n']}: ERROR {row['error']}")
    _emit(args, payload, lines)
    return 2 if errored else 0


_NEGATIVE_VALUE = re.compile(r"-\d")


def _join_negative_values(argv):
    """argv with --d or --n and a following value such as -7..-1 joined.

    argparse takes a word starting with "-" for an option unless the whole
    word reads as a negative number, so "--d -7..-1" would leave --d
    without its value; "--d=-7..-1" is read as meant.
    """
    out = []
    for word in argv:
        if out and out[-1] in ("--d", "--n") and _NEGATIVE_VALUE.match(word):
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    # A valid result, such as a fundamental unit, can have more digits than
    # Python (3.10.7+) converts to str by default.  The limit is lifted once
    # argparse has read the int options under it, and restored on return.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.run(args)
    except AssertionError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
