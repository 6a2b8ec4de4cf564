"""The library's layers as the benchmark sees them: what to wrap, what to report.

Each layer is a module of the steinberg package.  TARGETS lists the public
functions (and the elimination kernel behind linalg._impl) whose calls
become spans: those the per-layer metrics need.  No workload reaches
smith_normal_form or the snf kernel behind it, so neither is wrapped.  The
hooks count work that a span alone cannot show.
per_layer_metrics turns one traced pass into the per-layer metrics that
BENCHMARK.json lists.
"""

from __future__ import annotations


def _echelon_in(tracer, args):
    tracer.count("linalg.echelon.nnz_in", sum(len(r) for r in args[2]))


def _echelon_out(tracer, args, result):
    tracer.count("linalg.echelon.rank_sum", len(result[0]))


def _cells(tracer, args, result):
    tracer.count("complexes.cells", args[0].total_cells())


def _accepted(tracer, args, result):
    if result is not None:
        tracer.count("flags.completion_witness.accepted")


def _order_seen(key):
    def pre(tracer, args):
        tracer.seen.setdefault(key, set()).add(args[0].d)

    return pre


def _rows(tracer, args, result):
    tracer.count("verify.survey.rows", len(result))


# (span name, module, attribute, pre hook, post hook)
TARGETS = [
    ("fields.rref", "steinberg.fields", "rref", None, None),
    ("fields.subspace_image", "steinberg.fields", "subspace_image", None, None),
    ("complexes.SemisimplicialSet", "steinberg.complexes", "SemisimplicialSet.__init__", None, _cells),
    ("complexes.tits_building", "steinberg.complexes", "tits_building", None, None),
    ("complexes.chain_complex", "steinberg.complexes", "chain_complex", None, None),
    ("complexes.group_action", "steinberg.complexes", "group_action", None, None),
    ("linalg.rank", "steinberg.linalg", "rank", None, None),
    ("linalg.kernel_basis", "steinberg.linalg", "kernel_basis", None, None),
    ("linalg.echelon", "steinberg.linalg", "_impl.echelon", _echelon_in, _echelon_out),
    ("lattices.snf_transform", "steinberg.linalg.lattices", "snf_transform", None, None),
    ("lattices.is_saturated", "steinberg.linalg.lattices", "is_saturated", None, None),
    ("stmodule.steinberg_module", "steinberg.stmodule", "steinberg_module", None, None),
    ("stmodule.action", "steinberg.stmodule", "SteinbergModule.action", None, None),
    ("stmodule.coinvariants_dim", "steinberg.stmodule", "coinvariants_dim", None, None),
    ("stmodule.apartment_span_rank", "steinberg.stmodule", "apartment_span_rank", None, None),
    ("stmodule.apartment_class", "steinberg.stmodule", "apartment_class", None, None),
    ("flags.probe_report", "steinberg.flags", "probe_report", None, None),
    ("flags.b_complex_truncated", "steinberg.flags", "b_complex_truncated", None, None),
    ("flags.completion_witness", "steinberg.flags", "completion_witness", None, _accepted),
    ("flags.verify_witnesses", "steinberg.flags", "TruncatedBComplex.verify_witnesses", None, None),
    ("quadratic.class_group", "steinberg.quadratic", "class_group", _order_seen("class_group"), None),
    ("quadratic.fundamental_unit", "steinberg.quadratic", "fundamental_unit",
     _order_seen("fundamental_unit"), None),
    ("verify.bounds_report", "steinberg.verify", "bounds_report", None, None),
    ("verify.survey", "steinberg.verify", "survey", None, _rows),
]

# Counters that must be nonzero on each workload, because its calls drive
# that layer at this revision.  Several are reached only through another
# module's `from .x import f` binding (rank from complexes, kernel_basis and
# group_action from stmodule, snf_transform from flags), so a zero here
# means a wrapper was bound at an attribute the calls do not go through.
WORKING = {
    "building": [
        "fields.rref.calls", "complexes.cells", "complexes.chain_complex.s", "linalg.rank.s",
        "linalg.echelon.calls", "linalg.echelon.nnz_in", "linalg.echelon.rank_sum",
    ],
    "steinberg": [
        "fields.rref.calls", "fields.subspace_image.calls", "complexes.cells",
        "complexes.group_action.s", "linalg.kernel_basis.s", "linalg.rank.s",
        "linalg.echelon.calls", "linalg.echelon.nnz_in", "linalg.echelon.rank_sum",
        "stmodule.action.self_s", "stmodule.apartment_class.calls",
    ],
    "flags": [
        "complexes.cells", "linalg.rank.s", "linalg.echelon.calls", "linalg.echelon.nnz_in",
        "lattices.snf_transform.calls", "lattices.is_saturated.calls",
        "flags.completion_witness.calls", "flags.witness_accept_ratio",
        "flags.builds_per_probe", "flags.verify_witnesses.s",
    ],
    "survey": [
        "quadratic.class_group.calls_per_order", "quadratic.fundamental_unit.calls_per_order",
        "quadratic.class_group.s", "verify.bounds_report.calls", "verify.cache_hit_ratio",
        "verify.cache_bytes", "cell_p50_ms", "cell_p99_ms", "cache_read_s",
    ],
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(spans, run_id, counters, seen, extra):
    """Per-layer metrics of one traced pass, as {name: value}.

    counters and seen are what the hooks gathered during the pass; extra is
    what the workload measured itself (the survey's cache size and its count
    of failed log-embedding checks).
    """
    agg = spans.by_name(run_id)

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    names = spans.names
    bct_in_probe = 0
    survey_s = []
    misses = 0
    for i, r in enumerate(spans.run):
        if r != run_id:
            continue
        n = names[spans.name[i]]
        p = spans.parent[i]
        parent = names[spans.name[p]] if p >= 0 else None
        if n == "flags.b_complex_truncated" and parent == "flags.probe_report":
            bct_in_probe += 1
        elif n == "verify.survey":
            survey_s.append(spans.duration[i])
        elif n == "verify.bounds_report" and parent == "verify.survey":
            misses += 1
    rows = counters.get("verify.survey.rows", 0)
    return {
        "fields.rref.calls": calls("fields.rref"),
        "fields.rref.s": incl("fields.rref"),
        "fields.subspace_image.calls": calls("fields.subspace_image"),
        "complexes.tits_building.self_s": self_s("complexes.tits_building"),
        "complexes.chain_complex.s": incl("complexes.chain_complex"),
        "complexes.group_action.s": incl("complexes.group_action"),
        "complexes.cells": counters.get("complexes.cells", 0),
        "linalg.echelon.calls": calls("linalg.echelon"),
        "linalg.echelon.s": incl("linalg.echelon"),
        "linalg.echelon.nnz_in": counters.get("linalg.echelon.nnz_in", 0),
        "linalg.echelon.rank_sum": counters.get("linalg.echelon.rank_sum", 0),
        "linalg.rank.s": incl("linalg.rank"),
        "linalg.kernel_basis.s": incl("linalg.kernel_basis"),
        "lattices.snf_transform.calls": calls("lattices.snf_transform"),
        "lattices.snf_transform.s": incl("lattices.snf_transform"),
        "lattices.is_saturated.calls": calls("lattices.is_saturated"),
        "stmodule.action.self_s": self_s("stmodule.action"),
        "stmodule.steinberg_module.self_s": self_s("stmodule.steinberg_module"),
        "stmodule.coinvariants_dim.self_s": self_s("stmodule.coinvariants_dim"),
        "stmodule.apartment_span_rank.self_s": self_s("stmodule.apartment_span_rank"),
        "stmodule.apartment_class.calls": calls("stmodule.apartment_class"),
        "flags.completion_witness.calls": calls("flags.completion_witness"),
        "flags.completion_witness.s": incl("flags.completion_witness"),
        "flags.witness_accept_ratio": _ratio(
            counters.get("flags.completion_witness.accepted", 0), calls("flags.completion_witness")
        ),
        "flags.builds_per_probe": _ratio(bct_in_probe, calls("flags.probe_report")),
        "flags.verify_witnesses.s": incl("flags.verify_witnesses"),
        "quadratic.class_group.calls_per_order": _ratio(
            calls("quadratic.class_group"), len(seen.get("class_group", ()))
        ),
        "quadratic.fundamental_unit.calls_per_order": _ratio(
            calls("quadratic.fundamental_unit"), len(seen.get("fundamental_unit", ()))
        ),
        "quadratic.class_group.s": incl("quadratic.class_group"),
        "quadratic.log_embedding.failed": extra.get("log_embedding_failed", 0),
        "verify.bounds_report.calls": calls("verify.bounds_report"),
        "verify.survey.cold_s": survey_s[0] if survey_s else 0.0,
        "verify.survey.warm_s": survey_s[1] if len(survey_s) > 1 else 0.0,
        "verify.cache_hit_ratio": _ratio(rows - misses, rows),
        "verify.cache_bytes": extra.get("cache_bytes", 0),
    }
