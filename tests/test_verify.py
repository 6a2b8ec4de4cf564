"""Verdict reports, the worked level-2 pipeline, and the survey cache."""

import json

import pytest

from steinberg.verify import (
    VerdictReport,
    bounds_report,
    survey,
    verify_example_1_2,
)


def test_report_json_round_trip():
    rep = bounds_report(10, 2)
    again = VerdictReport.from_json(rep.to_json())
    assert again.inputs == rep.inputs
    assert again.invariants == rep.invariants
    assert again.verdicts == rep.verdicts
    assert again.passed is rep.passed
    assert json.loads(rep.to_json())["passed"] is True


def test_bounds_report_values():
    rep = bounds_report(34, 2)
    assert rep.passed
    inv = {k: v["value"] for k, v in rep.invariants.items()}
    assert inv["signature"] == [2, 0]
    assert inv["h"] == 2 and inv["h_narrow"] == 4
    assert inv["norm_minus_one"] is False
    assert inv["vcd_gl"] == 4 and inv["bordification_dim"] == 5
    assert rep.verdicts["vanishing_applies"] is False
    assert rep.verdicts["vanishing_reasons"] == ["NORM_MINUS_ONE_MISSING"]
    assert rep.verdicts["lower_bound"] == 1
    assert rep.verdicts["dualizing_type"] == "Steinberg"


def test_bounds_report_twisted_side():
    rep = bounds_report(2, 2)
    assert rep.verdicts["vanishing_applies"] is True
    assert rep.verdicts["lower_bound"] is None
    assert rep.verdicts["dualizing_type"] == "SteinbergTwisted"
    imag = bounds_report(-23, 2)
    assert imag.verdicts["lower_bound"] == 2
    assert imag.invariants["fundamental_unit"]["value"] is None


def test_every_invariant_is_noted():
    rep = bounds_report(5, 3)
    for entry in rep.invariants.values():
        assert set(entry) == {"value", "note"} and entry["note"]


def test_example_pipeline_verdicts():
    rep = verify_example_1_2()
    assert rep.passed, rep.failures
    assert rep.verdicts["matrix_relations_hold"] is True
    assert rep.verdicts["abelianization_rank_zero"] is True
    assert rep.verdicts["reduction_surjection_nonzero"] is True
    inv = {k: v["value"] for k, v in rep.invariants.items()}
    assert inv["relation_invariant_factors"] == [2, 2, 2, 2]
    assert inv["abelianization_rational_rank"] == 0
    assert inv["coinvariants_dim"] == 2
    assert inv["sample_size"] > 0


def test_survey_rows_match_single_reports(tmp_path):
    rows = survey([10, 34], [2], cache_path=None)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    solo = bounds_report(34, 2).to_dict()
    assert rows[1]["report"] == solo


def test_survey_cache_is_transparent_and_stable(tmp_path):
    cache = tmp_path / "cells.jsonl"
    first = survey([5, -7], [2, 3], cache_path=str(cache))
    lines_after_first = cache.read_text().strip().splitlines()
    second = survey([5, -7], [2, 3], cache_path=str(cache))
    lines_after_second = cache.read_text().strip().splitlines()
    assert first == second
    assert lines_after_first == lines_after_second
    assert len(lines_after_first) == 4
    # a fresh survey over a subset comes straight from the cache
    partial = survey([-7], [3], cache_path=str(cache))
    assert partial == [first[3]]


def test_survey_error_rows_do_not_abort_or_cache(tmp_path):
    cache = tmp_path / "cells.jsonl"
    rows = survey([4, 10], [2], cache_path=str(cache))
    assert rows[0]["status"] == "error"
    assert "ValueError" in rows[0]["error"]
    assert rows[1]["status"] == "ok"
    cached = [json.loads(t) for t in cache.read_text().strip().splitlines()]
    assert [c["d"] for c in cached] == [10]


_DAMAGES = {
    "truncated": lambda row: json.dumps(row)[:-40],
    "not a dict": lambda row: json.dumps([row]),
    "no report": lambda row: json.dumps({k: v for k, v in row.items() if k != "report"}),
    "string d": lambda row: json.dumps({**row, "d": str(row["d"])}),
    "bool n": lambda row: json.dumps({**row, "n": True}),
    "error status": lambda row: json.dumps({**row, "status": "error"}),
    "report not a dict": lambda row: json.dumps({**row, "report": []}),
    "empty verdicts": lambda row: json.dumps({**row, "report": {**row["report"], "verdicts": {}}}),
    # a valid row but for one non-ASCII letter, which json.dumps never writes
    "not ascii": lambda row: json.dumps(
        {
            **row,
            "report": {
                **row["report"],
                "verdicts": {**row["report"]["verdicts"], "dualizing_type": "St\u00e9inberg"},
            },
        },
        ensure_ascii=False,
    ),
}


@pytest.mark.parametrize("damage", list(_DAMAGES.values()), ids=list(_DAMAGES))
def test_survey_treats_damaged_cache_lines_as_misses(tmp_path, damage):
    fresh = survey([5], [2])
    damaged = damage(fresh[0])
    cache = tmp_path / "cells.jsonl"
    cache.write_text(damaged, encoding="utf-8")
    assert survey([5], [2], cache_path=str(cache)) == fresh
    lines = cache.read_text(encoding="utf-8").splitlines()
    # the recomputed row starts its own line after the unterminated one
    assert lines[0] == damaged
    assert json.loads(lines[1]) == fresh[0]
    assert survey([5], [2], cache_path=str(cache)) == fresh
    assert len(cache.read_text(encoding="utf-8").splitlines()) == 2


def test_survey_empty_ranges():
    assert survey([], [2]) == []
    assert survey([5], []) == []


def test_bounds_report_rejects_unit_rank():
    with pytest.raises(ValueError):
        bounds_report(10, 1)
