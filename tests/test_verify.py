"""Verdict reports, the worked level-2 pipeline, and the survey cache."""

import json
import shutil
import sys
from pathlib import Path

import pytest

from steinberg import quadratic, verify
from steinberg.quadratic import make_order, order_invariants
from steinberg.verify import (
    bounds_report,
    survey,
    verify_example_1_2,
)


def _report(d, n):
    return bounds_report(order_invariants(make_order(d)), n)


def test_report_json_round_trip():
    # the CLI and the survey print to_dict through json: nothing is lost
    rep = _report(10, 2)
    again = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    assert again["inputs"] == rep.inputs
    assert again["invariants"] == rep.invariants
    assert again["verdicts"] == rep.verdicts
    assert again["failures"] == list(rep.failures)
    assert again["passed"] is rep.passed is True


def test_bounds_report_values():
    rep = _report(34, 2)
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
    rep = _report(2, 2)
    assert rep.verdicts["vanishing_applies"] is True
    assert rep.verdicts["lower_bound"] is None
    assert rep.verdicts["dualizing_type"] == "SteinbergTwisted"
    imag = _report(-23, 2)
    assert imag.verdicts["lower_bound"] == 2
    assert imag.invariants["fundamental_unit"]["value"] is None


def _count_calls(monkeypatch, module, names):
    """Count calls of module.<name>, through every binding in the package."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        inner = getattr(module, name)

        def counted(*args, _name=name, _inner=inner):
            counts[_name] += 1
            return _inner(*args)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("steinberg") and getattr(mod, name, None) is inner:
                monkeypatch.setattr(mod, name, counted)
    return counts


_INVARIANT_CALLS = ["class_group", "fundamental_unit"]


@pytest.mark.parametrize("d", [34, -23])
def test_bounds_report_only_reads_the_record(monkeypatch, d):
    inv = order_invariants(make_order(d))
    counts = _count_calls(monkeypatch, quadratic, _INVARIANT_CALLS)
    bounds_report(inv, 3)
    assert counts == {"class_group": 0, "fundamental_unit": 0}


def test_survey_builds_one_record_per_d(monkeypatch):
    counts = _count_calls(monkeypatch, quadratic, _INVARIANT_CALLS)
    survey([34, -23, 5], [2, 3, 4])
    # one class group per d, one unit per real d
    assert counts == {"class_group": 3, "fundamental_unit": 2}


def test_partly_warm_survey_builds_one_record_per_cold_d(tmp_path, monkeypatch):
    cache = tmp_path / "cells.jsonl"
    survey([34, -23, 5], [2], cache_path=str(cache))
    survey([10], [2, 3, 4], cache_path=str(cache))
    counts = _count_calls(monkeypatch, quadratic, _INVARIANT_CALLS)
    survey([34, -23, 5, 10], [2, 3, 4], cache_path=str(cache))
    # d = 10 has no cold cell and builds no record
    assert counts == {"class_group": 3, "fundamental_unit": 2}
    counts.update(dict.fromkeys(_INVARIANT_CALLS, 0))
    survey([34, -23, 5, 10], [2, 3, 4], cache_path=str(cache))
    assert counts == {"class_group": 0, "fundamental_unit": 0}


def test_every_invariant_is_noted():
    rep = _report(5, 3)
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
    solo = _report(34, 2).to_dict()
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
        _report(10, 1)


FIXTURE = Path(__file__).parent / "data" / "survey_parent.jsonl"
FIXTURE_D = [2, 3, 5, 10, 34, -1, -5, -23]
FIXTURE_N = [2, 3, 4]


def test_cold_survey_writes_the_fixture_bytes(tmp_path):
    cache = tmp_path / "cells.jsonl"
    survey(FIXTURE_D, FIXTURE_N, cache_path=str(cache))
    assert cache.read_bytes() == FIXTURE.read_bytes()


def test_warm_survey_over_the_fixture_computes_nothing(tmp_path, monkeypatch):
    cache = tmp_path / "cells.jsonl"
    shutil.copyfile(FIXTURE, cache)
    counts = _count_calls(monkeypatch, verify, ["bounds_report"])
    rows = survey(FIXTURE_D, FIXTURE_N, cache_path=str(cache))
    assert counts["bounds_report"] == 0
    expected = [json.loads(line) for line in FIXTURE.read_text().splitlines()]
    assert rows == expected
    assert cache.read_bytes() == FIXTURE.read_bytes()


def test_survey_error_rows_repeat_per_cold_cell():
    d_error = "ValueError: d={} must be squarefree and not 0 or 1"
    expected = [
        {"d": d, "n": n, "status": "error", "error": d_error.format(d)}
        for d in (4, 12)
        for n in (2, 1)
    ]
    fixture_row = json.loads(FIXTURE.read_text().splitlines()[6])
    assert (fixture_row["d"], fixture_row["n"]) == (5, 2)
    expected.append(fixture_row)
    expected.append(
        {"d": 5, "n": 1, "status": "error", "error": "ValueError: n must be at least 2"}
    )
    assert survey([4, 12, 5], [2, 1]) == expected
