"""Command-line surface: output shapes, exit codes, flag placement."""

import json

import pytest

import steinberg.verify as verify
from steinberg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_ring_info(capsys):
    code, payload = run_json(capsys, "--json", "ring", "info", "--d", "10")
    assert code == 0
    assert payload["h"] == 2
    assert payload["norm_minus_one"] is True
    assert payload["fundamental_unit"] == {"a": 3, "b": 1, "denom": 1, "norm": -1}
    assert len(payload["unit_log_embedding"]) == 2


def test_ring_info_rejects_non_squarefree(capsys):
    code = main(["ring", "info", "--d", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "input error" in captured.err


def test_building_homology(capsys):
    code, payload = run_json(capsys, "--json", "building", "homology", "--n", "3", "--q", "2")
    assert code == 0
    assert payload["reduced_ranks"] == {"0": 0, "1": 8}
    assert payload["expected_top_rank"] == 8
    assert payload["concentrated"] is True and payload["passes"] is True
    assert payload["cells"] == [14, 21]


def test_apartments(capsys):
    code, payload = run_json(capsys, "--json", "steinberg", "apartments", "--n", "2", "--q", "5")
    assert code == 0
    assert payload["apartment_span_rank"] == payload["steinberg_dim"] == 5
    assert payload["passes"] is True


def test_coinv_groups(capsys):
    code, payload = run_json(
        capsys, "--json", "steinberg", "coinv", "--n", "2", "--q", "3", "--group", "gl"
    )
    assert code == 0 and payload["coinvariants_dim"] == 0
    code, payload = run_json(
        capsys, "--json", "steinberg", "coinv", "--n", "2", "--q", "3", "--group", "trivial"
    )
    assert code == 0 and payload["coinvariants_dim"] == 3
    custom = json.dumps([[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 0], [0, 1]]])
    code, payload = run_json(
        capsys,
        "--json",
        "steinberg",
        "coinv",
        "--n",
        "2",
        "--q",
        "3",
        "--group",
        f"json:{custom}",
    )
    assert code == 0 and payload["coinvariants_dim"] == 0


def test_coinv_twist(capsys):
    code, payload = run_json(
        capsys,
        "--json",
        "steinberg",
        "coinv",
        "--n", "2", "--q", "2", "--group", "gl",
        "--twist", "[-1, -1]",
    )
    assert code == 0 and payload["coinvariants_dim"] == 0


def test_bounds_text_and_json(capsys):
    code, out = run(capsys, "bounds", "--d", "34", "--n", "2")
    assert code == 0
    assert "NORM_MINUS_ONE_MISSING" in out
    code, payload = run_json(capsys, "--json", "bounds", "--d", "34", "--n", "2")
    assert code == 0
    assert payload["verdicts"]["lower_bound"] == 1


def test_verify_example(capsys):
    code, payload = run_json(capsys, "--json", "verify", "example-1-2")
    assert code == 0
    assert payload["passed"] is True


def test_flags_probe(capsys):
    code, payload = run_json(
        capsys, "--json", "flags", "probe", "--n", "2", "--m", "2", "--height", "2"
    )
    assert code == 0
    assert payload["minimal_connected_H"] == 1
    assert payload["witnesses_failed"] == 0


def test_survey_ranges_and_error_exit(capsys):
    code, payload = run_json(capsys, "--json", "survey", "--d", "2,5", "--n", "2..3")
    assert code == 0 and payload["errors"] == 0
    cells = [(r["d"], r["n"]) for r in payload["rows"]]
    assert cells == [(2, 2), (2, 3), (5, 2), (5, 3)]
    # d = 4 is not squarefree: that cell errors and flips the exit code
    code, payload = run_json(capsys, "--json", "survey", "--d", "4,5", "--n", "2")
    assert code == 2 and payload["errors"] == 1
    assert [r["status"] for r in payload["rows"]] == ["error", "ok"]


def _drop_first_report(text):
    first, rest = text.split("\n", 1)
    row = json.loads(first)
    del row["report"]
    return json.dumps(row) + "\n" + rest


def _truncate_last_line(text):
    return text[: len(text) - 40]


@pytest.mark.parametrize("damage", [_drop_first_report, _truncate_last_line])
def test_survey_recovers_from_damaged_cache(capsys, tmp_path, monkeypatch, damage):
    args = ["survey", "--d", "2,5", "--n", "2"]
    code, fresh = run(capsys, *args)
    assert code == 0
    cache = tmp_path / "c.jsonl"
    assert run(capsys, *args, "--cache", str(cache)) == (0, fresh)
    cache.write_text(damage(cache.read_text()))

    calls = []
    real = verify.bounds_report
    monkeypatch.setattr(
        verify, "bounds_report", lambda d, n: calls.append((d, n)) or real(d, n)
    )
    assert run(capsys, *args, "--cache", str(cache)) == (0, fresh)
    assert len(calls) == 1
    calls.clear()
    assert run(capsys, *args, "--cache", str(cache)) == (0, fresh)
    assert calls == []


def test_global_flags_after_subcommand(capsys):
    code_a, out_a = run(capsys, "--json", "bounds", "--d", "5", "--n", "2")
    code_b, out_b = run(capsys, "bounds", "--d", "5", "--n", "2", "--json")
    assert code_a == code_b == 0
    assert json.loads(out_a) == json.loads(out_b)


def test_bad_inputs_exit_two(capsys):
    assert main(["ring", "info", "--d", "12"]) == 2
    assert main(["flags", "probe", "--n", "2", "--m", "2", "--height", "0"]) == 2
    assert main(["bounds", "--d", "10", "--n", "1"]) == 2


@pytest.mark.parametrize(
    "group", ["json:[[1,2]]", "json:[[[1,0]]]", "json:[[[1,0],[0,1],[1,1]]]", "json:5"]
)
def test_coinv_rejects_malformed_generators(capsys, group):
    code = main(["steinberg", "coinv", "--n", "2", "--q", "3", "--group", group])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:") and err.count("\n") == 1


def test_budget_exhaustion_exit_two(capsys):
    assert main(["building", "homology", "--n", "3", "--q", "3", "--budget", "10"]) == 2


def test_missing_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
