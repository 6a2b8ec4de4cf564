"""Command-line surface: output shapes, exit codes, flag placement."""

import hashlib
import json
import sys
import time

import pytest

import oracles as o
import steinberg.cli as cli
import steinberg.quadratic as quadratic
import steinberg.stmodule as stmodule
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


def test_ring_info_past_the_step_cap_exits_2(capsys, monkeypatch):
    # a unit whose continued fraction outruns the step cap is a budget
    # error: exit 2 with one line, no traceback
    monkeypatch.setattr(quadratic, "CF_STEP_CAP", 2)
    code = main(["ring", "info", "--d", "94"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "budget error: continued fraction period exceeds step cap 2\n"


def test_building_homology(capsys):
    code, payload = run_json(capsys, "--json", "building", "homology", "--n", "3", "--q", "2")
    assert code == 0
    assert payload["reduced_ranks"] == {"0": 0, "1": 8}
    assert payload["expected_top_rank"] == 8
    assert payload["concentrated"] is True and payload["passes"] is True
    assert payload["cells"] == [14, 21]


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ("building", "homology", "--n", "5", "--q", "2"),
            '{"cells": [372, 4650, 13020, 9765], "concentrated": true, '
            '"expected_top_rank": 1024, "n": 5, "passes": true, "q": 2, '
            '"reduced_ranks": {"0": 0, "1": 0, "2": 0, "3": 1024}, "top_degree": 3}\n',
        ),
        (
            ("flags", "probe", "--n", "3", "--m", "3", "--height", "2"),
            '{"H": 2, "m": 3, "minimal_connected_H": 1, "n": 3, "ranks": [0, 320], '
            '"witnesses_failed": 0}\n',
        ),
        (
            ("building", "homology", "--n", "4", "--q", "5"),
            '{"cells": [1118, 14508, 29016], "concentrated": true, '
            '"expected_top_rank": 15625, "n": 4, "passes": true, "q": 5, '
            '"reduced_ranks": {"0": 0, "1": 0, "2": 15625}, "top_degree": 2}\n',
        ),
        (
            ("flags", "probe", "--n", "3", "--m", "2", "--height", "2"),
            '{"H": 2, "m": 2, "minimal_connected_H": 1, "n": 3, "ranks": [0, 0], '
            '"witnesses_failed": 0}\n',
        ),
        (
            ("flags", "probe", "--n", "3", "--m", "4", "--height", "3"),
            '{"H": 3, "m": 4, "minimal_connected_H": 1, "n": 3, "ranks": [0, 1848], '
            '"witnesses_failed": 0}\n',
        ),
        (
            ("ring", "info", "--d", "2"),
            '{"D": 8, "d": 2, "float_note": "50 significant digits internally; printed at '
            'double precision", "fundamental_unit": {"a": 1, "b": 1, "denom": 1, "norm": -1}, '
            '"h": 1, "h_narrow": 1, "norm_minus_one": true, "signature": [2, 0], '
            '"unit_log_embedding": [0.881373587019543, -0.881373587019543]}\n',
        ),
        (
            ("ring", "info", "--d", "5"),
            '{"D": 5, "d": 5, "float_note": "50 significant digits internally; printed at '
            'double precision", "fundamental_unit": {"a": 1, "b": 1, "denom": 2, "norm": -1}, '
            '"h": 1, "h_narrow": 1, "norm_minus_one": true, "signature": [2, 0], '
            '"unit_log_embedding": [0.48121182505960347, -0.48121182505960347]}\n',
        ),
        (
            ("ring", "info", "--d", "-3"),
            '{"D": -3, "d": -3, "fundamental_unit": null, "h": 1, "h_narrow": 1, '
            '"norm_minus_one": false, "signature": [0, 1]}\n',
        ),
        (
            ("steinberg", "apartments", "--n", "4", "--q", "4"),
            '{"apartment_span_rank": 4096, "n": 4, "passes": true, "q": 4, '
            '"steinberg_dim": 4096}\n',
        ),
        (
            ("steinberg", "apartments", "--n", "3", "--q", "8"),
            '{"apartment_span_rank": 512, "n": 3, "passes": true, "q": 8, '
            '"steinberg_dim": 512}\n',
        ),
        (
            ("building", "homology", "--n", "4", "--q", "3"),
            '{"cells": [210, 1560, 2080], "concentrated": true, '
            '"expected_top_rank": 729, "n": 4, "passes": true, "q": 3, '
            '"reduced_ranks": {"0": 0, "1": 0, "2": 729}, "top_degree": 2}\n',
        ),
        (
            ("building", "homology", "--n", "4", "--q", "4"),
            '{"cells": [527, 5355, 8925], "concentrated": true, '
            '"expected_top_rank": 4096, "n": 4, "passes": true, "q": 4, '
            '"reduced_ranks": {"0": 0, "1": 0, "2": 4096}, "top_degree": 2}\n',
        ),
    ],
)
def test_homology_json_bytes_are_pinned(capsys, argv, want):
    # the exact bytes printed when every boundary was ranked with all its
    # rows ((5,2), (3,3,2)), or the reversed coboundaries from the top
    # degree down ((4,5), (3,2,2)), or when the Smith reduction behind
    # each completion also tracked V ((3,4,3): a composite m, and two
    # completion rows per 0-vertex gathered by U), or when the quadratic
    # elements carried a full ring arithmetic (ring info: an integral
    # unit, a half-integer unit and an imaginary order), or when every
    # apartment class canonicalised each of its subset spans with its own
    # rref (apartments over F_4 and F_8), or when the boundary rows were
    # built from a face tuple per simplex and normalised again ((4,3) and
    # (4,4), the building workload's two complexes)
    code, out = run(capsys, *argv, "--json")
    assert code == 0
    assert out == want


@pytest.mark.parametrize(
    "height, m, want",
    [
        (20, 2, '{"H": 20, "m": 2, "minimal_connected_H": 1, "n": 2, "ranks": [0], '
                '"witnesses_failed": 0}\n'),
        (30, 3, '{"H": 30, "m": 3, "minimal_connected_H": 1, "n": 2, "ranks": [88], '
                '"witnesses_failed": 0}\n'),
    ],
)
def test_flags_probe_json_bytes_are_pinned(capsys, height, m, want):
    # the exact bytes printed when every candidate set went through a
    # completion and each height was ranked in every degree
    argv = ("flags", "probe", "--n", "2", "--m", str(m), "--height", str(height), "--json")
    assert run(capsys, *argv) == (0, want)


def test_apartments(capsys):
    code, payload = run_json(capsys, "--json", "steinberg", "apartments", "--n", "2", "--q", "5")
    assert code == 0
    assert payload["apartment_span_rank"] == payload["steinberg_dim"] == 5
    assert payload["passes"] is True


def test_apartments_four_three(capsys):
    code, payload = run_json(capsys, "--json", "steinberg", "apartments", "--n", "4", "--q", "3")
    assert code == 0
    assert payload["apartment_span_rank"] == payload["steinberg_dim"] == 729


def test_apartments_failed_check_exits_one(capsys, monkeypatch):
    # every frame gets the class of the standard frame: the basis check must fail
    real = stmodule.apartment_class

    def standard_class(module, frame):
        return real(module, [[int(i == j) for i in range(module.n)] for j in range(module.n)])

    monkeypatch.setattr(stmodule, "apartment_class", standard_class)
    code = main(["steinberg", "apartments", "--n", "2", "--q", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("verification failed:") and captured.err.count("\n") == 1


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


GL_JSON = {
    2: "json:[[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 0], [0, 1]]]",
    3: "json:[[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]], "
    "[[2, 0, 0], [0, 1, 0], [0, 0, 1]]]",
}
# two SL_3(F_3) transvections, E_12(1) and E_13(1): not signed permutations
# in the module basis, and their coinvariants are nonzero
SL_PAIR_JSON = "json:[[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 0], [0, 0, 1]]]"


@pytest.mark.parametrize(
    "n, group, twist, want",
    [
        (2, "gl", None, '{"coinvariants_dim": 0, "group": "gl", "n": 2, "q": 3, '
                        '"steinberg_dim": 3, "twisted": false}\n'),
        (2, "gl", "[-1, -1, -1]", '{"coinvariants_dim": 0, "group": "gl", "n": 2, "q": 3, '
                                  '"steinberg_dim": 3, "twisted": true}\n'),
        (2, "sl", None, '{"coinvariants_dim": 0, "group": "sl", "n": 2, "q": 3, '
                        '"steinberg_dim": 3, "twisted": false}\n'),
        (2, "sl", "[-1, -1]", '{"coinvariants_dim": 0, "group": "sl", "n": 2, "q": 3, '
                              '"steinberg_dim": 3, "twisted": true}\n'),
        (2, "trivial", None, '{"coinvariants_dim": 3, "group": "trivial", "n": 2, "q": 3, '
                             '"steinberg_dim": 3, "twisted": false}\n'),
        (2, "trivial", "[-1]", '{"coinvariants_dim": 0, "group": "trivial", "n": 2, "q": 3, '
                               '"steinberg_dim": 3, "twisted": true}\n'),
        (2, GL_JSON[2], None,
         '{"coinvariants_dim": 0, "group": "json:[[[1, 1], [0, 1]], [[0, 1], [1, 0]], '
         '[[2, 0], [0, 1]]]", "n": 2, "q": 3, "steinberg_dim": 3, "twisted": false}\n'),
        (2, GL_JSON[2], "[-1, -1, -1]",
         '{"coinvariants_dim": 0, "group": "json:[[[1, 1], [0, 1]], [[0, 1], [1, 0]], '
         '[[2, 0], [0, 1]]]", "n": 2, "q": 3, "steinberg_dim": 3, "twisted": true}\n'),
        (3, "gl", None, '{"coinvariants_dim": 0, "group": "gl", "n": 3, "q": 3, '
                        '"steinberg_dim": 27, "twisted": false}\n'),
        (3, "gl", "[-1, -1, -1]", '{"coinvariants_dim": 0, "group": "gl", "n": 3, "q": 3, '
                                  '"steinberg_dim": 27, "twisted": true}\n'),
        (3, "sl", None, '{"coinvariants_dim": 0, "group": "sl", "n": 3, "q": 3, '
                        '"steinberg_dim": 27, "twisted": false}\n'),
        (3, "sl", "[-1, -1, -1, -1, -1, -1]",
         '{"coinvariants_dim": 0, "group": "sl", "n": 3, "q": 3, '
         '"steinberg_dim": 27, "twisted": true}\n'),
        (3, "trivial", None, '{"coinvariants_dim": 27, "group": "trivial", "n": 3, "q": 3, '
                             '"steinberg_dim": 27, "twisted": false}\n'),
        (3, "trivial", "[-1]", '{"coinvariants_dim": 0, "group": "trivial", "n": 3, "q": 3, '
                               '"steinberg_dim": 27, "twisted": true}\n'),
        (3, GL_JSON[3], None,
         '{"coinvariants_dim": 0, "group": "json:[[[1, 1, 0], [0, 1, 0], [0, 0, 1]], '
         '[[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[2, 0, 0], [0, 1, 0], [0, 0, 1]]]", '
         '"n": 3, "q": 3, "steinberg_dim": 27, "twisted": false}\n'),
        (3, GL_JSON[3], "[-1, -1, -1]",
         '{"coinvariants_dim": 0, "group": "json:[[[1, 1, 0], [0, 1, 0], [0, 0, 1]], '
         '[[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[2, 0, 0], [0, 1, 0], [0, 0, 1]]]", '
         '"n": 3, "q": 3, "steinberg_dim": 27, "twisted": true}\n'),
        (3, SL_PAIR_JSON, None,
         '{"coinvariants_dim": 3, "group": "json:[[[1, 1, 0], [0, 1, 0], [0, 0, 1]], '
         '[[1, 0, 1], [0, 1, 0], [0, 0, 1]]]", "n": 3, "q": 3, "steinberg_dim": 27, '
         '"twisted": false}\n'),
        (3, SL_PAIR_JSON, "[1, 1]",
         '{"coinvariants_dim": 3, "group": "json:[[[1, 1, 0], [0, 1, 0], [0, 0, 1]], '
         '[[1, 0, 1], [0, 1, 0], [0, 0, 1]]]", "n": 3, "q": 3, "steinberg_dim": 27, '
         '"twisted": true}\n'),
        (3, SL_PAIR_JSON, "[1, -1]",
         '{"coinvariants_dim": 0, "group": "json:[[[1, 1, 0], [0, 1, 0], [0, 0, 1]], '
         '[[1, 0, 1], [0, 1, 0], [0, 0, 1]]]", "n": 3, "q": 3, "steinberg_dim": 27, '
         '"twisted": true}\n'),
    ],
)
def test_coinv_json_bytes_are_pinned(capsys, n, group, twist, want):
    # the exact bytes printed when every generator's relation rows were
    # eliminated, before single +-1 columns were merged by union-find; the
    # SL pair was taken when only whole signed permutations were merged
    argv = ["steinberg", "coinv", "--n", str(n), "--q", "3", "--group", group, "--json"]
    if twist is not None:
        argv += ["--twist", twist]
    assert run(capsys, *argv) == (0, want)


@pytest.mark.parametrize(
    "argv, sha256, length",
    [
        (
            ("survey", "--d", "2,3,5,-1,-5,-23", "--n", "2..4", "--json"),
            "2490f8014cd168984d4b4c2c3109cccb80d9af5a030acebdcc3af9b98f331f70",
            17952,
        ),
        (
            ("survey", "--d", "-3..-1", "--n", "2..3", "--json"),
            "4f812242614932f8776bec9b34d0caf886f0ef8e5760d3516f2d936a4561bddd",
            5946,
        ),
        (
            ("ring", "info", "--d", "1000003", "--json"),
            "5d1d3edf4f84d74d90575c37cda62e6c48a6ee9308f1897f2b7029f6c9a23d6e",
            798,
        ),
    ],
)
def test_survey_json_bytes_are_pinned(capsys, argv, sha256, length):
    # the survey and long ring-info lines CI runs: a change to any row,
    # the row order, a unit's digits or the JSON layout shows here
    code, out = run(capsys, *argv)
    data = out.encode()
    assert code == 0
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, length)


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


def test_flags_probe_text_at_rank_one_names_no_degrees(capsys):
    code, out = run(capsys, "flags", "probe", "--n", "1", "--m", "2", "--height", "2")
    assert code == 0
    assert out.splitlines()[1] == "reduced ranks: none, as n = 1 has no degrees 0..n-2"


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
        verify, "bounds_report", lambda inv, n: calls.append((inv.d, n)) or real(inv, n)
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
    "d,n,message",
    [("12", "2", "d=12 must be squarefree and not 0 or 1"), ("10", "1", "n must be at least 2")],
    ids=["bad-d", "n-below-2"],
)
def test_bounds_bad_input_is_one_line(capsys, d, n, message):
    assert main(["bounds", "--d", d, "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_lower_bound_past_the_cap_is_refused(capsys):
    # (3 - 1)^(20000000 - 1) has over 6 million digits
    assert main(["bounds", "--d", "-23", "--n", "20000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget error: lower bound (3 - 1)^(20000000 - 1) has more than 10000 digits\n"
    )
    code, payload = run_json(capsys, "survey", "--d", "-23", "--n", "3,20000000", "--json")
    assert code == 2 and payload["errors"] == 1
    ok, refused = payload["rows"]
    assert ok["status"] == "ok" and ok["report"]["verdicts"]["lower_bound"] == 4
    assert refused == {
        "d": -23,
        "n": 20000000,
        "status": "error",
        "error": "BudgetExceededError: " + captured.err.removeprefix("budget error: ").strip(),
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "80", "--q", "2", "--group", "sl"],
        ["--n", "20000", "--q", "2", "--group", "gl"],
        ["--n", "120", "--q", "9", "--group", "sl"],
        ["--n", "20000", "--q", "2", "--group", "trivial"],
        ["--n", "20000", "--q", "2", "--group", "json:[]", "--twist", "[]"],
    ],
)
def test_coinv_counts_the_building_before_any_generator(capsys, monkeypatch, argv):
    # sl_generators(120, 9) alone would be 2 * 120 * 119 dense 120 x 120 matrices
    def spy(*args, **kwargs):
        raise AssertionError("generators made before the budget check")

    for name in ("gl_generators", "sl_generators", "trivial_generators", "_parse_matrices"):
        monkeypatch.setattr(cli, name, spy)
    assert main(["steinberg", "coinv"] + argv) == 2
    q, n = argv[3], argv[1]
    assert capsys.readouterr().err == (
        f"budget error: building of F_{q}^{n} exceeds the budget of 200000 simplices\n"
    )


def test_flags_probe_over_budget_exits_two(capsys):
    code = main(["flags", "probe", "--n", "2", "--m", "2", "--height", "3", "--budget", "5"])
    assert code == 2
    assert "budget error" in capsys.readouterr().err


def test_flags_probe_budget_exit_is_one_line(capsys):
    # (3,2,1) has 2514 simplices; the triangles are counted before listing
    code = main(["flags", "probe", "--n", "3", "--m", "2", "--height", "1", "--budget", "400"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "budget error: B complex exceeds budget 400\n"


def test_survey_accepts_a_negative_range(capsys):
    joined = run(capsys, "survey", "--d=-7..-1", "--n", "2", "--json")
    spaced = run(capsys, "survey", "--d", "-7..-1", "--n", "2", "--json")
    assert spaced == joined
    code, out = spaced
    # d = -4 is not squarefree: one error row, so exit 2
    assert code == 2
    assert [r["d"] for r in json.loads(out)["rows"]] == list(range(-7, 0))


def test_single_negative_values_unchanged(capsys):
    spaced = run(capsys, "bounds", "--d", "-23", "--n", "3", "--json")
    assert spaced == run(capsys, "bounds", "--d=-23", "--n", "3", "--json")
    code, out = spaced
    assert code == 0 and json.loads(out)["inputs"]["d"] == -23
    assert run(capsys, "bounds", "--d", "-23", "--n", "3")[0] == 0


@pytest.mark.parametrize(
    "group",
    ["json:[[1,2]]", "json:[[[1,0]]]", "json:[[[1,0],[0,1],[1,1]]]", "json:5", "foo", "GL"],
)
def test_coinv_rejects_malformed_generators(capsys, group):
    code = main(["steinberg", "coinv", "--n", "2", "--q", "3", "--group", group])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:") and err.count("\n") == 1
    if not group.startswith("json:"):
        # an unknown name is not read as JSON; the message lists the choices
        assert all(w in err for w in ("gl", "sl", "trivial", "json:<list of matrices>"))
    elif group != "json:5":
        assert err == "input error: generator must be a 2 x 2 integer matrix\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["--n", "4", "--q", "7", "--budget", "300000", "--group",
             "json:[[[1,0,0,0],[0,0,0,0],[0,0,1,0],[0,0,0,1]]]"],
            "generator is not invertible",
        ),
        (
            ["--n", "4", "--q", "7", "--budget", "300000", "--group", "json:[[[1,0],[0,1]]]"],
            "generator must be a 4 x 4 integer matrix",
        ),
        (
            ["--n", "2", "--q", "4", "--group", "json:[[[-1,0],[0,1]]]"],
            "entry -1 is not an element of F_4: use the codes 0..3",
        ),
        (
            # a bad twist and a bad generator: the twist is named
            ["--n", "2", "--q", "3", "--group", "json:[[[1,0,0]]]", "--twist", "[1, 1]"],
            "twist length does not match generator count",
        ),
    ],
    ids=["singular", "wrong-shape", "f4-minus-one", "twist-first"],
)
def test_coinv_checks_generators_before_the_module_is_built(capsys, monkeypatch, argv, err):
    def spy(*args, **kwargs):
        raise AssertionError("module built before the generators were checked")

    monkeypatch.setattr(cli, "steinberg_module", spy)
    assert main(["steinberg", "coinv"] + argv) == 2
    assert capsys.readouterr() == ("", f"input error: {err}\n")


@pytest.mark.parametrize("q, minus_one", [(4, 1), (9, 2)])
def test_coinv_reads_prime_power_entries_as_element_codes(capsys, q, minus_one):
    # -1 is the element 1 of F_4 and 2 of F_9; read mod q it would name
    # another element, so it is refused, and the element's own code works
    argv = ["steinberg", "coinv", "--n", "2", "--q", str(q), "--group"]
    assert main(argv + ["json:[[[-1,0],[0,1]]]"]) == 2
    err = f"input error: entry -1 is not an element of F_{q}: use the codes 0..{q - 1}\n"
    assert capsys.readouterr() == ("", err)
    want = {4: "4 (module dimension 4)", 9: "5 (module dimension 9)"}[q]
    got = run(capsys, *argv, f"json:[[[{minus_one},0],[0,1]]]")
    assert got == (0, f"coinvariants dimension = {want}\n")


@pytest.mark.parametrize("n", ["1", "0", "-1"])
def test_coinv_gl_rejects_too_small_n(capsys, n):
    code = main(["steinberg", "coinv", "--n", n, "--q", "3", "--group", "gl"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "twist",
    [
        "json:[1.5,1,1]",
        "json:[-1.7,1,1]",
        "json:[true,1,-1]",
        'json:["-1",1,1]',
        "json:[1.0,1,1]",
        "json:[2,1,1]",
        "json:5",
        'json:{"1":1}',
    ],
)
def test_coinv_rejects_malformed_twist(capsys, twist):
    argv = ["steinberg", "coinv", "--n", "2", "--q", "3", "--group", "gl", "--twist", twist]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "group, twist, message",
    [
        ("gl", "json:5", "input error: --twist must be a list of the integers 1 and -1\n"),
        ("gl", "json:[1, -1]", "input error: twist length does not match generator count\n"),
        ("trivial", "[1, 1]", "input error: twist length does not match generator count\n"),
        ("json:[[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]", "[]",
         "input error: twist length does not match generator count\n"),
    ],
)
def test_coinv_rejects_twist_before_the_build(capsys, monkeypatch, group, twist, message):
    # the Steinberg module of (4,5) takes over a second to build; a twist
    # that cannot apply is rejected before it is started
    def spy(*args, **kwargs):
        raise AssertionError("steinberg_module called before the twist was checked")

    monkeypatch.setattr(cli, "steinberg_module", spy)
    argv = ["steinberg", "coinv", "--n", "4", "--q", "5", "--group", group, "--twist", twist]
    assert main(argv) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("flag", ["--group", "--twist"])
def test_coinv_rejects_deeply_nested_json(capsys, flag):
    # json.loads raises RecursionError here, not JSONDecodeError; a second
    # --group overrides the first
    argv = ["steinberg", "coinv", "--n", "2", "--q", "3", "--group", "gl"]
    assert main(argv + [flag, "json:" + "[" * 100000]) == 2
    assert capsys.readouterr().err == f"input error: {flag} JSON is nested too deeply\n"


def test_budget_exhaustion_exit_two(capsys):
    assert main(["building", "homology", "--n", "3", "--q", "3", "--budget", "10"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["building", "homology", "--n", "7", "--q", "2"],
        ["building", "homology", "--n", "5", "--q", "3"],
        ["building", "homology", "--n", "6", "--q", "2"],
        ["steinberg", "coinv", "--n", "5", "--q", "3", "--group", "gl"],
        ["steinberg", "apartments", "--n", "7", "--q", "2"],
    ],
)
def test_oversized_building_exits_two_at_once(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("budget error:") and err.count("\n") == 1
    assert elapsed < 2.0


@pytest.mark.parametrize("d", ["5..2", "3..3,9..8", ",", "", " , "])
def test_survey_rejects_reversed_or_empty_range(capsys, d):
    code = main(["survey", "--d", d, "--n", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["steinberg", "coinv", "--n", "2", "--q", "3", "--group", "gl", "--twist", "nope"],
         "--twist"),
        (["steinberg", "coinv", "--n", "2", "--q", "3", "--group", "json:["], "--group"),
        (["survey", "--d", "2..", "--n", "2"], "--d"),
        (["survey", "--d", "2..x", "--n", "2"], "--d"),
        (["survey", "--d", "2,,3", "--n", "2"], "--d"),
        (["survey", "--d", "2,", "--n", "2"], "--d"),
        (["survey", "--d", "2", "--n", "2,,3"], "--n"),
        (["survey", "--d", "2", "--n", ""], "--n"),
        (["survey", "--d", "2", "--n", "3..2"], "--n"),
    ],
)
def test_bad_flag_value_message_names_the_flag(capsys, argv, flag):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {flag} ") and captured.err.count("\n") == 1


def test_survey_rejects_reversed_n_range(capsys):
    assert main(["survey", "--d", "2", "--n", "3..2"]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_missing_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--d", "5", "--n", "2", "--budget", "3", "--cache", "x"],
        ["bounds", "--d", "5", "--n", "2", "--budget", "3"],
        ["ring", "info", "--d", "5", "--cache", "x"],
        ["--budget", "5", "building", "homology", "--n", "2", "--q", "2"],
        ["--cache", "x", "survey", "--d", "2", "--n", "2"],
        ["verify", "example-1-2", "--budget", "5"],
    ],
)
def test_flags_only_where_read(capsys, argv):
    # --budget and --cache are usage errors wherever nothing reads them
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "steinberg: error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["building", "homology", "--n", "3", "--q", "2"],
        ["steinberg", "apartments", "--n", "3", "--q", "2"],
        ["steinberg", "coinv", "--n", "3", "--q", "2", "--group", "gl"],
        ["flags", "probe", "--n", "2", "--m", "2", "--height", "3"],
        ["survey", "--d", "2", "--n", "2..4"],
    ],
)
def test_budget_is_read_where_accepted(capsys, argv):
    assert main(argv + ["--budget", "2"]) == 2
    assert capsys.readouterr().err.startswith("budget error:")


def test_survey_budget_counts_cells_before_listing_any(capsys):
    # 10**12 values of d would exhaust memory long before they were listed
    start = time.perf_counter()
    code = main(["survey", "--d", f"1..{10**12}", "--n", "2", "--json"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"budget error: survey of {10**12} cells exceeds the budget of 200000\n"
    )
    assert elapsed < 0.5
    # the budget bounds cells: d x n, repeats included
    assert main(["survey", "--d", "2,2,3", "--n", "2..3", "--budget", "5"]) == 2
    assert capsys.readouterr().err == (
        "budget error: survey of 6 cells exceeds the budget of 5\n"
    )
    code, payload = run_json(capsys, "survey", "--d", "2,2,3", "--n", "2..3", "--budget", "6",
                             "--json")
    assert code == 0 and len(payload["rows"]) == 6


def _huge_unit(order):
    # (1 + sqrt 2)^12001 has norm -1, as the true unit of Z[sqrt 2] does,
    # and coefficients of 4,594 digits, past Python's default str limit
    return quadratic.RingElement(2, *o.pair_power(2, 1, 1, 12001))


def test_ring_info_prints_a_huge_unit(capsys, monkeypatch):
    monkeypatch.setattr(quadratic, "fundamental_unit", _huge_unit)
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit()
    code, out = run(capsys, "ring", "info", "--d", "2", "--json")
    assert code == 0
    # main lifts the limit only while it runs; reading the digits back
    # lifts it here
    assert get_limit() == limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        unit = _huge_unit(None)
        assert len(str(unit.a)) > 4300
        assert json.loads(out)["fundamental_unit"] == {
            "a": unit.a, "b": unit.b, "denom": 1, "norm": -1
        }
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv",
    [
        ["flags", "probe", "--n", "1", "--m", "2", "--height", "99999999999"],
        ["flags", "probe", "--n", "2", "--m", "2", "--height", "99999999999"],
        ["flags", "probe", "--n", "2", "--m", "2", "--height", "400"],
        ["ring", "info", "--d", "2"],
        ["ring", "info", "--d", "2", "--json"],
        ["ring", "info", "--d", "1000000000000000003"],
        ["ring", "info", "--d", "1000000000001"],
        ["survey", "--d", "2,3", "--n", "2", "--json"],
        ["bounds", "--d", "2", "--n", "2", "--json"],
        ["steinberg", "coinv", "--n", "2", "--q", "3", "--group", "json:" + "[" * 100000],
        ["steinberg", "coinv", "--n", "2", "--q", "3", "--group", "gl",
         "--twist", "json:" + "[" * 100000],
        ["steinberg", "coinv", "--n", "2", "--q", "3", "--group", "gl",
         "--twist", "json:[true,1,-1]"],
        ["steinberg", "coinv", "--n", "1", "--q", "3", "--group", "gl"],
        ["steinberg", "coinv", "--n", "4", "--q", "5", "--group", "gl", "--twist", "json:5"],
        ["survey", "--d", f"1..{10**12}", "--n", "2"],
        ["survey", "--d", "5..2", "--n", "2"],
        ["bounds", "--d", "12", "--n", "2"],
        ["bounds", "--d", "-23", "--n", "20000000"],
        ["building", "homology", "--n", "7", "--q", "2"],
        ["steinberg", "coinv", "--n", "80", "--q", "2", "--group", "sl"],
        ["steinberg", "coinv", "--n", "20000", "--q", "2", "--group", "gl"],
        ["steinberg", "coinv", "--n", "3", "--q", "1", "--group", "trivial"],
    ],
    ids=lambda argv: " ".join(argv)[:60],
)
def test_edge_inputs_exit_cleanly(capsys, monkeypatch, argv):
    # d = 2 answers with a unit past the default int-to-str digit limit.
    # Each input answers at once: flags probe counts its vertices against
    # the budget before product lists a huge range, and before (2,2,400)
    # certifies its 390,000 or so vertices
    monkeypatch.setattr(quadratic, "fundamental_unit", _huge_unit)
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err.count("\n") <= 1
    assert elapsed < 1.0
