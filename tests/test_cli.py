import importlib
import json
import re
import shlex
import sys
import time
from pathlib import Path

import pytest

import qdense
from qdense.cli import main
from qdense.denseness import (
    NOT_DENSE,
    RuleApplication,
    ValuationGap,
    Verdict,
    decide,
    verdict_from_dict,
)
from qdense.forms import DiagonalForm
from qdense.oracle import quotient_coverage

HERE = Path(__file__).resolve().parent

# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def test_decide_dense_exit_0(capsys):
    code = main(["decide", "--n", "3", "--coeffs", "1,1", "--p", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Dense" in out


def test_decide_not_dense_exit_1(capsys):
    code = main(["decide", "--n", "3", "--coeffs", "1,2", "--p", "7"])
    assert code == 1


def test_decide_inconclusive_exit_2(capsys):
    code = main(["decide", "--n", "2", "--coeffs", "1,-1", "--p", "5"])
    assert code == 2


def test_decide_zero_coefficient_exit_64(capsys):
    code = main(["decide", "--n", "3", "--coeffs", "0,1", "--p", "5"])
    assert code == 64


def test_decide_usage_error_exit_64(capsys):
    code = main(["decide", "--n", "3", "--coeffs", "1,1"])  # missing --p
    assert code == 64


@pytest.mark.parametrize(
    "argv, code",
    [
        (["decide", "--n", "3", "--coeffs", "1,1", "--p", "4"], 64),
        (["oracle", "--n", "3", "--coeffs", "1,1", "--p", "4"], 64),
        (["aniso", "--n", "3", "--coeffs", "1,1", "--p", "4"], 64),
        (["residues", "--n", "3", "--p", "4", "--M", "1"], 64),
        (["residues", "--n", "3", "--p", "7", "--M", "0"], 64),
        (["lift", "--c", "2", "--n", "-2", "--p", "7", "--prec", "3"], 64),
        (["lift", "--c", "2", "--n", "0", "--p", "7", "--prec", "3"], 64),
        (["oracle", "--n", "3", "--coeffs", "1,1", "--p", "7", "--K", "0"], 64),
        (["oracle", "--n", "3", "--coeffs", "1,1", "--p", "7", "--box", "-1"], 64),
        (["decide", "--n", "0", "--coeffs", "1,1", "--p", "7"], 64),
        (["decide", "--n", "3", "--coeffs", "x,1", "--p", "7"], 64),
        (["decide", "--n", "2", "--coeffs", "1,-1", "--p", "5", "--budget", "-1"], 64),
        (["decide", "--n", "3", "--coeffs", "1,1,1", "--p", "7", "--budget", "10"], 0),
        (["aniso", "--n", "3", "--coeffs", "1,1,1", "--p", "7", "--budget", "10"], 65),
        (["residues", "--n", "3", "--p", "7", "--M", "3", "--budget", "10"], 65),
        (["lift", "--c", "2", "--n", "3", "--p", "5", "--prec", "4", "--budget", "2"],
         65),
        (["oracle", "--n", "3", "--coeffs", "1,1", "--p", "7", "--V", "-2"], 64),
        (["lift", "--c", "8", "--n", "3", "--p", "5", "--prec", "0"], 64),
        (["survey", "--input", str(HERE / "no-such-survey-input.jsonl")], 64),
        (["survey", "--input", str(HERE)], 64),
        (["decide", "--n", "9", "--coeffs", "1,2", "--p", "3", "--budget", "26"], 65),
        (["survey", "--n-list", "3", "--p-list", "7", "--coeff-range", "1", "2",
          "--vars", "0"], 64),
        (["survey", "--n-list", "3", "--p-list", "7", "--coeff-range", "1", "2",
          "--vars", "-1"], 64),
        (["oracle", "--n", "3", "--coeffs", "1,1", "--p", "7", "--json", "--csv"], 64),
        (["oracle", "--n", "3", "--coeffs", "1,1", "--p", "11", "--box", "1", "--K", "3",
          "--budget", "1000"], 65),
        (["survey", "--n-list", "3,x", "--p-list", "7", "--coeff-range", "1", "2"], 64),
        (["oracle", "--n", "3", "--coeffs", "1,2", "--p", "13", "--box", "1",
          "--K", "30000000"], 65),
        (["oracle", "--n", "3", "--coeffs", "1,2", "--p", "7", "--box", "1", "--K", "1",
          "--V", "1000000", "--budget", "1000"], 65),
        (["decide", "--n", "3", "--coeffs", "1,a", "--p", "7"], 64),
        (["residues", "--n", "0", "--p", "7", "--M", "1"], 64),
        (["lift", "--c", "8", "--n", "3", "--p", "5", "--prec", "-1"], 64),
        (["aniso", "--n", "1", "--coeffs", "1,1", "--p", "7"], 64),
        # 41 * 43 has no factor up to 37, so Miller-Rabin rejects it.
        (["decide", "--n", "3", "--coeffs", "1,1", "--p", "1763"], 64),
    ],
)
def test_bad_input_fails_closed(argv, code, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert ("error" in err) == (code != 0)
    assert "<lambda>" not in err


ORACLE = "oracle --n 3 --coeffs 1,1 --p 7"
SURVEY = "survey --n-list 3 --p-list 7 --coeff-range 1 2"


@pytest.mark.parametrize(
    "argv, message",
    [
        (f"{ORACLE} --K 0", "unit precision K must be >= 1, got 0"),
        (f"{ORACLE} --box -1", "box bound B must be >= 0, got -1"),
        (f"{ORACLE} --V -2", "valuation window V must be >= 0, got -2"),
        (f"{SURVEY} --vars 0", "--vars must be >= 1, got 0"),
        ("residues --n 0 --p 7 --M 1", "exponent n must be >= 1, got 0"),
        ("lift --c 1/5 --n 3 --p 5 --prec 0", "precision K must be >= 1, got 0"),
        # No float power p^prec is built for the int-to-str limit test.
        ("lift --c 8 --n 3 --p 5 --prec -1" + "0" * 400, "precision K must be >= 1"),
    ],
    ids=["K", "box", "V", "vars", "residues-n", "prec", "huge-negative-prec"],
)
def test_integer_bounds_are_checked_by_the_library(argv, message, capsys):
    assert main(argv.split()) == 64
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("survey --json",
         "survey needs --input FILE or all of --n-list/--p-list/--coeff-range"),
        ("lift --c abc --n 3 --p 5 --prec 4", "cannot parse rational 'abc'"),
    ],
    ids=["survey-no-input", "lift-c"],
)
def test_usage_errors_name_the_missing_or_bad_argument(argv, message, capsys):
    assert main(argv.split()) == 64
    assert capsys.readouterr().err == f"error: {message}\n"


def test_oracle_table_over_the_budget_fails_closed_within_a_second(capsys):
    # The coverage table is charged before the 201^3-point box is walked.
    argv = ["oracle", "--n", "3", "--coeffs", "1,2,5", "--p", "3", "--box", "100",
            "--K", "14", "--check"]
    start = time.perf_counter()
    assert main(argv) == 65
    assert time.perf_counter() - start < 1
    assert "coverage table exceeds budget" in capsys.readouterr().err


def test_r5_pair_count_over_the_budget_fails_closed_within_a_second(capsys):
    # 2000 * 1999 / 2 subform pairs, each an R1 decision, take seconds
    # uncharged; over the budget R5 records one skip and tries none.
    argv = ["decide", "--n", "4", "--coeffs", ",".join(["1"] * 2000), "--p", "5"]
    start = time.perf_counter()
    assert main([*argv, "--budget", "10"]) == 2
    assert time.perf_counter() - start < 1
    assert "subform search skipped" in capsys.readouterr().out


def test_survey_list_error_names_the_expected_format(capsys):
    argv = ["survey", "--n-list", "3", "--p-list", "7,x", "--coeff-range", "1", "2"]
    assert main(argv) == 64
    assert "expected comma-separated integers, got '7,x'" in capsys.readouterr().err


def test_coeffs_error_names_the_expected_format(capsys):
    assert main(["decide", "--n", "3", "--coeffs", "1,a", "--p", "7"]) == 64
    assert "expected comma-separated integers, got '1,a'" in capsys.readouterr().err


def test_decide_json_round_trips(capsys):
    code = main(["decide", "--n", "4", "--coeffs", "1,1", "--p", "2", "--json"])
    out = capsys.readouterr().out
    assert code == 1
    parsed = verdict_from_dict(json.loads(out))
    assert parsed == decide(DiagonalForm(4, (1, 1)), 2)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_check_consistent(capsys):
    code = main(
        [
            "oracle",
            "--n", "6", "--coeffs", "1,5,25", "--p", "5",
            "--box", "8", "--K", "1", "--check",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "NotDense" in out
    assert "consistent" in out
    assert "[0, 1, 2, 4, 5]" in out  # valuation residue 3 never observed


def test_oracle_coverage_full(capsys):
    code = main(
        ["oracle", "--n", "3", "--coeffs", "1,1", "--p", "7", "--box", "20", "--K", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "coverage 1.000" in out


def test_oracle_budget_exit_65(capsys):
    code = main(
        ["oracle", "--n", "3", "--coeffs", "1,1", "--p", "7", "--box", "100000000"]
    )
    assert code == 65


def test_budget_env_var(monkeypatch, capsys):
    monkeypatch.setenv("QDENSE_BUDGET", "10")
    code = main(
        ["oracle", "--n", "3", "--coeffs", "1,1", "--p", "7", "--box", "5"]
    )
    assert code == 65  # 7^2 = 49 units and (2*5+1)^2 = 121 points exceed 10
    monkeypatch.setenv("QDENSE_BUDGET", "1000")
    code = main(
        ["oracle", "--n", "3", "--coeffs", "1,1", "--p", "7", "--box", "5"]
    )
    capsys.readouterr()
    assert code == 0
    monkeypatch.setenv("QDENSE_BUDGET", "abc")
    code = main(["decide", "--n", "3", "--coeffs", "1,1", "--p", "7"])
    assert code == 64
    assert "QDENSE_BUDGET must be an integer, got 'abc'" in capsys.readouterr().err


def test_oracle_check_contradiction_exit_3(monkeypatch, capsys):
    # A fabricated certificate forbidding valuation 0, which x^3 + y^3 hits.
    fabricated = Verdict(
        NOT_DENSE,
        [RuleApplication("R2", "fabricated")],
        ValuationGap(7, 3, frozenset({0})),
    )
    monkeypatch.setattr("qdense.cli.decide", lambda *args, **kwargs: fabricated)
    code = main(f"{ORACLE} --box 5 --K 1 --check".split())
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert lines[-2:] == [
        "certificate check: CONTRADICTION "
        "(quotient valuation 0 = 0 mod 3 is forbidden)",
        "  witness pair: ((-5, 0), (-5, 0))",
    ]


def test_oracle_check_without_certificate(capsys):
    code = main(f"{ORACLE} --box 5 --K 1 --check".split())
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[-2:] == [
        "engine verdict: Dense",
        "certificate check: nothing to check (no certificate)",
    ]


def test_oracle_json(capsys):
    assert main(f"{ORACLE} --box 6 --K 1 --json".split()) == 0
    report = quotient_coverage(DiagonalForm(3, (1, 1)), 7, B=6, K=1, V=3)
    assert capsys.readouterr().out == report.to_json() + "\n"


def test_oracle_csv(capsys):
    code = main(
        [
            "oracle", "--n", "3", "--coeffs", "1,1", "--p", "5",
            "--box", "6", "--K", "1", "--csv",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "valuation,1,2,3,4"


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------


def test_survey_generator_counts_and_verdicts(capsys):
    code = main(
        [
            "survey",
            "--n-list", "3", "--p-list", "7",
            "--coeff-range", "1", "6", "--json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 36
    from qdense.padic import inverse_mod

    cubes = {1, 6}
    for row in rows:
        a, b = (int(c) for c in row["coeffs"].split(","))
        expect = "Dense" if -inverse_mod(a, 7) * b % 7 in cubes else "NotDense"
        assert row["status"] == expect, row


def test_survey_rows_deterministic(capsys):
    args = ["survey", "--n-list", "3,4", "--p-list", "2,3",
            "--coeff-range", "-2", "2", "--json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_survey_rule_is_the_deciding_rule(tmp_path, capsys):
    # R5 decides x^4 - y^4 + 3z^4 at p = 5 through a dense binary subform,
    # whose R1 entries end the trace.
    path = tmp_path / "queries.jsonl"
    path.write_text('{"n": 4, "coeffs": [1, -1, 3], "p": 5}\n')
    trace = decide(DiagonalForm(4, (1, -1, 3)), 5).trace
    assert tuple(e.rule for e in trace) == ("R5", "R1", "R1")
    code = main(["survey", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1] == '4,"1,-1,3",5,Dense,R5,,'


def test_survey_input_file(tmp_path, capsys):
    path = tmp_path / "queries.jsonl"
    path.write_text(
        '{"n": 3, "coeffs": [1, 1], "p": 3}\n'
        '{"n": 3, "coeffs": [1, 2], "p": 7}\n'
        '{"n": 2, "coeffs": [1, 1], "p": 3}\n'
    )
    code = main(["survey", "--input", str(path), "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["status"] for r in rows] == ["Dense", "NotDense", "NotDense"]


@pytest.mark.parametrize(
    "line",
    [
        '{"n": 3, "p": 7}',
        '{"n": 3, "coeffs": 5, "p": 7}',
        "[3, [1, 1], 7]",
        '{"n": "3", "coeffs": [1, 1], "p": 7}',
        '{"n": 3, "coeffs": [1.5, 1], "p": 7}',
        "n=3 coeffs=1,1 p=7",
    ],
)
def test_survey_input_wrong_shape_exit_64(tmp_path, capsys, line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 3, "coeffs": [1, 1], "p": 7}\n' + line + "\n")
    assert main(["survey", "--input", str(path)]) == 64
    assert f"{path} line 2: expected" in capsys.readouterr().err


def test_survey_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code = main(["survey", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[0].startswith("n,coeffs,p,status")


SURVEY_MIX = (
    '{"n": 3, "coeffs": [1, 1], "p": 3}\n'
    '{"n": 3, "coeffs": [1, 2], "p": 7}\n'
    '{"n": 3, "coeffs": [1, 21], "p": 7}\n'
    '{"n": 2, "coeffs": [1, -1], "p": 5}\n'
    '{"n": 4, "coeffs": [1, -1, 3], "p": 5}\n'
    '{"n": 1, "coeffs": [1, 1], "p": 3}\n'
    '{"n": 3, "coeffs": [0, 5], "p": 5}\n'
    '{"n": 3, "coeffs": [1, 1], "p": 4}\n'
)


def test_survey_json_is_indent_2_bytes(tmp_path, capsys):
    """`survey --json` prints exactly json.dumps(rows, indent=2), here over
    Dense, NotDense (both certificate kinds), Inconclusive and error rows."""
    path = tmp_path / "mix.jsonl"
    path.write_text(SURVEY_MIX)
    assert main(["survey", "--input", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    rows = json.loads(out)
    assert out == json.dumps(rows, indent=2) + "\n"
    assert [(r["status"], r["rule"], r["certificate"]) for r in rows[:5]] == [
        ("Dense", "R1", ""),
        ("NotDense", "R1", "ValuationGap"),
        ("NotDense", "R1", "ResidueGap"),
        ("Inconclusive", "R6", ""),
        ("Dense", "R5", ""),
    ]
    assert all(r["error"] and not r["status"] for r in rows[5:])


def test_survey_csv_bytes(tmp_path, capsys):
    path = tmp_path / "mix.jsonl"
    path.write_text(SURVEY_MIX)
    assert main(["survey", "--input", str(path)]) == 0
    assert capsys.readouterr().out == (
        "n,coeffs,p,status,rule,certificate,error\r\n"
        '3,"1,1",3,Dense,R1,,\r\n'
        '3,"1,2",7,NotDense,R1,ValuationGap,\r\n'
        '3,"1,21",7,NotDense,R1,ResidueGap,\r\n'
        '2,"1,-1",5,Inconclusive,R6,,\r\n'
        '4,"1,-1,3",5,Dense,R5,,\r\n'
        '1,"1,1",3,,,,degree must be >= 2\r\n'
        '3,"0,5",5,,,,coefficients must be nonzero\r\n'
        '3,"1,1",4,,,,4 is not prime\r\n'
    )


def test_survey_empty_input_json(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n")
    assert main(["survey", "--input", str(path), "--json"]) == 0
    assert capsys.readouterr().out == "[]\n"


@pytest.mark.parametrize(
    "grid, budget, code",
    [
        (["--n-list", "3", "--p-list", "5", "--coeff-range", "-100", "100",
          "--vars", "4"], "1000", 65),
        (["--n-list", "3", "--p-list", "5", "--coeff-range", "-100", "100",
          "--vars", "1000000000"], "1000", 65),
        (["--n-list", "3,4", "--p-list", "7", "--coeff-range", "-1", "1"], "8", 0),
        (["--n-list", "3,4", "--p-list", "7", "--coeff-range", "-1", "1"], "7", 65),
        (["--n-list", "3", "--p-list", "7", "--coeff-range", "1", "1",
          "--vars", "1000000000"], "0", 65),
    ],
)
def test_survey_grid_is_charged_to_the_budget(grid, budget, code, capsys):
    """|n-list|*|p-list|*|coeffs|^vars forms over the budget exit 65 before
    any form is decided, so an oversized grid is never built."""
    assert main(["survey", *grid, "--budget", budget]) == code
    captured = capsys.readouterr()
    assert ("exceeds budget" in captured.err) == (code == 65)
    assert bool(captured.out) == (code == 0)


def test_survey_row_over_the_budget_is_decided_without_building_p_to_the_r(
    tmp_path, capsys
):
    # R4's (p^r - 1)/(p - 1) vectors at r = 300000 and p = 2^61 - 1: the
    # charge refuses them before p^r (seconds to build) exists.
    path = tmp_path / "wide.jsonl"
    path.write_text(json.dumps({"n": 2, "coeffs": [1] * 300_000, "p": 2**61 - 1}))
    start = time.perf_counter()
    assert main(["survey", "--input", str(path), "--budget", "1000"]) == 0
    assert time.perf_counter() - start < 3
    assert capsys.readouterr().out.endswith(f",{2**61 - 1},Inconclusive,R6,,\r\n")


def test_survey_row_error_recorded(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"n": 1, "coeffs": [1, 1], "p": 3}\n'
        '{"n": 3, "coeffs": [1, 1], "p": 7}\n'
    )
    code = main(["survey", "--input", str(path), "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rows[0]["error"]
    assert rows[1]["status"] == "Dense"


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------


def test_lift_cube_root_of_minus_one(capsys):
    code = main(["lift", "--c", "-1", "--n", "3", "--p", "3", "--prec", "5", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert pow(out["root"], 3, 3**5) == (-1) % 3**5
    assert out["root"] % 3 == 2


def test_lift_trivial_root(capsys):
    code = main(["lift", "--c", "1", "--n", "5", "--p", "7", "--prec", "10", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["root"] == 1


def test_lift_no_root(capsys):
    code = main(["lift", "--c", "5", "--n", "3", "--p", "5", "--prec", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert "NoRoot" in err


def test_lift_fractional_input(capsys):
    code = main(["lift", "--c", "8/27", "--n", "3", "--p", "5", "--prec", "6", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    x = out["root"]
    assert x**3 * 27 % 5**6 == 8 % 5**6


@pytest.fixture
def default_int_digit_limit():
    """Python's default int-to-str limit of 4300 digits, whatever the
    interpreter was started with."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_lift_precision_stops_at_the_int_digit_limit(
    fmt, default_int_digit_limit, capsys
):
    # 5^6151 has 4300 decimal digits and 5^6152 has 4301, one past the limit;
    # --prec 80000 took 42 s to lift before failing to print.
    argv = ["lift", "--c", "2", "--n", "3", "--p", "5"] + fmt
    assert main(argv + ["--prec", "6151"]) == 0
    out = capsys.readouterr().out
    root = json.loads(out)["root"] if fmt else int(out.split()[2])
    assert pow(root, 3, 5**6151) == 2
    for prec in ("6152", "80000"):
        assert main(argv + ["--prec", prec]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and f"--prec {prec}" in captured.err


# ---------------------------------------------------------------------------
# residues / aniso
# ---------------------------------------------------------------------------


def test_residues_dump(capsys):
    code = main(["residues", "--n", "3", "--p", "7", "--M", "1", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["members"] == [1, 6]


def test_aniso_command(capsys):
    code = main(["aniso", "--n", "2", "--coeffs", "1,1", "--p", "3", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["anisotropic"] is True
    code = main(["aniso", "--n", "2", "--coeffs", "1,-1", "--p", "3", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert out == {"anisotropic": False, "witness": [1, 1]}


# ---------------------------------------------------------------------------
# exit codes across a randomized survey
# ---------------------------------------------------------------------------


def test_exit_codes_match_status_randomized(capsys):
    import random

    rng = random.Random(33)
    for _ in range(1000):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        n = rng.choice([3, 4, 5, 6])
        a = rng.choice([-10, -6, -3, -1, 1, 2, 5, 9])
        b = rng.choice([-10, -6, -3, -1, 1, 2, 5, 9])
        code = main(
            ["decide", "--n", str(n), f"--coeffs={a},{b}", "--p", str(p)]
        )
        capsys.readouterr()
        verdict = decide(DiagonalForm(n, (a, b)), p)
        assert code == {"Dense": 0, "NotDense": 1, "Inconclusive": 2}[verdict.status]


# ---------------------------------------------------------------------------
# the README's CLI block and the packaging metadata
# ---------------------------------------------------------------------------


def test_readme_cli_block_runs_and_pyproject_matches_the_package(capsys):
    root = HERE.parent
    readme = (root / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = [x for x in block.splitlines() if x.startswith("qdense ")]
    assert lines
    for line in lines:
        code = main(shlex.split(line, comments=True)[1:])
        capsys.readouterr()
        stated = re.search(r"# exit (\d+)", line)
        assert code in ({int(stated[1])} if stated else {0, 1, 2}), line
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    module, _, name = project["scripts"]["qdense"].partition(":")
    assert getattr(importlib.import_module(module), name) is main
    assert project["version"] == qdense.__version__
