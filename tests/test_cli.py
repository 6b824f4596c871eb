"""Command-line contract: golden JSON records, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import webpolar
import webpolar.cli as cli
from webpolar.cli import main
from webpolar.exprparse import MAX_SOURCE_LENGTH
from webpolar.weblab import DegenerateSampleError

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_CASES = [
    ("ring.json", 0, ["ring", "--n", "2", "c^2", "--format", "json"]),
    ("conormal.json", 0, ["conormal", "--n", "3", "--j", "1", "--format", "json"]),
    (
        "char_web.json",
        0,
        ["char-web", "--n", "2", "--p", "1", "--k", "1", "2*h + c", "--format", "json"],
    ),
    (
        "polar_variety.json",
        0,
        ["polar", "--n", "3", "--a", "4,8,28", "--q", "2", "--j", "1", "--format", "json"],
    ),
    (
        "polar_web.json",
        0,
        ["polar", "--n", "2", "--d", "2,1", "--s", "1", "--format", "json"],
    ),
    (
        "check.json",
        2,
        ["check", "--n", "2", "--q", "1", "--a", "5,15", "--d", "1,2", "--format", "json"],
    ),
    ("bound.json", 0, ["bound", "--k", "1", "--d", "1,3,9", "--format", "json"]),
    (
        "web_curve.json",
        0,
        ["web", "--f", "p^2 - y", "--curve", "4*y - x^2", "--seed", "7", "--format", "json"],
    ),
    ("web_plain.json", 0, ["web", "--f", "p^2 - x", "--seed", "11", "--format", "json"]),
]


class TestGoldenRecords:
    @pytest.mark.parametrize("name,expected_code,argv", GOLDEN_CASES)
    def test_byte_identical_output(self, capsys, name, expected_code, argv):
        code, out, _ = run(capsys, *argv)
        assert code == expected_code
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("name,expected_code,argv", GOLDEN_CASES)
    def test_repeated_runs_are_identical(self, capsys, name, expected_code, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_same_bytes_under_python_optimize(self):
        # -O strips assert statements: the internal cross-checks must not be
        # asserts, and the records must not depend on them
        script = (
            "import contextlib, io, json, sys\n"
            "from webpolar.cli import main\n"
            "assert not __debug__\n"
            "results = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = main(argv)\n"
            "    results.append([code, out.getvalue()])\n"
            "print(json.dumps(results))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(webpolar.__file__).parent.parent))
        completed = subprocess.run(
            [sys.executable, "-O", "-c", script, json.dumps([argv for _, _, argv in GOLDEN_CASES])],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        expected = [[code, (GOLDEN / name).read_text()] for name, code, _ in GOLDEN_CASES]
        assert json.loads(completed.stdout) == expected

    def test_python_dash_m_prints_the_golden_bytes(self):
        env = dict(os.environ, PYTHONPATH=str(Path(webpolar.__file__).parent.parent))
        completed = subprocess.run(
            [sys.executable, "-m", "webpolar", "ring", "--n", "2", "c^2", "--format", "json"],
            capture_output=True, env=env, timeout=60,
        )
        assert completed.returncode == 0
        assert completed.stdout == (GOLDEN / "ring.json").read_bytes()

    @pytest.mark.parametrize("name,expected_code,argv", GOLDEN_CASES)
    def test_text_mode_exits_as_json_mode(self, capsys, name, expected_code, argv):
        # one exit rule in main: the output format cannot change the status
        text_argv = [arg for arg in argv if arg not in ("--format", "json")]
        code, out, _ = run(capsys, *text_argv)
        assert code == expected_code
        assert out and not out.startswith("{")

    def test_every_subcommand_has_format_and_a_golden(self):
        # a new subcommand cannot ship without the shared wiring or a golden
        actions = cli.build_parser()._actions
        (sub,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
        golden_commands = {argv[0] for _, _, argv in GOLDEN_CASES}
        assert set(sub.choices) == golden_commands
        for name, parser in sub.choices.items():
            (fmt,) = [a for a in parser._actions if "--format" in a.option_strings]
            assert fmt.choices == ("text", "json") and fmt.default == "text"
            assert parser._actions[-1] is fmt, name

    def test_schema_field_order(self, capsys):
        _, out, _ = run(capsys, "ring", "--n", "2", "h", "--format", "json")
        record = json.loads(out)
        assert list(record) == ["command", "inputs", "results", "verdict", "seed"]


class TestVerdictsAndExitCodes:
    def test_inconclusive_check_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "check", "--n", "2", "--q", "1", "--a", "3,3", "--d", "1,2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "INCONCLUSIVE"

    def test_not_invariant_check_exits_two(self, capsys):
        code, out, _ = run(
            capsys, "check", "--n", "2", "--q", "1", "--a", "5,15", "--d", "1,2",
            "--format", "json",
        )
        assert code == 2
        record = json.loads(out)
        assert record["verdict"] == "NOT_INVARIANT"
        assert record["results"]["witness_m"] == 1
        entry = record["results"]["entries"][0]
        assert (entry["lhs"], entry["rhs"]) == (20, 15)

    def test_quartic_equality_case_holds(self, capsys):
        code, out, _ = run(
            capsys, "check", "--n", "3", "--q", "2", "--a", "4,8,28", "--d", "1,2",
            "--format", "json",
        )
        assert code == 0
        entry = json.loads(out)["results"]["entries"][0]
        assert entry["lhs"] == 36 and entry["rhs"] == 36 and entry["holds"] is True

    def test_non_invariant_web_exits_two(self, capsys):
        code, out, _ = run(
            capsys, "web", "--f", "p^2 - x", "--curve", "y", "--seed", "5",
            "--format", "json",
        )
        assert code == 2
        assert json.loads(out)["verdict"] == "NOT_INVARIANT"

    def test_violated_bound_check_exits_two(self, capsys):
        # an invariant curve above the bound (its closure is singular, so
        # the smoothness premise fails) must be flagged with exit status 2
        code, out, _ = run(
            capsys, "web", "--f", "x*p - 5*y", "--curve", "y - x^5", "--seed", "2",
            "--format", "json",
        )
        assert code == 2
        record = json.loads(out)
        assert record["verdict"] == "INVARIANT"
        assert record["results"]["bound_check"] == "violated"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("f,curve", [("p^2 - x", "y"), ("x*p - 5*y", "y - x^5")],
                             ids=["not-invariant", "violated"])
    def test_web_exit_two_in_both_formats(self, capsys, fmt, f, curve):
        assert run(capsys, "web", "--f", f, "--curve", curve, "--format", fmt)[0] == 2

    def test_parse_error_exits_one(self, capsys):
        code, _, err = run(capsys, "ring", "--n", "2", "h^^2")
        assert code == 1
        assert "column 3" in err

    def test_usage_error_exits_one(self, capsys):
        # q below p violates the hypothesis of the inequalities
        code, _, err = run(capsys, "check", "--n", "2", "--q", "0", "--a", "0,1", "--d", "1,2")
        assert code == 1
        assert err

    @pytest.mark.parametrize("d,message", [
        ("1,-5", "d_1 + d_0 = -4 is negative, so no degree d >= 1 satisfies (d-1)^1 <= -4"),
        ("1,2,-3", "d_2 + d_1 = -1 is negative, so no degree d >= 1 satisfies (d-1)^2 <= -1"),
        ("1", "--d needs at least d_0,d_1, got '1'"),
    ], ids=["m=1", "m=2", "d_0-alone"])
    def test_bound_names_the_entries_it_cannot_use(self, d, message):
        # a negative entry warns first; the error names the entries, not the
        # root extraction or an ambient dimension the user never gave
        env = dict(os.environ, PYTHONPATH=str(Path(webpolar.__file__).parent.parent))
        completed = subprocess.run(
            [sys.executable, "-m", "webpolar", "bound", "--d", d],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert (completed.returncode, completed.stdout) == (1, "")
        assert completed.stderr.splitlines()[-1] == f"webpolar: error: {message}"

    @pytest.mark.parametrize("argv", [
        ["polar", "--n", "2", "--d", "1", "--s", "1"],
        ["check", "--n", "2", "--q", "1", "--a", "5,15", "--d", "1"],
        ["bound", "--d", "1"],
        ["bound", "--n", "3", "--d", "1"],
    ], ids=["polar", "check", "bound", "bound-n"])
    def test_one_entry_d_is_refused_by_its_own_name(self, capsys, argv):
        # one message for every command that reads a web's --d, never one
        # about a plane dimension p = 0 the user did not give
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == "webpolar: error: --d needs at least d_0,d_1, got '1'"

    def test_vector_length_mismatch_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "check", "--n", "3", "--q", "2", "--a", "1,2", "--d", "1,2")
        assert code == 1

    def test_unknown_argument_exits_one(self, capsys):
        code, _, _ = run(capsys, "ring", "--n", "2", "h", "--bogus")
        assert code == 1

    def test_missing_subcommand_exits_one(self, capsys):
        assert run(capsys)[0] == 1

    @pytest.mark.parametrize(
        "f",
        ["(" * 3000 + "p" + ")" * 3000, "9" * 5000 + "*p", "p^100000", "p+" * 60000 + "p"],
        ids=["nesting", "literal", "exponent", "length"],
    )
    def test_oversized_input_is_a_parse_error(self, capsys, f):
        code, out, err = run(capsys, "web", "--f", f, "--seed", "1")
        assert code == 1
        assert out == "" and "parse error" in err

    def test_expansion_past_the_cap_exits_one(self, capsys):
        code, out, err = run(capsys, "web", "--f", "(x+y+p)^200", "--seed", "1")
        assert (code, out) == (1, "")
        assert err == ("webpolar: parse error: line 1, column 8: expansion may reach "
                       "8120601 terms, more than 10000\n")

    def test_empty_curve_exits_one(self, capsys):
        # as --f "" does: an explicit empty curve is a parse error, not "no curve"
        code, out, err = run(capsys, "web", "--f", "p^2 - x", "--curve", "", "--seed", "1")
        assert (code, out) == (1, "")
        assert err == ("webpolar: parse error: line 1, column 1: expected a number, "
                       "variable or '(', found 'end of input'\n")

    @pytest.mark.parametrize("f", ["x^\u00b2 - p", "x^\u0663 - p"], ids=["superscript", "arabic-indic"])
    def test_non_ascii_digit_exits_one(self, capsys, f):
        code, out, err = run(capsys, "web", "--f", f, "--seed", "1")
        assert (code, out) == (1, "")
        assert err == f"webpolar: parse error: line 1, column 3: unexpected character {f[2]!r}\n"

    def test_constant_web_polynomial_rejected(self, capsys):
        code, _, err = run(capsys, "web", "--f", "5", "--seed", "1")
        assert code == 1
        assert "constant" in err


    @pytest.mark.parametrize(
        "argv",
        [["ring", "--n", "0", "h"], ["char-web", "--n", "0", "--p", "1", "h"]],
        ids=["ring", "char-web"],
    )
    def test_out_of_range_dimension_exits_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("webpolar: error:") and "Traceback" not in err

    def test_dimension_past_the_cap_exits_one(self, capsys):
        code, out, err = run(capsys, "ring", "--n", "101", "h")
        assert (code, out) == (1, "")
        assert err == "webpolar: error: ambient projective dimension 101 is not in 1..100\n"

    def test_ring_expansion_past_the_cap_exits_one(self, capsys):
        code, out, err = run(capsys, "ring", "--n", "100", "(h+c+1)^400")
        assert (code, out) == (1, "")
        assert err == ("webpolar: parse error: line 1, column 8: expansion may reach "
                       "160801 terms, more than 10000\n")

    def test_slope_degree_past_the_cap_exits_one(self, capsys):
        code, out, err = run(capsys, "web", "--f", "p^1000 - x", "--seed", "1")
        assert (code, out) == (1, "")
        assert err == ("webpolar: error: web polynomial has degree 1000 in the slope "
                       "variable p, more than 100\n")

    def test_degenerate_sample_propagates(self, capsys):
        # the lab draws no samples, so a DegenerateSampleError is a bug
        with mock.patch.object(cli, "end_to_end_check",
                               side_effect=DegenerateSampleError("no generic line")):
            with pytest.raises(DegenerateSampleError, match="no generic line"):
                main(["web", "--f", "p^2 - x", "--seed", "1"])

    def test_internal_failure_propagates(self, capsys):
        # consistency checks are RuntimeErrors: a bug, not a usage error
        with mock.patch.object(cli, "integrate",
                               side_effect=RuntimeError("consistency check failed")):
            with pytest.raises(RuntimeError, match="consistency check failed"):
                main(["ring", "--n", "2", "h"])


def _padded(text, pad=" "):
    return text + pad * (MAX_SOURCE_LENGTH - len(text))


# the parser's worst cases at the length limit, each a fresh process
_LONGEST_INPUTS = {
    "trailing-blanks": _padded("x*p - y"),
    "newlines": _padded("x*p - y", "\n"),
    "long-sum": _padded("x*p+" * 24_999 + "y"),
    "nesting": _padded("(" * 100 + "x*p - y" + ")" * 100),
    "literal": _padded("9" * 4000 + "*x*p - y"),
}


class TestLongestInputs:
    @pytest.mark.parametrize("f", _LONGEST_INPUTS.values(), ids=_LONGEST_INPUTS.keys())
    def test_answers_promptly(self, f):
        # a scanner that backtracks (say, a '\s*' prefix on every token) runs
        # for minutes on the blank runs; the timeout turns that into a failure
        assert len(f) == MAX_SOURCE_LENGTH
        env = dict(os.environ, PYTHONPATH=str(Path(webpolar.__file__).parent.parent))
        completed = subprocess.run(
            [sys.executable, "-m", "webpolar", "web", "--f", f, "--seed", "1"],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert completed.returncode in (0, 1)
        assert len(completed.stderr.splitlines()) <= 1

    @pytest.mark.parametrize("argv", [
        ["web", "--f", "+".join(["(x+y+1)^60"] * 9000)],
        ["ring", "--n", "100", "+".join(["(h+c+1)^60"] * 9000)],
    ], ids=["web", "ring"])
    def test_sum_of_powers_is_refused_promptly(self, argv):
        # each power is within the per-operation bound; without the total
        # the 9,000 of them would take some 25 minutes
        env = dict(os.environ, PYTHONPATH=str(Path(webpolar.__file__).parent.parent))
        completed = subprocess.run(
            [sys.executable, "-m", "webpolar", *argv],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert (completed.returncode, completed.stdout) == (1, "")
        assert completed.stderr == ("webpolar: parse error: line 1, column 96: expansions may "
                                    "reach 33489 terms in total, more than 30000\n")


_SMALL = st.integers(-2, 6).map(str)
_VECTOR = st.lists(st.integers(-3, 30), max_size=4).map(lambda v: ",".join(map(str, v)))
_RING_EXPR = st.sampled_from(["h", "c", "h^2*c", "2*h + c", "h - h"])
_GARBAGE = st.sampled_from(["--bogus", "h^^2", "1,,2", "x", "-", "--n", "7"])
_WEB_F = st.sampled_from([
    "p^2 - x", "x*p - y", "p^2 - y", "p", "5", "x", "p^2", "(p - x)^2", "y*p^2 + x*p - 1",
    "(x+y+p)^200", "(x+y+p)^30*(x-y)^30", "x*y*p^", "q*p",
])
_WEB_CURVE = st.sampled_from(["4*y - x^2", "y", "x", "y - x^5", "x^2 + y^2 - 1", "3", "p"])


@st.composite
def cli_argv(draw):
    """A subcommand with small, often out-of-range values, and maybe one
    garbage token somewhere."""
    command = draw(st.sampled_from(
        ["ring", "conormal", "char-web", "polar", "check", "bound", "web"]
    ))
    n = ["--n", draw(_SMALL)]
    if command == "web":
        argv = [command, "--f", draw(_WEB_F), "--seed", draw(_SMALL)]
        if draw(st.booleans()):
            argv += ["--curve", draw(_WEB_CURVE)]
    elif command == "ring":
        argv = [command, *n, draw(_RING_EXPR)]
    elif command == "conormal":
        argv = [command, *n, "--j", draw(_SMALL)]
    elif command == "char-web":
        argv = [command, *n, "--p", draw(_SMALL), "--k", draw(_SMALL), draw(_RING_EXPR)]
    elif command == "polar" and draw(st.booleans()):
        argv = [command, *n, "--a", draw(_VECTOR), "--q", draw(_SMALL), "--j", draw(_SMALL)]
    elif command == "polar":
        argv = [command, *n, "--d", draw(_VECTOR), "--s", draw(_SMALL)]
    elif command == "check":
        argv = [command, *n, "--q", draw(_SMALL), "--a", draw(_VECTOR), "--d", draw(_VECTOR)]
    else:
        argv = [command, *n, "--d", draw(_VECTOR)]
    garbage = draw(st.none() | _GARBAGE)
    if garbage is not None:
        argv.insert(draw(st.integers(1, len(argv))), garbage)
    return argv


class TestExitContract:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=cli_argv())
    def test_exit_code_is_zero_one_or_two(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 1, 2)
        if code == 1:
            assert out == ""


class TestSeedHandling:
    def test_json_web_without_seed(self, capsys):
        code, out, _ = run(capsys, "web", "--f", "p^2 - x", "--format", "json")
        assert code == 0
        record = json.loads(out)
        golden = json.loads((GOLDEN / "web_plain.json").read_text())
        assert record["results"] == golden["results"]
        assert record["seed"] is None

    def test_seed_does_not_change_results(self, capsys):
        results = []
        for seed in ("1", "2"):
            _, out, _ = run(capsys, "web", "--f", "p^2 - y", "--curve", "4*y - x^2",
                            "--seed", seed, "--format", "json")
            results.append(json.loads(out)["results"])
        assert results[0] == results[1]

    def test_text_web_defaults_seed(self, capsys):
        code, out, _ = run(capsys, "web", "--f", "p^2 - x")
        assert code == 0
        assert "degree: 1" in out

    def test_seed_recorded_in_json(self, capsys):
        _, out, _ = run(capsys, "web", "--f", "p^2 - x", "--seed", "3", "--format", "json")
        assert json.loads(out)["seed"] == 3


class TestTextMode:
    def test_ring_text(self, capsys):
        code, out, _ = run(capsys, "ring", "--n", "2", "c^2")
        assert code == 0
        assert out == "canonical: h*c - h^2\nintegral: 0\n"

    def test_ring_top_class(self, capsys):
        _, out, _ = run(capsys, "ring", "--n", "3", "h^3*c^2")
        assert out == "canonical: h^3*c^2\nintegral: 1\n"

    def test_ring_zero(self, capsys):
        _, out, _ = run(capsys, "ring", "--n", "2", "h^3")
        assert out == "canonical: 0\nintegral: 0\n"

    def test_bound_text(self, capsys):
        _, out, _ = run(capsys, "bound", "--k", "1", "--d", "1,2")
        assert "overall: d <= 4" in out

    def test_bound_with_multiplicity_two(self, capsys):
        _, out, _ = run(capsys, "bound", "--k", "2", "--d", "2,1")
        assert "overall: d <= 4" in out

    def test_web_text_report(self, capsys):
        _, out, _ = run(
            capsys, "web", "--f", "p^2 - y", "--curve", "4*y - x^2", "--seed", "7"
        )
        assert "invariant: yes" in out
        assert "bound check: 2 <= 4 holds" in out

    def test_curve_with_leading_minus_attached_by_equals(self, capsys):
        # a separate "-4*y+x^2" would be read as an option, not as the value
        code, out, _ = run(capsys, "web", "--f", "p^2-y", "--curve=-4*y+x^2")
        assert code == 0
        assert out.endswith("verdict: INVARIANT\n")

    def test_ring_expression_with_leading_minus_after_double_dash(self, capsys):
        code, out, _ = run(capsys, "ring", "--n", "2", "--", "-c^2")
        assert code == 0
        assert out == "canonical: -h*c + h^2\nintegral: 0\n"


class TestBigIntegerRendering:
    def test_large_values_become_decimal_strings(self, capsys):
        # a degree well past 53-bit polar data: d = 10^9 on a surface in P^3
        d = 10 ** 9
        a1 = d
        a2 = d * (d - 1) - a1
        a3 = d * (d - 1) ** 2 - a2
        _, out, _ = run(
            capsys, "polar", "--n", "3", "--a", f"{a1},{a2},{a3}", "--q", "2",
            "--j", "2", "--format", "json",
        )
        record = json.loads(out)
        assert record["results"]["degree"] == str(d * (d - 1) ** 2)
        assert isinstance(record["inputs"]["a"][2], str)

    def test_small_values_stay_numeric(self, capsys):
        _, out, _ = run(capsys, "bound", "--k", "1", "--d", "1,2", "--format", "json")
        record = json.loads(out)
        assert record["results"]["overall"] == 4
