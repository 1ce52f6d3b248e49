"""CLI contract: report schema, exit codes, determinism, payload round trips."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from icotk import __version__
from icotk.cli import run


def _invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_report_envelope(capsys):
    code, rep = _invoke(capsys, "bound", "thmE", "--nu", "1")
    assert code == 0
    assert rep["schema"] == "icotk-report/1"
    assert rep["command"]["verb"] == "bound"
    assert rep["command"]["argv"] == ["bound", "thmE", "--nu", "1"]
    assert set(rep["flags"]) == {"gb_steps", "factor_budget", "samples", "seed"}
    assert rep["result"]["log10_bound_decomposition"]["exact"] == "1000000000000"
    assert rep["provenance"] == ["height:ThmE/CorXf"]
    assert rep["millis"] >= 0


def test_determinism_modulo_timing(capsys):
    _, rep1 = _invoke(capsys, "fermat", "scan", "-a", "1,1,1,1,1", "-n", "2", "-B", "4")
    _, rep2 = _invoke(capsys, "fermat", "scan", "-a", "1,1,1,1,1", "-n", "2", "-B", "4")
    rep1.pop("millis"), rep2.pop("millis")
    rep1["result"].pop("millis", None), rep2["result"].pop("millis", None)
    assert rep1 == rep2


def test_tau_check_negative_verdict_exit_code(capsys):
    code, rep = _invoke(capsys, "tau", "check", "-F", "x")
    assert code == 1
    assert rep["result"]["verdict"] == "fails"
    assert rep["result"]["stage"] == "curve-meets-Ctau-off-Ttau"


def test_verify_sampled(capsys):
    code, rep = _invoke(
        capsys, "verify", "--mode", "sampled", "--samples", "5", "--seed", "7"
    )
    assert code == 0
    assert rep["result"]["passed"]
    assert rep["flags"]["samples"] == 5
    assert rep["flags"]["seed"] == 7


def test_usage_errors_exit_two(capsys):
    # a command line argparse rejects gets an envelope, usage goes to stderr
    for argv in (["fermat", "scan", "-a", "1,1,1,1,1"],  # missing -n/-B
                 ["bound", "corF", "-a", "-3/4"]):  # "-3/4" reads as an option
        code, rep = _invoke(capsys, *argv)
        assert code == 2
        assert rep["schema"] == "icotk-report/1"
        assert rep["command"] == {"verb": None, "argv": argv}
        assert rep["flags"] is None
        assert rep["provenance"] == ["input-error"]
        assert "error" in rep["result"]
    # semantic input errors are also exit 2
    code, rep = _invoke(capsys, "family", "curve", "-n", "1", "-v", "1,2")
    assert code == 2
    assert "error" in rep["result"]


def test_fermat_bound_is_bound_corF(capsys):
    reports = [_invoke(capsys, *verb, "-a", "1,-1,2,1,-3")
               for verb in (["fermat", "bound"], ["bound", "corF"])]
    for _, rep in reports:
        del rep["command"], rep["millis"]
    assert reports[0] == reports[1]
    assert reports[0][1]["provenance"] == ["height:CorF"]


@pytest.mark.parametrize("flag, text", [("--help", "usage: icotk"),
                                        ("--version", f"icotk {__version__}")])
def test_help_and_version_keep_argparse_output(capsys, flag, text):
    with pytest.raises(SystemExit) as exc:
        run([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(text)


def test_budget_exit_three(capsys):
    code, rep = _invoke(
        capsys,
        "groebner",
        "-i",
        "x0^2*x1 - x2^3; x1^2*x3 - x4^3; x0*x4 - x2*x3",
        "--gb-steps",
        "3",
    )
    assert code == 3
    assert rep["provenance"] == ["budget-exceeded"]


def test_ico_info_degenerate_exit(capsys):
    code, rep = _invoke(capsys, "ico", "info", "-f", "x0*x1 + x2*x3")
    assert code == 1
    assert rep["result"]["degenerate"] is True
    assert rep["result"]["bound"] is None
    code2, rep2 = _invoke(capsys, "ico", "info", "-f", "x0^3+x1^3+x2^3+x3^3+x4^3")
    assert code2 == 0
    assert rep2["result"]["nu"] == 1
    assert rep2["result"]["is_curve"] is True


def test_family_curve_round_trips_through_parser(capsys):
    code, rep = _invoke(capsys, "family", "curve", "-n", "1", "-v", "1,1,1,1,1")
    assert code == 0
    from icotk.algebra import P2, poly_parse

    F = poly_parse(rep["result"]["F"], P2)
    assert F.degree() == 12
    assert rep["result"]["tau_witness"] is True


def test_file_payload(tmp_path, capsys):
    f = tmp_path / "curve.txt"
    f.write_text("x + 2*y + 5*z\n")
    code, rep = _invoke(capsys, "tau", "check", "-F", f"@{f}")
    assert code == 1
    assert rep["result"]["degrees"]["F"] == 1


def test_fermat_zscan_trivial(capsys):
    code, rep = _invoke(capsys, "fermat", "z-scan", "-B", "4")
    assert code == 0
    assert rep["result"]["is_trivial"] is True


def test_fermat_unit_reduce(capsys):
    code, rep = _invoke(
        capsys,
        "fermat", "unit-reduce", "-a", "1,1,-2,1,1", "-n", "1", "-x", "1,1,1,0,0",
    )
    assert code == 0
    assert rep["result"]["u"] == ["1/2", "1/2"]
    assert rep["result"]["S"] == [2]
    assert rep["result"]["off_surface"] is True


def test_genus_verb(capsys):
    code, rep = _invoke(capsys, "genus", "-n", "3")
    assert code == 0
    assert rep["result"]["genus"] == 49


def test_suite_ttau(capsys):
    code, rep = _invoke(capsys, "suite", "ttau")
    assert code == 0
    assert rep["result"]["passed"] is True
    assert rep["provenance"] == ["suite:ttau"]


def test_division_by_zero_input_exits_two(capsys):
    code, rep = _invoke(capsys, "bound", "thmC", "--dx", "1", "--nu", "1", "--hX", "1/0")
    assert code == 2
    assert rep["schema"] == "icotk-report/1"
    assert rep["provenance"] == ["input-error"]
    assert "error" in rep["result"]


def test_internal_error_gets_its_own_exit_code(capsys, monkeypatch):
    import icotk.cli as cli

    def broken(n):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(cli, "genus_general", broken)
    code, rep = _invoke(capsys, "genus", "-n", "2")
    assert code == 4
    assert rep["provenance"] == ["internal-error"]
    assert rep["result"]["error"] == "AssertionError: invariant broken"


# light commands only: none builds the fixed geometry or runs long.  INT
# slots get integers or payload text, STR slots payload text; text that
# argparse rejects (a non-integer INT, a STR such as "-3/4" that reads as
# an option) must give an input-error envelope too.
LIGHT_COMMANDS = [
    ["bound", "thmE", "--nu", "INT"],
    ["bound", "corD", "-d", "INT", "--absF", "INT"],
    ["bound", "corF", "-a", "STR", "--factor-budget", "2000"],
    ["bound", "thmC", "--dx", "INT", "--nu", "INT", "--hX", "STR"],
    ["genus", "-n", "INT"],
    ["fermat", "bound", "-a", "STR", "--factor-budget", "2000"],
    ["fermat", "unit-reduce", "-a", "STR", "-n", "INT", "-x", "STR", "--factor-budget", "2000"],
    ["groebner", "-i", "STR", "--ring", "x,y,z", "--gb-steps", "200"],
]
FUZZ_TEXT = [
    "0", "1", "-1", "7", "1/0", "0/0", "1/2", "-3/4", "abc", "", " ", "1e3",
    "1e-3", "-2e5", "1,2", "1,1,1,1,1", "1,-1,2,1,-3", "0,0,0,0,0", "2,2,1,1,0",
    "1,1,-2,1,1", "1,1,1,0,0", "x", "x^2 - y*z", "x;;y", "x*y + 1/0", "(x",
    "@/nonexistent/file",
]
EXIT_PROVENANCE = {
    0: None, 1: None, 2: ["input-error"], 3: ["budget-exceeded"], 4: ["internal-error"],
}
INT_TEXT = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(FUZZ_TEXT))


@given(
    st.sampled_from(LIGHT_COMMANDS),
    st.lists(INT_TEXT, min_size=3, max_size=3),
    st.lists(st.sampled_from(FUZZ_TEXT), min_size=3, max_size=3),
)
@example(LIGHT_COMMANDS[3], ["1", "1", "1"], ["1/0", "1/0", "1/0"])  # zero denominators
@example(LIGHT_COMMANDS[2], ["1", "1", "1"], ["-3/4", "1", "1"])  # rejected by argparse
@settings(max_examples=300)
def test_argv_fuzz_one_envelope_per_run(template, ints, texts):
    ints, texts = iter(ints), iter(texts)
    argv = [next(ints) if tok == "INT" else next(texts) if tok == "STR" else tok
            for tok in template]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    rep = json.loads(out.getvalue())  # exactly one JSON document
    assert rep["schema"] == "icotk-report/1"
    assert rep["command"]["argv"] == argv
    assert code in EXIT_PROVENANCE
    assert EXIT_PROVENANCE[code] in (None, rep["provenance"])
    assert code != 4, rep["result"]
