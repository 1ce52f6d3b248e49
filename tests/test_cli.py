"""CLI contract: report schema, exit codes, determinism, payload round trips."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from icotk import __version__, cli
from icotk.cli import run
from icotk.ico_surface import fixed_geometry
from icotk.plane_curves import family_curve


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


@pytest.mark.parametrize("a, B, code, count", [("1,1,1,1,1", "30", 0, 0), ("4,1,1,1,1", "8", 1, 6)])
def test_scan_threads_flag_is_rejected(capsys, a, B, code, count):
    # scans run in one process; neither scan verb takes --threads
    argv = ["fermat", "scan", "-a", a, "-n", "1", "-B", B]
    code1, rep1 = _invoke(capsys, *argv)
    assert code1 == code
    assert rep1["result"]["count"] == count
    for bad in (argv, ["fermat", "z-scan", "-B", B]):
        code2, rep2 = _invoke(capsys, *bad, "--threads", "4")
        assert code2 == 2 and rep2["provenance"] == ["input-error"]


def test_tau_check_negative_verdict_exit_code(capsys):
    code, rep = _invoke(capsys, "tau", "check", "-F", "x")
    assert code == 1
    assert rep["result"]["verdict"] == "fails"
    assert rep["result"]["stage"] == "curve-meets-Ctau-off-Ttau"


def test_max_image_degree_below_one_is_an_input_error(capsys):
    # a failing curve and a family curve that stage 3 would refuse
    family = str(family_curve(1, (1, 2, 3, 4, 5)).F)
    for F in ("x", family):
        for k in ("0", "-1"):
            code, rep = _invoke(capsys, "tau", "check", "-F", F, "--max-image-degree", k)
            assert code == 2, (F, k)
            assert rep["provenance"] == ["input-error"]
            assert "max_image_degree" in rep["result"]["error"]


def test_verify_sampled(capsys):
    code, rep = _invoke(
        capsys, "verify", "--mode", "sampled", "--samples", "5", "--seed", "7"
    )
    assert code == 0
    assert rep["result"]["passed"]
    assert rep["flags"]["samples"] == 5
    assert rep["flags"]["seed"] == 7


def test_cold_tau_paths_never_build_lambda(capsys):
    # C_tau comes from the cubics and lambda(p) from its factored form, so
    # none of these expands the degree-95 lambda in a fresh geometry
    curve = str(family_curve(1, (1, 2, 3, 4, 5)).F)
    for argv, want in (
        (["tau", "check", "-F", "x"], 1),
        (["containing-model", "-F", curve], 0),
        (["verify", "--mode", "sampled", "--samples", "5", "--seed", "7"], 0),
    ):
        fixed_geometry.cache_clear()
        code, _ = _invoke(capsys, *argv)
        assert code == want, argv
        assert "lam" not in vars(fixed_geometry()), argv


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


@pytest.mark.parametrize("argv, error", [
    (["tau", "check", "-F", "0"], "plane curves must be nonzero"),
    (["tau", "check", "-F", "x + 1"], "plane curves must be homogeneous"),
    (["tau", "check", "-F", "3"], "plane curves must have degree >= 1"),
    (["ico", "info", "-f", "0"], "ico model polynomials must be nonzero"),
    (["ico", "info", "-f", "x0 + 1"], "ico model polynomials must be homogeneous"),
    (["ico", "info", "-f", "3"], "ico model polynomials must have degree >= 1"),
])
def test_curves_and_models_refuse_what_is_not_a_form(capsys, argv, error):
    code, rep = _invoke(capsys, *argv)
    assert code == 2 and rep["provenance"] == ["input-error"]
    assert rep["result"]["error"] == error


def test_suite_names_come_from_the_suites(capsys):
    code, rep = _invoke(capsys, "suite", "nosuch")
    assert code == 2 and rep["flags"] is None
    assert "'identities', 'dimensions', 'genus', 'ttau', 'fermat-smoke'" in rep["result"]["error"]


# sha256 of the sorted-key JSON result of "family curve -n 3 -v 1,...,1",
# first 16 hex digits, from before the command passed --gb-steps on
FAMILY_N3_DIGEST = "e1664ddea02dabbb"


def test_family_curve_spends_the_groebner_budget(capsys):
    argv = ["family", "curve", "-n", "3", "-v", ",".join(["1"] * 30)]
    code, rep = _invoke(capsys, *argv)
    assert code == 0 and rep["flags"]["gb_steps"] == 10**7
    text = json.dumps(rep["result"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == FAMILY_N3_DIGEST
    code, rep = _invoke(capsys, *argv, "--gb-steps", "1")
    assert code == 3 and rep["provenance"] == ["budget-exceeded"]


def test_family_curve_builds_the_basis_once(capsys, monkeypatch):
    from icotk import ico_models

    calls = []
    basis_An = ico_models.basis_An

    def counted(*args):
        calls.append(args)
        return basis_An(*args)

    monkeypatch.setattr(ico_models, "basis_An", counted)
    code, rep = _invoke(capsys, "family", "curve", "-n", "3", "-v", ",".join(["1"] * 30))
    assert code == 0 and len(calls) == 1
    text = json.dumps(rep["result"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == FAMILY_N3_DIGEST


@pytest.mark.parametrize("hX, code", [
    ("0eabc", 2), ("1eabc", 2), ("0e", 2), ("0", 0), ("0e5", 0), ("-0", 0),
])
def test_thmC_reads_the_exponent_of_a_zero_height(capsys, hX, code):
    argv = ["bound", "thmC", "--dx", "1", "--nu", "1", "--hX", hX]
    got, rep = _invoke(capsys, *argv)
    assert got == code
    if code:
        assert rep["provenance"] == ["input-error"]
        assert "invalid literal for int" in rep["result"]["error"]
    else:  # h(X) = 0 keeps the bound exact, as with no h(X) at all
        _, plain = _invoke(capsys, "bound", "thmC", "--dx", "1", "--nu", "1")
        assert rep["result"]["log10_bound_decomposition"] == \
            plain["result"]["log10_bound_decomposition"]


def test_containing_model_has_one_parser_entry(capsys):
    # "tau containing-model" was a second spelling of "containing-model"
    argv = ["tau", "containing-model", "-F", "x"]
    code, rep = _invoke(capsys, *argv)
    assert code == 2
    assert rep["command"] == {"verb": None, "argv": argv}
    assert rep["provenance"] == ["input-error"]


def test_negative_digits_is_an_input_error(capsys):
    # a negative digit count would print "0.E+13" for 10^12 + 24*log10(2),
    # below the value; zero digits still give an upper bound
    code, rep = _invoke(capsys, "bound", "thmE", "--nu", "2", "--digits", "-1")
    assert code == 2
    assert rep["provenance"] == ["input-error"]
    assert "digits" in rep["result"]["error"]
    code, rep = _invoke(capsys, "bound", "thmE", "--nu", "2", "--digits", "0")
    assert code == 0
    assert rep["result"]["log10_bound_rendered"] == "2.E+12"


@pytest.mark.parametrize("verb", [["fermat", "bound"], ["bound", "corF"]])
def test_corF_needs_five_coefficients(capsys, verb):
    for a in ("1,2", "1,1,1,1", "1,1,1,1,1,2"):
        code, rep = _invoke(capsys, *verb, "-a", a)
        assert code == 2
        assert rep["provenance"] == ["input-error"]
        assert "five coefficients" in rep["result"]["error"]


@pytest.mark.parametrize("argv", [
    ["groebner", "-i", "x0^2 - x1; x0*x1", "--gb-steps", "-1"],
    ["ico", "info", "-f", "x0*x1 + x2*x3", "--factor-budget", "-5"],
    ["bound", "corF", "-a", "1,1,1,1,2", "--factor-budget", "-1"],
])
def test_negative_budgets_are_input_errors(capsys, argv):
    code, rep = _invoke(capsys, *argv)
    assert code == 2
    assert rep["flags"] is None
    assert rep["provenance"] == ["input-error"]
    assert "must be >= 0" in rep["result"]["error"]
    # zero is a budget: no reduction step, no factoring effort
    argv[-1] = "0"
    code, rep = _invoke(capsys, *argv)
    assert code in (0, 1, 3) and rep["flags"] is not None


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


def test_a_huge_hilbert_numerator_answers_at_once():
    # 1 - t^99999999999 expands at t = 1 as 99999999999 (1 - t) + ...: the
    # degree comes from the numerator's terms, not from a loop over its range
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "icotk.cli", "groebner", "-i", "x0^99999999999"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert (result["dim"], result["degree"]) == (3, 99999999999)


@pytest.mark.parametrize("argv, code, unbuffered", [
    (["fermat", "z-scan", "-B", "30"], 0, False),
    (["fermat", "z-scan", "-B", "30"], 0, True),
    (["tau", "check", "-F", "x"], 1, False),
    (["genus", "-n", "0"], 2, False),
])
def test_a_closed_stdout_keeps_the_exit_code(argv, code, unbuffered):
    # `icotk ... | head -c 10`: the reader has gone before the report is
    # written; the process still exits with its own code and no traceback,
    # whether the write itself or the flush meets the broken pipe
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "icotk.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_too_many_digits_are_refused_before_the_work(capsys):
    # 6000 digits once computed for seconds, then failed in str()
    t0 = time.perf_counter()
    code, rep = _invoke(capsys, "bound", "thmE", "--nu", "7", "--digits", "6000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and rep["provenance"] == ["input-error"]
    assert "--digits" in rep["result"]["error"]


def test_a_deep_hilbert_recursion_answers(capsys):
    # one degree of x0 per pivot would recurse 3000 deep; a pivot on the
    # median power of x0 takes a few steps
    code, rep = _invoke(capsys, "groebner", "-i", "x0^3000*x1 ; x0*x1^3000")
    assert code == 0 and rep["provenance"] == ["groebner-basis"]
    assert (rep["result"]["dim"], rep["result"]["degree"]) == (3, 2)


@pytest.mark.parametrize("depth, code", [(100, 1), (101, 2), (260, 2), (10_000, 2)])
def test_deep_parentheses_are_parsed_or_refused_as_input(capsys, depth, code):
    # each level costs the parser four stack frames, so 260 unchecked levels
    # overflow Python's stack (exit 4, internal-error)
    got, rep = _invoke(capsys, "tau", "check", "-F", "(" * depth + "x" + ")" * depth)
    assert got == code
    if code == 2:
        assert rep["provenance"] == ["input-error"]
        assert rep["result"]["error"] == "parentheses nested deeper than 100 (offset 100)"
    else:
        assert rep["result"]["verdict"] == "fails"


def test_digits_are_checked_before_the_handler(capsys, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "_cmd_containing_model", lambda *a: calls.append(a))
    curve = tmp_path / "curve.txt"
    curve.write_text(str(family_curve(1, (1, 2, 3, 4, 5)).F))
    limit = sys.get_int_max_str_digits()
    for digits in ("-1", str(limit)):
        code, rep = _invoke(capsys, "containing-model", "-F", f"@{curve}", "--digits", digits)
        assert code == 2 and rep["provenance"] == ["input-error"]
        assert rep["result"]["error"].startswith("--digits must be")
        assert rep["flags"] is None  # refused with --gb-steps, before the flags echo
    assert calls == []


def test_lex_basis_keeps_the_grevlex_leading_sign(capsys):
    # basis elements are normalized on the grevlex-leading coefficient under
    # every order: the lex-leading term x2*x3*x4^4 of the first keeps a -1
    code, rep = _invoke(capsys, "groebner", "-i", "x0^2 - x1; x1^2 - x2*x3; x0*x4 - x3^2",
                        "--order", "lex")
    assert code == 0
    assert rep["result"]["basis"][0] == "x3^8 - x2*x3*x4^4"


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

    monkeypatch.setattr(cli.ico_models, "genus_general", broken)
    code = run(["genus", "-n", "2"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 4
    assert rep["provenance"] == ["internal-error"]
    assert rep["result"]["error"] == "AssertionError: invariant broken"
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("AssertionError: invariant broken\n")


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
