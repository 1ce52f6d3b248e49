"""Workload ``cli-cold``: sequential cold ``python -m icotk.cli`` processes
over a fixed list of README commands, one at a time (closed loop).  One
geometry-bound command (4-5 s) and six light ones make a round of about
5 s, so that a run repeats every command."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import gen
from common import (
    BENCH_DIR,
    ROOT,
    Checker,
    Setups,
    closed_loop,
    digest,
    expect,
    round_seconds,
    temp_dir,
    strip_millis,
)

# Result digests (envelope ``result`` with every "millis" removed) of the
# commands whose input does not depend on the seed.
PINNED = {
    "unit-reduce": "511280d9ead98091",
    "genus-2": "63f6a1f477009237",
    "groebner-s1s2": "f597fe06e60fa286",
}

SETUP_REPEATS = 25
CHILD_TIMEOUT = 60  # seconds; a geometry-bound command takes about 5


class Command:
    def __init__(self, label, kind, argv, code, check=None):
        self.label = label
        self.kind = kind  # "geo" | "light"
        self.argv = list(argv)
        self.code = code
        self.check = check  # result dict -> list of problems; None = pinned digest


def _in_process(argv) -> dict:
    """The result of ``icotk.cli.run(argv)`` in this process, without millis."""
    from icotk.cli import run

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run(argv)
    return strip_millis(json.loads(buf.getvalue())["result"])


def build_commands(seed: int, workdir: str) -> list:
    """The command list for one seed; writes the @file payload into workdir
    and computes every expected answer that needs no fixed geometry."""
    from icotk.algebra import P4, Poly, poly_parse

    rng = random.Random(seed)
    v = gen.family_vector(rng, 5)
    nu = rng.randint(1, 10**6)
    d, absF = rng.randint(1, 12), rng.randint(1, 10**6)
    a = gen.fermat_coefficients(rng)

    F = gen.family_curve_n1(v)
    curve_file = os.path.join(workdir, "family-curve.txt")
    with open(curve_file, "w", encoding="utf-8") as fh:
        fh.write(str(F) + "\n")
    linear = Poly.zero(P4)
    for i, c in enumerate(v):
        linear = linear + Poly.variable(P4, f"x{i}") * c

    def model_check(res):
        ftilde = poly_parse(res["f_tilde"], P4)
        return (expect("degree", res.get("degree"), ftilde.degree())
                + expect("degree_bound", res.get("degree_bound"), 128 * 12)
                + expect("within_degree_bound", res.get("within_degree_bound"), True)
                + expect("f~ in (sigma_2, sigma_4, v.x)", gen.contains_image(ftilde, linear),
                         True))

    def digest_check(want):
        return lambda res: expect("result digest", digest(res), digest(want))

    s1 = "x0 + x1 + x2 + x3 + x4"
    s2 = "+".join(f"x{i}*x{j}" for i in range(5) for j in range(i + 1, 5))
    # Seeded values that may start with "-" are attached to their flag.
    cmds = [
        Command("containing-model", "geo", ["containing-model", "-F", "@" + curve_file], 0,
                model_check),
        Command("unit-reduce", "light", ["fermat", "unit-reduce", "-a", "1,-1,2,1,-3",
                                         "-n", "1", "-x", "1,1,1,1,1"], 0),
        Command("genus-2", "light", ["genus", "-n", "2"], 0),
        Command("groebner-s1s2", "light", ["groebner", "-i", f"{s1};{s2}"], 0),
    ]
    for label, argv in (
        ("bound-thmE", ["bound", "thmE", "--nu", str(nu)]),
        ("bound-corD", ["bound", "corD", "-d", str(d), "--absF", str(absF)]),
        ("bound-corF", ["bound", "corF", "-a" + ",".join(map(str, a))]),
    ):
        cmds.append(Command(label, "light", argv, 0, digest_check(_in_process(argv))))
    return cmds


def _child(cmd: Command, env, spans_file=None):
    if spans_file is None:
        argv = [sys.executable, "-m", "icotk.cli", *cmd.argv]
    else:
        argv = [sys.executable, os.path.join(BENCH_DIR, "launcher.py"), spans_file, *cmd.argv]
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    return proc.returncode, json.loads(proc.stdout)


def _verify(cmd: Command, out) -> list:
    code, envelope = out
    problems = expect("exit code", code, cmd.code)
    problems += expect("schema", envelope.get("schema"), "icotk-report/1")
    result = strip_millis(envelope.get("result"))
    if cmd.check is None:
        problems += expect("result digest", digest(result), PINNED[cmd.label])
    else:
        problems += cmd.check(result)
    return problems


def run_round(cmds, checker: Checker, env, tracer=None, workdir=None, setups=None) -> dict:
    """One round over the commands; seconds by kind of command."""
    samples = {"geo": [], "light": []}
    for i, cmd in enumerate(cmds):
        spans_file = None if tracer is None else os.path.join(workdir, f"spans-{i}.json")
        outs = []

        def call(cmd=cmd, spans_file=spans_file):
            outs.append(_child(cmd, env, spans_file))
            return outs[-1]

        samples[cmd.kind].append(
            checker.run(cmd.label, call, lambda out, cmd=cmd: _verify(cmd, out)))
        if setups is not None:
            setups.between_ops()
        if tracer is not None and os.path.exists(spans_file):
            tracer.absorb_child(spans_file, cmd.label)
            if outs:
                tracer.handler_ms.append(outs[-1][1]["millis"])
    return samples


def workload(seed: int, seconds: float, trace: bool, clock):
    """Untraced: rounds for ``seconds``.  Traced: one untraced and one
    traced round; the overhead is the difference of their times."""
    checker = Checker(clock)
    env = dict(os.environ)
    with temp_dir("cli") as workdir:
        import icotk.cli  # noqa: F401  (import and bytecode before any timing)

        setups = Setups(lambda: build_commands(seed, workdir),
                        1 if trace else SETUP_REPEATS, seconds, checker.clock)
        cmds = setups.state
        if not trace:
            rounds = closed_loop(lambda: run_round(cmds, checker, env, setups=setups), seconds)
            return checker, setups.median(), rounds, None
        from launcher import ChildSpans

        untraced = run_round(cmds, checker, env)
        tracer = ChildSpans()
        traced = run_round(cmds, checker, env, tracer, workdir)
        layer = tracer.report(round_seconds(traced) - round_seconds(untraced))
        return checker, setups.median(), [untraced], layer
