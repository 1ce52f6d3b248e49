"""Command-line front end: one JSON report per invocation.

Every invocation writes a single report object to standard output with the
schema tag "icotk-report/1" and exits 0 on success, 1 on a negative
mathematical verdict (a criterion fails, non-trivial points found), 2 on
usage or input errors (a command line that argparse rejects too; its report
has null "flags"), 3 when a work budget is exceeded, and 4 on an internal
error (a bug, reported with provenance "internal-error").  Only --help and
--version print argparse's text instead.  Budget flags are echoed into the
report so runs are reproducible from the payload alone.

The handlers reach the library through its modules (``plane_curves.check_tau``),
never through names bound at import: the package loads each module on first
use, so a command compiles only the modules it reaches.  The package's
exports still read as attributes of this module (``icotk.cli.check_tau``),
resolved on first access.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import (
    __version__,
    algebra,
    fermat,
    groebner,
    heights,
    ico_models,
    ico_surface,
    plane_curves,
)
from .config import (
    DEFAULT_FACTOR_BUDGET,
    DEFAULT_GB_BUDGET,
    FactorBudget,
    GroebnerBudget,
    check_digits,
)
from .errors import BudgetExceededError, IcotkError

SCHEMA = "icotk-report/1"


def __getattr__(name: str):
    """A package export, such as ``check_tau``, on first access (PEP 562).

    The value is then kept as an attribute of this module, so a patch of it
    can be made and undone like one of a name bound at import; a later patch
    of the module that defines it does not reach it."""
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


# ---------------------------------------------------------------------------
# payload helpers
# ---------------------------------------------------------------------------


def _read_payload(text: str) -> str:
    """An inline expression, or @path to read one from a file."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return text


def _csv_ints(text: str):
    return tuple(int(part) for part in text.split(","))


def _csv_fractions(text: str):
    return tuple(Fraction(part) for part in text.split(","))


def _parse_curve(payload: str) -> plane_curves.PlaneCurve:
    return plane_curves.PlaneCurve(algebra.poly_parse(_read_payload(payload), algebra.P2))


def _decomposition(bound) -> dict:
    return {
        "exact": str(bound.E),
        "log_terms": [[m, str(c)] for m, c in bound.terms],
    }


def _certificate_result(cert, digits: int) -> dict:
    return {
        "tag": cert.tag,
        "inputs": {k: str(v) for k, v in cert.inputs},
        "log10_bound_decomposition": _decomposition(cert.bound),
        "log10_bound_rendered": cert.bound.render(digits),
    }


def _scan_result(rep) -> dict:
    return {
        "B": rep.B,
        "strategy": rep.strategy,
        "count": len(rep.points),
        "trivial_count": len(rep.trivial),
        "points": [list(p.coords) for p in rep.points],
        "nontrivial": [list(p.coords) for p in rep.nontrivial],
        "is_trivial": rep.is_trivial,
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (result_dict, provenance_tags, exit_code)
# ---------------------------------------------------------------------------


def _cmd_verify(args, gb, fb):
    rep = ico_surface.verify_identities(
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        symbolic_c=args.symbolic_c,
        budget=gb,
    )
    result = {
        "mode": rep.mode,
        "samples": rep.samples,
        "checks": [{"name": name, "passed": ok} for name, ok in rep.checks],
        "passed": rep.passed,
    }
    return result, ["identities:tau-rho"], 0 if rep.passed else 1


def _cmd_tau_check(args, gb, fb):
    curve = _parse_curve(args.F)
    rep = plane_curves.check_tau(curve, budget=gb, max_image_degree=args.max_image_degree)
    result = {
        "verdict": rep.verdict,
        "stage": rep.stage,
        "witness": rep.witness,
        "image_ideal": [str(g) for g in rep.image_gens],
        "degrees": {
            "F": curve.degree,
            "image_pieces": [m for m, _ in rep.image_pieces],
        },
        "millis": rep.millis,
    }
    return result, ["criterion-tau"], 0 if rep.satisfies else 1


def _cmd_containing_model(args, gb, fb):
    curve = _parse_curve(args.F)
    tau_rep = plane_curves.check_tau(curve, budget=gb)
    if not tau_rep.satisfies:
        result = {
            "verdict": tau_rep.verdict,
            "stage": tau_rep.stage,
            "witness": tau_rep.witness,
        }
        return result, ["criterion-tau"], 1
    rep = plane_curves.containing_model(curve, budget=gb)
    ftilde = rep.model.polys[0]
    result = {
        "f_tilde": str(ftilde),
        "degree": rep.degree,
        "degree_bound": rep.degree_bound,
        "within_degree_bound": rep.within_degree_bound,
        "nu": ico_models.nu_f(rep.model, fb),
        "log10_abs": rep.log10_abs.render(args.digits),
        "log10_coeff_bound": rep.coeff_certificate.bound.render(args.digits),
        "within_coeff_bound": rep.within_coeff_bound,
    }
    return result, ["criterion-tau", "height:CorPullback"], 0


def _cmd_ico_info(args, gb, fb):
    polys = [algebra.poly_parse(part, algebra.P4) for part in _read_payload(args.f).split(",")]
    model = ico_models.IcoModel(polys)
    degenerate = ico_models.is_degenerate(model)
    nu = ico_models.nu_f(model, fb)
    curve = ico_models.is_curve(model, gb)
    result = {
        "degrees": list(model.degrees),
        "degenerate": degenerate,
        "diagonal": [list(row) for row in model.diagonal()],
        "nu": nu,
        "is_curve": curve,
        "bound": None
        if degenerate
        else _certificate_result(heights.bound_thmE(nu), args.digits),
    }
    return result, ["ico-model-invariants"], 1 if degenerate else 0


def _cmd_family_curve(args, gb, fb):
    v = _csv_fractions(args.v)
    model = ico_models.general_model(args.n, v, gb)
    curve = plane_curves.model_curve(model)
    result = {
        "n": args.n,
        "v": [str(c) for c in v],
        "model": [str(f) for f in model.polys],
        "F": str(curve.F),
        "degree": curve.degree,
        "terms": len(curve.F.terms),
        "tau_witness": plane_curves.tau_witness(model),
    }
    return result, ["plane-family-pullback"], 0


def _cmd_bound(args, gb, fb):
    kind = args.bound_kind
    if kind == "thmE":
        cert = heights.bound_thmE(args.nu)
    elif kind == "corD":
        cert = heights.bound_corD(args.d, args.absF)
    elif kind == "corF":
        cert = heights.bound_corF(_csv_ints(args.a), fb)
    else:  # thmC
        cert = heights.bound_thmC(args.dx, args.nu, args.hX)
    return _certificate_result(cert, args.digits), [f"height:{cert.tag}"], 0


def _cmd_fermat_scan(args, gb, fb):
    inst = fermat.FermatInstance(_csv_ints(args.a), args.n)
    rep = fermat.scan_instance(inst, args.B)
    result = _scan_result(rep)
    result["a"] = list(inst.a)
    result["n"] = inst.n
    return result, ["fermat:scan"], 0 if rep.is_trivial else 1


def _cmd_fermat_unit_reduce(args, gb, fb):
    inst = fermat.FermatInstance(_csv_ints(args.a), args.n)
    ue = fermat.unit_reduce(inst, _csv_ints(args.x), fb)
    result = {
        "k": ue.k,
        "u": [str(q) for q in ue.u],
        "S": list(ue.S),
        "degenerate": ue.degenerate,
        "vanishing_subsets": [list(sub) for sub in ue.vanishing],
        "off_surface": ue.off_surface,
        "support": list(ue.support),
    }
    return result, ["fermat:unit-reduction"], 0


def _cmd_fermat_z_scan(args, gb, fb):
    rep = fermat.z_triviality_scan(args.B)
    return _scan_result(rep), ["fermat:z-locus"], 0 if rep.is_trivial else 1


def _cmd_groebner(args, gb, fb):
    parts = [s for s in _read_payload(args.i).split(";") if s.strip()]
    ring = algebra.P4 if args.ring == "x0..x4" else algebra.P2
    gens = [algebra.poly_parse(part, ring) for part in parts]
    order = groebner.GREVLEX if args.order == "grevlex" else groebner.LEX
    ideal = groebner.Ideal(ring, gens)
    basis = ideal.groebner(order, gb)
    result = {
        "ring": list(ring.names),
        "order": args.order,
        "basis": [str(g) for g in basis],
    }
    if args.order == "grevlex" and all(g.is_homogeneous() for g in gens):
        dim, deg = groebner.dim_degree(ideal, gb)
        result["dim"] = dim
        result["degree"] = deg
    return result, ["groebner-basis"], 0


def _cmd_genus(args, gb, fb):
    g = ico_models.genus_general(args.n)
    return {"n": args.n, "genus": g}, ["genus:(2n+1)^2"], 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_identities(args, gb, fb):
    symbolic = ico_surface.verify_identities(mode="symbolic", samples=args.samples, seed=args.seed)
    sampled = ico_surface.verify_identities(mode="sampled", samples=args.samples, seed=args.seed)
    # symbolic mode ends with check (c) on the very samples sampled mode ends with
    return [*symbolic.checks[:-1], *sampled.checks]


def _suite_dimensions(args, gb, fb):
    surface = ico_surface.fixed_geometry().surface_ideal()
    expected = {1: 5, 2: 14, 3: 30, 4: 54, 5: 86}
    checks = []
    for n, want in expected.items():
        got = groebner.hilbert_function(surface, n, gb)
        checks.append((f"hilbert_function(surface, {n}) == {want}", got == want))
        checks.append((f"matches 4n^2-4n+6 at n={n}", got == ico_models.expected_rank(n)))
    return checks


def _suite_genus(args, gb, fb):
    checks = []
    for n in (1, 2, 3):
        checks.append(
            (f"genus_general({n}) == {(2 * n + 1) ** 2}",
             ico_models.genus_general(n) == (2 * n + 1) ** 2)
        )
    import random

    rng = random.Random(args.seed)
    basis = ico_models.basis_An(1, gb)
    while True:
        v = tuple(rng.randint(-4, 4) for _ in basis)
        model = ico_models.general_model(1, v)
        if not ico_models.is_degenerate(model):
            break
    checks.append(
        ("arithmetic_genus(random degree-1 model) == 9",
         groebner.arithmetic_genus(ico_models.model_ideal(model), gb) == 9)
    )
    return checks


def _suite_ttau(args, gb, fb):
    geo = ico_surface.fixed_geometry()
    rational, quadratic = ico_surface.ttau_points()
    checks = [("six rational T_tau points", len(rational) == 6)]
    ok = all(
        all(t.evaluate(p.coords) == 0 for t in geo.tau) for p in rational
    )
    checks.append(("rational points annihilate every tau_i", ok))
    for label, coords in (
        ("(1,1,phi)", quadratic.coords),
        ("conjugate", quadratic.conjugate()),
    ):
        ok = all(t.evaluate(coords) == 0 for t in geo.tau)
        checks.append((f"quadratic point {label} annihilates every tau_i", ok))
    off = [t.evaluate((1, 1, 0)) for t in geo.tau]
    checks.append(("(1,1,0) is not in T_tau (tau_3 = 1)", off[3] == 1 and any(off)))
    return checks


def _suite_fermat_smoke(args, gb, fb):
    checks = []
    rep = fermat.scan_surface(1)
    coordinate = all(sorted(p.coords) == [0, 0, 0, 0, 1] for p in rep.points)
    checks.append(("scan_surface(1) is the five coordinate points",
                   len(rep.points) == 5 and coordinate))
    checks.append(("B=1 scan is trivial", rep.is_trivial))
    inst = fermat.FermatInstance((1, 1, -2, 1, 1), 1)
    ue = fermat.unit_reduce(inst, (1, 1, 1, 0, 0), fb)
    checks.append(
        ("unit_reduce example: k=2, u=(1/2,1/2), S=(2)",
         ue.k == 2
         and ue.u == (Fraction(1, 2), Fraction(1, 2))
         and ue.S == (2,)
         and ue.off_surface)
    )
    checks.append(("z_member((2,2,1,1,0))", fermat.z_member((2, 2, 1, 1, 0))))
    checks.append(("not z_member(e_1)", not fermat.z_member((1, 0, 0, 0, 0))))
    sols = fermat.sunit_bounded({2}, 2, 2)
    want = {
        (Fraction(-1), Fraction(2)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(2), Fraction(-1)),
    }
    checks.append(("sunit_bounded({2},2,2) has the three solutions",
                   set(sols) == want))
    checks.append(("sunit_bounded({},2,E) is empty", fermat.sunit_bounded((), 2, 3) == []))
    return checks


_SUITE_RUNNERS = {
    "identities": _suite_identities,
    "dimensions": _suite_dimensions,
    "genus": _suite_genus,
    "ttau": _suite_ttau,
    "fermat-smoke": _suite_fermat_smoke,
}


def _cmd_suite(args, gb, fb):
    checks = _SUITE_RUNNERS[args.name](args, gb, fb)
    passed = all(ok for _, ok in checks)
    result = {
        "suite": args.name,
        "checks": [{"name": name, "passed": ok} for name, ok in checks],
        "passed": passed,
    }
    return result, [f"suite:{args.name}"], 0 if passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Rejects a command line by raising, so that run() reports it in an
    envelope; --help and --version still print and exit 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise IcotkError(f"{self.prog}: error: {message}")

    def exit(self, status=0, message=None):
        _write_stdout("")  # what --help or --version printed
        super().exit(status, message)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--gb-steps",
        type=int,
        default=DEFAULT_GB_BUDGET.max_reductions,
        help="Groebner reduction-step budget",
    )
    common.add_argument(
        "--factor-budget",
        type=int,
        default=DEFAULT_FACTOR_BUDGET.effort,
        help="integer-factorization effort cap",
    )
    common.add_argument("--samples", type=int, default=25, help="sample count")
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument(
        "--digits", type=int, default=30, help="digits in rendered log10 bounds"
    )

    top = _Parser(
        prog="icotk",
        description="exact constructions on the icosahedron surface",
    )
    top.add_argument("--version", action="version", version=f"icotk {__version__}")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify", parents=[common], help="tau/rho identity suite")
    p.add_argument("--mode", choices=("symbolic", "sampled"), default="symbolic")
    p.add_argument(
        "--symbolic-c",
        action="store_true",
        help="attempt the degree-96 proportionality identity symbolically",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("tau", help="criterion (tau) for plane curves")
    tau_sub = p.add_subparsers(dest="tau_verb", required=True)
    q = tau_sub.add_parser("check", parents=[common])
    q.add_argument("-F", required=True, help="plane curve in x,y,z (or @file)")
    q.add_argument("--max-image-degree", type=int, default=4)
    q.set_defaults(handler=_cmd_tau_check)

    p = sub.add_parser(
        "containing-model",
        parents=[common],
        help="non-degenerate ico model containing tau(V(F))",
    )
    p.add_argument("-F", required=True, help="plane curve in x,y,z (or @file)")
    p.set_defaults(handler=_cmd_containing_model)

    p = sub.add_parser("ico", help="ico-model invariants")
    ico_sub = p.add_subparsers(dest="ico_verb", required=True)
    q = ico_sub.add_parser("info", parents=[common])
    q.add_argument("-f", required=True, help="comma-separated polys in x0..x4")
    q.set_defaults(handler=_cmd_ico_info)

    p = sub.add_parser("family", help="plane curves of the degree-n family")
    fam_sub = p.add_subparsers(dest="family_verb", required=True)
    q = fam_sub.add_parser("curve", parents=[common])
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-v", required=True, help="coefficient vector, comma-separated")
    q.set_defaults(handler=_cmd_family_curve)

    p = sub.add_parser("bound", help="height-bound certificates")
    bound_sub = p.add_subparsers(dest="bound_kind", required=True)
    q = bound_sub.add_parser("thmE", parents=[common])
    q.add_argument("--nu", type=int, required=True)
    q.set_defaults(handler=_cmd_bound)
    q = bound_sub.add_parser("corD", parents=[common])
    q.add_argument("-d", type=int, required=True)
    q.add_argument("--absF", type=int, required=True)
    q.set_defaults(handler=_cmd_bound)
    q = bound_sub.add_parser("corF", parents=[common])
    q.add_argument("-a", required=True, help="five coefficients, comma-separated")
    q.set_defaults(handler=_cmd_bound)
    q = bound_sub.add_parser("thmC", parents=[common])
    q.add_argument("--dx", type=int, required=True)
    q.add_argument("--nu", type=int, required=True)
    q.add_argument("--hX", default="0", help="height of the model (rational or <m>e<k>)")
    q.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("fermat", help="generalized-Fermat pipeline")
    fer_sub = p.add_subparsers(dest="fermat_verb", required=True)
    q = fer_sub.add_parser("scan", parents=[common])
    q.add_argument("-a", required=True)
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-B", type=int, required=True)
    q.set_defaults(handler=_cmd_fermat_scan)
    q = fer_sub.add_parser("bound", parents=[common])
    q.add_argument("-a", required=True)
    q.set_defaults(handler=_cmd_bound, bound_kind="corF")
    q = fer_sub.add_parser("unit-reduce", parents=[common])
    q.add_argument("-a", required=True)
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-x", required=True)
    q.set_defaults(handler=_cmd_fermat_unit_reduce)
    q = fer_sub.add_parser("z-scan", parents=[common])
    q.add_argument("-B", type=int, required=True)
    q.set_defaults(handler=_cmd_fermat_z_scan)

    p = sub.add_parser("groebner", parents=[common], help="reduced Groebner basis")
    p.add_argument("-i", required=True, help="semicolon-separated polys (or @file)")
    p.add_argument("--ring", choices=("x0..x4", "x,y,z"), default="x0..x4")
    p.add_argument("--order", choices=("grevlex", "lex"), default="grevlex")
    p.set_defaults(handler=_cmd_groebner)

    p = sub.add_parser("genus", parents=[common], help="genus of the degree-n family")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(handler=_cmd_genus)

    p = sub.add_parser("suite", parents=[common], help="named verification bundle")
    p.add_argument("name", choices=_SUITE_RUNNERS)
    p.set_defaults(handler=_cmd_suite)

    return top


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _write_stdout(text: str) -> None:
    """Write text to stdout and flush it.  A reader that closed stdout early
    (``| head``) gets what it read: the rest goes to os.devnull, so neither
    this write nor the flush at exit raises, and the exit code stays the
    caller's."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(report: dict) -> None:
    _write_stdout(json.dumps(report, indent=2) + "\n")


def run(argv) -> int:
    envelope = {
        "schema": SCHEMA,
        "version": __version__,
        "command": {"verb": None, "argv": list(argv)},
        "flags": None,  # stays None for a command line the parser rejects
    }
    t0 = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        envelope["command"]["verb"] = args.verb
        if min(args.gb_steps, args.factor_budget) < 0:
            raise ValueError("--gb-steps and --factor-budget must be >= 0")
        check_digits(args.digits)
        envelope["flags"] = {
            "gb_steps": args.gb_steps,
            "factor_budget": args.factor_budget,
            "samples": args.samples,
            "seed": args.seed,
        }
        gb = GroebnerBudget(max_reductions=args.gb_steps)
        fb = FactorBudget(args.factor_budget)
        result, provenance, code = args.handler(args, gb, fb)
    except BudgetExceededError as exc:
        result, provenance, code = {"error": str(exc)}, ["budget-exceeded"], 3
    except (IcotkError, ValueError, ArithmeticError, OSError) as exc:
        result, provenance, code = {"error": str(exc)}, ["input-error"], 2
    except Exception as exc:  # a bug: reported, never mistaken for a verdict
        import traceback  # only a bug pays for this import

        traceback.print_exc(file=sys.stderr)
        result = {"error": f"{type(exc).__name__}: {exc}"}
        provenance, code = ["internal-error"], 4
    envelope.update(
        result=result,
        provenance=provenance,
        millis=round((time.perf_counter() - t0) * 1000.0, 3),
    )
    _emit(envelope)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
