"""Criterion-(tau) decision procedure for plane curves.

For a plane curve X = V(F) the criterion asks whether the closure
Y = cl(tau(X minus T_tau)) misses all five coordinate points e_i.  Since
tau collapses C_tau minus T_tau onto the e_i themselves, the test splits:

  stage 1/2:  X meets C_tau only inside T_tau.  Otherwise some curve point
              maps straight onto an e_i and the criterion fails.
  stage 3:    no e_i lies on cl(tau(X minus C_tau)).

Stage 2 is decided exactly, factor by factor, with resultants.  After one
unimodular change of coordinates -- center off X, off C_tau, and
separating the eight base-point images in the (y:z) projection --
Res_x(F~, g~) is a binary form whose roots are exactly the projections of
V(F~) meet V(g~).  Stripping the eight base-point projections and then
re-examining each fiber line decides containment in T_tau over the
algebraic closure; the two conjugate base points are handled in Z[phi].
(The alternative, a Groebner basis of (F, lambda) in three variables, is
hopeless: lambda has degree 95 and 2228 terms.)

Stage 3 works with graded pieces of the ideal of Y:
J_m = {G of degree m : F divides G(tau)}.  Membership certifies vanishing
on Y, so a G with G(e_i) != 0 is a sound witness that e_i is not in Y.
(J_m equals the full degree-m piece when F is squarefree and no component
of X lies in C_tau; in general it is a subideal, which only ever makes the
witness search harder, never wrong.)  For lines the image of X is computed
exactly through the parametrization, so both verdicts are available; for
d >= 2 an e_i that no witness separates after max_image_degree pieces
raises BudgetExceededError rather than guessing.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import P2, P4, Echelon, Poly, Ring, divide
from .binaryforms import form_content_free, interpolate, strip_root, sylvester_resultant
from .config import DEFAULT_GB_BUDGET, GroebnerBudget
from .errors import BudgetExceededError, IcotkError, NotDivisibleError
from .groebner import GREVLEX, Ideal, normal_form
from .heights import LogBound, bound_pullback
from .ico_models import IcoModel, _degree_monomials, general_model, is_degenerate
from .ico_surface import fixed_geometry

_PARAM_RING = Ring(("s", "t"))
_LINE_RING = Ring(("s",))


class PlaneCurve:
    """Primitive integer homogeneous F of degree >= 1 in the x,y,z ring."""

    def __init__(self, F: Poly):
        if not isinstance(F, Poly) or F.ring != P2:
            raise ValueError("plane curves live in the x,y,z ring")
        if F.is_zero():
            raise ValueError("zero polynomial is not a curve")
        if not F.is_homogeneous():
            raise ValueError("plane curves must be homogeneous")
        if F.degree() < 1:
            raise ValueError("constant polynomials are not curves")
        self.F = F.primitive_part()
        self.degree = self.F.degree()
        self.abs_F = self.F.max_abs_coeff()
        self._report = None
        self._pieces: dict = {}  # m -> tuple of J_m generators

    def __repr__(self):
        return f"PlaneCurve({self.F})"


@dataclass(frozen=True)
class TauReport:
    verdict: str  # "satisfies" | "fails"
    stage: str  # "none" | "curve-meets-Ctau-off-Ttau" | "image-contains-e<i>"
    witness: str
    image_pieces: tuple  # ((m, (Poly, ...)), ...) graded pieces actually computed
    millis: float

    @property
    def satisfies(self) -> bool:
        return self.verdict == "satisfies"

    @property
    def image_gens(self) -> tuple:
        geo = fixed_geometry()
        flat = [geo.sigma2, geo.sigma4]
        for _, polys in self.image_pieces:
            flat.extend(polys)
        return tuple(flat)


# ---------------------------------------------------------------------------
# pullbacks and families
# ---------------------------------------------------------------------------


def pullback_tau(f: Poly) -> Poly:
    """Primitive part of f(tau_0..tau_4); degree 12*deg f."""
    if f.ring != P4:
        raise ValueError("pullback_tau expects a polynomial in x0..x4")
    comp = f.substitute(list(fixed_geometry().tau))
    if comp.is_zero():
        raise ValueError("pullback along tau vanishes identically")
    return comp.primitive_part()


def pullback_rho(F: Poly) -> Poly:
    """Primitive part of F(rho_0, rho_1, rho_2); degree 8*deg F."""
    if F.ring != P2:
        raise ValueError("pullback_rho expects a polynomial in x,y,z")
    comp = F.substitute(list(fixed_geometry().rho))
    if comp.is_zero():
        raise ValueError("pullback along rho vanishes identically")
    return comp.primitive_part()


def family_curve(n: int, v) -> PlaneCurve:
    """The plane curve tau^*(sum v_i s_i) over the degree-n monomial basis;
    degree 12n, and in the good family when all of v_1..v_5 are nonzero."""
    model = general_model(n, v)
    curve = PlaneCurve(pullback_tau(model.polys[0]))
    if curve.degree != 12 * n:
        raise AssertionError("family pullback degree mismatch")
    return curve


def tau_witness(model: IcoModel) -> bool:
    """True => pullback_tau of the model's polynomial satisfies the
    criterion, with no Groebner work: valid exactly when the model is a
    single polynomial with all five diagonal coefficients nonzero.  False
    means "no conclusion"."""
    if len(model.polys) != 1:
        return False
    return all(row[0] != 0 for row in model.diagonal())


# ---------------------------------------------------------------------------
# stage 1: common-factor fast path
# ---------------------------------------------------------------------------


def _divides(a: Poly, b: Poly) -> bool:
    try:
        b.exact_div(a)
        return True
    except NotDivisibleError:
        return False


def _stage1(curve: PlaneCurve):
    for g in fixed_geometry().ctau_factors():
        if _divides(g, curve.F):
            return f"C_tau factor ({g}) divides F"
        if _divides(curve.F, g):
            return f"F divides the C_tau factor ({g})"
    return None


# ---------------------------------------------------------------------------
# stage 2: X meet C_tau inside T_tau, by resultants after a unimodular move
# ---------------------------------------------------------------------------


def _adjugate3(m):
    def cof(i, j):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        det = (
            m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]
        )
        return det if (i + j) % 2 == 0 else -det

    # adjugate = transposed cofactor matrix
    return tuple(tuple(cof(j, i) for j in range(3)) for i in range(3))


def _find_transform(curve: PlaneCurve):
    """A unimodular U (with inverse A) such that, in the new coordinates:
    the center (1:0:0) lies neither on the curve nor on C_tau, and the
    eight T_tau points have pairwise distinct (y:z) projections.  Both
    conditions fail only on proper closed loci, so a small deterministic
    search always lands."""
    geo = fixed_geometry()
    quad = geo.ttau_quadratic
    pts = [p.coords for p in geo.ttau_rational] + [quad.coords, quad.conjugate()]
    for trial in range(500):
        rng = random.Random(1_000_003 * trial + 7)
        lo = [[1, 0, 0], [rng.randint(-3, 3), 1, 0], [rng.randint(-3, 3), rng.randint(-3, 3), 1]]
        up = [[1, rng.randint(-3, 3), rng.randint(-3, 3)], [0, 1, rng.randint(-3, 3)], [0, 0, 1]]
        U = tuple(
            tuple(sum(up[i][k] * lo[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )
        A = _adjugate3(U)
        center = tuple(A[i][0] for i in range(3))
        if curve.F.evaluate(center) == 0:
            continue
        if any(g.evaluate(center) == 0 for g in geo.ctau_factors()):
            continue
        moved = [tuple(sum(U[i][j] * p[j] for j in range(3)) for i in range(3)) for p in pts]
        if any(not q[1] and not q[2] for q in moved):
            continue  # a point hit the projection center
        if all(qa[1] * qb[2] != qa[2] * qb[1] for qa, qb in itertools.combinations(moved, 2)):
            return A, moved
    raise IcotkError("no suitable unimodular transform found")  # pragma: no cover


def _transformed(poly: Poly, A) -> Poly:
    xs = [Poly.variable(P2, n) for n in P2.names]
    images = [
        xs[0] * A[i][0] + xs[1] * A[i][1] + xs[2] * A[i][2] for i in range(3)
    ]
    return poly.substitute(images)


def _x_coefficient_forms(poly: Poly):
    """List indexed by x-degree k of {(ey, ez): c} coefficient dicts."""
    d = poly.degree()
    out = [dict() for _ in range(d + 1)]
    for (ex, ey, ez), c in poly.terms.items():
        out[ex][(ey, ez)] = c
    return out


def _eval_yz(coeffs: dict, ypows, zpows):
    """A (y, z)-coefficient dict at the point whose power tables are given."""
    return sum(c * ypows[ey] * zpows[ez] for (ey, ez), c in coeffs.items())


def _powers(base, n):
    """[1, base, ..., base^n]; ints stay ints and Phis stay Phis."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


def _resultant_in_x(fc, gc):
    """Res_x of two ternary forms given by their x-coefficient dicts, as an
    integer binary form in (y, z).  Requires constant nonzero leading
    coefficients (the center conditions), so specialization commutes with
    the resultant and interpolation at deg_f*deg_g + 1 nodes is exact."""
    d = len(fc) - 1
    e = len(gc) - 1
    if list(fc[d]) != [(0, 0)] or list(gc[e]) != [(0, 0)]:
        raise AssertionError("leading x-coefficients must be constants")
    de = d * e
    ones = [1] * (max(d, e) + 1)
    samples = []
    for m in range(de + 1):
        mpows = _powers(m, max(d, e))
        fdesc = [_eval_yz(fc[k], mpows, ones) for k in range(d, -1, -1)]
        gdesc = [_eval_yz(gc[k], mpows, ones) for k in range(e, -1, -1)]
        samples.append((m, sylvester_resultant(fdesc, gdesc)))
    uni = interpolate(samples)
    if any(isinstance(c, Fraction) for c in uni):
        raise AssertionError("resultant interpolation left fractions")
    if not any(uni):
        return None  # identically zero: common component
    return [0] * (de + 1 - len(uni)) + list(uni)


def _stage2(curve: PlaneCurve):
    """None if X meets C_tau only inside T_tau (decided over the algebraic
    closure); else a failure description."""
    geo = fixed_geometry()
    A, moved = _find_transform(curve)
    Ft = _transformed(curve.F, A)
    fc = _x_coefficient_forms(Ft)
    d = curve.degree

    point_data = [(q, _powers(q[1], max(d, 5)), _powers(q[2], max(d, 5))) for q in moved]

    for g in geo.ctau_factors():
        gt = _transformed(g, A)
        gc = _x_coefficient_forms(gt)
        e = g.degree()
        R = _resultant_in_x(fc, gc)
        if R is None:
            return f"V(F) and V({g}) share a component"
        # the six rational projections come first and keep rem in Z; only
        # the conjugate pair moves it to Z[phi]
        rem = form_content_free(R)
        for q, _, _ in point_data:
            rem, _ = strip_root(rem, q[1], q[2])
        if len(rem) > 1:
            return (
                f"V(F) meets V({g}) at a point off T_tau "
                "(projection survives base-point stripping)"
            )
        # every intersection projects onto a base-point fiber; check each
        # fiber carries nothing but the base point itself
        for q, ypows, zpows in point_data:
            fl = [_eval_yz(fc[k], ypows, zpows) for k in range(d, -1, -1)]
            gl = [_eval_yz(gc[k], ypows, zpows) for k in range(e, -1, -1)]
            fl, _ = strip_root(fl, q[0], 1)
            gl, _ = strip_root(gl, q[0], 1)
            if len(fl) > 1 and len(gl) > 1:
                if sylvester_resultant(fl, gl) == 0:
                    return (
                        f"V(F) meets V({g}) at a second point on the "
                        "fiber line of a T_tau point"
                    )
    return None


# ---------------------------------------------------------------------------
# stage 3: does the closed image contain a coordinate point?
# ---------------------------------------------------------------------------


def _graded_piece(curve: PlaneCurve, m: int, tau_pows, budget: GroebnerBudget):
    """Primitive generators of J_m = {G homogeneous of degree m with
    F | G(tau)}, by exact kernel computation of the composition map."""
    if m in curve._pieces:
        return curve._pieces[m]
    monos = _degree_monomials(m)
    echelon = Echelon()
    out = []
    for expo in monos:
        comp = Poly.constant(P2, 1)
        for i, k in enumerate(expo):
            if k:
                comp = comp * _tau_power(tau_pows, i, k)
        comb = echelon.add(normal_form(comp, [curve.F], GREVLEX, budget).terms)
        if comb is not None:
            items = [(expo, 1)] + [(monos[k], -c) for k, c in comb.items()]
            out.append(Poly.from_terms(P4, items).primitive_part())
    curve._pieces[m] = tuple(out)
    return curve._pieces[m]


def _tau_power(tau_pows, i, k):
    cache = tau_pows[i]
    if k not in cache:
        cache[k] = _tau_power(tau_pows, i, k - 1) * fixed_geometry().tau[i]
    return cache[k]


# -- exact image for lines ---------------------------------------------------


def _line_points(F: Poly):
    a = F.coeff((1, 0, 0))
    b = F.coeff((0, 1, 0))
    c = F.coeff((0, 0, 1))
    if a:
        return (-b, a, 0), (-c, 0, a)
    if b:
        return (1, 0, 0), (0, -c, b)
    return (1, 0, 0), (0, 1, 0)


def _form_gcd_degree(forms):
    """Degree of the gcd of binary forms in s, t; zero forms are neutral;
    None if every form is zero.  The gcd is t^k, k the least t-degree,
    times the gcd over Q of the forms at t = 1, found by Euclid."""
    nz = [f for f in forms if f]
    if not nz:
        return None
    t_mult = min(e[1] for f in nz for e in f.terms)
    g = Poly.zero(_LINE_RING)
    for f in nz:
        r = Poly(_LINE_RING, {(es,): c for (es, _), c in f.terms.items()})
        while r:
            g, r = r, divide(g, [r])[1]
        if g.degree() == 0:
            break
    return t_mult + g.degree()


def _line_image_failure(curve: PlaneCurve):
    """Exact e_i membership in the closed image for a line: parametrize,
    compose with tau, and compare gcd degrees with/without each coordinate."""
    P, Q = _line_points(curve.F)
    s = Poly.variable(_PARAM_RING, "s")
    t = Poly.variable(_PARAM_RING, "t")
    images = [s * P[i] + t * Q[i] for i in range(3)]
    forms = [taui.substitute(images) for taui in fixed_geometry().tau]
    full = _form_gcd_degree(forms)
    if full is None:  # pragma: no cover - tau has no 1-dim base components
        raise AssertionError("line maps entirely into T_tau")
    for i in range(5):
        others = [f for j, f in enumerate(forms) if j != i]
        deg = _form_gcd_degree(others)
        if deg is None or deg > full:
            return i
    return None


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------


def check_tau(
    curve: PlaneCurve,
    budget: GroebnerBudget = DEFAULT_GB_BUDGET,
    max_image_degree: int = 4,
) -> TauReport:
    if curve._report is not None:
        return curve._report
    t0 = time.perf_counter()

    def done(report):
        curve._report = report
        return report

    def millis():
        return (time.perf_counter() - t0) * 1000.0

    witness = _stage1(curve)
    if witness is None:
        witness = _stage2(curve)
    if witness is not None:
        return done(
            TauReport("fails", "curve-meets-Ctau-off-Ttau", witness, (), millis())
        )

    geo = fixed_geometry()
    tau_pows = [{0: Poly.constant(P2, 1), 1: taui} for taui in geo.tau]
    pieces = []
    missing = set(range(5))
    for m in range(1, max_image_degree + 1):
        piece = _graded_piece(curve, m, tau_pows, budget)
        pieces.append((m, piece))
        for G in piece:
            for i in list(missing):
                if G.evaluate(geo.e_points[i].coords) != 0:
                    missing.discard(i)
        if not missing:
            break
    pieces = tuple(pieces)

    if missing and curve.degree == 1:
        bad = _line_image_failure(curve)
        if bad is not None:
            return done(
                TauReport(
                    "fails",
                    f"image-contains-e{bad}",
                    f"the image of the line contains e{bad} "
                    "(exact parametrized computation)",
                    pieces,
                    millis(),
                )
            )
        missing = set()

    if missing:
        raise BudgetExceededError(
            "no image-ideal witness separates "
            + ", ".join(f"e{i}" for i in sorted(missing))
            + f" within degree {max_image_degree}"
        )
    return done(TauReport("satisfies", "none", "", pieces, millis()))


def image_ideal(
    curve: PlaneCurve,
    budget: GroebnerBudget = DEFAULT_GB_BUDGET,
    max_image_degree: int = 2,
) -> Ideal:
    """Homogeneous generators vanishing on the closure of tau(X minus
    C_tau): sigma_2 and sigma_4 plus the graded pieces J_1..J_max.

    This is meaningful for any curve -- the verdict of check_tau is not
    consulted -- but describes the closure of the image only away from
    C_tau (closure semantics).  When check_tau already ran, its cached
    pieces are reused and extended as needed."""
    geo = fixed_geometry()
    tau_pows = [{0: Poly.constant(P2, 1), 1: taui} for taui in geo.tau]
    gens = [geo.sigma2, geo.sigma4]
    for m in range(1, max_image_degree + 1):
        gens.extend(_graded_piece(curve, m, tau_pows, budget))
    return Ideal(P4, gens)


# ---------------------------------------------------------------------------
# the containing model f~
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContainingModelReport:
    model: IcoModel
    r: int
    degree: int  # = 2r
    degree_bound: int  # 128 * deg F
    within_degree_bound: bool
    log10_abs: LogBound  # log10 |f~|
    coeff_certificate: object  # HeightCertificate, tag CorPullback
    within_coeff_bound: bool


def containing_model(
    curve: PlaneCurve, budget: GroebnerBudget = DEFAULT_GB_BUDGET
) -> ContainingModelReport:
    """A single non-degenerate model f~ whose curve contains the closed
    image: f~ = sum_i (x_i^(r-d_i) g_i)^2 over generators g_i of the image
    ideal with g_i(e_i) != 0, r the top degree of its reduced basis."""
    report = check_tau(curve, budget)
    if not report.satisfies:
        raise ValueError("containing_model requires a curve satisfying the criterion")
    geo = fixed_geometry()
    J = Ideal(P4, list(report.image_gens))
    gb = J.groebner(GREVLEX, budget)
    r = max(g.degree() for g in gb)
    ftilde = Poly.zero(P4)
    for i in range(5):
        e = geo.e_points[i].coords
        g_i = next((g for g in gb if g.evaluate(e) != 0), None)
        if g_i is None:
            raise IcotkError(
                f"no reduced-basis generator separates e{i}; "
                "the image ideal is too small to build f~"
            )
        pad = Poly.monomial(P4, tuple(r - g_i.degree() if k == i else 0 for k in range(5)))
        sq = pad * g_i
        ftilde = ftilde + sq * sq
    ftilde = ftilde.primitive_part()

    if not normal_form(ftilde, gb, GREVLEX, budget).is_zero():
        raise AssertionError("f~ escaped its own ideal")
    for i in range(5):
        if ftilde.evaluate(geo.e_points[i].coords) <= 0:
            raise AssertionError("f~ must be positive at every coordinate point")
    model = IcoModel([ftilde])
    if is_degenerate(model):
        raise AssertionError("f~ produced a degenerate model")

    cert = bound_pullback(curve.degree, curve.abs_F)
    log_abs = LogBound.of_log10(ftilde.max_abs_coeff())
    return ContainingModelReport(
        model=model,
        r=r,
        degree=2 * r,
        degree_bound=128 * curve.degree,
        within_degree_bound=2 * r <= 128 * curve.degree,
        log10_abs=log_abs,
        coeff_certificate=cert,
        within_coeff_bound=log_abs.compare(cert.bound) <= 0,
    )
