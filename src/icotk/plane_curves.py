"""Criterion-(tau) decision procedure for plane curves.

For a plane curve X = V(F) the criterion asks whether the closure
Y = cl(tau(X minus T_tau)) misses all five coordinate points e_i.  Since
tau collapses C_tau minus T_tau onto the e_i themselves, the test splits:

  stage 1/2:  X meets C_tau only inside T_tau.  Otherwise some curve point
              maps straight onto an e_i and the criterion fails.
  stage 3:    no e_i lies on cl(tau(X minus C_tau)).

Stage 1 asks whether a C_tau factor g divides F or F divides g.  Both are
primitive, so by Gauss's lemma a | b means b = a*h with h integral, and
then deg a <= deg b and a(p) | b(p) at the integer point p = _PROBE, where
no g vanishes; exact division runs only when both tests pass.  (F(p) = 0
rules out F | g, since g(p) = F(p)*h(p) would vanish.)

Stage 2 is decided exactly, factor by factor, with resultants.  After one
unimodular change of coordinates -- center off X, off C_tau, and
separating the eight base-point images in the (y:z) projection --
Res_x(F~, g~) is a binary form whose roots are exactly the projections of
V(F~) meet V(g~).  Stripping the eight base-point projections and then
re-examining each fiber line decides containment in T_tau over the
algebraic closure; the conjugate pair of base points is stripped at once,
by the integer quadratic of their projections (_pair_quadratic).
Only "center off X" depends on the curve, so each geometry keeps the
transforms that meet the rest, in trial order, and a curve takes the first
whose center is off X.  The fiber check runs at one of the conjugate pair:
F~ and g~ have integer coefficients, so at the other point every value is
the image under phi -> 1 - phi, a ring automorphism of Z[phi], which
commutes with the ring operations, zero tests and exact quotients of root
stripping and resultants; the two checks agree.  (The alternative, a
Groebner basis of (F, lambda) in three variables, is hopeless: lambda has
degree 95 and 2228 terms.)

Stage 3 works with graded pieces of the ideal of Y:
J_m = {G of degree m : F divides G(tau)}.  Membership certifies vanishing
on Y, so a G with G(e_i) != 0 is a sound witness that e_i is not in Y.
(J_m equals the full degree-m piece when F is squarefree and no component
of X lies in C_tau; in general it is a subideal, which only ever makes the
witness search harder, never wrong.)  An e_i that no witness separates
after max_image_degree pieces raises BudgetExceededError rather than
guessing, so stage 3 either proves the criterion or refuses; a report's
stage is "none" or "curve-meets-Ctau-off-Ttau".  No line reaches stage 3
(proof in check_tau).
"""

from __future__ import annotations

import itertools
import random
import time
from collections import namedtuple
from functools import lru_cache

from .algebra import P2, P4, Echelon, Poly, primitive_form
from .binaryforms import (
    form_content_free,
    interpolate,
    remainder_resultant,
    strip_root,
    sylvester_resultant,
)
from .config import DEFAULT_GB_BUDGET, GroebnerBudget
from .errors import BudgetExceededError, IcotkError, NotDivisibleError
from .groebner import GREVLEX, Ideal, normal_form
from .heights import LogBound, bound_pullback
from .ico_models import IcoModel, _degree_monomials, general_model, is_degenerate
from .ico_surface import fixed_geometry


class PlaneCurve:
    """Primitive integer homogeneous F of degree >= 1 in the x,y,z ring."""

    def __init__(self, F: Poly):
        self.F = primitive_form(F, P2, "plane curves", "x,y,z")
        self.degree = self.F.degree()
        self.abs_F = self.F.max_abs_coeff()
        self._report = None
        self._pieces: dict = {}  # m -> tuple of J_m generators

    def __repr__(self):
        return f"PlaneCurve({self.F})"


class TauReport(namedtuple("TauReport", "verdict stage witness image_pieces millis")):
    """A criterion-(tau) verdict, "satisfies" or "fails"; the stage that
    decided it, "none" or "curve-meets-Ctau-off-Ttau"; and the graded pieces
    actually computed, as ((m, (Poly, ...)), ...)."""

    __slots__ = ()

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


def family_curve(n: int, v, budget: GroebnerBudget = DEFAULT_GB_BUDGET) -> PlaneCurve:
    """The plane curve tau^*(sum v_i s_i) over the degree-n monomial basis;
    degree 12n, and in the good family when all of v_1..v_5 are nonzero."""
    return model_curve(general_model(n, v, budget))


def model_curve(model: IcoModel) -> PlaneCurve:
    """The plane curve tau^*(f) of a one-polynomial model f; degree 12 deg f."""
    f = model.polys[0]
    curve = PlaneCurve(pullback_tau(f))
    if curve.degree != 12 * f.degree():
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
# what stages 1-2 keep per geometry; stage 1, the common-factor fast path
# ---------------------------------------------------------------------------

_PROBE = (1009, -733, 2039)  # no C_tau factor vanishes here
# An admissible transform v = A*w: the images A*(x, y, z) that a form takes
# (F~ = F(A*w)), its center A*(1, 0, 0), the moved T_tau points (conjugate
# pair last), the eight base-point projections as primitive integer forms
# in (y, z) (the six lines, then _pair_quadratic), and per C_tau factor (g,
# x-coefficients of g~, their values at the nodes (m, 1) so far, the
# remainder rows of g~ at those nodes, g~ on the fiber lines of moved[:7]).
_Move = namedtuple("_Move", "images center moved projections factors")


@lru_cache(maxsize=1)
def _cache(geo):
    """Built on the first criterion-(tau) call of a geometry: the C_tau
    factors with their degrees and their values at _PROBE, the admissible
    transforms found so far, the trial generator that finds the next ones,
    and the powers {(i, k): tau_i^k} formed so far by stage 3."""
    probed = [(g, g.degree(), g.evaluate(_PROBE)) for g in geo.ctau_factors()]
    if any(not gp or abs(g.content_primitive()[0]) != 1 for g, _, gp in probed):
        raise AssertionError("the probe needs primitive C_tau factors off _PROBE")
    return probed, [], _admissible(geo), {}


def _admissible(geo):
    """In a fixed trial order, each unimodular U (with inverse A) such that,
    in the new coordinates, the center (1:0:0) lies off C_tau and the eight
    T_tau points have pairwise distinct (y:z) projections.  Both conditions
    fail only on proper closed loci, so a small deterministic search lands.
    A trial draws the shear entries of unitriangular lo and up; U = up*lo and
    A = lo^-1 * up^-1, by the closed-form unitriangular inverses."""
    quad = geo.ttau_quadratic
    pts = [p.coords for p in geo.ttau_rational] + [quad.coords, quad.conjugate()]
    x, y, z = (Poly.variable(P2, n) for n in P2.names)
    for trial in range(500):
        rng = random.Random(1_000_003 * trial + 7)
        l10, l20, l21, u01, u02, u12 = (rng.randint(-3, 3) for _ in range(6))
        U = _product3(((1, u01, u02), (0, 1, u12), (0, 0, 1)),
                      ((1, 0, 0), (l10, 1, 0), (l20, l21, 1)))
        A = _product3(((1, 0, 0), (-l10, 1, 0), (l10 * l21 - l20, -l21, 1)),
                      ((1, -u01, u01 * u12 - u02), (0, 1, -u12), (0, 0, 1)))
        center = tuple(A[i][0] for i in range(3))
        if any(g.evaluate(center) == 0 for g in geo.ctau_factors()):
            continue
        moved = [tuple(sum(U[i][j] * p[j] for j in range(3)) for i in range(3)) for p in pts]
        if any(not q[1] and not q[2] for q in moved):
            continue  # a point hit the projection center
        if all(qa[1] * qb[2] != qa[2] * qb[1] for qa, qb in itertools.combinations(moved, 2)):
            images = tuple(x * a + y * b + z * c for a, b, c in A)
            factors = []
            for g in geo.ctau_factors():
                gc = _x_coefficients(g.substitute(images), g.degree())
                factors.append((g, gc, [], [], [_fiber(gc, q) for q in moved[:-1]]))
            lines = [form_content_free([q[2], -q[1]]) for q in moved[:-2]]
            yield _Move(images, center, moved, (*lines, _pair_quadratic(moved[-2])), factors)
    raise IcotkError("no suitable unimodular transform found")  # pragma: no cover


def _divides(a: Poly, ad: int, ap, b: Poly, bd: int, bp) -> bool:
    """a | b for primitive integer forms of degrees ad, bd with values ap, bp
    at _PROBE."""
    if ad > bd or not ap or bp % ap:
        return False
    try:
        b.exact_div(a)
    except NotDivisibleError:
        return False
    return True


def _stage1(curve: PlaneCurve):
    F, d, Fp = curve.F, curve.degree, curve.F.evaluate(_PROBE)
    for g, gd, gp in _cache(fixed_geometry())[0]:
        if _divides(g, gd, gp, F, d, Fp):
            return f"C_tau factor ({g}) divides F"
        if _divides(F, d, Fp, g, gd, gp):
            return f"F divides the C_tau factor ({g})"
    return None


# ---------------------------------------------------------------------------
# stage 2: X meet C_tau inside T_tau, by resultants after a unimodular move
# ---------------------------------------------------------------------------


def _product3(m, n):
    """The 3x3 matrix product m*n."""
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*n)) for row in m)


def _transform(F: Poly) -> _Move:
    """The first admissible transform, in trial order, whose center is off
    V(F): the one a search over all trials for this curve would pick."""
    _, kept, pending, _ = _cache(fixed_geometry())
    for i in itertools.count():
        if i == len(kept):
            kept.append(next(pending))
        if F.evaluate(kept[i].center) != 0:
            return kept[i]


def _x_coefficients(poly: Poly, d: int):
    """[c_d, ..., c_0] for the degree-d form poly = sum_k c_k x^k, each c_k
    the coefficient list of a binary form in descending powers of y."""
    out = [[0] * (k + 1) for k in range(d + 1)]
    for (ex, _, ez), c in poly.terms.items():
        out[d - ex][ez] = c
    return out


def _at(coeffs, y, z=1):
    """sum_i c_i y^(n-i) z^i for coeffs = [c_0..c_n], by Horner's rule in y
    carrying the power of z."""
    acc, zi = 0, 1
    for c in coeffs:
        acc = acc * y + c * zi
        zi *= z
    return acc


def _fiber(xc, q):
    """The form on the fiber line of the projection of q, in x, with the
    root q itself stripped."""
    return strip_root([_at(c, q[1], q[2]) for c in xc], [1, -q[0]])


def _pair_quadratic(q):
    """The primitive integer form proportional to
    (q2*y - q1*z)*(q2'*y - q1'*z), for the moved point q of the conjugate
    pair and ' the Galois conjugate phi -> 1 - phi: the coefficients are
    N(q2), -Tr(q2*q1') and N(q1).

    Stripping it from an integer form (strip_root, as for the six rational
    lines) leaves the degree that stripping the roots (q1:q2) and (q1':q2')
    one after the other in Z[phi] leaves, and stage 2 reads only the degree.
    If (q2*y - q1*z)^k exactly divides the integer form, conjugation shows
    that (q2'*y - q1'*z)^k exactly divides it too: both roots have
    multiplicity k.  The two linear forms are coprime (the projections are
    distinct), so their product to the k-th power divides the form and the
    (k+1)-th does not; that product is a rational form, so this holds over
    Q as well.  Both routes lower the degree by 2k."""
    u = q[2] * q[1].conj()
    return form_content_free([q[2].norm(), -(2 * u.a + u.b), q[1].norm()])


def _resultant_in_x(fc, fvals, gc, gvals, grows, de):
    """Res_x(F~, g~) as an integer binary form in (y, z) of degree de, from
    the x-coefficients fc, gc at the nodes (m, 1), m = 0..de; fvals, gvals
    hold their values at the nodes so far and are extended here.  grows[m]
    holds the remainder rows of g~ at node m (remainder_resultant), kept
    with gvals per geometry and extended to the degree of F.  Building the
    rows costs about one resultant, so a node gets them only when a second
    curve meets it; at a node first met now, the PRS runs on (F_m, g_m).
    The leading coefficients are the nonzero constants F(center),
    g(center), so specialization commutes with the resultant, the rows
    share one lc, and interpolation is exact."""
    met = len(gvals)  # the nodes an earlier curve met
    for xc, vals in ((fc, fvals), (gc, gvals)):
        vals.extend([_at(c, m) for c in xc] for m in range(len(vals), de + 1))
    grows.extend([] for _ in range(len(grows), met))
    uni = interpolate([
        remainder_resultant(fvals[m], gvals[m], grows[m]) if m < met
        else sylvester_resultant(fvals[m], gvals[m])
        for m in range(de + 1)
    ])
    if uni is None:
        raise AssertionError("resultant interpolation is not integral")
    if not any(uni):
        return None  # identically zero: common component
    return [0] * (de + 1 - len(uni)) + uni


def _stage2(curve: PlaneCurve):
    """None if X meets C_tau only inside T_tau (decided over the algebraic
    closure); else a failure description."""
    d = curve.degree
    move = _transform(curve.F)
    fc = _x_coefficients(curve.F.substitute(move.images), d)
    fvals, fibers = [], None
    for g, gc, gvals, grows, gfibers in move.factors:
        de = d * (len(gc) - 1)
        R = _resultant_in_x(fc, fvals, gc, gvals, grows, de)
        if R is None:
            return f"V(F) and V({g}) share a component"
        # the six rational projections, then the conjugate pair at once
        rem = form_content_free(R)
        for p in move.projections:
            rem = strip_root(rem, p)
        if len(rem) > 1:
            return (
                f"V(F) meets V({g}) at a point off T_tau "
                "(projection survives base-point stripping)"
            )
        # every intersection projects onto a base-point fiber; check each
        # fiber carries nothing but the base point itself (the conjugate
        # point's check is the Galois conjugate of the one before it)
        if fibers is None:
            fibers = [_fiber(fc, q) for q in move.moved[:-1]]
        for fl, gl in zip(fibers, gfibers):
            if len(fl) > 1 and len(gl) > 1 and sylvester_resultant(fl, gl) == 0:
                return (
                    f"V(F) meets V({g}) at a second point on the "
                    "fiber line of a T_tau point"
                )
    return None


# ---------------------------------------------------------------------------
# stage 3: does the closed image contain a coordinate point?
# ---------------------------------------------------------------------------


def _graded_piece(curve: PlaneCurve, m: int, budget: GroebnerBudget):
    """Primitive generators of J_m = {G homogeneous of degree m with
    F | G(tau)}, by exact kernel computation of the composition map."""
    if m in curve._pieces:
        return curve._pieces[m]
    tau_pows = _cache(fixed_geometry())[3]
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


def _tau_power(pows, i, k):
    """tau_i^k for k >= 1, kept in the powers {(i, k): tau_i^k}."""
    if (i, k) not in pows:
        taui = fixed_geometry().tau[i]
        pows[i, k] = taui if k == 1 else _tau_power(pows, i, k - 1) * taui
    return pows[i, k]


def _stage3(curve: PlaneCurve, budget: GroebnerBudget, max_image_degree: int):
    """The pieces ((m, J_m), ...) up to the first m at which every e_i has a
    witness G with G(e_i) != 0; BudgetExceededError if none is found by
    max_image_degree.

    No witness lies below m0 = ceil(deg F / 12), so when m0 exceeds
    max_image_degree the refusal comes before any J_m is built.  Take a
    witness G in J_m.  If G(tau) = 0, G vanishes on tau(P^2), which is
    dense in the surface; every e_i lies on the surface (sigma_2(e_i) =
    sigma_4(e_i) = 0), so G(e_i) = 0, a contradiction.  Hence G(tau) != 0,
    and F | G(tau), of degree 12m, forces 12m >= deg F."""
    e_points = fixed_geometry().e_points
    pieces, missing = [], set(range(5))
    hopeless = -(-curve.degree // 12) > max_image_degree  # m0 > max_image_degree
    for m in () if hopeless else range(1, max_image_degree + 1):
        piece = _graded_piece(curve, m, budget)
        pieces.append((m, piece))
        missing = {i for i in missing
                   if all(G.evaluate(e_points[i].coords) == 0 for G in piece)}
        if not missing:
            return tuple(pieces)
    raise BudgetExceededError(
        "no image-ideal witness separates "
        + ", ".join(f"e{i}" for i in sorted(missing))
        + f" within degree {max_image_degree}"
    )


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------


def check_tau(
    curve: PlaneCurve,
    budget: GroebnerBudget = DEFAULT_GB_BUDGET,
    max_image_degree: int = 4,
) -> TauReport:
    """Decide criterion (tau) for the curve; the report is cached on it.

    Stages 1-2 fail X when it meets C_tau off T_tau.  Otherwise stage 3
    looks for witnesses in J_1..J_max_image_degree and raises
    BudgetExceededError if some e_i stays unseparated.

    No line reaches stage 3.  Stage 1 fails the C_tau components V(x),
    V(z) and V(y - z) (among ctau_factors).  Any other line L meets each of
    them in one point, and stage 2 passes only if all three points lie in
    T_tau.  T_tau meets V(x) in {(0:1:0), (0:0:1), (0:1:1)}, V(z) in
    {(1:0:0), (0:1:0)} and V(y - z) in {(1:0:0), (0:1:1), (1:1:1)}; the
    conjugate pair (1:1:phi), (1:1:1-phi) lies on none of the three lines,
    and no point lies in all three sets.  So L holds two distinct rational
    T_tau points.  The 15 pairs of rational T_tau points span exactly seven
    lines -- x, y, z, x - z, y - z, x - y, x + y - z -- and each of them
    fails at stage 1: it divides a C_tau factor or is one.
    """
    if max_image_degree < 1:
        raise ValueError("max_image_degree must be at least 1")
    if curve._report is not None:
        return curve._report
    t0 = time.perf_counter()
    witness = _stage1(curve) or _stage2(curve)
    if witness is None:
        verdict, stage, witness = "satisfies", "none", ""
        pieces = _stage3(curve, budget, max_image_degree)
    else:
        verdict, stage, pieces = "fails", "curve-meets-Ctau-off-Ttau", ()
    millis = (time.perf_counter() - t0) * 1000.0
    curve._report = TauReport(verdict, stage, witness, pieces, millis)
    return curve._report


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
    gens = [geo.sigma2, geo.sigma4]
    for m in range(1, max_image_degree + 1):
        gens.extend(_graded_piece(curve, m, budget))
    return Ideal(P4, gens)


# ---------------------------------------------------------------------------
# the containing model f~
# ---------------------------------------------------------------------------


class ContainingModelReport(namedtuple(
    "ContainingModelReport",
    "model r degree degree_bound within_degree_bound log10_abs coeff_certificate"
    " within_coeff_bound",
)):
    """The model f~ with degree = 2r, degree_bound = 128 deg F, log10_abs =
    log10 |f~| as a LogBound, and coeff_certificate, the HeightCertificate
    tagged CorPullback."""

    __slots__ = ()


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
