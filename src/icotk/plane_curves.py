"""Criterion-(tau) decision procedure for plane curves.

For a plane curve X = V(F) the criterion asks whether the closure
Y = cl(tau(X minus T_tau)) misses all five coordinate points e_i.  Since
tau collapses C_tau minus T_tau onto the e_i themselves, the test splits:

  stage 2:  X meets C_tau only inside T_tau.  Otherwise some curve point
            maps straight onto an e_i and the criterion fails.
  stage 3:  no e_i lies on cl(tau(X minus C_tau)).

Stage 2 is decided exactly, factor by factor, on the components of C_tau
(FixedGeometry.ctau_components): the seven lines through pairs of rational
T_tau points and four smooth conics, each through a rational T_tau point.
Each component C has a parametrization phi_C by integer binary forms in
(s, t) (Sendra, Winkler & Perez-Diaz, Rational Algebraic Curves, 2008,
ch. 4): s*P + t*Q for a line through P and Q, and
C(w) P - (grad C(P) . w) w with w = s*A + t*B for a conic through P,
the second point of C on the line through P and w, with AB a line missing
P.  phi_C has no base point and C(phi_C) = 0 (both asserted when it is
built), so it is a bijection P^1 -> C over the algebraic closure: a line
clearly, and a conic because each line through P meets AB once and C
once more (at P itself when it is the tangent).  Hence the roots of the
binary form R_C = F(phi_C) are the parameters of the points of V(F) on C,
and R_C = 0 exactly when C lies in V(F).  Every component, the image of
P^1, is irreducible, and g is the product of its components up to sign,
so V(F) and V(g) share a component iff some R_C vanishes.
Otherwise each T_tau point on C has one parameter, the root of its root
form: a primitive integer line for a rational point, and for the
conjugate pair the integer quadratic (l s + m t)(l' s + m' t), ' the
Galois conjugate phi -> 1 - phi.  Stripping each root form from R_C as
often as it divides (strip_root: long division, exact by Gauss's lemma)
removes exactly the roots at T_tau points -- the two roots of the pair
are distinct and have one multiplicity, since conjugation fixes R_C, so
the quadratic's k-th power divides exactly when each root's does -- and
a form of positive degree left over has a root, a point of V(F) on C off
T_tau.
The parametrizations and root forms are built once per geometry, on the
first criterion-(tau) call; a curve costs one substitution F(phi_C) and a
few exact divisions per component.  (The alternative, a Groebner basis of
(F, lambda) in three variables, is hopeless: lambda has degree 95 and
2228 terms.)

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

import math
import time
from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from .algebra import P2, P4, Echelon, Poly, Ring, primitive_form
from .binaryforms import form_content_free, strip_root, sylvester_resultant
from .config import DEFAULT_GB_BUDGET, GroebnerBudget
from .errors import BudgetExceededError, IcotkError
from .groebner import GREVLEX, Ideal, normal_form
from .heights import LogBound, bound_pullback
from .ico_models import IcoModel, _degree_monomials, general_model
from .ico_surface import fixed_geometry


class PlaneCurve:
    """Primitive integer homogeneous F of degree >= 1 in the x,y,z ring."""

    def __init__(self, F: Poly):
        self.F = primitive_form(F, P2, "plane curves", "x,y,z")
        self.degree = self.F.degree()
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
# stage 2: X meet C_tau inside T_tau, on parametrizations of the components
# ---------------------------------------------------------------------------

_LINE = Ring(("s", "t"))  # the parameter line of the C_tau components
_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@lru_cache(maxsize=1)
def _cache(geo):
    """Built on the first criterion-(tau) call of a geometry: per C_tau
    factor, in ctau_factors order, (g, ((phi_C, root forms of C), ...)) over
    the components C of g (_parametrize); and the powers {(i, k): tau_i^k}
    formed so far by stage 3."""
    factors = tuple((g, tuple(_parametrize(geo, C) for C in parts))
                    for g, parts in geo.ctau_components())
    return factors, {}


def _det(a, b, c):
    """The 3x3 determinant with rows a, b, c (ints or Phis)."""
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _parametrize(geo, C: Poly):
    """(phi_C, root forms) for a line or a conic C through a rational T_tau
    point.  phi_C is a triple of integer binary forms in (s, t), of degree
    deg C; the root forms are primitive integer binary forms, one per T_tau
    point of C and one for the conjugate pair if it lies on C, as
    coefficient lists [c_0, ..] of sum c_i s^(deg-i) t^i.

    With w = s*A + t*B: for a line, A = P and B = Q are two of its rational
    T_tau points and phi_C = w; for a conic, P is its first rational T_tau
    point, AB a line of unit points missing P, and
    phi_C = C(w) P - (grad C(P) . w) w, the second point of C on the line
    through P and w.  The root form of a T_tau point R is det(O, R, w), O a
    unit point off the line or O = P on the conic, and grad C(P) . w for
    R = P; the pair's is the Z[phi] form of (1:1:phi) times its conjugate.
    The build asserts, each with its own message, C(phi_C) = 0, that phi_C
    has no base point (sylvester_resultant on two of its forms), and that
    each root form's roots map to its points."""
    quad = geo.ttau_quadratic
    on = [p.coords for p in geo.ttau_rational if C.evaluate(p.coords) == 0]
    P = on[0]
    if C.degree() == 1:
        (A, B), O = on[:2], next(e for e in _UNIT if C.evaluate(e))
    else:
        A, B = next((a, b) for a, b in combinations(_UNIT, 2) if _det(P, a, b))
        O = P
    s, t = (Poly.variable(_LINE, n) for n in _LINE.names)
    w = tuple(s * a + t * b for a, b in zip(A, B))
    phi = w
    if C.degree() == 2:
        # grad C(P) . v = C(P + v) - C(v), as C(P) = 0 and C is quadratic
        tangent = [C.evaluate(tuple(p + v for p, v in zip(P, V))) - C.evaluate(V)
                   for V in (A, B)]
        Cw, Tw = C.substitute(w), s * tangent[0] + t * tangent[1]
        phi = tuple(Cw * p - Tw * wi for p, wi in zip(P, w))
    if not C.substitute(phi).is_zero():
        raise AssertionError(f"the parametrization of {C} leaves it")
    if not _base_point_free([_coefficients(f, C.degree()) for f in phi]):
        raise AssertionError(f"the parametrization of {C} has a base point")
    roots = []
    for R in on:  # O == R only on a conic, at R = P
        form = form_content_free(tangent if O == R else [_det(O, R, A), _det(O, R, B)])
        if not _lands(phi, form, R):
            raise AssertionError(f"the root form of {R} on {C} misses it")
        roots.append(form)
    if C.evaluate(quad.coords) == 0:
        l0, l1 = (_det(O, quad.coords, V) for V in (A, B))
        if not (_lands(phi, [l0, l1], quad.coords)
                and _lands(phi, [l0.conj(), l1.conj()], quad.conjugate())):
            raise AssertionError(f"the root form of the conjugate pair on {C} misses it")
        u = l0 * l1.conj()  # the middle coefficient is Tr(u) = u + u'
        roots.append(form_content_free([l0.norm(), 2 * u.a + u.b, l1.norm()]))
    return phi, tuple(roots)


def _coefficients(f: Poly, D: int):
    """[c_0, .., c_D] for the binary form f = sum c_i s^(D-i) t^i of degree D."""
    out = [0] * (D + 1)
    for (_, et), c in f.terms.items():
        out[et] = c
    return out


def _base_point_free(forms) -> bool:
    """A certificate that the binary forms [c_0, ..] have no common root:
    some c_0 != 0, so (1:0) is none, and two of the f(s, 1) have a nonzero
    sylvester_resultant or one is a nonzero constant, so no (s:1) is.
    False proves nothing: s^2 - t^2, s^2 + st, s^2 - st share no root, yet
    each pair does."""
    if not any(f[0] for f in forms):
        return False
    affine = [f[next(i for i, c in enumerate(f) if c):] for f in forms if any(f)]
    return any(len(a) == 1 for a in affine) or any(
        sylvester_resultant(a, b) for a, b in combinations(affine, 2))


def _lands(phi, form, R) -> bool:
    """Whether phi maps the root (b : -a) of the linear form a*s + b*t to
    the point R."""
    image = [f.evaluate((form[1], -form[0])) for f in phi]
    return any(image) and all(image[i] * R[j] == image[j] * R[i]
                              for i, j in combinations(range(3), 2))


def _stage2(curve: PlaneCurve):
    """None if X meets C_tau only inside T_tau (decided over the algebraic
    closure); else a failure description naming the first C_tau factor,
    in ctau_factors order, that X meets off T_tau or shares a component
    with."""
    F = curve.F
    for g, parts in _cache(fixed_geometry())[0]:
        images = [F.substitute(phi) for phi, _ in parts]
        if any(R.is_zero() for R in images):
            return f"V(F) and V({g}) share a component"
        for R, (_, roots) in zip(images, parts):
            rem = _coefficients(R, R.degree())
            for r in roots:
                rem = strip_root(rem, r)
            if len(rem) > 1:
                return f"V(F) meets V({g}) at a point off T_tau"
    return None


# ---------------------------------------------------------------------------
# stage 3: does the closed image contain a coordinate point?
# ---------------------------------------------------------------------------


def _graded_piece(curve: PlaneCurve, m: int, budget: GroebnerBudget):
    """Primitive generators of J_m = {G homogeneous of degree m with
    F | G(tau)}, by exact kernel computation of the composition map."""
    if m in curve._pieces:
        return curve._pieces[m]
    tau_pows = _cache(fixed_geometry())[1]
    monos = _degree_monomials(m)
    echelon = Echelon()
    out = []
    for expo in monos:
        comp = math.prod(_tau_power(tau_pows, i, k) for i, k in enumerate(expo) if k)
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

    Stage 2 fails X when it meets C_tau off T_tau.  It passes X exactly
    when F vanishes on no component C of C_tau and each binary
    form F(phi_C) has roots only at the parameters of the T_tau points on
    C, so that stripping their root forms leaves a constant.  Otherwise
    stage 3 looks for witnesses in J_1..J_max_image_degree and raises
    BudgetExceededError if some e_i stays unseparated.

    No line reaches stage 3.  Stage 2 fails the C_tau components V(x),
    V(z) and V(y - z) (among ctau_factors) as shared components.  Any other
    line L meets each of them in one point, and stage 2 passes L only if
    all three points lie in T_tau.  T_tau meets V(x) in
    {(0:1:0), (0:0:1), (0:1:1)}, V(z) in
    {(1:0:0), (0:1:0)} and V(y - z) in {(1:0:0), (0:1:1), (1:1:1)}; the
    conjugate pair (1:1:phi), (1:1:1-phi) lies on none of the three lines,
    and no point lies in all three sets.  So L holds two distinct rational
    T_tau points.  The 15 pairs of rational T_tau points span exactly seven
    lines -- x, y, z, x - z, y - z, x - y, x + y - z -- and each of them
    is a C_tau component, which stage 2 fails at the latest as a component
    it shares with its factor.
    """
    if max_image_degree < 1:
        raise ValueError("max_image_degree must be at least 1")
    if curve._report is not None:
        return curve._report
    t0 = time.perf_counter()
    witness = _stage2(curve)
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
    model = IcoModel([ftilde])  # its diagonal holds f~(e_i), checked against the value
    if any(row[0] <= 0 for row in model.diagonal()):
        raise AssertionError("f~ must be positive at every coordinate point")

    cert = bound_pullback(curve.degree, curve.F.max_abs_coeff())
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
