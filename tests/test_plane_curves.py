"""Criterion (tau) for plane curves, pullbacks, and containing models."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icotk.algebra import P2, P4, Poly, poly_parse
from icotk.groebner import normal_form
from icotk.ico_models import general_model, is_degenerate
from icotk.ico_surface import fixed_geometry, tau_point
from icotk.plane_curves import (
    PlaneCurve,
    check_tau,
    containing_model,
    family_curve,
    image_ideal,
    pullback_rho,
    pullback_tau,
    tau_witness,
)


def _curve(text):
    return PlaneCurve(poly_parse(text, P2))


# -- pullbacks -----------------------------------------------------------------


def test_pullback_tau_degree():
    f = poly_parse("x0 + x1 + x2 + x3 + x4", P4)
    F = pullback_tau(f)
    assert F.degree() == 12
    # tau* of the surface relations vanishes, and is rejected
    geo = fixed_geometry()
    with pytest.raises(ValueError):
        pullback_tau(geo.sigma2)


def test_pullback_rho_degree():
    g = poly_parse("x + y + z", P2)
    assert pullback_rho(g).degree() == 8


@pytest.mark.parametrize("n,scale", [(1, 1), (1, 3), (2, 1)])
def test_family_curve_degree(n, scale):
    v = tuple(scale * (i + 1) for i in range(5 if n == 1 else 14))
    F = family_curve(n, v)
    assert F.degree == 12 * n


def test_tau_witness_single_poly_full_diagonal():
    model = general_model(1, (1, 1, 1, 1, 1))
    assert tau_witness(model)
    assert not tau_witness(general_model(1, (0, 1, 1, 1, 1)))


# -- check_tau -----------------------------------------------------------------


def test_coordinate_line_fails():
    rep = check_tau(_curve("x"))
    assert rep.verdict == "fails"
    assert rep.stage == "curve-meets-Ctau-off-Ttau"
    assert "divides" in rep.witness


def test_ctau_components_fail_fast():
    for text in ("z", "y - z", "x*y + x*z - z^2", "z^2 - y^2 - x*z"):
        rep = check_tau(_curve(text))
        assert rep.verdict == "fails"
        assert rep.stage == "curve-meets-Ctau-off-Ttau"


def test_generic_line_fails_by_intersection():
    # every line meets C_tau; this one does so away from T_tau
    rep = check_tau(_curve("x + 2*y + 5*z"))
    assert rep.verdict == "fails"
    assert rep.stage == "curve-meets-Ctau-off-Ttau"
    assert "off T_tau" in rep.witness


def test_line_image_membership_helper():
    # Every line meets V(y - z) somewhere, and away from T_tau that
    # component collapses to e_0, so the image closure of a generic line
    # contains e_0.  (check_tau already rejects these lines at the C_tau
    # stage; the helper is the exact degree-1 backstop for stage 3.)
    from icotk.plane_curves import _line_image_failure

    for text in ("2*x - y", "x + 2*y + 5*z", "x - 4*z"):
        assert _line_image_failure(_curve(text)) == 0


def test_form_gcd_degree_counts_the_power_of_t():
    from icotk.plane_curves import _PARAM_RING, _form_gcd_degree

    s = Poly.variable(_PARAM_RING, "s")
    t = Poly.variable(_PARAM_RING, "t")
    zero = Poly.zero(_PARAM_RING)
    # gcd t^3 (s - t): t^3 is invisible at t = 1
    assert _form_gcd_degree([t**3 * (s - t) * (s + 2 * t), t**4 * (s - t) * s]) == 4
    assert _form_gcd_degree([zero, s * t**2]) == 3  # zero forms are neutral
    assert _form_gcd_degree([s**2 + t**2, s * t]) == 0
    assert _form_gcd_degree([zero, zero]) is None


SEED_VECTORS = [
    (1, 1, 1, 1, 1),
    (1, 2, 3, 4, 5),
    (2, -1, 1, 3, 1),
    (5, 1, -2, 1, 4),
    (1, -3, 2, -1, 2),
]


@pytest.mark.parametrize("v", SEED_VECTORS)
def test_family_pullbacks_satisfy(v):
    model = general_model(1, v)
    assert not is_degenerate(model)
    F = family_curve(1, v)
    rep = check_tau(F)
    assert rep.verdict == "satisfies", rep.witness
    assert rep.stage == "none"
    assert tau_witness(model) == rep.satisfies


def test_degree_two_family_pullback_satisfies():
    rng = random.Random(2024)
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(14))
        if all(v[:5]):
            break
    F = family_curve(2, v)
    rep = check_tau(F)
    assert rep.satisfies


@given(st.tuples(*([st.integers(-6, 6)] * 5)))
@settings(max_examples=10)
def test_random_degree_one_pullbacks(v):
    # nonzero diagonal <=> non-degenerate model <=> pullback satisfies (tau)
    if not all(v):
        return
    rep = check_tau(family_curve(1, v))
    assert rep.satisfies


# -- image ideal ---------------------------------------------------------------


def test_image_ideal_line_example():
    # generators of the image ideal vanish at tau(p) for p on the line
    curve = _curve("2*x - y")  # contains (1, 2, 4)
    J = image_ideal(curve, max_image_degree=2)
    q = tau_point((1, 2, 4)).coords
    for g in J.gens:
        assert g.evaluate(q) == 0
    q2 = tau_point((2, 4, 16)).coords  # another point of the line, x = 2
    for g in J.gens:
        assert g.evaluate(q2) == 0


# J_1 and J_2 as generator strings.  Each generator is the unique kernel
# vector with coefficient 1 at its own monomial and support on the earlier
# independent ones, so any exact elimination must reproduce them.
GRADED_PIECES = {
    "family (1,2,3,4,5)": {
        1: ["x0 + 2*x1 + 3*x2 + 4*x3 + 5*x4"],
        2: [
            "x0^2 - 2*x0*x1 + 2*x1^2 - x0*x2 + 3*x2^2 + x1*x3 + 2*x2*x3 + 4*x3^2",
            "x0^2 + 2*x0*x1 + 3*x0*x2 + 4*x0*x3 + 5*x0*x4",
            "x0*x1 + 2*x1^2 + 3*x1*x2 + 4*x1*x3 + 5*x1*x4",
            "x0*x2 + 2*x1*x2 + 3*x2^2 + 4*x2*x3 + 5*x2*x4",
            "x0^2 - 2*x0*x1 + 2*x1^2 - x0*x2 + 3*x2^2 - x0*x3 - x1*x3 - x2*x3"
            " - 5*x3*x4",
            "3*x0^2 - 12*x0*x1 + 4*x1^2 - 10*x0*x2 - 12*x1*x2 + 3*x2^2 - 8*x0*x3"
            " - 12*x1*x3 - 16*x2*x3 + 25*x4^2",
        ],
    },
    "2*x - y": {
        1: [],
        2: ["x0*x1 + x0*x2 + x1*x2 + x0*x3 + x1*x3 + x2*x3 + x0*x4 + x1*x4"
            " + x2*x4 + x3*x4"],
    },
}


@pytest.mark.parametrize("name", sorted(GRADED_PIECES))
def test_graded_pieces_pinned(name):
    if name.startswith("family"):
        curve = family_curve(1, (1, 2, 3, 4, 5))
    else:
        curve = _curve(name)
    pieces = GRADED_PIECES[name]
    J1 = [str(g) for g in image_ideal(curve, max_image_degree=1).gens[2:]]
    J12 = [str(g) for g in image_ideal(curve, max_image_degree=2).gens[2:]]
    assert J1 == pieces[1]
    assert J12 == pieces[1] + pieces[2]


def test_image_ideal_of_family_contains_model():
    v = (1, 1, 1, 1, 1)
    F = family_curve(1, v)
    J = image_ideal(F, max_image_degree=1)
    f = general_model(1, v).polys[0]
    assert any(g == f for g in J.gens)


def test_image_generators_pull_back_into_the_curve_ideal():
    # the defining property of the graded pieces: F divides G o tau, so G
    # vanishes on the whole tau-image of V(F)
    geo = fixed_geometry()
    v = (1, 2, 3, 4, 5)
    F = family_curve(1, v)
    rep = check_tau(F)
    for g in rep.image_gens:
        comp = g.substitute(geo.tau)
        assert normal_form(comp, [F.F]).is_zero()


def test_image_ideal_vanishes_along_a_whole_line():
    curve = _curve("2*x - y")
    J = image_ideal(curve, max_image_degree=2)
    geo = fixed_geometry()
    for t, u in [(1, 4), (1, -1), (2, 3), (3, 1), (-1, 5)]:
        p = (t, 2 * t, u)
        assert curve.F.evaluate(p) == 0
        if all(f.evaluate(p) == 0 for f in geo.tau):
            continue
        q = tau_point(p).coords
        for g in J.gens:
            assert g.evaluate(q) == 0


# -- containing models -----------------------------------------------------------


def test_containing_model_for_family():
    F = family_curve(1, (1, 1, 1, 1, 1))
    rep = containing_model(F)
    geo = fixed_geometry()
    ftilde = rep.model.polys[0]
    assert rep.degree == ftilde.degree() == 2 * rep.r
    assert rep.degree <= rep.degree_bound == 128 * 12
    assert not is_degenerate(rep.model)
    for e in geo.e_points:
        assert ftilde.evaluate(e.coords) > 0
    basis = image_ideal(F).groebner()
    assert normal_form(ftilde, basis).is_zero()
    assert rep.within_degree_bound and rep.within_coeff_bound


def test_containing_model_requires_satisfying_curve():
    with pytest.raises(ValueError):
        containing_model(_curve("x"))


def test_check_tau_report_is_cached():
    F = family_curve(1, (2, 1, 1, 1, 3))
    r1 = check_tau(F)
    r2 = check_tau(F)
    assert r1 is r2


# -- stage 2 pinned on a corpus ------------------------------------------------


def _random_curve_through_012(rng, d):
    """A random degree-d form with F(0, 1, 2) = 0: the y^d coefficient
    absorbs the value of the others.  (0:1:2) lies on V(x) but not in
    T_tau, so these curves fail through stage 2."""
    terms = {}
    for ex in range(d + 1):
        for ey in range(d + 1 - ex):
            terms[(ex, ey, d - ex - ey)] = rng.randint(-3, 3)
    terms[(0, d, 0)] -= sum(c * 2 ** e[2] for e, c in terms.items() if e[0] == 0)
    return Poly(P2, {e: c for e, c in terms.items() if c})


def _stage2_corpus():
    curves = []
    for a, b, c in itertools.product(range(-2, 3), repeat=3):
        if (a, b, c) != (0, 0, 0):
            terms = zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (a, b, c))
            curves.append(PlaneCurve(Poly(P2, {e: k for e, k in terms if k})))
    rng = random.Random(8)
    for d in (2, 3, 4):
        for _ in range(6):
            F = _random_curve_through_012(rng, d)
            if F.degree() == d:
                curves.append(PlaneCurve(F))
    curves.append(family_curve(1, (1, 2, 3, 4, 5)))
    curves.append(family_curve(1, (2, -1, 3, 1, 1)))
    return curves


def test_stage2_verdicts_pinned():
    # digest of (verdict, stage, witness) over the corpus, computed before
    # stage 2 moved from the ZZ/ZPhi tables to int and Phi arithmetic
    curves = _stage2_corpus()
    reports = [check_tau(c) for c in curves]
    line_witnesses = " | ".join(r.witness for r in reports[:124])
    for kind in ("divides F", "F divides the C_tau factor", "at a point off T_tau",
                 "second point on the fiber line of a T_tau point"):
        assert kind in line_witnesses
    assert all(r.satisfies for r in reports[-2:])
    h = hashlib.sha256()
    for r in reports:
        h.update(repr((r.verdict, r.stage, r.witness)).encode())
    assert (len(curves), h.hexdigest()[:16]) == (144, "67d1dcd631d544d9")
