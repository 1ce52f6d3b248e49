"""The fixed geometry: tau/rho identities, T_tau, C_tau, frozen point oracles."""

import hashlib
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from icotk import ico_surface
from icotk.algebra import P2, Phi, Poly, poly_parse
from icotk.config import GroebnerBudget
from icotk.errors import BasePointError, BudgetExceededError, NotOnSurfaceError
from icotk.ico_surface import (
    FixedGeometry,
    ProjPoint,
    _sampled_c,
    fixed_geometry,
    rho_point,
    tau_point,
    ttau_points,
    verify_identities,
)


@pytest.fixture(scope="module")
def geo():
    return fixed_geometry()


# -- structural facts about the fixed forms ----------------------------------


def test_degrees(geo):
    assert [t.degree() for t in geo.t] == [3, 3, 3, 3]
    assert [t.degree() for t in geo.tau] == [12] * 5
    assert [r.degree() for r in geo.rho] == [8] * 3
    assert geo.lam.degree() == 95
    assert len(geo.lam.terms) == 2228


def test_lambda_factorization(geo):
    # lambda = (t0 t1 t2 t3 (t0+t1+t2+t3))^6 * v with v of degree 5, and
    # y v = t0 (sum t), so v adds no point to C_tau
    v = geo.v
    assert v.degree() == 5
    core = geo.t[0] * geo.t[1] * geo.t[2] * geo.t[3] * geo.t_sum
    assert geo.lam == core**6 * v
    assert poly_parse("y", P2) * v == geo.t[0] * geo.t_sum


def test_ctau_factor_degrees(geo):
    assert sorted(f.degree() for f in geo.ctau_factors()) == [1, 1, 1, 2, 2, 2, 3, 3]
    assert geo.v.degree() == 5


# sha256 of the printed lambda and (*ctau_factors(), v) tuple, first 16 hex
# digits, computed when the build still expanded lambda and ctau_factors
# divided it (and still listed v last)
LAMBDA_DIGEST = "36cad524c907cedf"
CTAU_FACTORS_DIGEST = "92c85ad82451fbc8"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_lambda_and_ctau_factors_are_pinned(geo):
    assert _digest(str((*geo.ctau_factors(), geo.v))) == CTAU_FACTORS_DIGEST
    assert _digest(str(geo.lam)) == LAMBDA_DIGEST


@given(st.tuples(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60)))
@settings(max_examples=60)
def test_lambda_at_a_point_from_its_factored_form(geo, p):
    vals = [t.evaluate(p) for t in geo.t]
    core = vals[0] * vals[1] * vals[2] * vals[3] * sum(vals)
    want = geo.lam.evaluate(p)
    assert core**6 * geo.v.evaluate(p) == want
    assert geo.lam_at(p) == want


def _perturbed_geometry(perturb, after="tau"):
    """A FixedGeometry whose t/tau/v are changed by perturb(geo) right after
    the attribute `after` is assigned: by default right after tau is built,
    i.e. before the bracket identities read them."""

    class Perturbed(FixedGeometry):
        def __setattr__(self, name, value):
            object.__setattr__(self, name, value)
            if name == after:
                perturb(self)

    return Perturbed()


def _bump(seq, j):
    seq = list(seq)
    seq[j] = seq[j] + poly_parse("y^3", P2)
    return tuple(seq)


@pytest.mark.parametrize("j", range(4))
def test_perturbed_cubic_fails_the_build(j):
    # tau comes from the true cubics; the check reads a perturbed t_j
    with pytest.raises(AssertionError, match="bracket identity tau1 \\+ tau3"):
        _perturbed_geometry(lambda g: object.__setattr__(g, "t", _bump(g.t, j)))


@pytest.mark.parametrize("j,term", [(0, "x*y*z"), (1, "x*y*z"), (2, "x*y*z"),
                                    (3, "x*y*z"), (1, "x^3"), (2, "y^3")])
def test_perturbed_input_cubic_fails_the_cubic_identity(j, term):
    # the cubics are wrong from the start, so tau is never built from them

    def bump(g):
        t = list(g.t)
        t[j] = t[j] + poly_parse(term, P2)
        object.__setattr__(g, "t", tuple(t))

    with pytest.raises(AssertionError, match="cubic identity"):
        _perturbed_geometry(bump, after="t")


@pytest.mark.parametrize("i", [0, 2])
def test_perturbed_tau_fails_the_second_bracket_identity(i):
    # tau0 and tau2 enter only the second identity
    with pytest.raises(AssertionError, match="bracket identity tau1 tau2"):
        _perturbed_geometry(lambda g: object.__setattr__(g, "tau", _bump(g.tau, i)))


@pytest.mark.parametrize("term", ["y^5", "x*z^4", "-z^5"])
def test_perturbed_quintic_fails_the_quintic_identity(term):
    # the bracket identities hold; only v, read by lam_at and verify, is off
    def bump(g):
        object.__setattr__(g, "v", g.v + poly_parse(term, P2))

    with pytest.raises(AssertionError, match="quintic identity y\\*v == t0\\*sum\\(t\\)"):
        _perturbed_geometry(bump, after="v")


# -- frozen point oracles ------------------------------------------------------


def test_tau_point_124(geo):
    q = tau_point((1, 2, 4))
    assert q.coords == (126, -140, 315, 630, -180)
    assert geo.sigma2.evaluate(q.coords) == 0
    assert geo.sigma4.evaluate(q.coords) == 0
    # raw values before primitive normalization share the content 64
    raw = [t.evaluate((1, 2, 4)) for t in geo.tau]
    assert raw == [8064, -8960, 20160, 40320, -11520]


def test_rho_round_trip_example():
    assert rho_point((126, -140, 315, 630, -180)).coords == (1, 2, 4)


def test_rho_rejects_off_surface_points():
    with pytest.raises(NotOnSurfaceError):
        rho_point((1, 1, 1, 1, 1))


def test_rho_base_points(geo):
    # every r_i has >= 3 zero factors at a coordinate point
    for i in range(5):
        with pytest.raises(BasePointError):
            rho_point(geo.e_points[i])


def test_tau_base_points_are_ttau(geo):
    rational, _ = ttau_points()
    for p in rational:
        with pytest.raises(BasePointError):
            tau_point(p)


def test_ttau_rational_points(geo):
    rational, quadratic = ttau_points()
    assert {p.coords for p in rational} == {
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 0, 1),
        (0, 1, 1),
        (1, 1, 1),
    }
    for p in rational:
        assert all(t.evaluate(p.coords) == 0 for t in geo.tau)
    for coords in (quadratic.coords, quadratic.conjugate()):
        assert all(t.evaluate(coords) == 0 for t in geo.tau)


def test_110_is_not_a_base_point(geo):
    vals = [t.evaluate((1, 1, 0)) for t in geo.tau]
    assert vals == [0, 0, 0, 1, 0]


# -- identity suite -----------------------------------------------------------


def test_identities_symbolic():
    rep = verify_identities(mode="symbolic", samples=5, seed=11)
    assert rep.passed, rep.checks


def test_symbolic_c_refuses_a_tiny_budget_before_the_degree_96_substitution(monkeypatch):
    fresh = FixedGeometry()  # its surface ideal has no basis yet
    substituted, substitute = [], Poly.substitute

    def spy(self, images):
        substituted.append(images)
        return substitute(self, images)

    monkeypatch.setattr(ico_surface, "fixed_geometry", lambda: fresh)
    monkeypatch.setattr(Poly, "substitute", spy)
    with pytest.raises(BudgetExceededError):
        verify_identities(symbolic_c=True, budget=GroebnerBudget(max_reductions=1))
    assert substituted and fresh.rho not in substituted


def test_identities_sampled():
    rep = verify_identities(mode="sampled", samples=25, seed=7)
    assert rep.passed, rep.checks


def test_sampled_identity_c_fails_with_one_tau_perturbed(geo):
    # rho(q) is divided by the gcd of its coordinates before tau is applied;
    # that must not hide a tau for which identity (c) fails
    pts = [(-7, 5, 11), (4, -9, 2)]
    assert all(geo.lam_at(p) for p in pts)
    assert _sampled_c(geo, pts)[1] is True
    x = Poly.variable(P2, "x")
    # rho(q) stays a multiple of p when q_4 moves, so a perturbed tau_4
    # still satisfies (c) at every sample; tau_0..tau_3 do not
    for i in range(4):
        tau = list(geo.tau)
        tau[i] = tau[i] + x**12
        assert _sampled_c(SimpleNamespace(tau=tau, rho=geo.rho), pts)[1] is False, i


@given(st.tuples(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60)))
@settings(max_examples=60)
def test_tau_lands_on_surface_and_rho_inverts(geo, p):
    if geo.lam.evaluate(p) == 0:
        return
    q = [t.evaluate(p) for t in geo.tau]
    assert geo.sigma2.evaluate(q) == 0
    assert geo.sigma4.evaluate(q) == 0
    lam_p = geo.lam.evaluate(p)
    back = [r.evaluate(q) for r in geo.rho]
    assert back == [lam_p * c for c in p]


# -- the collapse lemma: tau maps each C_tau component to a single e_i --------

COLLAPSE_LINE_ORACLES = [
    # (line through two points of the component, target e index)
    ("x", 2),
    ("z", 3),
    ("y - z", 0),
    ("x - y", 3),
    ("x + y - z", 3),
]


@pytest.mark.parametrize("line,target", COLLAPSE_LINE_ORACLES)
def test_collapse_on_linear_factors(geo, line, target):
    f = poly_parse(line, P2)
    rng = random.Random(99)
    hits = 0
    while hits < 6:
        p = tuple(rng.randint(-30, 30) for _ in range(3))
        if f.evaluate(p) != 0:
            continue
        vals = [t.evaluate(p) for t in geo.tau]
        if all(v == 0 for v in vals):
            continue  # landed on T_tau
        q = ProjPoint(vals)
        assert q == geo.e_points[target], (line, p, q.coords)
        hits += 1


CONIC_ORACLES = [
    # rational parametrizations of the two conic factors
    (lambda s, t: (s * s, t * t - s * t, s * t), 0),  # x*y + x*z - z^2
    (lambda s, t: (s * s - t * t, s * t, s * s), 2),  # z^2 - y^2 - x*z
]


@pytest.mark.parametrize("param,target", CONIC_ORACLES)
def test_collapse_on_conic_factors(geo, param, target):
    hits = 0
    for s in range(-6, 7):
        for t in range(-6, 7):
            p = param(s, t)
            if not any(p):
                continue
            vals = [u.evaluate(p) for u in geo.tau]
            if all(v == 0 for v in vals):
                continue
            assert ProjPoint(vals) == geo.e_points[target], (p,)
            hits += 1
    assert hits > 50


def test_proj_point_normalization():
    assert ProjPoint((2, -4, 6)).coords == (1, -2, 3)
    assert ProjPoint((-2, 4, -6)).coords == (1, -2, 3)
    assert ProjPoint((0, 0, -5)).coords == (0, 0, 1)
    with pytest.raises(ValueError):
        ProjPoint((0, 0, 0))


def test_proj_point_fractions_and_ints_agree():
    assert ProjPoint((Fraction(1, 2), 1, Fraction(-3, 4))).coords == (2, 4, -3)
    assert ProjPoint((Fraction(4), 2, 0)) == ProjPoint((2, 1, 0))
    assert ProjPoint((True, 0, 2)).coords == (1, 0, 2)  # an int subclass


def _list_projpoint_coords(coords):
    """The earlier list-based canonicalization of ProjPoint: the oracle."""
    ints = list(coords)
    if not all(type(c) is int for c in ints):
        denom = 1
        for c in ints:
            if isinstance(c, Fraction):
                denom = denom * c.denominator // gcd(denom, c.denominator)
            elif not isinstance(c, int):
                raise TypeError(f"coordinate {c!r} is neither an int nor a Fraction")
        ints = [int(c * denom) for c in ints]
    if not any(ints):
        raise ValueError("projective point needs a nonzero coordinate")
    g = gcd(*ints)
    if next(c for c in ints if c) < 0:
        g = -g
    return tuple(c // g for c in ints)


class _Int(int):
    """An int subclass other than bool."""


_COORD = st.one_of(
    st.integers(),
    st.integers(-3, 3),
    st.sampled_from([0, False, Fraction(0)]),
    st.fractions(max_denominator=12),
    st.booleans(),
    st.builds(_Int, st.integers(-9, 9)),
    st.floats(),
)


@settings(max_examples=400)
@given(st.lists(_COORD, max_size=6), st.integers(-6, 6))
def test_proj_point_matches_the_list_oracle(coords, k):
    for t in (coords, [k * c for c in coords if not isinstance(c, float)]):
        try:
            want = _list_projpoint_coords(t)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                ProjPoint(t)
        else:
            got = ProjPoint(t).coords
            assert got == want
            assert set(map(type, got)) <= {int}  # no bool or other subclass kept


@pytest.mark.parametrize("bad", [(0.5, 1, 0), (1, 2.0, 3), (1, "2", 3), (1, None, 0)])
def test_proj_point_rejects_other_coordinate_types(bad):
    # (0.5, 1, 0) used to become (0:1:0)
    with pytest.raises(TypeError):
        ProjPoint(bad)


def test_quadratic_point_conjugate():
    _, quad = ttau_points()
    assert quad.coords == (Phi(1, 0), Phi(1, 0), Phi(0, 1))
    assert quad.conjugate() == (Phi(1, 0), Phi(1, 0), Phi(1, -1))


def test_the_components_of_a_factor_multiply_to_it():
    geo = FixedGeometry()
    parts = dict(geo.ctau_components())
    x, y, z = (Poly.variable(P2, n) for n in "xyz")
    assert [len(parts[g]) for g in geo.ctau_factors()] == [1, 1, 1, 1, 1, 2, 2, 2]
    assert geo.ctau_components() is geo.ctau_components()
    skewed = FixedGeometry()
    factors = list(skewed.ctau_factors())
    factors[5] = (x - y) * (x + y + z)  # q3 is (x - y)(x + y - z)
    skewed._ctau_factors = tuple(factors)
    with pytest.raises(AssertionError, match="is not the product of its components"):
        skewed.ctau_components()
