"""Ico models: diagonal coefficients, degeneracy, nu_f, graded bases, genus."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from icotk import ico_models
from icotk.algebra import P4, Poly, grevlex_key, poly_parse
from icotk.errors import IcotkError
from icotk.groebner import hilbert_function
from icotk.ico_models import (
    IcoModel,
    _degree_monomials,
    basis_An,
    expected_rank,
    general_model,
    genus_general,
    genus_phi_sum,
    is_curve,
    is_degenerate,
    model_ideal,
    nu_f,
)
from icotk.ico_surface import fixed_geometry


def _p4(text):
    return poly_parse(text, P4)


def meets_degeneracy_locus(model):
    """Oracle for is_degenerate: some coordinate point e_i kills every
    defining polynomial."""
    points = [[1 if k == i else 0 for k in range(5)] for i in range(5)]
    return any(all(f.evaluate(e) == 0 for f in model.polys) for e in points)


def test_diagonal_example():
    # f_1 = 2 x0^3 + cross terms, f_2 = x1^2 - x0*x2
    model = IcoModel([_p4("2*x0^3 + x1*x2*x3"), _p4("x1^2 - x0*x2")])
    assert model.diagonal() == (
        (2, 0),
        (0, 1),
        (0, 0),
        (0, 0),
        (0, 0),
    )
    assert is_degenerate(model)  # rows 3..5 vanish


def test_degenerate_iff_meets_coordinate_points():
    model = IcoModel([_p4("x0^2 + x1^2 + x2^2 + x3^2 + x4^2")])
    assert not is_degenerate(model)
    assert not meets_degeneracy_locus(model)
    model2 = IcoModel([_p4("x0*x1 + x2*x3")])
    assert is_degenerate(model2)
    assert meets_degeneracy_locus(model2)


def _random_model(rng_ints):
    # one homogeneous cubic from a fixed term pool, coefficients drawn by hypothesis
    pool = [
        (3, 0, 0, 0, 0), (0, 3, 0, 0, 0), (0, 0, 3, 0, 0), (0, 0, 0, 3, 0),
        (0, 0, 0, 0, 3), (1, 1, 1, 0, 0), (0, 1, 1, 1, 0), (1, 0, 0, 1, 1),
        (2, 1, 0, 0, 0), (0, 0, 2, 0, 1),
    ]
    items = [(e, c) for e, c in zip(pool, rng_ints)]
    f = Poly.from_terms(P4, items)
    return None if f.is_zero() else IcoModel([f])


@given(st.lists(st.integers(-4, 4), min_size=10, max_size=10))
@settings(max_examples=150)
def test_degeneracy_definitions_agree(coeffs):
    model = _random_model(coeffs)
    if model is None:
        return
    assert is_degenerate(model) == meets_degeneracy_locus(model)


@given(st.lists(st.integers(-4, 4), min_size=10, max_size=10), st.integers(1, 5))
@settings(max_examples=60)
def test_nu_is_invariant_under_scaling(coeffs, scale):
    model = _random_model(coeffs)
    if model is None:
        return
    scaled = IcoModel([model.polys[0] * scale])
    # the model normalizes to a primitive representative, so nu is unchanged
    assert nu_f(scaled) == nu_f(model)


def test_nu_examples():
    assert nu_f(IcoModel([_p4("x0^5 + x1^5 + x2^5 + x3^5 + x4^5")])) == 1
    # diagonal entries 1,2,3,4,5 -> radical of 120 = 30... with signs kept nonzero
    f = _p4("x0^2 + 2*x1^2 + 3*x2^2 + 4*x3^2 + 5*x4^2")
    assert nu_f(IcoModel([f])) == 30
    g = _p4("2*x0^3 + 3*x1^3 + 5*x2^3 + 7*x3^3 + 11*x4^3")
    assert nu_f(IcoModel([g])) == 2310


def test_model_requires_homogeneous_nonzero():
    with pytest.raises(ValueError):
        IcoModel([_p4("x0 + x1^2")])
    with pytest.raises(ValueError):
        IcoModel([Poly.zero(P4)])
    with pytest.raises(ValueError):
        IcoModel([])


def test_is_curve():
    assert is_curve(IcoModel([_p4("x0 + 2*x1 + 3*x2 + 5*x3 + 7*x4")]))
    # x0 = x1 = 0 still cuts the conic x2*x3 + x2*x4 + x3*x4 = 0
    assert is_curve(IcoModel([_p4("x0"), _p4("x1")]))
    # three coordinate hyperplanes leave the finite set {e_3, e_4}
    assert not is_curve(IcoModel([_p4("x0"), _p4("x1"), _p4("x2")]))


def test_model_ideal_contains_surface():
    geo = fixed_geometry()
    model = IcoModel([_p4("x0")])
    I = model_ideal(model)
    assert geo.sigma2 in I.gens and geo.sigma4 in I.gens


# -- graded pieces of the coordinate ring -------------------------------------


def test_expected_rank_matches_hilbert_function():
    surface = fixed_geometry().surface_ideal()
    for n in range(1, 4):
        assert expected_rank(n) == hilbert_function(surface, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_sizes(n):
    basis = basis_An(n)
    assert len(basis) == expected_rank(n)
    # pure powers come first, in coordinate order
    for i in range(5):
        lead = basis[i]
        assert lead.coeff(tuple(n if j == i else 0 for j in range(5))) != 0


def test_basis_pure_power_relation_is_detected(monkeypatch):
    # x0^n, ..., x4^n are independent mod the surface for n = 1, 2, 3, so
    # the guard is shown a relation: x4^2 gets the normal form of x0^2
    basis_An(2)
    normal_form, x0, x4 = ico_models.normal_form, _p4("x0^2"), _p4("x4^2")

    def related(p, *args):
        return normal_form(x0 if p == x4 else p, *args)

    monkeypatch.setattr(ico_models, "normal_form", related)
    with pytest.raises(IcotkError, match="pure powers are dependent in A_2"):
        basis_An(2)


@pytest.mark.parametrize("n", range(9))
def test_degree_monomials_are_every_exponent_of_degree_n_in_grevlex_order(n):
    every = [e for e in product(range(n + 1), repeat=5) if sum(e) == n]
    assert _degree_monomials(n) == sorted(every, key=grevlex_key, reverse=True)


# basis_An(n) as exponent tuples, each written as its five digits.  Which
# monomials the greedy completion keeps depends only on ranks, not on how
# the elimination runs.
BASIS_AN_EXPONENTS = {
    1: "10000 01000 00100 00010 00001",
    2: "20000 02000 00200 00020 00002 11000 10100 01100 10010 01010 00110 "
       "10001 01001 00101",
    3: "30000 03000 00300 00030 00003 21000 12000 20100 11100 02100 10200 "
       "01200 20010 11010 02010 10110 01110 00210 10020 01020 00120 20001 "
       "11001 02001 10101 01101 00201 10002 01002 00102",
    4: "40000 04000 00400 00040 00004 31000 22000 13000 30100 21100 12100 "
       "03100 20200 11200 02200 10300 01300 30010 21010 12010 03010 20110 "
       "11110 02110 10210 01210 00310 20020 11020 02020 10120 01120 00220 "
       "10030 01030 00130 30001 21001 12001 03001 20101 11101 02101 10201 "
       "00301 20002 11002 02002 10102 01102 00202 10003 01003 00103",
}


@pytest.mark.parametrize("n", sorted(BASIS_AN_EXPONENTS))
def test_basis_An_exponents_pinned(n):
    expos = [next(iter(p.terms)) for p in basis_An(n)]
    assert " ".join("".join(map(str, e)) for e in expos) == BASIS_AN_EXPONENTS[n]


def test_general_model_length_check():
    with pytest.raises(ValueError):
        general_model(1, (1, 2, 3))
    with pytest.raises(ValueError):
        general_model(1, (0, 0, 0, 0, 0))


def test_general_model_diagonal_is_v_prefix():
    v = (3, -1, 4, 1, -5)
    model = general_model(1, v)
    assert tuple(row[0] for row in model.diagonal()) == v
    v2 = tuple(range(1, 15))
    model2 = general_model(2, v2)
    assert tuple(row[0] for row in model2.diagonal()) == v2[:5]


# -- genus ---------------------------------------------------------------------


def test_genus_phi_sum_closed_forms():
    assert genus_phi_sum((2, 4, 1)) == 9
    assert genus_phi_sum((2, 4, 2)) == 25
    assert genus_phi_sum((2, 4, 3)) == 49


@given(st.integers(1, 12))
def test_genus_general_formula(n):
    assert genus_general(n) == (2 * n + 1) ** 2
