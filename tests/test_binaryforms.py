"""Z[phi] arithmetic, Bareiss determinants, binary-form root stripping."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from icotk.algebra import P2, poly_parse
from icotk.binaryforms import (
    Phi,
    bareiss_det,
    divide_linear,
    interpolate,
    strip_root,
    sylvester_resultant,
)

small_ints = st.integers(-20, 20)
zphi_elems = st.builds(Phi, small_ints, small_ints)
mixed_elems = st.one_of(small_ints, zphi_elems)
PHI = Phi(0, 1)


def form_mul(f, g):
    """Oracle: product of two binary forms given as coefficient lists."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


def form_eval(f, s, t):
    """Oracle: the binary form f at (s:t)."""
    d = len(f) - 1
    total = 0
    for i, c in enumerate(f):
        term = c
        for _ in range(d - i):
            term = term * s
        for _ in range(i):
            term = term * t
        total = total + term
    return total


@given(zphi_elems, zphi_elems, zphi_elems)
def test_zphi_is_a_commutative_ring(u, v, w):
    assert u * v == v * u
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert u + (-u) == 0
    assert u * 1 == u


@given(mixed_elems, mixed_elems, mixed_elems)
def test_ring_identities_with_mixed_operands(u, v, w):
    assert u * v == v * u and u + v == v + u
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert u - v == u + (-v) == -(v - u)
    assert u * 0 == 0 and u * 1 == u and u + 0 == u
    # an int operand acts as Phi(n, 0) on either side
    as_phi = [x if isinstance(x, Phi) else Phi(x, 0) for x in (u, v)]
    assert u * v == as_phi[0] * as_phi[1] and u - v == as_phi[0] - as_phi[1]


def test_phi_satisfies_its_minimal_polynomial():
    # phi^2 = phi + 1
    assert PHI * PHI == PHI + 1
    assert PHI**2 == PHI + 1 and PHI**0 == 1


@given(zphi_elems, zphi_elems)
def test_zphi_norm_is_multiplicative_with_conjugate(u, v):
    assert u * u.conj() == u.norm()
    assert (u * v).norm() == u.norm() * v.norm()
    assert (u * v).conj() == u.conj() * v.conj()


@given(zphi_elems, zphi_elems)
def test_zphi_exact_division_round_trip(u, v):
    if v.norm() == 0:
        return
    assert divmod(u * v, v) == (u, 0)


def _quotient_over_q(u, v):
    """u/v in the basis (1, phi) over Q, by Cramer's rule on
    (x + y*phi)(c + d*phi) = u: the oracle for divisibility."""
    c, d = v.a, v.b
    det = c * (c + d) - d * d
    x = Fraction(u.a * (c + d) - d * u.b, det)
    y = Fraction(c * u.b - d * u.a, det)
    return x, y


@given(mixed_elems, mixed_elems)
@settings(max_examples=200)
def test_divmod_remainder_is_zero_iff_the_division_is_exact(u, v):
    if not v:
        with pytest.raises(ZeroDivisionError):
            divmod(u, v)
        return
    q, r = divmod(u, v)
    assert q * v + r == u
    x, y = _quotient_over_q(Phi(u) if isinstance(u, int) else u,
                            Phi(v) if isinstance(v, int) else v)
    assert (r == 0) == (x.denominator == 1 and y.denominator == 1)


def test_divmod_by_a_zero_phi_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(Phi(3, 1), Phi(0, 0))
    with pytest.raises(ZeroDivisionError):
        divmod(5, Phi(0, 0))


@given(small_ints, small_ints)
def test_phi_with_zero_phi_part_is_the_int(a, b):
    assert Phi(a, 0) == a and a == Phi(a, 0)
    assert hash(Phi(a, 0)) == hash(a)
    assert len({a, Phi(a, 0)}) == 1
    assert bool(Phi(a, 0)) == bool(a)
    if b:
        assert Phi(a, b) != a and bool(Phi(a, b))


def test_phi_rejects_other_operands():
    u = Phi(1, 2)
    for other in (Fraction(1, 2), 0.5, "1", None):
        for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q, divmod):
            with pytest.raises(TypeError):
                op(u, other)
            with pytest.raises(TypeError):
                op(other, u)
        assert u != other
    with pytest.raises(AttributeError):
        u.a = 5


def test_polynomials_evaluate_at_phi_points():
    f = poly_parse("x^2 - x*y - y^2", P2)  # phi is a root of t^2 - t - 1
    assert f.evaluate((PHI, 1, 7)) == 0
    assert f.evaluate((PHI.conj(), Phi(1, 0), 0)) == 0
    assert f.evaluate((PHI, 2, 0)) == Phi(-3, -1)  # phi + 1 - 2 phi - 4


def test_bareiss_known_determinants():
    assert bareiss_det([[2]]) == 2
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert bareiss_det([]) == 1
    # singular, with a row swap needed along the way
    assert bareiss_det([[0, 1, 1], [1, 0, 1], [1, 1, 2]]) == 0


@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=100)
def test_bareiss_against_cofactor_expansion(m):
    def det3(a):
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )

    assert bareiss_det(m) == det3(m)


def _cofactor_det(a):
    if len(a) == 1:
        return a[0][0]
    total = 0
    for j, c in enumerate(a[0]):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = c * _cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.one_of(st.integers(-4, 4),
                                          st.builds(Phi, st.integers(-3, 3), st.integers(-3, 3))),
                                min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=150)
def test_bareiss_over_zphi_and_mixed_entries_against_cofactor_expansion(m):
    assert bareiss_det(m) == _cofactor_det(m)


def test_bareiss_over_zphi_known_determinant():
    # [[phi, 1], [1, phi]] has determinant phi^2 - 1 = phi
    assert bareiss_det([[PHI, 1], [1, PHI]]) == PHI
    # rows (1, phi) and (phi, phi + 1) are proportional
    assert bareiss_det([[1, PHI, 2], [PHI, PHI + 1, 2 * PHI], [3, 0, Phi(1, 1)]]) == 0


def test_bareiss_refuses_an_inexact_step():
    # outside a ring a step leaves a remainder; it is an error, never floored
    with pytest.raises(ArithmeticError):
        bareiss_det([[Fraction(1, 2), 1], [1, 1]])


def test_resultant_detects_common_roots():
    # (x - 2)(x - 3) and (x - 2)(x + 1) share x = 2
    f = [1, -5, 6]
    g = [1, -1, -2]
    assert sylvester_resultant(f, g) == 0
    # no common root
    h = [1, 0, 1]
    assert sylvester_resultant(f, h) != 0


@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
def test_resultant_of_linears(a, b, c):
    # res(x - a, x - b) = b - a up to sign; scaling multiplies predictably
    if c == 0:
        return
    r = sylvester_resultant([1, -a], [1, -b])
    assert abs(r) == abs(a - b)
    assert sylvester_resultant([c, -c * a], [1, -b]) == c * r if r or True else None


def test_strip_root_multiplicity():
    # f = (s - t)^3 * (s + t), roots at (1:1) three times
    f = form_mul(form_mul([1, -1], [1, -1]), form_mul([1, -1], [1, 1]))
    reduced, mult = strip_root(f, 1, 1)
    assert mult == 3
    assert reduced == [1, 1] or reduced == [-1, -1]
    # t^2 vanishes at (s:t) = (1:0), the point at infinity
    g = [0, 0, 1, 2]  # t^2*(s + 2t)
    reduced2, mult2 = strip_root(g, 1, 0)
    assert mult2 == 2
    assert reduced2 == [1, 2]


def test_divide_linear_rejects_non_roots():
    assert divide_linear([1, 0, 1], 1, 1) is None  # s^2 + t^2 at (1:1) = 2


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=5),
       st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=120)
def test_strip_root_removes_exactly_the_root(coeffs, a, b):
    if (a, b) == (0, 0) or all(c == 0 for c in coeffs):
        return
    g = gcd(a, b)
    a, b = a // g, b // g
    f = form_mul(coeffs, [b, -a])  # multiply in one (a:b) root
    reduced, mult = strip_root(f, a, b)
    assert mult >= 1
    assert form_eval(reduced, a, b) != 0 or len(reduced) == 1


@st.composite
def _forms_and_roots(draw):
    """(g, a, b): a random form g and a point (a:b) with b != 0, over Z or
    Z[phi]; over Z the point is primitive."""
    if draw(st.booleans()):
        g = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
        a = draw(st.integers(-6, 6))
        b = draw(st.integers(1, 6))
        g_ab = gcd(a, b)
        return g, a // g_ab, b // g_ab
    small = st.builds(Phi, st.integers(-5, 5), st.integers(-5, 5))
    g = draw(st.lists(small, min_size=1, max_size=5))
    b = draw(small.filter(bool))
    return g, draw(small), b


@given(_forms_and_roots())
@settings(max_examples=200)
def test_divide_linear_scales_the_quotient_by_b_to_the_degree(case):
    g, a, b = case
    f = form_mul(g, [b, -a])  # g * (b*s - a*t), degree len(g)
    scale = 1
    for _ in range(len(g)):
        scale = scale * b
    if not any(g):
        assert divide_linear(f, a, b) is None  # the zero form
        return
    assert divide_linear(f, a, b) == [scale * c for c in g]
    # a nonzero t^d term added moves f(a, b) by a multiple of b^d != 0
    f[-1] = f[-1] + 1
    assert form_eval(f, a, b) != 0
    assert divide_linear(f, a, b) is None


def test_interpolation_round_trip():
    rng = random.Random(11)
    coeffs = [rng.randint(-9, 9) for _ in range(5)]

    def val(x):
        acc = 0
        for c in coeffs:
            acc = acc * x + c
        return acc

    pts = [(x, val(x)) for x in range(-2, 3)]
    got = interpolate(pts)
    lead = next(i for i, c in enumerate(coeffs) if c) if any(coeffs) else None
    expected = coeffs[lead:] if lead is not None else [0]
    assert got == expected


def test_interpolation_fractional_result():
    # through (0, 0) and (2, 1): x/2
    assert interpolate([(0, 0), (2, 1)]) == [Fraction(1, 2), 0]
