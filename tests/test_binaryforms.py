"""Z[phi] arithmetic, Bareiss determinants, binary-form root stripping."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from icotk.binaryforms import (
    ZZ,
    ZPhi,
    bareiss_det,
    divide_linear,
    interpolate,
    strip_root,
    sylvester_resultant,
)

zphi_elems = st.tuples(st.integers(-20, 20), st.integers(-20, 20))


def form_mul(f, g, dom=ZZ):
    """Oracle: product of two binary forms given as coefficient lists."""
    out = [dom.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = dom.add(out[i + j], dom.mul(a, b))
    return out


def form_eval(f, s, t, dom=ZZ):
    """Oracle: the binary form f at (s:t)."""
    d = len(f) - 1
    total = dom.zero
    for i, c in enumerate(f):
        term = c
        for _ in range(d - i):
            term = dom.mul(term, s)
        for _ in range(i):
            term = dom.mul(term, t)
        total = dom.add(total, term)
    return total


@given(zphi_elems, zphi_elems, zphi_elems)
def test_zphi_is_a_commutative_ring(u, v, w):
    assert ZPhi.mul(u, v) == ZPhi.mul(v, u)
    assert ZPhi.mul(ZPhi.mul(u, v), w) == ZPhi.mul(u, ZPhi.mul(v, w))
    assert ZPhi.mul(u, ZPhi.add(v, w)) == ZPhi.add(ZPhi.mul(u, v), ZPhi.mul(u, w))
    assert ZPhi.add(u, ZPhi.neg(u)) == ZPhi.zero
    assert ZPhi.mul(u, ZPhi.one) == u


def test_phi_satisfies_its_minimal_polynomial():
    # phi^2 = phi + 1
    assert ZPhi.mul(ZPhi.phi, ZPhi.phi) == ZPhi.add(ZPhi.phi, ZPhi.one)


@given(zphi_elems)
def test_zphi_norm_is_multiplicative_with_conjugate(u):
    assert ZPhi.mul(u, ZPhi.conj(u)) == ZPhi.from_int(ZPhi.norm(u))


@given(zphi_elems, zphi_elems)
def test_zphi_exact_division_round_trip(u, v):
    if ZPhi.norm(v) == 0:
        return
    assert ZPhi.exact_div(ZPhi.mul(u, v), v) == u


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
    """(dom, g, a, b): a random form g and a point (a:b) with b != 0, over
    ZZ or ZPhi; over ZZ the point is primitive."""
    if draw(st.booleans()):
        g = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
        a = draw(st.integers(-6, 6))
        b = draw(st.integers(1, 6))
        g_ab = gcd(a, b)
        return ZZ, g, a // g_ab, b // g_ab
    small = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    g = draw(st.lists(small, min_size=1, max_size=5))
    b = draw(small.filter(lambda u: u != (0, 0)))
    return ZPhi, g, draw(small), b


@given(_forms_and_roots())
@settings(max_examples=200)
def test_divide_linear_scales_the_quotient_by_b_to_the_degree(case):
    dom, g, a, b = case
    f = form_mul(g, [b, dom.neg(a)], dom)  # g * (b*s - a*t), degree len(g)
    scale = dom.one
    for _ in range(len(g)):
        scale = dom.mul(scale, b)
    if all(dom.is_zero(c) for c in g):
        assert divide_linear(f, a, b, dom) is None  # the zero form
        return
    assert divide_linear(f, a, b, dom) == [dom.mul(scale, c) for c in g]
    # a nonzero t^d term added moves f(a, b) by a multiple of b^d != 0
    f[-1] = dom.add(f[-1], dom.one)
    assert not dom.is_zero(form_eval(f, a, b, dom))
    assert divide_linear(f, a, b, dom) is None


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
