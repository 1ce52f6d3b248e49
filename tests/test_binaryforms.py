"""Z[phi] arithmetic, subresultant resultants against a Bareiss-of-Sylvester
oracle, binary-form root stripping against the fraction-free division it
replaced."""

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from icotk.algebra import P2, Phi, poly_parse
from icotk.binaryforms import (
    form_content_free,
    interpolate,
    pseudo_remainder,
    remainder_resultant,
    strip_root,
    sylvester_resultant,
)
from stage2_oracle import _pair_quadratic

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


def test_phi_equality_compares_both_parts():
    assert Phi(1, 2) != Phi(1, 3) and Phi(1, 2) != 1 and Phi(1, 0) == 1
    assert Phi(1, 2) == Phi(1, 2)


def test_phi_pickles_and_copies_and_stays_immutable():
    u = Phi(3, -7)
    for twin in (pickle.loads(pickle.dumps(u)), copy.copy(u), copy.deepcopy(u)):
        assert type(twin) is Phi and (twin.a, twin.b) == (3, -7) and twin == u
        with pytest.raises(AttributeError, match="immutable"):
            twin.a = 3


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


def bareiss_det(matrix):
    """Oracle: exact determinant of a square matrix of ints and Phis by
    fraction-free Bareiss elimination; an inexact step raises."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        pivot = row_k[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                q, r = divmod(row[j] * pivot - lead * row_k[j], prev)
                if r:
                    raise ArithmeticError(f"Bareiss step not exact: {r} left by {prev}")
                row[j] = q
            row[k] = 0
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def sylvester_det(f, g):
    """Oracle: Res(f, g) as the Bareiss determinant of the Sylvester matrix
    (deg g shifted rows of f, then deg f shifted rows of g)."""
    dn, dm = len(f) - 1, len(g) - 1
    size = dn + dm
    rows = [[0] * i + list(f) + [0] * (size - i - dn - 1) for i in range(dm)]
    rows += [[0] * i + list(g) + [0] * (size - i - dm - 1) for i in range(dn)]
    return bareiss_det(rows)


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
    assert sylvester_resultant([c, -c * a], [1, -b]) == c * r


@st.composite
def _resultant_pairs(draw):
    """(f, g, shape): coefficient lists with nonzero leads over Z, Z[phi] or
    both mixed; shape forces deg f < deg g, both degrees odd, or a common
    factor."""
    elems = draw(st.sampled_from([small_ints, zphi_elems, mixed_elems]))
    shape = draw(st.sampled_from(["any", "deg f < deg g", "both odd", "common factor"]))

    def poly(deg):
        return [draw(elems.filter(bool))] + draw(st.lists(elems, min_size=deg, max_size=deg))

    if shape == "both odd":
        df, dg = draw(st.sampled_from([1, 3, 5])), draw(st.sampled_from([1, 3, 5]))
    else:
        df, dg = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        if shape == "deg f < deg g":
            df, dg = min(df, dg), max(df, dg) + 1
    f, g = poly(df), poly(dg)
    if shape == "common factor":
        c = poly(draw(st.integers(1, 2)))
        f, g = form_mul(f, c), form_mul(g, c)
    return f, g, shape


@given(_resultant_pairs())
@settings(max_examples=400, deadline=None)
def test_subresultant_prs_equals_the_sylvester_determinant(case):
    f, g, shape = case
    res = sylvester_resultant(f, g)
    assert res == sylvester_det(f, g)
    if shape == "common factor":
        assert res == 0


@given(st.lists(small_ints, min_size=1, max_size=4).filter(lambda q: q[0]),
       st.lists(small_ints, min_size=2, max_size=4).filter(lambda b: b[0]),
       st.data())
def test_pseudo_remainder_scales_the_remainder(q, b, data):
    # a = q*b + r with deg r < deg b, so prem(a, b) = lc(b)^(deg a - deg b + 1) * r
    r = data.draw(st.lists(small_ints, min_size=len(b) - 1, max_size=len(b) - 1))
    a = form_mul(q, b)
    a[len(a) - len(r):] = [x + y for x, y in zip(a[len(a) - len(r):], r)]
    scale = b[0] ** (len(a) - len(b) + 1)
    expected = [scale * c for c in r]
    while expected and not expected[0]:
        expected = expected[1:]
    assert pseudo_remainder(a, b) == expected


def test_pseudo_remainder_of_a_lower_degree_is_itself():
    assert pseudo_remainder([2, 3], [1, 0, 1]) == [2, 3]
    assert pseudo_remainder([5], [1, 1]) == [5]
    assert pseudo_remainder([], [1, 1]) == []


def pseudo_remainder_rescaling(a, b):
    """The pseudo-remainder loop before it kept to its window, as the
    oracle: every step rescales the whole tail by b[0]."""
    lead, tail, m = b[0], b[1:], len(b)
    r = list(a)
    for _ in range(len(a) - m + 1):
        c = r[0]
        r = [lead * x - c * y for x, y in zip(r[1:], tail)] + [lead * x for x in r[m:]]
    while r and not r[0]:
        r = r[1:]
    return r


@given(st.lists(mixed_elems, max_size=14),
       st.lists(mixed_elems, min_size=2, max_size=6).filter(lambda b: b[0]))
@settings(max_examples=300)
def test_windowed_pseudo_remainder_equals_the_rescaling_loop(a, b):
    assert pseudo_remainder(a, b) == pseudo_remainder_rescaling(a, b)


@st.composite
def _remainder_cases(draw):
    """(g, fs): an integer g of degree 1..5 with a lead of either sign, 1
    and -1 among them, and a few f sharing g's remainder rows; each f has
    degree below g's, is a multiple of g, leaves a constant remainder, or
    is random."""
    k = draw(st.integers(1, 5))
    lead = draw(st.sampled_from([1, -1, 2, -2, 3, -5, 7]))
    g = [lead] + draw(st.lists(small_ints, min_size=k, max_size=k))

    def poly(deg):
        tail = draw(st.lists(small_ints, min_size=deg, max_size=deg))
        return [draw(small_ints.filter(bool))] + tail

    fs = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(["any", "deg f < deg g", "g | f", "constant remainder"]))
        if shape == "deg f < deg g" and k > 1:
            fs.append(poly(draw(st.integers(1, k - 1))))
            continue
        if shape in ("any", "deg f < deg g"):
            fs.append(poly(draw(st.integers(1, 13))))
            continue
        f = form_mul(poly(draw(st.integers(0, 13 - k))), g)
        if shape == "constant remainder":
            f[-1] += draw(small_ints.filter(bool))
        fs.append(f)
    return g, fs


@given(_remainder_cases())
@settings(max_examples=300, deadline=None)
def test_remainder_resultant_equals_the_prs(case):
    g, fs = case
    cols = []
    for f in fs:
        assert remainder_resultant(f, g, cols) == sylvester_resultant(f, g)
        if len(f) >= len(g):  # k columns of the rows X_0 .. X_(deg f) are kept
            assert len(cols) == len(g) - 1 and len(cols[0]) >= len(f)


def test_remainder_resultant_on_the_corner_cases():
    g = [-2, 3, 1]  # -2x^2 + 3x + 1, negative lead
    for f in ([5, 1], [1, 0, 0, 0], form_mul([1, 4, -1], g), form_mul([3, 1], g)):
        assert remainder_resultant(f, g, []) == sylvester_resultant(f, g)
    assert remainder_resultant(form_mul([1, 4, -1], g), g, []) == 0  # g | f
    f = form_mul([1, 1], g)
    f[-1] += 3  # remainder 3: Res(f, g) = (-1)^(3*2) * (-2)^3 * 3^2
    assert remainder_resultant(f, g, []) == (-2) ** 3 * 3**2 == sylvester_resultant(f, g)
    cols = []
    for d in (12, 3, 7, 13):  # rows kept from a higher degree serve a lower one
        f = [1] + [(-1) ** i * i for i in range(1, d + 1)]
        assert remainder_resultant(f, g, cols) == sylvester_resultant(f, g)
    assert [len(col) for col in cols] == [14, 14]
    # X_0 = 1, X_1 = x, X_2 = lc*x^2 mod g = -3x - 1, X_3 = lc^2*x^3 mod g = 11x + 3
    assert [[col[j] for col in cols] for j in range(4)] == [[0, 1], [1, 0], [-3, -1], [11, 3]]
    with pytest.raises(ValueError):
        remainder_resultant([0, 1, 2], g, [])


def test_resultant_refuses_a_zero_leading_coefficient():
    with pytest.raises(ValueError):
        sylvester_resultant([0, 1, 2], [1, 3])
    with pytest.raises(ValueError):
        sylvester_resultant([1, 3], [0, 0, 1])
    with pytest.raises(ValueError):
        sylvester_resultant([1, 3], [Phi(0, 0), PHI])
    with pytest.raises(ValueError):
        sylvester_resultant([5], [1, 3])  # a constant is not positive degree


def test_resultant_refuses_a_fraction_input():
    # outside a ring a division leaves a remainder: an error, never floored
    with pytest.raises(ArithmeticError):
        sylvester_resultant([Fraction(1, 2), 1], [1, 1])
    with pytest.raises(ArithmeticError):
        sylvester_resultant([1, 0, Fraction(1, 3)], [1, 1])


def divide_linear(f, a, b):
    """The fraction-free division strip_root replaced, kept as the oracle:
    divide the binary form f of degree d by (b*s - a*t), the linear form
    vanishing at (s:t) = (a:b).  Returns b^d times the quotient, or None
    when the division has a remainder.

    Fraction-free synthetic division: p_0 = f_0 and p_i = b^i f_i + a p_(i-1)
    give b^d q_i = b^(d-1-i) p_i, and the remainder is zero iff p_d is.  For
    b = 0 the linear form is a multiple of t and the quotient is returned
    unscaled."""
    if not any(f):
        return None
    d = len(f) - 1
    if d < 1:
        return None
    if not b:
        # linear form is a multiple of t; divisible iff no s^d term
        if f[0]:
            return None
        return list(f[1:])
    p = [f[0]]
    bpow = [1]
    for i in range(1, d + 1):
        bpow.append(bpow[-1] * b)
        p.append(bpow[i] * f[i] + a * p[-1])
    if p[d]:
        return None
    return [bpow[d - 1 - i] * p[i] for i in range(d)]


def strip_root_oracle(f, a, b):
    """Oracle: the binary form f with the root (a:b) removed as often as it
    divides, by divide_linear; a power of b scales the result."""
    cur = f
    while len(cur) > 1:
        nxt = divide_linear(cur, a, b)
        if nxt is None:
            break
        cur = nxt
    return cur


def test_strip_root_multiplicity():
    # f = (s - t)^3 * (s + t), roots at (1:1) three times
    f = form_mul(form_mul([1, -1], [1, -1]), form_mul([1, -1], [1, 1]))
    assert strip_root(f, [1, -1]) == [1, 1]
    assert strip_root(f, [-1, 1]) == [-1, -1]
    # t^2 vanishes at (s:t) = (1:0), the point at infinity: g[0] = 0
    g = [0, 0, 1, 2]  # t^2*(s + 2t)
    assert strip_root(g, [0, 1]) == [1, 2]
    assert strip_root(g, [0, -1]) == [1, 2]
    # t(s + 3t) has g[0] = 0 and is not +-t: refused
    with pytest.raises(ValueError):
        strip_root(form_mul(form_mul([0, 1, 3], [0, 1, 3]), [1, 2]), [0, 1, 3])
    assert strip_root([3, 1, 0, 0], [1, 0]) == [3, 1]  # s^2 (3s + t): g[-1] = 0
    # (4s - 2t)^2 (s + t): the projection (2:4) strips as the line 2s - t
    h = form_mul(form_mul([4, -2], [4, -2]), [1, 1])
    assert strip_root(h, form_content_free([4, -2])) == [4, 4]
    assert len(strip_root_oracle(h, 2, 4)) == 2


@given(zphi_elems, zphi_elems, st.integers(0, 3),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5), st.data())
@settings(max_examples=150)
def test_the_pair_quadratic_strips_what_two_root_strippings_strip(q1, q2, k, h, data):
    """For a point (q0, q1, q2) over Z[phi] off its conjugate in the (y:z)
    projection, stripping _pair_quadratic from an integer form leaves the
    degree of stripping (q1:q2) and then (q1':q2') in Z[phi]."""
    conj = (q1.conj(), q2.conj())
    if q1 * conj[1] == conj[0] * q2:
        return  # (q1:q2) is rational, or q1 = q2 = 0
    if not any(h):
        h = [1]
    # h times both linear forms to the k-th power, with a zero coefficient
    # or a common factor of the two thrown in at times
    f = h
    for a, b in [(q1, q2), conj] * k:
        f = form_mul(f, [b, -a])
    assert all(isinstance(c, int) or not c.b for c in f)  # the phi parts cancel
    f = [c if isinstance(c, int) else c.a for c in f]
    f = data.draw(st.sampled_from([f, f + [0], [3 * c for c in f]]))
    pair = _pair_quadratic((1, q1, q2))
    assert gcd(*pair) == 1 and pair[0] != 0
    by_roots = strip_root_oracle(strip_root_oracle(f, q1, q2), *conj)
    by_pair = strip_root(f, pair)
    assert len(by_pair) == len(by_roots)
    assert len(by_pair) <= len(f) - 2 * k
    assert all(isinstance(c, int) for c in by_pair)


def test_strip_root_stops_at_a_remainder():
    q = [1, 0, -2]  # s^2 - 2 t^2, irreducible over Q
    assert strip_root(form_mul(form_mul(q, q), [1, 3]), q) == [1, 3]
    assert strip_root([1, 0, -2, 1], q) == [1, 0, -2, 1]  # inexact remainder form
    assert strip_root([3, 0, -5], [2, 0, -3]) == [3, 0, -5]  # inexact divmod by g[0]
    assert strip_root([5, 1], q) == [5, 1]  # degree below g
    assert strip_root([1, 2, 1], [1, -PHI]) == [1, 2, 1]  # monic: only the remainder form
    for g in ([0, 0], [0, 5, 0]):  # g[0] = g[-1] = 0
        with pytest.raises(ValueError):
            strip_root([1, 2, 1], g)


def test_divide_linear_rejects_non_roots():
    assert divide_linear([1, 0, 1], 1, 1) is None  # s^2 + t^2 at (1:1) = 2


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=5),
       st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=120)
def test_strip_root_removes_exactly_the_root(coeffs, a, b):
    if (a, b) == (0, 0) or all(c == 0 for c in coeffs):
        return
    f = form_mul(coeffs, [b, -a])  # multiply in one (a:b) root
    reduced = strip_root(f, form_content_free([b, -a]))
    assert len(reduced) < len(f)
    assert form_eval(reduced, a, b) != 0 or len(reduced) == 1


@st.composite
def _stripping_cases(draw):
    """(f, g, a, b): f = h * g^k for a random nonzero form h, with g the
    linear form b*s - a*t of (a:b) -- over Z made primitive, (a, b) not
    necessarily coprime and either of them possibly 0; over Z[phi] monic,
    b = 1."""
    k = draw(st.integers(0, 3))
    if draw(st.booleans()):
        h = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any))
        a, b = draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(any))
        g = form_content_free([b, -a])
    else:
        small = st.builds(Phi, st.integers(-5, 5), st.integers(-5, 5))
        h = draw(st.lists(small, min_size=1, max_size=4).filter(any))
        a, b = draw(small), 1
        g = [1, -a]
    f = h
    for _ in range(k):
        f = form_mul(f, g)
    return f, g, a, b


def long_division_by_t(f, g):
    """Oracle: strip_root's long division from the other end, the route
    g = +-t took before the slice: s and t swapped, g = +-s."""
    return strip_root(f[::-1], g[::-1])[::-1]


@given(st.integers(0, 4), st.lists(mixed_elems, min_size=1, max_size=6).filter(any),
       st.sampled_from([[0, 1], [0, -1], [0, Phi(1)], [0, Phi(-1)]]))
@settings(max_examples=200)
def test_strip_root_by_t_slices_as_the_long_division_divides(zeros, h, g):
    f = [0] * zeros + h  # t^zeros * h(s, t)
    reduced = strip_root(f, g)
    assert reduced == long_division_by_t(f, g)
    assert reduced[0] and len(reduced) <= len(h)
    back = reduced
    for _ in range(len(f) - len(reduced)):
        back = form_mul(back, g)
    assert back == f
    assert strip_root([0, 0, 0], g) == long_division_by_t([0, 0, 0], g) == [0]


@given(_stripping_cases())
@settings(max_examples=300)
def test_strip_root_leaves_the_oracles_degree_and_divides_exactly(case):
    f, g, a, b = case
    reduced = strip_root(f, g)
    assert len(reduced) == len(strip_root_oracle(f, a, b))
    assert form_eval(reduced, a, b) != 0 or len(reduced) == 1
    back = reduced
    for _ in range(len(f) - len(reduced)):
        back = form_mul(back, g)
    assert back == f  # reduced is f / g^k exactly, k = deg f - deg reduced


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


def interpolate_over_q(points):
    """The routine interpolate replaced, kept as the oracle: coefficients
    (descending) of the unique poly of degree < len(points) through the
    given (x, y) pairs, as exact Fractions collapsed to int when possible,
    by Newton's divided differences."""
    xs = [Fraction(x) for x, _ in points]
    coeffs = [Fraction(y) for _, y in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    # expand the Newton form to the monomial basis: poly * (x - xs[i]) per node
    poly = [coeffs[n - 1]]
    for i in range(n - 2, -1, -1):
        poly = [poly[0]] + [c - xs[i] * p for c, p in zip(poly[1:], poly)] + [-xs[i] * poly[-1]]
        poly[-1] += coeffs[i]
    while len(poly) > 1 and poly[0] == 0:
        poly = poly[1:]
    return [int(c) if c.denominator == 1 else c for c in poly]


def _horner_eval(coeffs, x):
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def test_interpolation_round_trip():
    rng = random.Random(11)
    coeffs = [rng.randint(-9, 9) for _ in range(5)]
    got = interpolate([_horner_eval(coeffs, x) for x in range(5)])
    lead = next(i for i, c in enumerate(coeffs) if c) if any(coeffs) else None
    expected = coeffs[lead:] if lead is not None else [0]
    assert got == expected


def test_interpolation_fractional_result():
    # through (0, 0), (1, 0) and (2, 1): x(x - 1)/2, integer-valued at every
    # integer but without integer coefficients
    assert interpolate_over_q([(0, 0), (1, 0), (2, 1)]) == [Fraction(1, 2), Fraction(-1, 2), 0]
    assert interpolate([0, 0, 1]) is None
    assert interpolate([0, 1]) == [1, 0]
    assert interpolate([7]) == [7]
    assert interpolate([0, 0, 0]) == [0]
    with pytest.raises(ValueError):
        interpolate([])


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9))
def test_interpolation_equals_the_newton_oracle(values):
    expected = interpolate_over_q(list(enumerate(values)))
    if any(isinstance(c, Fraction) for c in expected):
        assert interpolate(values) is None
    else:
        assert interpolate(values) == expected


@given(st.integers(0, 4), st.lists(small_ints, min_size=1, max_size=7))
def test_interpolation_recovers_integer_polynomials(zeros, coeffs):
    # leading zeros in the coefficient list and more nodes than the degree
    # needs: interpolate returns the polynomial with its leading zeros dropped
    padded = [0] * zeros + coeffs
    values = [_horner_eval(padded, x) for x in range(len(padded))]
    got = interpolate(values)
    assert got == interpolate_over_q(list(enumerate(values)))
    lead = next((i for i, c in enumerate(coeffs) if c), len(coeffs) - 1)
    assert got == coeffs[lead:]
