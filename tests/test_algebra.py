"""Ring axioms, the text grammar round trip, and integer factorization."""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import BlockOrder, block_key, scaled_division
from icotk import algebra
from icotk.algebra import P2, P4, Poly, Ring, elementary_symmetric, poly_parse
from icotk.config import FactorBudget
from icotk.errors import FactorBudgetError, NotDivisibleError, ParseError
from icotk.groebner import GREVLEX, LEX, normal_form
from icotk.integers import _is_prime, factorize, int_radical


def _poly_strategy(ring, max_exp=4, max_terms=6, coeff_bound=9, rational=False):
    expo = st.tuples(*([st.integers(0, max_exp)] * ring.nvars))
    coeff = st.integers(-coeff_bound, coeff_bound)
    if rational:
        coeff = st.builds(Fraction, coeff, st.integers(1, coeff_bound))
    term = st.tuples(expo, coeff)
    return st.lists(term, max_size=max_terms).map(
        lambda items: Poly.from_terms(ring, items)
    )


polys2 = _poly_strategy(P2)
polys4 = _poly_strategy(P4, max_exp=3, max_terms=5)
qpolys2 = _poly_strategy(P2, rational=True)
points3 = st.tuples(*([st.integers(-20, 20)] * 3))


@given(polys2, polys2, polys2)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero(P2) == p
    assert p * Poly.constant(P2, 1) == p
    assert (p - p).is_zero()


@given(polys2, points3)
def test_evaluation_is_a_homomorphism(p, point):
    q = poly_parse("x*y - 3*z^2 + 1", P2)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


@given(polys2)
def test_parse_print_round_trip(p):
    assert poly_parse(str(p), P2) == p


@given(polys4)
def test_parse_print_round_trip_p4(p):
    assert poly_parse(str(p), P4) == p


def test_grammar_forms():
    p = poly_parse("x0^2*x1 - 3/4*x2*x3 + 5", P4)
    assert p.coeff((2, 1, 0, 0, 0)) == 1
    assert p.coeff((0, 0, 1, 1, 0)) == Fraction(-3, 4)
    assert p.coeff((0, 0, 0, 0, 0)) == 5
    # whitespace and a leading unary sign
    assert poly_parse(" - x + y ", P2) == poly_parse("y - x", P2)
    assert poly_parse("(x + y)^2 - x^2 - y^2", P2) == poly_parse("2*x*y", P2)


@pytest.mark.parametrize("bad", ["x +", "2^x", "x0", "x**2", "(x", "3/0"])
def test_grammar_rejects(bad):
    with pytest.raises(ParseError):
        poly_parse(bad, P2)


def test_parentheses_nest_to_a_fixed_depth():
    assert poly_parse("(" * 100 + "x + y" + ")" * 100, P2) == poly_parse("x + y", P2)
    assert poly_parse("(x)^2 * " * 150 + "(y)", P2) == poly_parse("x^300*y", P2)  # wide, not deep
    for depth in (101, 10_000):
        with pytest.raises(ParseError) as err:
            poly_parse("(" * depth + "x" + ")" * depth, P2)
        assert err.value.offset == 100  # the 101st "("
    with pytest.raises(ParseError) as err:
        poly_parse("x + " + "(" * 101 + "y" + ")" * 101, P2)
    assert err.value.offset == 104


@given(polys2, polys2)
def test_exact_division_round_trip(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


@given(st.one_of(polys2, qpolys2), st.one_of(polys2, qpolys2))
def test_exact_division_round_trip_over_q(p, q):
    assume(not q.is_zero())
    assert (p * q).exact_div(q) == p


@given(st.one_of(polys2, qpolys2), st.one_of(polys2, qpolys2), st.integers(1, 9))
def test_exact_division_rejects_a_remainder(p, q, c):
    # q of positive degree cannot divide the nonzero constant c
    assume(q.degree() >= 1)
    with pytest.raises(NotDivisibleError):
        (p * q + c).exact_div(q)


def test_exact_division_failure():
    p = poly_parse("x^2 + y", P2)
    q = poly_parse("x + 1", P2)
    with pytest.raises(NotDivisibleError):
        p.exact_div(q)


def test_exact_division_across_contents():
    x, y = Poly.variable(P2, "x"), Poly.variable(P2, "y")
    assert x.exact_div(2 * x) == Fraction(1, 2)
    assert (Fraction(3, 2) * x * y).exact_div(3 * y) == Fraction(1, 2) * x
    assert (x * y).exact_div(Fraction(2, 3) * y) == Fraction(3, 2) * x


def test_a_scaled_division_that_leaves_a_remainder_is_not_exact():
    # 2 does not divide 1 or 3: each division scales before it reduces
    x, y = Poly.variable(P2, "x"), Poly.variable(P2, "y")
    for p, q in ((x + 1, 2 * x), (3 * x**2 + y, 2 * x - y), (Fraction(1, 3) * x * y, 2 * y - 1)):
        with pytest.raises(NotDivisibleError):
            p.exact_div(q)


def test_division_by_the_zero_polynomial_is_refused():
    x, zero = Poly.variable(P2, "x"), Poly.zero(P2)
    for run in (lambda: normal_form(x, [zero]), lambda: normal_form(x, [x, zero]),
                lambda: x.exact_div(zero), lambda: zero.exact_div(zero),
                lambda: algebra.divide(x, [zero], GREVLEX.blocks(3), quotients=True)):
        with pytest.raises(ZeroDivisionError, match="division by the zero polynomial"):
            run()


@given(polys2)
def test_content_primitive_factorization(p):
    if p.is_zero():
        return
    c, prim = p.content_primitive()
    assert Poly.constant(P2, c) * prim == p
    c2, prim2 = prim.content_primitive()
    assert c2 == 1 and prim2 == prim


def test_elementary_symmetric_at_ones():
    # sigma_k(1,..,1) = C(5, k)
    from math import comb

    for k in range(1, 6):
        s = elementary_symmetric(P4, k)
        assert s.evaluate((1, 1, 1, 1, 1)) == comb(5, k)
    assert elementary_symmetric(P4, 2).degree() == 2
    assert elementary_symmetric(P4, 4).degree() == 4


@given(st.integers(1, 10**6))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        prod *= p**e
    assert prod == n


def test_factorize_known_values():
    assert factorize(1) == {}
    assert factorize(2310) == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1}
    assert factorize(2**10 * 3**4) == {2: 10, 3: 4}
    # a semiprime beyond the trial-division range exercises Pollard rho
    n = 1_000_003 * 1_000_033
    assert factorize(n) == {1_000_003: 1, 1_000_033: 1}


def test_int_radical_values():
    assert int_radical(1) == 1
    assert int_radical(8) == 2
    assert int_radical(2310) == 2310
    assert int_radical(-12) == 6


# strong pseudoprimes to the first 12 and 13 prime bases (Sorenson & Webster)
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981


def test_factorize_strong_pseudoprimes():
    assert factorize(PSI12) == {399165290221: 1, 798330580441: 1}
    assert factorize(PSI13) == {1287836182261: 1, 2575672364521: 1}
    assert int_radical(PSI12) == PSI12


def test_primality_above_psi13_is_proved_or_refused():
    mersenne = 2**89 - 1
    assert mersenne > PSI13
    assert _is_prime(mersenne, FactorBudget())
    assert factorize(mersenne) == {mersenne: 1}
    # proving it needs the factors of 2^89 - 2; without them, refuse
    with pytest.raises(FactorBudgetError):
        _is_prime(mersenne, FactorBudget(trial_limit=10, rho_iterations=2))


def test_factor_budget_exhaustion():
    tiny = FactorBudget(trial_limit=10, rho_iterations=2)
    with pytest.raises(FactorBudgetError):
        factorize(1_000_003 * 1_000_033, tiny)


def test_ring_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Ring(("x", "x"))


@given(polys2, st.integers(0, 4))
def test_power_matches_repeated_product(p, k):
    expected = Poly.constant(P2, 1)
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


def substitute_by_powers(p, images):
    """The term-by-term loop Poly.substitute replaced, with its cache of
    image powers: the oracle."""
    target = images[0].ring
    cache = [{0: Poly.constant(target, 1)} for _ in images]

    def power(i, k):
        c = cache[i]
        if k not in c:
            half = power(i, k // 2)
            c[k] = half * half * images[i] if k % 2 else half * half
        return c[k]

    out = Poly.zero(target)
    for e, c in p.terms.items():
        term = Poly.constant(target, c)
        for i, k in enumerate(e):
            if k:
                term = term * power(i, k)
        out = out + term
    return out


_IMAGE_RINGS = (Ring(("s", "t")), P2, P4)


@given(st.one_of(polys2, qpolys2), st.sampled_from(_IMAGE_RINGS), st.data())
def test_horner_substitute_equals_the_power_loop(p, ring, data):
    # p ranges over the zero polynomial, constants, Fraction coefficients and
    # exponent gaps; the images over zero and a ring of another arity
    image = st.one_of(
        st.just(Poly.zero(ring)),
        _poly_strategy(ring, max_exp=2, max_terms=3, rational=True),
    )
    images = [data.draw(image) for _ in range(P2.nvars)]
    assert p.substitute(images) == substitute_by_powers(p, images)


def test_substitute_edge_cases():
    s, t = (Poly.variable(Ring(("s", "t")), n) for n in ("s", "t"))
    images = [s, t, s + t]
    assert Poly.zero(P2).substitute(images) == Poly.zero(s.ring)
    assert Poly.constant(P2, Fraction(3, 4)).substitute(images) == Fraction(3, 4)
    assert poly_parse("x^3*z - 2*y^5", P2).substitute(images) == s**3 * (s + t) - 2 * t**5
    with pytest.raises(ValueError):
        poly_parse("x", P2).substitute([s, t])
    with pytest.raises(ValueError):
        poly_parse("x", P2).substitute([s, t, Poly.variable(P2, "x")])
    with pytest.raises(ValueError):
        Poly.constant(Ring(()), 1).substitute([])


# -- the packed-integer (Kronecker) kernel ------------------------------------

# digits are whole bytes: 2**(8m-1) - 1 is the largest coefficient an m-byte
# digit holds, 2**(8m-1) the smallest that needs one byte more
_DIGIT_EDGES = [s * (2 ** (8 * m - 1) + t) for m in (1, 2, 25) for t in (-1, 0) for s in (1, -1)]
_int_coeffs = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**200), 2**200),
    st.sampled_from(_DIGIT_EDGES),
)


@st.composite
def _forms(draw, ring, degree, max_terms=6):
    """A form of the given degree with int coefficients: small ones that
    cancel, 200-bit ones and ones at a byte edge of the digit width."""
    heads = st.tuples(*([st.integers(0, degree)] * (ring.nvars - 1)))
    items = draw(st.lists(st.tuples(heads, _int_coeffs), min_size=1, max_size=max_terms))
    terms = [(h + (degree - sum(h),), c) for h, c in items if sum(h) <= degree]
    return Poly.from_terms(ring, terms)


def product_by_terms(p, q):
    """The double loop over the terms: the oracle for the packed product."""
    return Poly.from_terms(
        p.ring,
        [(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
         for e1, c1 in p.terms.items() for e2, c2 in q.terms.items()],
    )


def _generic_substitute(p, images):
    out = algebra._horner(list(p.terms.items()), images)
    return out if isinstance(out, Poly) else Poly.constant(images[0].ring, out)


@given(st.sampled_from(_IMAGE_RINGS), st.integers(0, 6), st.integers(0, 6), st.data())
def test_packed_product_equals_the_generic_product(ring, dp, dq, data):
    # operands of different degrees, single terms, cancellation to zero
    p, q = data.draw(_forms(ring, dp)), data.draw(_forms(ring, dq))
    assume(p and q)
    packed = algebra._packed_product(p, q)
    if not algebra._dense_box(ring.nvars, dp + dq):
        assert packed is None  # P^4 in degree >= 2
        return
    assert packed == product_by_terms(p, q)
    assert all(type(c) is int and c for c in packed.terms.values())


@given(st.sampled_from(_IMAGE_RINGS), st.integers(1, 4), st.integers(1, 3), st.data())
def test_packed_substitution_equals_horner(ring, d, k, data):
    p = data.draw(_forms(P2, d))
    images = [data.draw(_forms(ring, k, max_terms=4)) for _ in range(P2.nvars)]
    assume(p and all(images))
    packed = algebra._packed_substitute(p, images)
    expected = _generic_substitute(p, images)
    assert expected == substitute_by_powers(p, images)
    if not algebra._dense_box(ring.nvars, d * k):
        assert packed is None
    else:
        assert packed == expected
    assert p.substitute(images) == expected


def test_packed_kernel_edge_cases():
    x, y, z = (Poly.variable(P2, n) for n in "xyz")
    # products that cancel to zero and to a single term
    assert algebra._packed_product(x - y, Poly.zero(P2)) is None
    assert algebra._packed_substitute(x - y, [x + z, x + z, y]).is_zero()
    assert algebra._packed_product(x + y, x - y) == x * x - y * y
    # coefficients exactly at the bound: (c x + c y)^2 has 2 c^2 * x*y; the
    # digits are 2 bytes wide for c = 127 (15 bits) and 3 for c = 128, where
    # c^2 alone would fit in 2
    for c in (127, -127, 128, -128, 2**99, 2**100 + 1):
        f = c * x + c * y
        assert algebra._packed_product(f, f) == product_by_terms(f, f)
        assert algebra._packed_product(f, -f).coeff((1, 1, 0)) == -2 * c * c
    for c in _DIGIT_EDGES:
        assert algebra._packed_product(c * x * x, y) == c * x * x * y
        assert algebra._packed_product(c * x * x, -y) == -c * x * x * y
        assert algebra._packed_substitute(c * x, [z, y, x]) == c * z
    # a digit off the degree-1 simplex (x*y in degree 1) is refused
    with pytest.raises(AssertionError):
        algebra._unpack(1 << (8 * 3), P2, 1, 1)


def test_generic_path_inputs():
    x, y, z = (Poly.variable(P2, n) for n in "xyz")
    half = Poly.constant(P2, Fraction(1, 2))
    # Fraction coefficients, polynomials that are not forms
    assert algebra._packed_product(half * x, y) is None
    assert algebra._packed_product(x + 1, y) is None
    assert algebra._packed_substitute(half * x, [x, y, z]) is None
    assert algebra._packed_substitute(x * y + z, [x, y, z]) is None
    assert algebra._packed_substitute(x * y, [half * x, y, z]) is None
    # images of mixed degrees, images that are not forms, constants
    assert algebra._packed_substitute(x * y, [x * x, y, z]) is None
    assert algebra._packed_substitute(x * y, [x + 1, y + 1, z + 1]) is None
    assert algebra._packed_substitute(x * y, [Poly.constant(P2, 2)] * 3) is None
    assert algebra._packed_substitute(Poly.constant(P2, 3), [x, y, z]) is None
    assert algebra._packed_substitute(x * y, [x, Poly.zero(P2), z]) is None
    # the results agree with the generic path all the same
    assert (x * y).substitute([x * x, y, z]) == x * x * y
    assert (half * x).substitute([x, y, z]) == half * x


def test_the_density_guard():
    # every box in 2 or 3 variables is dense; in P^4 only degree 1 is
    assert all(algebra._dense_box(n, D) for n in (1, 2, 3) for D in range(200))
    assert algebra._dense_box(5, 1) and not algebra._dense_box(5, 2)
    # tau_i(rho), the expansion of `verify --symbolic-c`: degree 12 * 8 = 96
    # in five variables, a box of 97**4 digits, stays on the generic path
    from icotk.ico_surface import fixed_geometry

    geo = fixed_geometry()
    D = geo.tau[0].degree() * geo.rho[0].degree()
    assert (geo.rho[0].ring.nvars, D) == (5, 96)
    assert not algebra._dense_box(5, D)
    assert algebra._packed_substitute(geo.tau[0], geo.rho) is None
    # while rho_i(tau), degree 8 * 12 = 96 in three variables, packs
    assert algebra._dense_box(geo.tau[0].ring.nvars, D)


def _terms_of_degree(d, count):
    """count distinct monomials of degree d in three variables, as terms."""
    heads = ((i, j) for i in range(d + 1) for j in range(d + 1 - i))
    return {(i, j, d - i - j): 1 for (i, j), _ in zip(heads, range(count))}


def test_packing_pays_on_measured_products():
    # shapes of products in `verify --mode symbolic` (terms, degree) and the
    # path that timed faster: lambda * x, a shift by one term, is 3x slower
    # packed; 38 x 38 terms of degree 15 is 2.5x faster packed, 587 x 545
    # of degree 48 35x faster
    pays = algebra._packing_pays
    assert not pays(_terms_of_degree(95, 2228), _terms_of_degree(1, 1), 3)
    assert not pays(_terms_of_degree(20, 75), _terms_of_degree(1, 4), 3)
    assert pays(_terms_of_degree(15, 38), _terms_of_degree(15, 38), 3)
    assert pays(_terms_of_degree(48, 587), _terms_of_degree(48, 545), 3)
    assert not pays({}, _terms_of_degree(1, 3), 3)


def test_mul_packs_only_where_packing_pays(monkeypatch):
    calls = []
    real = algebra._packed_product
    monkeypatch.setattr(algebra, "_packed_product",
                        lambda p, q: calls.append((len(p.terms), len(q.terms))) or real(p, q))
    x, y, z = (Poly.variable(P2, n) for n in "xyz")
    f = Poly(P2, {e: (-1) ** sum(e[:2]) * (e[0] + 1) for e in _terms_of_degree(20, 231)})
    # a product by one term, and 231 x 3 terms: 693 pairs, fewer than
    # 5/4 of the 234 terms and 22**2 digits, stay on the double loop
    g = x + 2 * y - 3 * z
    assert f * x == product_by_terms(f, x) and f * g == product_by_terms(f, g)
    assert calls == []
    # 231 x 6 terms: 1386 pairs against 5/4 of 237 terms and 23**2 digits
    h = g * g
    assert f * h == product_by_terms(f, h)
    assert calls == [(231, 6)]
    # in P^4 the box outgrows the pairs: 35 x 35 terms of degree 3 against
    # 7**4 digits
    v = [Poly.variable(P4, f"x{i}") for i in range(5)]
    s1 = v[0] + v[1] + v[2] + v[3] + v[4]
    s3 = s1 * s1 * s1
    assert algebra._packing_pays(s3.terms, s3.terms, 5) is False


# -- divide on packed monomials, against the tuple loop ------------------------

# total degrees of p at the edges of the grevlex field width (deg p).bit_length()
_WIDTH_EDGES = (0, 1, 3, 4, 7, 8, 15, 16)
_small_coeffs = st.one_of(
    st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
)


def _orders(ring):
    """GREVLEX, LEX and three block orders: the first variable, the second
    and third, and every variable (an empty second block) before the rest."""
    return [GREVLEX, LEX] + [BlockOrder(ring, names)
                             for names in (ring.names[:1], ring.names[1:3], ring.names)]


def _negated(key):
    """Order-reversing image of a sort key made of ints and tuples of equal
    shape, so that a min-heap on it pops the largest key first."""
    return -key if type(key) is int else tuple(map(_negated, key))


def _tuple_divide(p, divisors, key, spend=None, full=True):
    """algebra.divide on exponent tuples, the order given by a sort key:
    the oracle for the packed loop."""
    heads = []
    for d in divisors:
        lead = max(d.terms, key=key)
        tail = [(e, c) for e, c in d.terms.items() if e != lead]
        heads.append((lead, d.terms[lead], tail))
    rem = dict(p.terms)
    heap = [(_negated(key(e)), e) for e in rem]
    heapify(heap)
    quots = [{} for _ in heads]
    done = {}
    while heap:
        e = heappop(heap)[1]
        c = rem.get(e)
        if c is None:  # cancelled after it was pushed
            continue
        for i, (lead, lc, tail) in enumerate(heads):
            if all(map(int.__le__, lead, e)):
                break
        else:
            if not full:
                break
            done[e] = rem.pop(e)
            continue
        if spend is not None:
            spend()
        del rem[e]
        shift = tuple(map(int.__sub__, e, lead))
        if type(c) is int and type(lc) is int and c % lc == 0:
            factor = c // lc
        else:
            factor = algebra._norm_coeff(Fraction(c) / lc)
        quots[i][shift] = factor
        for te, tc in tail:
            k = tuple(map(int.__add__, te, shift))
            old = rem.get(k)
            if old is None:
                rem[k] = algebra._norm_coeff(-factor * tc)
                heappush(heap, (_negated(key(k)), k))
            else:
                s = old - factor * tc
                if s:
                    rem[k] = algebra._norm_coeff(s)
                else:
                    del rem[k]
    return [Poly(p.ring, q) for q in quots], Poly(p.ring, done if full else rem)


@st.composite
def _monomials(draw, ring, degree, exact=False):
    """An exponent vector of total degree `degree`, or at most that."""
    size = degree if exact else draw(st.integers(0, degree))
    picks = draw(st.lists(st.integers(0, ring.nvars - 1), min_size=size, max_size=size))
    return tuple(picks.count(i) for i in range(ring.nvars))


@st.composite
def _of_degree(draw, ring, degree, max_terms, coeffs=_small_coeffs):
    """A polynomial of total degree exactly `degree`, not homogeneous in
    general, with coefficients from `coeffs` (by default int and Fraction)."""
    top = draw(_monomials(ring, degree, exact=True))
    lead = draw(coeffs.filter(bool))
    rest = draw(st.lists(st.tuples(_monomials(ring, degree), coeffs), max_size=max_terms))
    return Poly.from_terms(ring, [(e, c) for e, c in rest if e != top] + [(top, lead)])


def _divide_both_ways(p, divisors, blocks, key, full):
    """(quotients, remainder, spend() calls) of the packed loop on blocks and
    of the tuple loop on key, the terms as lists so that their order counts."""
    spent = [], []
    runs = (algebra.divide(p, divisors, blocks, lambda: spent[0].append(1), full,
                           quotients=True),
            _tuple_divide(p, divisors, key, lambda: spent[1].append(1), full))
    return [([list(q.terms.items()) for q in quots], list(rem.terms.items()), len(n))
            for (quots, rem), n in zip(runs, spent)]


def _assert_same_division(p, divisors, order, full):
    packed, tuples = _divide_both_ways(p, divisors, order.blocks(p.ring.nvars), order.key,
                                       full)
    assert packed == tuples
    return packed


@given(st.sampled_from([P2, P4]), st.integers(0, 4), st.sampled_from(_WIDTH_EDGES),
       st.booleans(), st.data())
def test_packed_division_equals_the_tuple_path(ring, which, degree, full, data):
    order = _orders(ring)[which]
    if order != GREVLEX:
        # lex and block divisions multiply terms far faster with degree
        degree = min(degree, 7)
    p = data.draw(_of_degree(ring, degree, 8))
    divisors = data.draw(st.lists(
        st.integers(0, 2).flatmap(lambda d: _of_degree(ring, d, 2)), min_size=1, max_size=3))
    higher = data.draw(st.integers(1, 3).flatmap(lambda k: _of_degree(ring, degree + k, 2)))
    divisors.insert(data.draw(st.integers(0, len(divisors))), higher)
    _assert_same_division(p, divisors, order, full)
    quots, rem = algebra.divide(p, divisors, order.blocks(ring.nvars), full=full,
                                quotients=True)
    assert sum((q * d for q, d in zip(quots, divisors)), rem) == p
    if order == GREVLEX:
        # a divisor of higher degree than p reduces nothing and keeps its slot
        assert not quots[divisors.index(higher)]


def _scaled_and_exact(p, divisors, order, full):
    """((Layout.reduce's result times s, s, spend() calls), (divide's result,
    spend() calls)), the latter checked against the tuple loop over Q."""
    blocks = order.blocks(p.ring.nvars)
    spent = [], [], []
    scaled, s = scaled_division(p, divisors, blocks, lambda: spent[0].append(1), full)
    exact = algebra.divide(p, divisors, blocks, lambda: spent[1].append(1), full)
    _, oracle = _tuple_divide(p, divisors, order.key, lambda: spent[2].append(1), full)
    assert list(exact.terms.items()) == list(oracle.terms.items())
    assert len(spent[1]) == len(spent[2])
    return (scaled, s, len(spent[0])), (exact, len(spent[1]))


@given(st.sampled_from([P2, P4]), st.integers(0, 2), st.integers(0, 6), st.booleans(),
       st.data())
def test_scaled_division_is_the_exact_one_times_an_int(ring, which, degree, full, data):
    order = [GREVLEX, LEX, BlockOrder(ring, ring.names[1:3])][which]
    ints = st.integers(-30, 30)
    p = data.draw(_of_degree(ring, degree, 8, ints))
    divisors = data.draw(st.lists(
        st.integers(0, 3).flatmap(lambda d: _of_degree(ring, d, 3, ints)),
        min_size=1, max_size=3))
    (scaled, s, steps), (exact, want_steps) = _scaled_and_exact(p, divisors, order, full)
    assert steps == want_steps
    assert all(type(c) is int for c in scaled.terms.values())
    # the same support, in the same order, and one positive int factor: s
    assert list(scaled.terms) == list(exact.terms)
    assert type(s) is int and s > 0
    assert scaled == exact * s


def test_scaled_division_scales_what_is_done_and_what_is_left():
    # y^2 + 3xz by 2x - z: y^2 is done first, then 3xz scales it by 2
    x, y, z = (Poly.variable(P2, n) for n in "xyz")
    (scaled, s, steps), (exact, _) = _scaled_and_exact(y**2 + 3 * x * z, [2 * x - z],
                                                       GREVLEX, True)
    assert (scaled, s, steps) == (2 * y**2 + 3 * z**2, 2, 1)
    assert exact == y**2 + Fraction(3, 2) * z**2
    # 3x^2 + y^2 by 2x - y: x^2 and then x*y each scale what is left by 2
    (scaled, s, steps), (exact, _) = _scaled_and_exact(3 * x**2 + y**2, [2 * x - y],
                                                       GREVLEX, True)
    assert (scaled, s, steps) == (7 * y**2, 4, 2)
    assert exact == Fraction(7, 4) * y**2
    # a Fraction coefficient keeps the exact division: divide clears the
    # denominator 3 on entry and divides by it and by s = 4 on exit
    p, blocks = Fraction(1, 3) * x**2 + y, GREVLEX.blocks(3)
    assert scaled_division(3 * p, [2 * x - y], blocks) == (y**2 + 12 * y, 4)
    assert algebra.divide(p, [2 * x - y], blocks) == Fraction(1, 12) * y**2 + y


@given(st.sampled_from([P2, P4]), st.integers(0, 4), st.booleans(), st.data())
@settings(max_examples=50)
def test_division_reduces_over_the_integers_only(ring, which, full, data):
    """Rational p and divisors reach Layout.reduce with int coefficients
    only, through normal_form, exact_div and divide with quotients, and
    their results are the tuple loop's over Q."""
    order = _orders(ring)[which]
    p = data.draw(_of_degree(ring, data.draw(st.integers(0, 5)), 6))
    divisors = data.draw(st.lists(
        st.integers(0, 2).flatmap(lambda d: _of_degree(ring, d, 2)), min_size=1, max_size=3))
    calls, seen, reduce = [], [], algebra.Layout.reduce

    def spy(self, rem, heads, *args):
        calls.append(1)
        seen.extend(rem.values())
        for *_, lc, tail in heads:
            seen.extend([lc, *(c for _, c in tail)])
        return reduce(self, rem, heads, *args)

    with mock.patch.object(algebra.Layout, "reduce", spy):
        quots, rem = algebra.divide(p, divisors, order.blocks(ring.nvars), full=full,
                                    quotients=True)
        nf = normal_form(p, divisors, order)
        assert (p * divisors[0]).exact_div(divisors[0]) == p
    assert len(calls) == 3 and all(type(c) is int for c in seen)
    want_quots, want_rem = _tuple_divide(p, divisors, order.key, None, full)
    assert [list(q.terms.items()) for q in (*quots, rem)] == \
        [list(q.terms.items()) for q in (*want_quots, want_rem)]
    assert nf == _tuple_divide(p, divisors, order.key)[1]


def test_packed_division_at_the_width_edges():
    # x^(2^B - 1) fills a grevlex field: dividing by x^k for every k up to
    # and past it, and by y, whose field is next to x's
    for B in range(1, 6):
        M = 2**B - 1
        x, y, z = (Poly.variable(P2, n) for n in "xyz")
        p = x**M + y * z ** (M - 1) - 3
        for k in range(M + 2):
            for divisor in (x**k, y, x**k * y):
                for full in (True, False):
                    for order in _orders(P2):
                        _assert_same_division(p, [divisor], order, full)
        assert (x**M).exact_div(x ** (M - 1)) == x
    # a constant p: no field bits at all
    for order in _orders(P4):
        six, four = Poly.constant(P4, 6), Poly.constant(P4, 4)
        assert _assert_same_division(six, [four], order, True) == \
            ([[((0,) * 5, Fraction(3, 2))]], [], 1)


@given(st.sampled_from([P2, P4]), st.data())
@settings(max_examples=60)
def test_exact_division_with_large_exponents(ring, data):
    a = data.draw(_poly_strategy(ring, max_exp=20, max_terms=4))
    b = data.draw(_poly_strategy(ring, max_exp=20, max_terms=4))
    assume(a and b)
    ab = a * b  # exponents up to 40
    assert ab.exact_div(b) == a
    (quot,), rem = _tuple_divide(ab, [b], algebra.grevlex_key, full=False)
    assert quot == a and not rem


# -- divisions whose terms outgrow p: the field bound's D * moves term ---------


@pytest.mark.parametrize("ring", [P2, P4], ids=["P2", "P4"])
@pytest.mark.parametrize("a, b, k", [(2, 2, 1), (3, 2, 5), (5, 4, 5), (10, 10, 1)])
def test_lex_growth_chains(ring, a, b, k):
    # x^k + y by [x - y^a, y - z^b] under LEX: every reduction of x raises
    # the degree in y, every reduction of y the degree in z, up to z^(abk)
    x, y, z = (Poly.variable(ring, n) for n in ring.names[:3])
    p, divisors = x**k + y, [x - y**a, y - z**b]
    for full in (True, False):
        quots, rem, steps = _assert_same_division(p, divisors, LEX, full)
    assert rem == [((0,) * 2 + (a * b * k,) + (0,) * (ring.nvars - 3), 1),
                   ((0, 0, b) + (0,) * (ring.nvars - 3), 1)]


@pytest.mark.parametrize("ring", [P2, P4], ids=["P2", "P4"])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_rabinowitsch_shaped_division(ring, k):
    # (w*g)^k h by 1 - w*g with w in a block of its own before the rest,
    # beside w*x - y^9, by which each reduction of w raises the degree in
    # the rest by 8: w^(k+1) x^(k+1) becomes y^(9k+9), far above deg p
    big = Ring(ring.names + ("w",))
    v = [Poly.variable(big, n) for n in big.names]
    w, g = v[-1], v[0] * v[1] - v[2] ** 2 + 3 * v[1]
    blocks = ((ring.nvars,), tuple(range(ring.nvars)))
    p = (w * g) ** k * (v[0] + v[2]) + (w * v[0]) ** (k + 1)
    for divisors in ([1 - w * g], [1 - w * g, v[0] * v[1] - 1],
                     [w * v[0] - v[1] ** 9, v[2] ** 3 - v[0], 1 - w * g]):
        for full in (True, False):
            packed, tuples = _divide_both_ways(p, divisors, blocks, block_key(blocks[0]), full)
            assert packed == tuples
