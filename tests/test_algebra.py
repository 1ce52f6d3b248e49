"""Ring axioms, the text grammar round trip, and integer factorization."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from icotk.algebra import (
    P2,
    P4,
    Poly,
    Ring,
    _is_prime,
    elementary_symmetric,
    factorize,
    int_radical,
    poly_parse,
)
from icotk.config import FactorBudget
from icotk.errors import FactorBudgetError, NotDivisibleError, ParseError


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
