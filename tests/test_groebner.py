"""Groebner engine: basis properties, division, Buchberger, Hilbert data.

The frozen numeric oracles (Hilbert values 5/14/30/54/86, dim/degree (2, 8),
genus 9) were computed independently with sympy before this engine existed;
see scripts/freeze_oracles.py.
"""

import hashlib
import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations_with_replacement, product
from math import comb, factorial
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import BlockOrder, scaled_division
from icotk import algebra, groebner
from icotk.algebra import P2, P4, Poly, Ring, elementary_symmetric, grevlex_key, poly_parse
from icotk.config import GroebnerBudget
from icotk.errors import BudgetExceededError
from icotk.groebner import (
    GREVLEX,
    LEX,
    Ideal,
    _Budget,
    _divides,
    _leading,
    _sorted_by_leading,
    arithmetic_genus,
    dim_degree,
    hilbert_function,
    normal_form,
)
from icotk.ico_surface import fixed_geometry


def _p2(text):
    return poly_parse(text, P2)


def _p4(text):
    return poly_parse(text, P4)


@pytest.fixture(scope="module")
def surface():
    return fixed_geometry().surface_ideal()


def test_basis_contains_normal_form_zero_generators(surface):
    basis = surface.groebner()
    for g in surface.gens:
        assert normal_form(g, basis).is_zero()


def test_groebner_is_reduced(surface):
    basis = surface.groebner()
    from icotk.groebner import _leading

    lts = [_leading(g, GREVLEX)[0] for g in basis]
    for i, g in enumerate(basis):
        # monic
        assert _leading(g, GREVLEX)[1] == 1
        # no term of g divisible by another basis element's leading term
        for j, lt in enumerate(lts):
            if i == j:
                continue
            for e in g.terms:
                assert not all(a >= b for a, b in zip(e, lt))


small_polys = st.lists(
    st.tuples(
        st.tuples(*([st.integers(0, 2)] * 3)),
        st.integers(-5, 5),
    ),
    min_size=1,
    max_size=3,
).map(lambda items: Poly.from_terms(P2, items))


@given(st.lists(small_polys, min_size=1, max_size=3), small_polys, small_polys)
@settings(max_examples=40)
def test_ideal_membership_of_combinations(gens, a, b):
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    I = Ideal(P2, gens)
    basis = I.groebner()
    combo = a * gens[0] + b * gens[-1]
    assert normal_form(combo, basis).is_zero()


@given(small_polys, small_polys)
@settings(max_examples=30)
def test_normal_form_is_additive_on_remainders(p, q):
    I = Ideal(P2, [_p2("x^2 - y*z"), _p2("x*y - z^2")])
    basis = I.groebner()
    r = normal_form(p + q, basis)
    assert r == normal_form(normal_form(p, basis) + normal_form(q, basis), basis)


# -- the division kernel against a plain leading-term loop --------------------


def _reduce_once(p, basis, order):
    """One top-reduction of p by the first basis element whose LT divides
    LT(p); (new p, True), or (p, False) when no reducer applies."""
    pe, pc = _leading(p, order)
    for g in basis:
        ge, gc = _leading(g, order)
        if all(a <= b for a, b in zip(ge, pe)):
            shift = tuple(a - b for a, b in zip(pe, ge))
            return p - Poly.monomial(p.ring, shift, Fraction(pc) / gc) * g, True
    return p, False


def _oracle_normal_form(p, basis, order):
    """(remainder, reduction steps) of the plain leading-term loop."""
    tail, done, steps = p, Poly.zero(p.ring), 0
    while tail.terms:
        tail, reduced = _reduce_once(tail, basis, order)
        if reduced:
            steps += 1
        else:
            e, c = _leading(tail, order)
            done = done + Poly.monomial(p.ring, e, c)
            tail = tail - Poly.monomial(p.ring, e, c)
    return done, steps


def _normal_form_steps(p, basis, order):
    """Reduction steps normal_form spends: the least budget it runs within."""
    k = 0
    while True:
        try:
            r = normal_form(p, basis, order, GroebnerBudget(max_reductions=k))
            return r, k
        except BudgetExceededError:
            k += 1


mid_polys = st.lists(
    st.tuples(
        st.tuples(*([st.integers(0, 4)] * 3)),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
    ),
    min_size=1,
    max_size=6,
).map(lambda items: Poly.from_terms(P2, items))


@pytest.mark.parametrize("order", [GREVLEX, LEX, BlockOrder(P2, {"x"})], ids=lambda o: o.tag())
@given(p=mid_polys, divisors=st.lists(small_polys, min_size=1, max_size=3))
@settings(max_examples=40)
def test_normal_form_matches_the_term_loop(order, p, divisors):
    divisors = [d for d in divisors if not d.is_zero()]
    if not divisors:
        return
    want, steps = _oracle_normal_form(p, divisors, order)
    got, spent = _normal_form_steps(p, divisors, order)
    assert got == want
    assert spent == steps


# reduction steps each basis takes: the budget fails at k - 1 and succeeds
# at k.  The first four rows were pinned from the plain leading-term loop.
# The last pins pair selection: taking pairs of equal sugar other than in
# the order of their lcm makes it 17.
PINNED_STEPS = [
    ("x0^2*x1 - x2^3; x1^2*x3 - x4^3; x0*x4 - x2*x3", GREVLEX, 20),
    ("SURFACE", GREVLEX, 23),
    ("SURFACE", LEX, 38),
    ("SURFACE; x0 + 2*x1 + 3*x2 + 5*x3 + 7*x4", GREVLEX, 86),
    ("x0^2*x1 - x2^3; x1^2*x3 - x4^3; x0*x4 - x2*x3", LEX, 16),
]


@pytest.mark.parametrize("gens, order, k", PINNED_STEPS)
def test_budget_threshold_is_unchanged(gens, order, k, tmp_path, monkeypatch):
    geo = fixed_geometry()
    gens = gens.replace("SURFACE", f"{geo.sigma2}; {geo.sigma4}")
    polys = [_p4(g) for g in gens.split(";")]
    # the same threshold with ICOTK_CACHE_DIR unset and set to a directory
    # that a default-budget run of the same ideal has used first
    for cache in (None, tmp_path):
        if cache is None:
            monkeypatch.delenv("ICOTK_CACHE_DIR", raising=False)
        else:
            monkeypatch.setenv("ICOTK_CACHE_DIR", str(cache))
            Ideal(P4, polys).groebner(order)
        with pytest.raises(BudgetExceededError):
            Ideal(P4, polys).groebner(order, GroebnerBudget(max_reductions=k - 1))
        Ideal(P4, polys).groebner(order, GroebnerBudget(max_reductions=k))


def _basis_steps(gens, order):
    """(basis, the least budget it is computed within), by bisection."""
    lo, hi = 0, 1
    while True:
        try:
            basis = Ideal(P2, gens).groebner(order, GroebnerBudget(max_reductions=hi))
            break
        except BudgetExceededError:
            lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            Ideal(P2, gens).groebner(order, GroebnerBudget(max_reductions=mid))
            hi = mid
        except BudgetExceededError:
            lo = mid + 1
    return basis, hi


@given(st.lists(small_polys, min_size=2, max_size=4), st.data())
@settings(max_examples=30)
def test_basis_and_its_steps_do_not_depend_on_the_order_of_generators(gens, data):
    # generators are sorted by leading monomial, and equal ones by printout
    gens = [g for g in gens if not g.is_zero()]
    shuffled = data.draw(st.permutations(gens))
    for order in (GREVLEX, LEX):
        assert _basis_steps(shuffled, order) == _basis_steps(gens, order)


def test_a_file_in_the_cache_dir_is_not_a_basis(tmp_path, monkeypatch):
    # x0, x1 planted where an on-disk basis cache keyed the surface ideal
    # under grevlex: the basis must still be the surface's, degree 8
    geo = fixed_geometry()
    gens = [geo.sigma2, geo.sigma4]
    payload = "|".join(map(str, gens)) + "@" + ",".join(P4.names) + "@" + GREVLEX.tag()
    planted = tmp_path / f"gb-{hashlib.sha256(payload.encode()).hexdigest()}.txt"
    planted.write_text("x0\nx1\n")
    monkeypatch.setenv("ICOTK_CACHE_DIR", str(tmp_path))
    ideal = Ideal(P4, gens)
    assert len(ideal.groebner()) == 3
    assert dim_degree(ideal) == (2, 8)
    assert list(tmp_path.iterdir()) == [planted]


def test_budget_is_honoured():
    gens = [_p4("x0^2*x1 - x2^3"), _p4("x1^2*x3 - x4^3"), _p4("x0*x4 - x2*x3")]
    with pytest.raises(BudgetExceededError):
        Ideal(P4, gens).groebner(GREVLEX, GroebnerBudget(max_reductions=3))


def _general_form(rng, n):
    """A degree-n form in x0..x4 over every monomial, each coefficient a
    nonzero int of absolute value at most 1000."""
    monomials = [e for e in product(range(n + 1), repeat=5) if sum(e) == n]
    return Poly(P4, {e: rng.choice((-1, 1)) * rng.randint(1, 1000) for e in monomials})


def test_bases_with_large_leading_coefficients_are_pinned():
    # (sigma_2, sigma_4, f) for general models: their grevlex bases have
    # leading coefficients up to 8 * 10^7, far from units; the digest is that
    # of reductions over Q, which the fraction-free ones must reproduce
    sigmas = [elementary_symmetric(P4, 2), elementary_symmetric(P4, 4)]
    h = hashlib.sha256()
    for seed, n in ((1, 1), (2, 2), (3, 2)):
        basis = Ideal(P4, [*sigmas, _general_form(random.Random(seed), n)]).groebner()
        assert max(_leading(g, GREVLEX)[1] for g in basis) > 1000
        h.update(("\n".join(map(str, basis)) + "\n\n").encode())
    assert h.hexdigest()[:16] == "75eb68badecec792"


# -- one packed layout per run against a division per reduction --------------


def _oracle_spoly(f, fe, g, ge):
    """The S-polynomial of f and g, whose leading monomials are fe and ge."""
    lcm = tuple(map(max, fe, ge))
    mf = Poly.monomial(f.ring, tuple(map(int.__sub__, lcm, fe)), g.terms[ge])
    mg = Poly.monomial(g.ring, tuple(map(int.__sub__, lcm, ge)), f.terms[fe])
    return mf * f - mg * g


def _oracle_basis(gens, order, spend):
    """Buchberger with Poly S-polynomials and one scaled division per
    reduction, each packing its divisors afresh: the oracle for the run's
    one layout."""
    basis = [g.primitive_part() for g in gens if not g.is_zero()]
    if not basis:
        return []
    blocks = order.blocks(basis[0].ring.nvars)
    pairs = _sorted_by_leading([(_leading(g, order)[0], g) for g in basis], order)
    lts, basis = [e for e, _ in pairs], [g for _, g in pairs]
    sugar = [g.degree() for g in basis]

    def keyed(i, j):
        m = tuple(map(max, lts[i], lts[j]))
        s = max(sugar[i] + sum(m) - sum(lts[i]), sugar[j] + sum(m) - sum(lts[j]))
        return s, order.key(m), (i, j), m

    heap = [keyed(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    heapify(heap)
    pending = {pair for _, _, pair, _ in heap}
    while heap:
        _, _, (i, j), m = heappop(heap)
        pending.discard((i, j))
        if all(a == 0 or b == 0 for a, b in zip(lts[i], lts[j])) or any(
            k not in (i, j) and _divides(lts[k], m)
            and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
            for k in range(len(basis))
        ):
            continue
        s = _oracle_spoly(basis[i], lts[i], basis[j], lts[j])
        rem, _ = scaled_division(s, basis, blocks, spend, full=False)
        if rem.terms:
            basis.append(rem.primitive_part())
            sugar.append(basis[-1].degree())
            lts.append(_leading(basis[-1], order)[0])
            for k in range(len(basis) - 1):
                heappush(heap, keyed(k, len(basis) - 1))
                pending.add((k, len(basis) - 1))
    pairs = _sorted_by_leading(list(zip(lts, basis)), order)
    keep = [(e, g) for i, (e, g) in enumerate(pairs)
            if not any(j != i and _divides(f, e) and (f != e or j < i)
                       for j, (f, _) in enumerate(pairs))]
    reduced = []
    for i, (e, g) in enumerate(keep):
        others = [h for _, h in keep[:i] + keep[i + 1:]]
        done, _ = scaled_division(g, others, blocks, spend)
        if done.terms:
            reduced.append((e, done.primitive_part()))
    return [g for _, g in _sorted_by_leading(reduced, order)]


def _oracle_run(gens, order, limit):
    """(the oracle's basis, or None if it ran past limit steps; its steps)."""
    tracker, calls = _Budget(limit), []

    def spend():
        calls.append(1)
        tracker.spend()

    try:
        return _oracle_basis(gens, order, spend), len(calls)
    except BudgetExceededError:
        return None, len(calls)


def _layout_run(ring, gens, order, limit):
    """(Ideal.groebner's basis, or None if refused within limit; its steps)."""
    calls, spend = [], _Budget.spend

    def counted(self):
        calls.append(1)
        spend(self)

    with mock.patch.object(_Budget, "spend", counted):
        try:
            return Ideal(ring, gens).groebner(order, GroebnerBudget(limit)), len(calls)
        except BudgetExceededError:
            return None, len(calls)


@st.composite
def _ring_polys(draw, ring):
    exponents = st.tuples(*([st.integers(0, 2)] * ring.nvars))
    terms = st.lists(st.tuples(exponents, st.integers(-9, 9)), min_size=2, max_size=4)
    return Poly.from_terms(ring, draw(terms))


@pytest.mark.parametrize("ring", [P2, P4], ids=["P2", "P4"])
@pytest.mark.parametrize("which", [0, 1, 2], ids=["grevlex", "lex", "block"])
@given(data=st.data())
@settings(max_examples=20)
def test_one_layout_per_run_equals_a_division_per_reduction(ring, which, data):
    order = [GREVLEX, LEX, BlockOrder(ring, ring.names[1:3])][which]
    gens = data.draw(st.lists(_ring_polys(ring), min_size=2, max_size=3))
    # the same basis and the same steps, or the same refusal after them
    assert _layout_run(ring, gens, order, 400) == _oracle_run(gens, order, 400)


@pytest.mark.parametrize("ring, gens, order, widths", [
    # S-polynomials of degree at most 7 first (M = 7), then y^8 - ...: a run
    # that kept M = 7 would pack y^8 wrongly and take 8 steps, not 4
    (P2, "y*z^3; x^3*y*z - y^3 + x*z", GREVLEX, [7, 15]),
    (P4, "x0^2*x1 - x2^3; x1^2*x3 - x4^3; x0*x4 - x2*x3", LEX, None),
], ids=["P2-grevlex", "P4-lex"])
def test_the_run_widens_its_layout_and_repacks(ring, gens, order, widths, monkeypatch):
    seen = []

    class Spy(algebra.Layout):
        def __init__(self, *args):
            super().__init__(*args)
            seen.append(self.M)

    monkeypatch.setattr(groebner, "Layout", Spy)
    gens = [poly_parse(g, ring) for g in gens.split(";")]
    assert _layout_run(ring, gens, order, 10**6) == _oracle_run(gens, order, 10**6)
    assert len(seen) > 1 and seen == sorted(set(seen))
    assert widths in (None, seen)


def _sign(a, b):
    return (a > b) - (a < b)


@given(st.sampled_from([P2, P4]), st.data())
def test_order_keys_compare_as_before(ring, data):
    expos = st.tuples(*([st.integers(0, 3)] * ring.nvars))
    a, b = data.draw(expos), data.draw(expos)
    assert _sign(LEX.key(a), LEX.key(b)) == _sign(a, b)
    assert _sign(GREVLEX.key(a), GREVLEX.key(b)) == _sign(grevlex_key(a), grevlex_key(b))
    # every key sorts as the blocks that divide packs by: grevlex on each in turn
    block = BlockOrder(ring, data.draw(st.sets(st.sampled_from(ring.names))))
    for order in (GREVLEX, LEX, block):
        a_key, b_key = ([grevlex_key([e[i] for i in vs]) for vs in order.blocks(ring.nvars)]
                        for e in (a, b))
        assert _sign(order.key(a), order.key(b)) == _sign(a_key, b_key)


# -- Hilbert data ------------------------------------------------------------


def test_surface_hilbert_function(surface):
    # dim A_n for the coordinate ring of {sigma2 = sigma4 = 0}
    assert [hilbert_function(surface, n) for n in range(1, 6)] == [5, 14, 30, 54, 86]
    # closed form 4n^2 - 4n + 6 for n >= 2
    for n in range(2, 6):
        assert hilbert_function(surface, n) == 4 * n * n - 4 * n + 6


def test_surface_dim_degree(surface):
    assert dim_degree(surface) == (2, 8)


def test_an_ideal_refuses_a_generator_of_another_ring():
    # Buchberger took its ring from the first generator: Ideal(P4, [x^2]) had
    # the basis [x^2] and dim_degree (3, 2), and Ideal(P4, [x^2, x0]) [x0]
    x2, x0 = _p2("x^2"), _p4("x0")
    for gens in ([x2], [x2, x0], [x0, x2]):
        with pytest.raises(ValueError, match="mixed rings"):
            Ideal(P4, gens)


def test_hyperplane_and_irrelevant_dimensions():
    assert dim_degree(Ideal(P4, [_p4("x0")])) == (3, 1)
    irrelevant = Ideal(P4, [Poly.variable(P4, f"x{i}") for i in range(5)])
    dim, _ = dim_degree(irrelevant)
    assert dim == -1


def test_curve_section_genus(surface):
    geo = fixed_geometry()
    h = _p4("x0 + 2*x1 + 3*x2 + 5*x3 + 7*x4")
    I = Ideal(P4, [geo.sigma2, geo.sigma4, h])
    assert dim_degree(I) == (1, 8)
    assert arithmetic_genus(I) == 9
    # P1 itself: j0 = 0, so P(0) = a_0 + a_1 reads the expansion from its start
    assert arithmetic_genus(Ideal(Ring(("s", "t")), [])) == 0


def test_plane_conic_genus():
    I = Ideal(P2, [_p2("x^2 + y^2 - z^2")])
    assert dim_degree(I) == (1, 2)
    assert arithmetic_genus(I) == 0


def test_hilbert_data_is_computed_once_per_ideal(monkeypatch):
    calls, numerator = [], groebner._hilbert_numerator

    def counted(gens, memo):
        calls.append(gens)
        return numerator(gens, memo)

    monkeypatch.setattr(groebner, "_hilbert_numerator", counted)
    geo = fixed_geometry()
    I = Ideal(P4, [geo.sigma2, geo.sigma4, _p4("x0 + 2*x1 + 3*x2 + 5*x3 + 7*x4")])
    assert dim_degree(I) == (1, 8)
    once = len(calls)
    assert once and arithmetic_genus(I) == 9 and dim_degree(I) == (1, 8)
    assert len(calls) == once


def test_a_refused_basis_stores_no_hilbert_data_and_then_answers():
    # the surface ideal's basis takes 23 reduction steps (PINNED_STEPS)
    geo = fixed_geometry()
    I = Ideal(P4, [geo.sigma2, geo.sigma4])
    with pytest.raises(BudgetExceededError):
        dim_degree(I, GroebnerBudget(max_reductions=22))
    assert I._hilbert is None and not I._bases
    assert dim_degree(I, GroebnerBudget(max_reductions=23)) == (2, 8)


def test_a_huge_numerator_degree_costs_nothing():
    # N = 1 - t^d: a_0 = 0, a_1 = d, whatever d is
    assert dim_degree(Ideal(P4, [_p4("x0^30")]), GroebnerBudget(max_reductions=0)) == (3, 30)
    assert dim_degree(Ideal(P4, [Poly.from_terms(P4, [((10**6, 0, 0, 0, 0), 1)])])) == (3, 10**6)


def test_a_deep_hilbert_recursion_answers():
    # x0^3000*x1, x0*x1^3000 = x0*x1*(x0^2999, x1^2999): the hypersurfaces
    # x0 = 0 and x1 = 0; one degree per pivot would recurse 3000 deep
    I = Ideal(P4, [_p4("x0^3000*x1"), _p4("x0*x1^3000")])
    assert dim_degree(I) == (3, 2)
    assert hilbert_function(I, 3002) == comb(3006, 4) - 2 * comb(5, 4)


def test_the_median_pivot_keeps_the_hilbert_recursion_shallow(monkeypatch):
    # (x0, x1)^N: pivoting on the least exponent recursed N deep; the
    # median splits the exponents and stays logarithmic
    N, depth, numerator = 400, [0], groebner._hilbert_numerator

    def counted(gens, memo):
        depth[0] += 1
        assert depth[0] < 60, "the Hilbert recursion went 60 frames deep"
        try:
            return numerator(gens, memo)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(groebner, "_hilbert_numerator", counted)
    gens = frozenset((i, N - i) for i in range(N + 1))
    assert counted(gens, {}) == {0: 1, N: -(N + 1), N + 1: N}


@pytest.mark.parametrize("ring, top", [(P2, 4), (P4, 2)], ids=["P2", "P4"])
@given(data=st.data())
@settings(max_examples=60)
def test_the_numerator_counts_the_standard_monomials(ring, top, data):
    """The Hilbert function from the numerator equals the number of degree-d
    monomials that no generator divides, for every d up to the degree of the
    generators' lcm, which bounds the numerator's degree."""
    expos = st.tuples(*([st.integers(0, top)] * ring.nvars))
    gens = data.draw(st.lists(expos, min_size=1, max_size=4))
    hd = groebner.hilbert_data(Ideal(ring, [Poly.from_terms(ring, [(e, 1)]) for e in gens]))
    for d in range(ring.nvars * top + 1):
        standard = 0
        for picks in combinations_with_replacement(range(ring.nvars), d):
            m = [picks.count(i) for i in range(ring.nvars)]
            standard += not any(all(a >= b for a, b in zip(m, g)) for g in gens)
        assert hd.hilbert_function(d) == standard, d


def _pole_cancellation(basis, nvars):
    """(numerator, Krull dimension, degree, P) as hilbert_data computed them
    by dividing the numerator by (1 - t) once per pole at t = 1."""
    if any(g.degree() == 0 for g in basis):
        return (), 0, 0, lambda d: Fraction(0)
    lts = frozenset(max(g.terms, key=grevlex_key) for g in basis)
    num = groebner._hilbert_numerator(lts, {}) if basis else {0: 1}
    reduced, dim = dict(num), nvars
    while reduced and sum(reduced.values()) == 0:
        quot, run = {}, 0
        for k in range(max(reduced), 0, -1):
            run += reduced.get(k, 0)
            quot[k - 1] = -run
        reduced = {k: c for k, c in quot.items() if c}
        dim -= 1

    def at(d):
        total = Fraction(0)
        for i, c in reduced.items() if dim else ():
            prod = Fraction(1)
            for j in range(dim - 1):
                prod *= Fraction(d - i + dim - 1 - j)
            total += c * prod / factorial(dim - 1)
        return total

    return tuple(sorted(num.items())), dim, sum(reduced.values()), at


@st.composite
def _curve_monomials(draw):
    """Three monomials in pairwise disjoint variables of P4: they cut a curve
    (Krull dimension 2), as every minimal prime takes one variable of each."""
    order = draw(st.permutations(range(5)))
    cut = draw(st.integers(1, 3))
    cut2 = draw(st.integers(cut + 1, 4))
    out = []
    for block in (order[:cut], order[cut:cut2], order[cut2:]):
        powers = draw(st.lists(st.integers(0, 3), min_size=len(block), max_size=len(block))
                      .filter(any))
        expo = [0] * 5
        for i, k in zip(block, powers):
            expo[i] = k
        out.append(tuple(expo))
    return out


# P2 reads the first three exponents of each tuple
_MONOMIAL_LISTS = st.one_of(st.lists(st.tuples(*([st.integers(0, 5)] * 5)), max_size=5),
                            _curve_monomials())


@pytest.mark.parametrize("ring", [P2, P4], ids=["P2", "P4"])
@given(monomials=_MONOMIAL_LISTS)
@example(monomials=[(2, 0, 0, 0, 0), (0, 1, 3, 0, 0), (0, 0, 0, 1, 2)])  # a P4 curve
@settings(max_examples=60)
def test_the_expansion_at_one_equals_pole_cancellation(ring, monomials):
    I = Ideal(ring, [Poly.from_terms(ring, [(e[:ring.nvars], 1)]) for e in monomials])
    got = groebner.hilbert_data(I)
    num, dim, degree, at = _pole_cancellation(I.groebner(), ring.nvars)
    assert (got.numerator, got.krull_dim, got.degree) == (num, dim, degree)
    n = got.nvars

    def hilbert_polynomial_at(d):
        # P(d) = sum over j0 <= j < n of a_j C(d+m, m), m = n-j-1, as a
        # polynomial in d: valid also below the regularity index
        total = Fraction(0)
        for j in range(n - got.krull_dim, n):
            term = Fraction(got.expansion[j])
            for i in range(1, n - j):
                term *= Fraction(d + i, i)
            total += term
        return total

    assert [hilbert_polynomial_at(d) for d in range(-3, 13)] == [at(d) for d in range(-3, 13)]
    if got.krull_dim - 1 == 1:
        assert arithmetic_genus(I) == 1 - at(0)


def test_hilbert_function_of_unit_ideal():
    I = Ideal(P2, [Poly.constant(P2, 1)])
    assert hilbert_function(I, 3) == 0
