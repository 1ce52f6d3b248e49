"""Reduced Groebner bases and Hilbert data.

Classic Buchberger with the sugar selection strategy and the two standard
pair-skipping criteria (coprime leading terms; chain criterion).  Work is
accounted in *reduction steps* against a budget: running out raises
BudgetExceededError and never returns a partial basis.

Basis elements are primitive integer polynomials with positive grevlex-leading
coefficient under every order (reductions stay in Z), so a reduced basis has
exactly one canonical printout.  Each Ideal keeps its bases in memory.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush
from math import comb

from .algebra import Layout, Poly, Ring, divide, field_bound, grevlex_key
from .config import DEFAULT_GB_BUDGET, GroebnerBudget
from .errors import BudgetExceededError

# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


class MonomialOrder(namedtuple("MonomialOrder", "kind", defaults=("grevlex",))):
    """grevlex or lex.  ``divide`` takes an order as its blocks of variable
    indices, compared in turn by grevlex."""

    __slots__ = ()

    def key(self, expo):
        """The sort key on exponent tuples."""
        if self.kind == "lex":
            return expo
        return grevlex_key(expo)

    def blocks(self, n: int) -> tuple:
        """The blocks of variable indices the order compares in turn by grevlex."""
        if self.kind == "grevlex":
            return (tuple(range(n)),)
        if self.kind == "lex":
            return tuple((i,) for i in range(n))
        raise ValueError(f"unknown order kind {self.kind!r}")

    def tag(self) -> str:
        return self.kind


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError("reduction-step budget exceeded")


def _leading(p: Poly, order: MonomialOrder):
    e = max(p.terms, key=order.key)
    return e, p.terms[e]


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def normal_form(
    p: Poly,
    basis,
    order: MonomialOrder = GREVLEX,
    budget: GroebnerBudget = DEFAULT_GB_BUDGET,
) -> Poly:
    """Full remainder of p on division by a polynomial list.

    For a (reduced) Groebner basis this is the unique normal form: zero iff
    p lies in the ideal.
    """
    if not basis:
        return p
    return divide(p, basis, order.blocks(p.ring.nvars), _Budget(budget.max_reductions).spend)


def _sorted_by_leading(pairs, order) -> list:
    """(leading monomial, polynomial, ...) by the monomial, then the printout."""
    if len({t[0] for t in pairs}) < len(pairs):  # print only to break a tie
        pairs = sorted(pairs, key=lambda t: str(t[1]))
    return sorted(pairs, key=lambda t: order.key(t[0]))


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------


def _buchberger(gens, order, budget) -> list:
    """The reduced basis, each element's head packed once, in basis order,
    on one ``Layout`` whose M is at least the field bound of every division
    of the run (an S-polynomial's degree is at most its pair's sugar, max
    over i of deg lcm - |lt_i| + deg f_i: a tail term can outweigh the
    leading one).  Where M falls short, a wider layout repacks every head;
    a larger M changes no result (``divide``)."""
    tracker = _Budget(budget.max_reductions)
    basis = [g.primitive_part() for g in gens if not g.is_zero()]
    if not basis:
        return []
    ring = basis[0].ring
    blocks = order.blocks(ring.nvars)
    pairs = _sorted_by_leading([(_leading(g, order)[0], g) for g in basis], order)
    lts, basis = [e for e, _ in pairs], [g for _, g in pairs]
    sugar = [g.degree() for g in basis]  # an element's sugar is its degree
    layout = heads = None

    def fit(deg):
        nonlocal layout, heads
        bound = field_bound(blocks, deg, max(sugar))
        if layout is None or bound > layout.M:
            layout = Layout(ring.nvars, blocks, bound)
            heads = [(k, *layout.head(g)) for k, g in enumerate(basis)]
        return layout, heads

    def keyed(i, j):
        # (sugar, order key of the lcm, (i, j)) selects the pair; then the lcm
        m = tuple(map(max, lts[i], lts[j]))
        s = max(sugar[i] + sum(m) - sum(lts[i]), sugar[j] + sum(m) - sum(lts[j]))
        return s, order.key(m), (i, j), m

    heap = [keyed(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    heapify(heap)
    pending = {pair for _, _, pair, _ in heap}

    def skippable(i, j, m):
        # coprime leading terms, or the chain criterion
        if all(a == 0 or b == 0 for a, b in zip(lts[i], lts[j])):
            return True
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(lts[k], m):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    return True
        return False

    while heap:
        s, _, (i, j), m = heappop(heap)
        pending.discard((i, j))
        if skippable(i, j, m):
            continue
        fit(s)
        # lc_j x^(m - lt_i) f_i - lc_i x^(m - lt_j) f_j: both tails shifted to m
        (*_, ci, tail_i), (*_, cj, tail_j), at = heads[i], heads[j], layout.pack(m)
        spoly = {at + step: cj * c for step, c in tail_i}
        for step, c in tail_j:
            c = spoly.pop(at + step, 0) - ci * c
            if c:
                spoly[at + step] = c
        # top-reduction suffices inside the loop; tails are cleaned up at the end
        rem = layout.reduce(spoly, heads, tracker.spend, full=False)[0]
        if rem:
            rem = Poly(ring, layout.unpack(rem)).primitive_part()
            basis.append(rem)
            sugar.append(rem.degree())
            lts.append(_leading(rem, order)[0])
            n = len(basis) - 1
            heads.append((n, *layout.head(rem)))
            for k in range(n):
                heappush(heap, keyed(k, n))
                pending.add((k, n))
    return _interreduce(lts, basis, order, fit, tracker)


def _interreduce(lts, basis, order, fit, tracker) -> list:
    # minimalize: drop elements whose LT is divisible by another's LT
    pairs = _sorted_by_leading(list(zip(lts, basis, range(len(basis)))), order)
    keep = [
        (e, k) for i, (e, _, k) in enumerate(pairs)
        if not any(j != i and _divides(f, e) and (f != e or j < i)
                   for j, (f, *_) in enumerate(pairs))
    ]
    # tail-reduce each element against the others on the run's layout; no
    # other leading monomial divides its own, which therefore stays
    reduced = []
    for e, k in keep:
        layout, heads = fit(basis[k].degree())
        among = [heads[o] for _, o in keep if o != k]
        rem = layout.reduce(layout.pack_terms(basis[k].terms), among, tracker.spend)[0]
        if rem:
            reduced.append((e, Poly(basis[k].ring, layout.unpack(rem)).primitive_part()))
    return [g for _, g in _sorted_by_leading(reduced, order)]


# ---------------------------------------------------------------------------
# the Ideal wrapper
# ---------------------------------------------------------------------------


class Ideal:
    """Generator list plus per-order reduced Groebner bases and the Hilbert
    data of the grevlex one, each computed on the first request that
    succeeds; every later caller gets that same object, never mutated.
    A generator outside ``ring`` raises ValueError.
    """

    def __init__(self, ring: Ring, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens)
        if any(g.ring != ring for g in self.gens):
            raise ValueError("mixed rings")
        self._bases: dict = {}
        self._hilbert = None

    def groebner(
        self,
        order: MonomialOrder = GREVLEX,
        budget: GroebnerBudget = DEFAULT_GB_BUDGET,
    ) -> list:
        tag = order.tag()
        if tag not in self._bases:
            self._bases[tag] = _buchberger(list(self.gens), order, budget)
        return self._bases[tag]


# ---------------------------------------------------------------------------
# Hilbert data
# ---------------------------------------------------------------------------


def _minimalize(gens: frozenset) -> frozenset:
    out = []
    for g in gens:
        if not any(h != g and _divides(h, g) for h in gens):
            out.append(g)
    return frozenset(out)


def _hilbert_numerator(gens: frozenset, memo: dict) -> dict:
    """Numerator of the Hilbert series of R/(monomial ideal), as {deg: coeff},
    with series = numerator / (1-t)^nvars."""
    gens = _minimalize(gens)
    if gens in memo:
        return memo[gens]
    counts: dict = {}  # x_i -> generators in two or more variables holding it
    for g in gens:
        support = [i for i, e in enumerate(g) if e]
        if len(support) > 1:
            for i in support:
                counts[i] = counts.get(i, 0) + 1
    if not counts:
        # pure powers of distinct variables: product of (1 - t^deg)
        out = {0: 1}
        for g in gens:
            d = sum(g)
            nxt = dict(out)
            for k, c in out.items():
                nxt[k + d] = nxt.get(k + d, 0) - c
            out = {k: c for k, c in nxt.items() if c}
        memo[gens] = out
        return out
    # pivot on x_v^p, x_v the most frequent variable and p the lower median
    # of its exponents in the mixed generators: N(R/I) = N(R/(I + x_v^p)) +
    # t^p N(R/(I : x_v^p)).  Both halves are smaller: the first loses the
    # mixed generators x_v^p divides, the second has a smaller degree sum.
    # The median keeps the recursion shallow; on (x0, x1)^N the least
    # exponent would recurse N deep
    v = max(counts, key=lambda i: (counts[i], -i))
    exps = sorted(g[v] for g in gens if 0 < g[v] < sum(g))
    p = exps[(len(exps) - 1) // 2]
    nvars = len(next(iter(gens)))
    pivot = tuple(p if i == v else 0 for i in range(nvars))
    plus = frozenset([pivot] + [g for g in gens if g[v] < p])
    colon = frozenset(g[:v] + (max(g[v] - p, 0),) + g[v + 1:] for g in gens)
    a = _hilbert_numerator(plus, memo)
    b = _hilbert_numerator(colon, memo)
    out = dict(a)
    for k, c in b.items():
        out[k + p] = out.get(k + p, 0) + c
    out = {k: c for k, c in out.items() if c}
    memo[gens] = out
    return out


class HilbertData(namedtuple("HilbertData", "nvars numerator expansion krull_dim degree")):
    """Hilbert-series data of a homogeneous quotient ring/I.

    numerator: the (deg, coeff) terms c_k t^k of the series numerator N(t)
    over (1-t)^n, n = nvars.  expansion: (a_0, ..., a_n), N's expansion at
    t = 1, N(t) = sum_j a_j (1-t)^j with a_j = (-1)^j sum_k c_k C(k, j).  So
    the series is sum_j a_j (1-t)^(j-n); the terms j >= n are polynomials in
    t, and (1-t)^-(n-j) = sum_d C(d+n-j-1, n-j-1) t^d.  With a_j0 the first
    nonzero a_j, krull_dim is n - j0, degree is a_j0, the projective
    dimension is krull_dim - 1, and the Hilbert polynomial is
    P(d) = sum over j0 <= j < n of a_j C(d+n-j-1, n-j-1).  At d = 0 each
    C(n-j-1, n-j-1) is 1, so P(0) = sum over j0 <= j < n of a_j, an int.
    """

    __slots__ = ()

    def hilbert_function(self, d: int) -> int:
        n = self.nvars
        total = 0
        for i, c in self.numerator:
            if d - i >= 0:
                total += c * comb(d - i + n - 1, n - 1)
        return total


def hilbert_data(
    I: Ideal,
    budget: GroebnerBudget = DEFAULT_GB_BUDGET,
) -> HilbertData:
    """The Hilbert data of ring/I (see HilbertData): N(t) from the leading
    monomials of the grevlex basis, then N(t) = sum_j a_j (1-t)^j with
    a_j = (-1)^j sum_k c_k C(k, j) for j <= n, and P(d) = sum over
    j0 <= j < n of a_j C(d+n-j-1, n-j-1).  O(terms of N * n) work,
    whatever N's degree."""
    if I._hilbert is not None:
        return I._hilbert
    basis = I.groebner(GREVLEX, budget)
    for g in basis:
        if not g.is_homogeneous():
            raise ValueError("hilbert data requires a homogeneous ideal")
    nvars = I.ring.nvars
    lts = frozenset(max(g.terms, key=grevlex_key) for g in basis)
    # the unit ideal's quotient is zero: N = 0
    num = {} if (0,) * nvars in lts else _hilbert_numerator(lts, {})
    expansion = tuple(
        (-1) ** j * sum(c * comb(k, j) for k, c in num.items()) for j in range(nvars + 1)
    )
    # j0 <= n for a proper ideal, else its series would be a polynomial with
    # H(0) = 1, no negative coefficient and H(1) = 0; N = 0 gives j0 = n
    j0 = next((j for j, a in enumerate(expansion) if a), nvars)
    I._hilbert = HilbertData(
        nvars=nvars,
        numerator=tuple(sorted(num.items())),
        expansion=expansion,
        krull_dim=nvars - j0,
        degree=expansion[j0],
    )
    return I._hilbert


def hilbert_function(I: Ideal, d: int, budget: GroebnerBudget = DEFAULT_GB_BUDGET) -> int:
    return hilbert_data(I, budget).hilbert_function(d)


def dim_degree(I: Ideal, budget: GroebnerBudget = DEFAULT_GB_BUDGET) -> tuple:
    """(projective dimension, degree) of a proper homogeneous ideal."""
    data = hilbert_data(I, budget)
    return data.krull_dim - 1, data.degree


def arithmetic_genus(I: Ideal, budget: GroebnerBudget = DEFAULT_GB_BUDGET) -> int:
    """1 - P(0) for the Hilbert polynomial P of ring/I; requires a curve."""
    data = hilbert_data(I, budget)
    if data.krull_dim - 1 != 1:
        raise ValueError(
            f"arithmetic genus needs projective dimension 1, got {data.krull_dim - 1}"
        )
    return 1 - sum(data.expansion[data.nvars - data.krull_dim:data.nvars])
