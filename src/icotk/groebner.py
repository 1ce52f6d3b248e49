"""Reduced Groebner bases, elimination, saturation, and Hilbert data.

Classic Buchberger with the sugar selection strategy and the two standard
pair-skipping criteria (coprime leading terms; chain criterion).  Work is
accounted in *reduction steps* against a budget: running out raises
BudgetExceededError and never returns a partial basis.

Basis elements are kept as primitive integer polynomials with positive
leading coefficient, so a reduced basis has exactly one canonical printout.
Each Ideal keeps the bases it has computed in memory.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .algebra import Poly, Ring, divide, grevlex_key
from .config import DEFAULT_GB_BUDGET, GroebnerBudget
from .errors import BudgetExceededError

# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonomialOrder:
    """grevlex, lex, or a block-elimination order.

    A block order compares the exponents of the first block (a set of
    variable indices) by grevlex and breaks ties on the remaining variables,
    also by grevlex; monomials involving first-block variables therefore
    dominate all monomials that avoid them of any degree -- which is what
    makes it an elimination order for that block.
    """

    kind: str = "grevlex"
    block: tuple = ()  # sorted variable indices; only for kind="block"

    def key(self, expo):
        if self.kind == "grevlex":
            return grevlex_key(expo)
        if self.kind == "lex":
            return expo
        if self.kind == "block":
            inside = tuple(expo[i] for i in self.block)
            rest = tuple(e for i, e in enumerate(expo) if i not in self.block)
            return (grevlex_key(inside), grevlex_key(rest))
        raise ValueError(f"unknown order kind {self.kind!r}")

    def tag(self) -> str:
        if self.kind == "block":
            return "block(" + ",".join(map(str, self.block)) + ")"
        return self.kind


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def block_order(ring: Ring, first_block) -> MonomialOrder:
    idx = tuple(sorted(ring.index[v] for v in first_block))
    return MonomialOrder("block", idx)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self, n: int = 1):
        self.left -= n
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
    p lies in the ideal.  Accepts Ideal too, computing its basis on demand.
    """
    if isinstance(basis, Ideal):
        basis = basis.groebner(order, budget)
    if p.is_zero() or not basis:
        return p
    return divide(p, basis, order.key, _Budget(budget.max_reductions).spend)[1]


def _strip(p: Poly) -> Poly:
    """Primitive integer form with positive leading coefficient."""
    return p.primitive_part() if p.terms else p


def _spoly(f: Poly, g: Poly, order) -> Poly:
    fe, fc = _leading(f, order)
    ge, gc = _leading(g, order)
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    mf = Poly.monomial(f.ring, tuple(map(int.__sub__, lcm, fe)), gc)
    mg = Poly.monomial(g.ring, tuple(map(int.__sub__, lcm, ge)), fc)
    return mf * f - mg * g


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------


def _buchberger(gens, order, budget) -> list:
    tracker = _Budget(budget.max_reductions)
    basis = [_strip(g) for g in gens if not g.is_zero()]
    basis.sort(key=lambda g: (order.key(_leading(g, order)[0]), str(g)))
    if not basis:
        return []
    sugar = [g.degree() for g in basis]
    lts = [_leading(g, order)[0] for g in basis]

    def lcm(i, j):
        return tuple(max(a, b) for a, b in zip(lts[i], lts[j]))

    def pair_sugar(i, j):
        m = lcm(i, j)
        return max(
            sugar[i] + sum(m) - sum(lts[i]),
            sugar[j] + sum(m) - sum(lts[j]),
        )

    pending = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def coprime(i, j):
        return all(a == 0 or b == 0 for a, b in zip(lts[i], lts[j]))

    def chain_skippable(i, j):
        m = lcm(i, j)
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(lts[k], m):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    return True
        return False

    while pending:
        i, j = min(pending, key=lambda p: (pair_sugar(*p), order.key(lcm(*p)), p))
        pending.discard((i, j))
        if coprime(i, j) or chain_skippable(i, j):
            continue
        s = _spoly(basis[i], basis[j], order)
        # top-reduction suffices inside the loop; tails are cleaned up at the end
        rem = divide(s, basis, order.key, tracker.spend, full=False)[1]
        if rem.terms:
            rem = _strip(rem)
            basis.append(rem)
            sugar.append(rem.degree())
            lts.append(_leading(rem, order)[0])
            n = len(basis) - 1
            pending.update((k, n) for k in range(n))
    return _interreduce(basis, order, tracker)


def _interreduce(basis, order, tracker) -> list:
    # minimalize: drop elements whose LT is divisible by another's LT
    basis = sorted(basis, key=lambda g: (order.key(_leading(g, order)[0]), str(g)))
    lts = [_leading(g, order)[0] for g in basis]
    keep = []
    for i, g in enumerate(basis):
        dominated = any(
            j != i and _divides(lts[j], lts[i]) and (lts[j] != lts[i] or j < i)
            for j in range(len(basis))
        )
        if not dominated:
            keep.append(g)
    # tail-reduce each element against the others
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        done = divide(g, others, order.key, tracker.spend)[1]
        if done.terms:
            reduced.append(_strip(done))
    reduced.sort(key=lambda g: (order.key(_leading(g, order)[0]), str(g)))
    return reduced


# ---------------------------------------------------------------------------
# the Ideal wrapper
# ---------------------------------------------------------------------------


class Ideal:
    """Generator list plus a per-order cache of reduced Groebner bases.

    Lookups and publication happen under a lock, but Buchberger runs outside
    it, so threads that miss at the same time each compute the basis.  The
    first basis published for an order wins and every caller gets that list;
    published bases are immutable.
    """

    def __init__(self, ring: Ring, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens)
        self._bases: dict = {}
        self._lock = threading.Lock()

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.gens)
        return f"Ideal({inner})"

    def groebner(
        self,
        order: MonomialOrder = GREVLEX,
        budget: GroebnerBudget = DEFAULT_GB_BUDGET,
    ) -> list:
        tag = order.tag()
        with self._lock:
            if tag in self._bases:
                return self._bases[tag]
        basis = _buchberger(list(self.gens), order, budget)
        with self._lock:
            self._bases.setdefault(tag, basis)
            return self._bases[tag]


def groebner_basis(
    I: Ideal,
    order: MonomialOrder = GREVLEX,
    budget: GroebnerBudget = DEFAULT_GB_BUDGET,
) -> list:
    return I.groebner(order, budget)


def eliminate(
    I: Ideal,
    first_block,
    budget: GroebnerBudget = DEFAULT_GB_BUDGET,
) -> Ideal:
    """I cap k[remaining variables], via a block-elimination basis.

    first_block is a collection of variable names; the result's generators
    involve none of them (they stay variables of the ring).
    """
    block = set(first_block)
    if not block:
        return I
    order = block_order(I.ring, block)
    idx = [I.ring.index[v] for v in block]
    basis = I.groebner(order, budget)
    kept = [g for g in basis if all(all(e[i] == 0 for i in idx) for e in g.terms)]
    return Ideal(I.ring, kept)


def _drop_variable(p: Poly, ring_small: Ring, pos: int) -> Poly:
    return Poly(
        ring_small,
        {tuple(e[:pos] + e[pos + 1 :]): c for e, c in p.terms.items()},
    )


def _rabinowitsch(I: Ideal, g: Poly) -> Ideal:
    """(I, 1 - w*g) in the ring extended by a fresh last variable w."""
    wname = "w"
    while wname in I.ring.index:
        wname += "_"
    big = I.ring.extend(wname)

    def up(p: Poly) -> Poly:
        return Poly(big, {e + (0,): c for e, c in p.terms.items()})

    w = Poly.variable(big, wname)
    return Ideal(big, [up(p) for p in I.gens] + [Poly.constant(big, 1) - w * up(g)])


def saturate(
    I: Ideal,
    g: Poly,
    budget: GroebnerBudget = DEFAULT_GB_BUDGET,
) -> Ideal:
    """I : g^infinity by the Rabinowitsch trick (adjoin 1 - w*g, eliminate w)."""
    if g.is_zero():
        raise ValueError("cannot saturate by zero")
    if g.is_constant():
        return I
    J = _rabinowitsch(I, g)
    elim = eliminate(J, {J.ring.names[-1]}, budget)
    return Ideal(I.ring, [_drop_variable(p, I.ring, I.ring.nvars) for p in elim.gens])


def radical_member(
    p: Poly,
    I: Ideal,
    budget: GroebnerBudget = DEFAULT_GB_BUDGET,
) -> bool:
    """True iff p vanishes on V(I), i.e. 1 in (I, 1 - w*p)."""
    if p.is_zero():
        return True
    basis = _rabinowitsch(I, p).groebner(GREVLEX, budget)
    return len(basis) == 1 and basis[0].is_constant() and not basis[0].is_zero()


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
    if not gens:
        memo[gens] = {0: 1}
        return memo[gens]
    supports = [tuple(i for i, e in enumerate(g) if e) for g in gens]
    if all(len(s) == 1 for s in supports) and len({s[0] for s in supports}) == len(supports):
        # monomial complete intersection: product of (1 - t^deg)
        out = {0: 1}
        for g in gens:
            d = sum(g)
            nxt = dict(out)
            for k, c in out.items():
                nxt[k + d] = nxt.get(k + d, 0) - c
            out = {k: c for k, c in nxt.items() if c}
        memo[gens] = out
        return out
    # pivot on the most frequently occurring variable
    counts: dict = {}
    for s in supports:
        if len(s) > 1:
            for i in s:
                counts[i] = counts.get(i, 0) + 1
    pivot_var = max(counts, key=lambda i: (counts[i], -i))
    nvars = len(next(iter(gens)))
    pivot = tuple(1 if i == pivot_var else 0 for i in range(nvars))
    # I + (x_v)
    plus = frozenset(
        [pivot] + [g for g in gens if g[pivot_var] == 0]
    )
    # I : x_v
    colon = frozenset(
        tuple(e - 1 if i == pivot_var and e else e for i, e in enumerate(g))
        for g in gens
    )
    a = _hilbert_numerator(plus, memo)
    b = _hilbert_numerator(colon, memo)
    out = dict(a)
    for k, c in b.items():
        out[k + 1] = out.get(k + 1, 0) + c
    out = {k: c for k, c in out.items() if c}
    memo[gens] = out
    return out


@dataclass(frozen=True)
class HilbertData:
    """Hilbert-series data of a homogeneous quotient ring/I.

    numerator: coefficients {deg: int} of the series numerator over (1-t)^n;
    reduced: the numerator after cancelling all poles at t=1, over
    (1-t)^(krull_dim); projective dimension is krull_dim - 1; degree is the
    reduced numerator at t=1.
    """

    nvars: int
    numerator: tuple
    reduced: tuple
    krull_dim: int
    degree: int

    def hilbert_function(self, d: int) -> int:
        n = self.nvars
        total = 0
        for i, c in self.numerator:
            if d - i >= 0:
                total += c * comb(d - i + n - 1, n - 1)
        return total

    def hilbert_polynomial_at(self, d) -> Fraction:
        """The Hilbert polynomial (exact, as a Fraction) evaluated at d --
        valid as a polynomial identity, also below the regularity index."""
        s = self.krull_dim
        if s == 0:
            return Fraction(0)
        total = Fraction(0)
        for i, c in self.reduced:
            prod = Fraction(1)
            for j in range(s - 1):
                prod *= Fraction(d - i + s - 1 - j)
            total += c * prod / factorial(s - 1)
        return total


def hilbert_data(
    I: Ideal,
    budget: GroebnerBudget = DEFAULT_GB_BUDGET,
) -> HilbertData:
    basis = I.groebner(GREVLEX, budget)
    for g in basis:
        if not g.is_homogeneous():
            raise ValueError("hilbert data requires a homogeneous ideal")
    nvars = I.ring.nvars
    if any(g.is_constant() and not g.is_zero() for g in basis):
        # unit ideal: the quotient is zero
        return HilbertData(nvars=nvars, numerator=(), reduced=(), krull_dim=0, degree=0)
    lts = frozenset(_leading(g, GREVLEX)[0] for g in basis)
    num = _hilbert_numerator(lts, {}) if basis else {0: 1}
    # cancel (1-t) factors: numerator(1) == 0 means a pole drops
    reduced = dict(num)
    dim = nvars
    while reduced and sum(reduced.values()) == 0:
        top = max(reduced)
        quot: dict = {}
        run = 0
        for k in range(top, 0, -1):
            run += reduced.get(k, 0)
            quot[k - 1] = -run
        reduced = {k: c for k, c in quot.items() if c}
        dim -= 1
    degree = sum(reduced.values())
    return HilbertData(
        nvars=nvars,
        numerator=tuple(sorted(num.items())),
        reduced=tuple(sorted(reduced.items())),
        krull_dim=dim,
        degree=degree,
    )


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
    p0 = data.hilbert_polynomial_at(0)
    if p0.denominator != 1:
        raise ArithmeticError("Hilbert polynomial not integral at 0")
    return 1 - int(p0)
