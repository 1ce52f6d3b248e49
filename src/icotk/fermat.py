"""Generalized Fermat pipeline on the surface sigma_2 = sigma_4 = 0.

The surface scan is the engineering core: instead of a hopeless 5-dim box
enumeration it fixes the value-multiset of three coordinates (the three
smallest in absolute value, so a box bound B on them finds every point
whose three smallest coordinates fit).  Writing s, e2, e3 for the symmetric
functions of the chosen triple and P = x3 + x4, Q = x3*x4 for the missing
pair, vanishing of sigma_2 and sigma_4 says

    s*P + Q = -e2        and        e3*P + e2*Q = 0.

When the determinant D = s*e2 - e3 is nonzero this pins P and Q, and the
pair is recovered from integer roots of T^2 - P*T + Q.  The singular case
D = 0 is consistent only when e2 = e3 = 0, i.e. the triple is {a, 0, 0};
there Q = -a*P and the sweep over |P| <= 2B^2 is enumerated in closed form
through the factorization (x3 + a)(x4 + a) = a^2.

The determinant factors as D = (a + b)(a + c)(b + c).  When D != 0, P =
-e2^2/D must be an integer; as e2 = a*b + c*(a + b) is -a^2 modulo a + b,
this forces (a + b) | a^4, and likewise (a + c) | a^4 and (b + c) | b^4.  So
for a sorted triple a <= b <= c with a != 0 the scan takes b and c among the
(signed divisors of a^4) - a, and for a = 0 it takes c among the (signed
divisors of b^4) - b, or every c when b = 0.  Of the triples with D = 0 only
{a, 0, 0} has a completion, and it meets the condition.  The condition is
only necessary: every triple that meets it still goes through the exact
completion, so the filter drops no point and admits none.

sigma_2 and sigma_4 are symmetric and of even degree: they take one value
on a whole orbit of S_5 x {+-1} (permuting and negating coordinates), and
the scan's point set is a union of such orbits.  So nothing is lost when
the enumeration returns one canonical tuple per orbit and only the report
expands each orbit into its points.

The same evenness pairs the sorted triple t = (a, b, c) with its mirror
t' = (-c, -b, -a), and the scan completes only the one with a + c >= 0.
Nothing is lost when it skips t with a + c < 0:

* t' is enumerated.  It lies in the box, as -B <= a <= b <= c <= B.  If
  D != 0, e2 is -c^2 modulo b + c and modulo a + c, and -b^2 modulo a + b,
  so D | e2^2 gives the window conditions of t': (b + c) | c^4 and
  (a + c) | c^4 when its smallest entry -c is nonzero, (a + b) | b^4 when
  c = 0.  If D = 0, t completes only as {a, 0, 0} with a < 0, and
  t' = (0, 0, -a) is in the window of 0.
* t' completes to the negated points.  If D != 0, t' has s' = -s,
  e2' = e2, e3' = -e3 and D' = -D, so P' = -P and Q' = Q, and its
  completion is (-x4, -x3).  If D = 0, the divisor sweep of {a, 0, 0}
  maps to that of {-a, 0, 0} under d -> -d, which sends (x3, x4) to
  (-x3, -x4); the cap |x3 + x4| <= 2B^2 is symmetric too.
* Ties lose nothing.  a + c = 0 with a != 0 gives D = 0 and e2 = -a^2 != 0,
  so such a triple never completes; (0, 0, 0) is its own mirror and kept.

A completion (a, b, c, x3, x4) with gcd g > 1 adds no orbit either, and the
scan drops it before canonicalizing.  Its primitive part u is a surface
point whose triple t/g is sorted, in the box and has (a + c)/g >= 0.  If
D(t/g) != 0, u's pair is the only solution of the linear system, so t/g
meets the window conditions and completes to it.  If D = 0, the cut leaves
only t = (0, 0, c) to complete, and (x3 + c)(x4 + c) = c^2 divided by g^2
is a term of the sweep of (0, 0, c/g), inside the cap.  A triple with gcd > 1 can still
complete to a primitive point, e.g. (-126, 140, 180) to (-315, -630), so no
triple is skipped for its gcd.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from collections import namedtuple
from fractions import Fraction

from .config import DEFAULT_FACTOR_BUDGET, FactorBudget
from .errors import BudgetExceededError
from .integers import ProjPoint, _ints, factorize


class FermatInstance(namedtuple("FermatInstance", "a n")):
    """The equation a_0 x_0^n + ... + a_4 x_4^n = 0."""

    __slots__ = ()

    def __new__(cls, a, n):
        a = _ints(a, "coefficient")
        if not isinstance(n, int):
            raise TypeError(f"exponent {n!r} is not an int")
        if len(a) != 5 or any(v == 0 for v in a):
            raise ValueError("need five nonzero coefficients")
        if n < 1:
            raise ValueError("exponent n >= 1 required")
        return super().__new__(cls, a, n)

    def lhs(self, coords) -> int:
        n = self.n
        return sum(ai * c**n for ai, c in zip(self.a, _ints(coords, "coordinate")))


# ---------------------------------------------------------------------------
# the surface scan
# ---------------------------------------------------------------------------


def _sigma24(coords):
    """(sigma_2, sigma_4) of integers: e_k of c_1..c_j is e_k of c_1..c_(j-1)
    plus c_j times their e_(k-1), updated from the top so each reads the old
    value."""
    e1 = e2 = e3 = e4 = 0
    for c in coords:
        e4 += e3 * c
        e3 += e2 * c
        e2 += e1 * c
        e1 += c
    return e2, e4


def _signed_divisors(m: int, k: int) -> list:
    """All divisors of m^k, m != 0, both signs."""
    divs = [1]
    for p, e in factorize(m).items():
        divs = [d * p**i for d in divs for i in range(e * k + 1)]
    return divs + [-d for d in divs]


def _complete_triple(B, v1, v2, v3):
    """Integer pairs (x3, x4) putting (v1, v2, v3, x3, x4) on the surface,
    within the documented singular sweep range |x3 + x4| <= 2B^2."""
    s = v1 + v2 + v3
    e2 = v1 * v2 + v1 * v3 + v2 * v3
    e3 = v1 * v2 * v3
    D = s * e2 - e3
    if D != 0:
        num_p = -e2 * e2
        num_q = e2 * e3
        if num_p % D or num_q % D:
            return
        P = num_p // D
        Q = num_q // D
        disc = P * P - 4 * Q
        if disc < 0:
            return
        w = math.isqrt(disc)
        if w * w != disc or (P + w) % 2:
            return
        yield ((P + w) // 2, (P - w) // 2)
        return
    if e2 or e3:
        return  # singular and inconsistent
    # the triple is {a, 0, 0}: Q = -a*P, so (x3 + a)(x4 + a) = a^2
    a = s
    if a == 0:
        yield (1, 0)
        return
    cap = 2 * B * B
    for d in _signed_divisors(a, 2):
        x3 = d - a
        x4 = a * a // d - a
        if abs(x3 + x4) <= cap:
            yield (x3, x4)


def _orbit(t5):
    """The canonical tuple of the S_5 x {+-1} orbit of a nonzero integer
    tuple: divided by its gcd, sorted, the lesser of that and its sorted
    negation (the negation reversed)."""
    g = math.gcd(*t5)
    up = tuple(sorted(c // g for c in t5))
    return min(up, tuple(map(int.__neg__, reversed(up))))


def _window(x: int, B: int) -> list:
    """The sorted y in [x, B] with (x + y) | x^4: all of them for x = 0."""
    if x == 0:
        return list(range(B + 1))
    return sorted(y for y in (d - x for d in _signed_divisors(x, 4)) if x <= y <= B)


def _scan_chunk(task):
    """The orbits of the primitive completions of the sorted triples
    (a, b, c), a in v1_list, that meet the divisibility condition and have
    a + c >= 0.  Over all a this is every orbit: the mirror (-c, -b, -a) of
    a triple with a + c < 0 finds the same orbits, and t/g those of the
    completions of t with gcd g > 1 (module docstring)."""
    B, v1_list = task
    found = set()
    for a in v1_list:
        win = _window(a, B)
        cut = bisect.bisect_left(win, -a)  # the first c with a + c >= 0
        for i, b in enumerate(win):
            for c in win[max(i, cut):] if a else _window(b, B):
                # (a, b, c, x3, x4) is never zero: D != 0 needs a nonzero
                # triple, and the one completion of (0, 0, 0) is (1, 0)
                for x3, x4 in _complete_triple(B, a, b, c):
                    if math.gcd(a, b, c, x3, x4) == 1:
                        found.add(_orbit((a, b, c, x3, x4)))
    return found


class ScanReport(namedtuple("ScanReport", "B strategy points millis")):
    """The points of a scan up to B, as sorted ProjPoints."""

    __slots__ = ()

    @property
    def trivial(self) -> tuple:
        """The points with every coordinate in {-1, 0, 1}, in order."""
        return tuple(p for p in self.points if all(abs(c) <= 1 for c in p.coords))

    @property
    def nontrivial(self) -> tuple:
        return tuple(p for p in self.points if any(abs(c) > 1 for c in p.coords))

    @property
    def is_trivial(self) -> bool:
        return not self.nontrivial


def scan_surface(B: int, threads: int | None = None) -> ScanReport:
    """All primitive surface points (up to sign) whose three smallest
    absolute coordinates are <= B, enumerated by the 3+2 split.

    ``threads`` is accepted and ignored: the scan runs in one process."""
    if B < 1:
        raise ValueError("B >= 1 required")
    t0 = time.perf_counter()
    points = {}  # by coordinates, which order and compare in C
    for orbit in _scan_chunk((B, list(range(-B, B + 1)))):
        for perm in set(itertools.permutations(orbit)):
            pt = ProjPoint(perm)
            if _sigma24(pt.coords) != (0, 0):
                raise AssertionError(f"scan emitted an off-surface point {pt}")
            points[pt.coords] = pt
    return ScanReport(
        B=B,
        strategy="three-two-split",
        points=tuple(map(points.__getitem__, sorted(points))),
        millis=(time.perf_counter() - t0) * 1000.0,
    )


def scan_instance(inst: FermatInstance, B: int, threads: int | None = None) -> ScanReport:
    """Surface points additionally satisfying the instance equation."""
    surf = scan_surface(B, threads)
    kept = tuple(p for p in surf.points if inst.lhs(p.coords) == 0)
    return ScanReport(B, "three-two-split+instance-filter", kept, surf.millis)


# ---------------------------------------------------------------------------
# unit equations
# ---------------------------------------------------------------------------


class UnitEquation(namedtuple("UnitEquation", "k u S degenerate vanishing off_surface support")):
    """u: k Fractions summing to 1; S: sorted primes; vanishing: the index
    subsets of u with zero sum; support: the original coordinate indices
    that survived."""

    __slots__ = ()


def _is_s_unit(q: Fraction, S) -> bool:
    for part in (q.numerator, q.denominator):
        part = abs(part)
        for p in S:
            while part % p == 0:
                part //= p
        if part != 1:
            return False
    return q != 0


def unit_reduce(
    inst: FermatInstance,
    x,
    budget: FactorBudget = DEFAULT_FACTOR_BUDGET,
) -> UnitEquation:
    """Divide the instance equation by its last surviving term: with the
    nonzero coordinates x_{i_0}..x_{i_k}, u_j = -(a_{i_j}/a_{i_k}) *
    (x_{i_j}/x_{i_k})^n for j < k sums to 1 and each u_j is an S-unit for
    S = primes of prod a_{i_j} x_{i_j}.

    Points off the ambient surface are allowed (the arithmetic does not
    care) but flagged, so unit reduction is testable on synthetic input.
    """
    pt = x if isinstance(x, ProjPoint) else ProjPoint(x)
    if len(pt.coords) != 5:
        raise ValueError("expected a point with five coordinates")
    if inst.lhs(pt.coords) != 0:
        raise ValueError("point does not satisfy the instance equation")
    nz = [i for i, c in enumerate(pt.coords) if c != 0]
    k = len(nz) - 1
    if k < 1:
        raise ValueError("need at least two nonzero coordinates")
    last = nz[-1]
    ak = inst.a[last]
    xk = pt.coords[last]
    u = tuple(
        Fraction(-inst.a[i] * pt.coords[i] ** inst.n, ak * xk**inst.n)
        for i in nz[:-1]
    )
    if sum(u) != 1:
        raise AssertionError("unit reduction lost the equation")
    prod = 1
    for i in nz:
        prod *= inst.a[i] * pt.coords[i]
    S = tuple(sorted(factorize(abs(prod), budget)))
    for ui in u:
        if not _is_s_unit(ui, S):
            raise AssertionError(f"{ui} is not an S-unit for S={S}")
    vanishing = []
    for size in range(1, k):
        for sub in itertools.combinations(range(k), size):
            if sum(u[j] for j in sub) == 0:
                vanishing.append(sub)
    off_surface = _sigma24(pt.coords) != (0, 0)
    return UnitEquation(
        k=k,
        u=u,
        S=S,
        degenerate=bool(vanishing),
        vanishing=tuple(vanishing),
        off_surface=off_surface,
        support=tuple(nz),
    )


# ---------------------------------------------------------------------------
# the Z locus
# ---------------------------------------------------------------------------


def z_member(x) -> bool:
    """True iff every coordinate is zero or agrees up to sign with some
    other coordinate.  Computed both from the ratio definition and from
    the binomial equations x_i^2 x_j - x_j^3; the two must agree."""
    coords = x.coords if isinstance(x, ProjPoint) else _ints(x, "coordinate")
    if len(coords) < 2:
        raise ValueError("need at least two coordinates")
    idx = range(len(coords))
    ratio = all(
        c == 0 or any(abs(c) == abs(coords[j]) for j in idx if j != i)
        for i, c in enumerate(coords)
    )
    scheme = all(
        any(coords[i] ** 2 * coords[j] - coords[j] ** 3 == 0 for i in idx if i != j)
        for j in idx
    )
    if ratio != scheme:
        raise AssertionError(f"Z-membership definitions disagree on {coords}")
    return ratio


def z_triviality_scan(B: int, threads: int | None = None) -> ScanReport:
    """Non-trivial surface points in the Z locus with three smallest
    coordinates <= B; expected empty (any hit is a finding, not an error)."""
    surf = scan_surface(B, threads)
    kept = tuple(p for p in surf.nontrivial if z_member(p))
    return ScanReport(B, "three-two-split+z-filter", kept, surf.millis)


# ---------------------------------------------------------------------------
# bounded S-unit oracle
# ---------------------------------------------------------------------------


def sunit_bounded(S, k: int, E: int, enumeration_cap: int = 2_000_000):
    """All k-tuples of S-units with exponents bounded by E summing to 1.

    A bounded oracle: complete inside the exponent box, silent about
    anything outside it.  k = 1 is allowed (the answer is [(1,)])."""
    primes = sorted(set(_ints(S, "prime")))
    for p in primes:
        if p < 2 or factorize(p) != {p: 1}:
            raise ValueError(f"S must consist of primes, got {p}")
    if k < 1 or E < 0:
        raise ValueError("k >= 1 and E >= 0 required")
    # checked before any unit is built: each exponent vector gives two
    # distinct signed units, and as n_units >= 2 a capped power decides
    n_units = 2 * (2 * E + 1) ** len(primes)
    if n_units ** min(k, enumeration_cap.bit_length() + 1) > enumeration_cap:
        raise BudgetExceededError(
            f"S-unit box holds {n_units}^{k} tuples; cap is {enumeration_cap}"
        )
    units = set()
    for expos in itertools.product(range(-E, E + 1), repeat=len(primes)):
        num = den = 1
        for p, e in zip(primes, expos):
            if e >= 0:
                num *= p**e
            else:
                den *= p**-e
        units.add(Fraction(num, den))
        units.add(Fraction(-num, den))
    units = sorted(units)
    out = [
        tup
        for tup in itertools.product(units, repeat=k)
        if sum(tup) == 1
    ]
    out.sort()
    return out
