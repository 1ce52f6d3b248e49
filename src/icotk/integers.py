"""Exact integer arithmetic: checked int tuples, projective points with
primitive integer coordinates, primality that never lies, and
factorization and radicals within a factoring budget.

Kept apart from the polynomial code in ``algebra`` so that the height
bounds and the Fermat commands, which need only these, load no polynomial
module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import neg

from .config import DEFAULT_FACTOR_BUDGET, FactorBudget
from .errors import FactorBudgetError


def _ints(values, what: str) -> tuple:
    """values as a tuple; anything but an int raises TypeError rather than
    being truncated, as in ProjPoint."""
    out = tuple(values)
    for c in out:
        if not isinstance(c, int):
            raise TypeError(f"{what} {c!r} is not an int")
    return out


class ProjPoint:
    """A projective point with canonical primitive integer coordinates:
    gcd 1, first nonzero coordinate positive.  Coordinates are ints or
    Fractions; anything else raises TypeError rather than being truncated."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        t = tuple(coords)
        if set(map(type, t)) != {int}:  # bools and other int subclasses convert
            denom = 1
            for c in t:
                if isinstance(c, Fraction):
                    denom = denom * c.denominator // gcd(denom, c.denominator)
                elif not isinstance(c, int):
                    raise TypeError(f"coordinate {c!r} is neither an int nor a Fraction")
            t = tuple(int(c * denom) for c in t)
        g = gcd(*t)
        if g == 0:
            raise ValueError("projective point needs a nonzero coordinate")
        if next(filter(None, t)) < 0:
            g = -g
        self.coords = t if g == 1 else tuple(map(neg, t)) if g == -1 else tuple(c // g for c in t)

    @classmethod
    def _canonical(cls, coords):
        """The point of coordinates that are already canonical, unchecked:
        coords must be a tuple of ints with gcd 1 whose first nonzero entry
        is positive.  Only the surface scan's expansion, which derives them
        so, may call it."""
        pt = object.__new__(cls)
        pt.coords = coords
        return pt

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __len__(self):
        return len(self.coords)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "(" + ":".join(str(c) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# integer arithmetic: radicals with a factoring budget
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13: the least strong pseudoprime to every base in _SMALL_PRIMES
# (Sorenson & Webster, Math. Comp. 2017); below it Miller-Rabin on those
# bases is a proof.
_PSI13 = 3317044064679887385961981
_POCKLINGTON_BASES = 100


def _is_prime(n: int, budget: FactorBudget) -> bool:
    """Primality that never lies.

    Miller-Rabin on the bases 2..41 decides every n < psi_13.  A larger n
    that passes is proved prime by Pocklington's criterion on the full
    factorization of n - 1 (recursively, within ``budget``); when no proof
    is found, FactorBudgetError is raised instead of an unproven answer.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < _PSI13:
        return True
    # Pocklington: n is prime if for every prime q | n - 1 some a has
    # a^(n-1) = 1 and gcd(a^((n-1)/q) - 1, n) = 1 (mod n)
    for q in factorize(n - 1, budget):
        for a in range(2, 2 + _POCKLINGTON_BASES):
            if pow(a, n - 1, n) != 1:
                return False
            if gcd(pow(a, (n - 1) // q, n) - 1, n) == 1:
                break
        else:
            raise FactorBudgetError(f"primality of {n} not proved within budget")
    return True


def _pollard_rho(n: int, budget: FactorBudget) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        count = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                count += min(m, r - k)
                if count > budget.rho_iterations:
                    raise FactorBudgetError(
                        f"factoring budget exceeded on {n} (unfactored input)"
                    )
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise FactorBudgetError(f"factoring budget exceeded on {n} (unfactored input)")


def _trial_division(n: int, limit: int) -> tuple:
    """Trial division of n >= 1 by 2, 3, 5 and then along the mod-30 wheel
    while p <= limit and p*p <= what is left: ({p: e} found, cofactor)."""
    out: dict = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)  # mod-30 wheel
    i = 0
    while p * p <= n and p <= limit:
        if n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        else:
            p += wheel[i]
            i = (i + 1) % 8
    return out, n


def factorize(n: int, budget: FactorBudget = DEFAULT_FACTOR_BUDGET) -> dict:
    """Prime factorization {p: e} of |n|, n != 0, within the configured effort.

    Trial division up to ``budget.trial_limit`` first, Pollard rho for the
    cofactor.  Raises FactorBudgetError instead of ever returning a partial or
    wrong factorization.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    out, n = _trial_division(abs(n), budget.trial_limit)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime(m, budget):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m, budget)
        stack.append(d)
        stack.append(m // d)
    return out


def int_radical(n: int, budget: FactorBudget = DEFAULT_FACTOR_BUDGET) -> int:
    """rad(|n|) = product of the distinct primes dividing n; rad(±1) = 1.

    The empty product convention makes rad(1) = 1.  Raises on n = 0, and
    raises FactorBudgetError when the factoring effort is exceeded.
    """
    if n == 0:
        raise ValueError("radical of 0 is undefined")
    r = 1
    for p in factorize(n, budget):
        r *= p
    return r
