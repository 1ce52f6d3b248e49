"""Exact integer/rational arithmetic and sparse multivariate polynomials.

Coefficients are arbitrary-precision: plain ``int`` where possible, stdlib
``fractions.Fraction`` otherwise (the two mix freely; integer-only inputs stay
on the fast integer path, which matters for the degree-95 compositions built
on top of this module).  Polynomials are sparse maps

    exponent tuple (one entry per ring variable)  ->  nonzero coefficient

tagged with their ring.  Everything here is immutable-by-convention and pure:
no operation mutates its arguments.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .binaryforms import Phi
from .config import DEFAULT_FACTOR_BUDGET, FactorBudget
from .errors import FactorBudgetError, NotDivisibleError, ParseError

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


def factorize(n: int, budget: FactorBudget = DEFAULT_FACTOR_BUDGET) -> dict:
    """Prime factorization {p: e} of |n|, n != 0, within the configured effort.

    Trial division up to ``budget.trial_limit`` first, Pollard rho for the
    cofactor.  Raises FactorBudgetError instead of ever returning a partial or
    wrong factorization.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)  # mod-30 wheel
    i = 0
    while p * p <= n and p <= budget.trial_limit:
        if n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        else:
            p += wheel[i]
            i = (i + 1) % 8
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


# ---------------------------------------------------------------------------
# rings and polynomials
# ---------------------------------------------------------------------------


class Ring:
    """An ordered tuple of variable names; the only ring data polynomials carry."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        self.names = names
        self.index = {v: i for i, v in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Ring({','.join(self.names)})"

    def extend(self, *extra: str) -> "Ring":
        """New ring with extra variables appended (used by Rabinowitsch tricks)."""
        return Ring(self.names + tuple(extra))


P2 = Ring(("x", "y", "z"))
P4 = Ring(("x0", "x1", "x2", "x3", "x4"))


def _norm_coeff(c):
    """Collapse Fraction with denominator 1 to int (keeps the fast path hot)."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def grevlex_key(expo):
    """Sort key: e1 > e2 in grevlex iff grevlex_key(e1) > grevlex_key(e2)."""
    return (sum(expo), tuple(-e for e in reversed(expo)))


class Poly:
    """Sparse exact polynomial.  ``terms`` maps exponent tuples to nonzero
    int/Fraction coefficients; the zero polynomial has no terms."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms  # trusted: no zeros, keys are tuples of len nvars

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring) -> "Poly":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: Ring, c) -> "Poly":
        c = _norm_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        if c == 0:
            return cls.zero(ring)
        return cls(ring, {(0,) * ring.nvars: c})

    @classmethod
    def variable(cls, ring: Ring, name: str) -> "Poly":
        i = ring.index[name]
        e = [0] * ring.nvars
        e[i] = 1
        return cls(ring, {tuple(e): 1})

    @classmethod
    def monomial(cls, ring: Ring, expo, c=1) -> "Poly":
        c = _norm_coeff(c)
        if c == 0:
            return cls.zero(ring)
        return cls(ring, {tuple(expo): c})

    @classmethod
    def from_terms(cls, ring: Ring, items) -> "Poly":
        acc: dict = {}
        for expo, c in items:
            expo = tuple(expo)
            s = acc.get(expo, 0) + c
            if s:
                acc[expo] = s
            else:
                acc.pop(expo, None)
        return cls(ring, {e: _norm_coeff(c) for e, c in acc.items()})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coeff(self, expo) -> Fraction:
        return self.terms.get(tuple(expo), 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.ring, other)
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.ring, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big, small = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        out = dict(big.terms)
        for e, c in small.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = _norm_coeff(s)
            else:
                del out[e]
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _norm_coeff(other)
            if other == 0:
                return Poly.zero(self.ring)
            return Poly(
                self.ring,
                {e: _norm_coeff(c * other) for e, c in self.terms.items()},
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # hash-accumulation product; deterministic canonicalization happens
        # in the printer, not here
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(map(int.__add__, e1, e2))
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Poly(self.ring, {e: _norm_coeff(c) for e, c in out.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.ring, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- evaluation / substitution ------------------------------------------

    def evaluate(self, point):
        """Exact value at a point of ints and Fractions, or of ints and Phis
        (a point over Z[phi]; its polynomial needs integer coefficients)."""
        if len(point) != self.ring.nvars:
            raise ValueError("arity mismatch")
        point = [v if isinstance(v, (int, Fraction, Phi)) else _norm_coeff(Fraction(v))
                 for v in point]
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= x**k
            total += v
        return _norm_coeff(total)

    def substitute(self, images) -> "Poly":
        """Compose: plug images[i] in for the i-th variable.

        All images must share a ring.  Powers of each image are cached, so a
        polynomial with many terms in few variables stays cheap.
        """
        if len(images) != self.ring.nvars:
            raise ValueError("arity mismatch")
        if not images:
            raise ValueError("empty image list")
        target = images[0].ring
        for im in images:
            if im.ring != target:
                raise ValueError("images must share one ring")
        # cache[i][k] = images[i] ** k
        cache = [{0: Poly.constant(target, 1)} for _ in images]

        def power(i, k):
            c = cache[i]
            if k not in c:
                half = power(i, k // 2)
                c[k] = half * half * images[i] if k % 2 else half * half
            return c[k]

        out = Poly.zero(target)
        for e, c in self.terms.items():
            term = Poly.constant(target, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            out = out + term
        return out

    # -- division ----------------------------------------------------------

    def exact_div(self, q: "Poly") -> "Poly":
        """Return self / q if the division is exact, else NotDivisibleError."""
        q = self._coerce(q)
        if q.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        (quot,), rem = divide(self, [q], full=False)
        if rem.terms:
            raise NotDivisibleError("not divisible")
        return quot

    def content_primitive(self):
        """(content, primitive part): self = c * q with q integer, coefficient
        gcd 1, positive grevlex-leading coefficient."""
        if self.is_zero():
            raise ValueError("zero polynomial has no primitive part")
        denom = 1
        for c in self.terms.values():
            if isinstance(c, Fraction):
                denom = denom * c.denominator // gcd(denom, c.denominator)
        numer = 0
        scaled = {e: c * denom for e, c in self.terms.items()}
        for c in scaled.values():
            numer = gcd(numer, int(c))
        lead = scaled[max(scaled, key=grevlex_key)]
        sign = 1 if lead > 0 else -1
        content = Fraction(sign * numer, denom)
        prim = Poly(self.ring, {e: int(c) // (sign * numer) for e, c in scaled.items()})
        return _norm_coeff(content), prim

    def primitive_part(self) -> "Poly":
        return self.content_primitive()[1]

    def max_abs_coeff(self) -> int:
        """|F| = max |coefficient| for integer polynomials."""
        m = 0
        for c in self.terms.values():
            a = abs(int(c)) if not isinstance(c, Fraction) else abs(c)
            if a > m:
                m = a
        return m

    # -- printing ----------------------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        chunks = []
        for e, c in self._sorted_terms():
            mono = "*".join(
                n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k
            )
            neg = c < 0
            a = -c if neg else c
            if mono:
                body = mono if a == 1 else f"{a}*{mono}"
            else:
                body = str(a)
            if not chunks:
                chunks.append(f"-{body}" if neg else body)
            else:
                chunks.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(chunks)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------


def _negated(key):
    """Order-reversing image of a sort key made of ints and tuples of equal
    shape, so that a min-heap on it pops the largest key first."""
    return -key if type(key) is int else tuple(map(_negated, key))


def divide(p: Poly, divisors, key=grevlex_key, spend=None, full=True):
    """Sparse division of p by a list of nonzero polynomials.

    Remainder terms are taken in decreasing ``key`` order from a heap
    (Monagan & Pearce, JSC 2011), and each one is reduced by the *first*
    divisor whose leading term divides it; every reduction calls ``spend()``
    once.  The first term that no divisor reduces either ends the division
    (``full=False``: top-reduction, returning everything left as the
    remainder) or moves to the remainder (``full=True``: a normal form).

    Returns ``(quotients, remainder)`` with p = sum(q_i * d_i) + remainder.
    """
    heads = []
    for d in divisors:
        lead = max(d.terms, key=key)
        tail = [(e, c) for e, c in d.terms.items() if e != lead]
        heads.append((lead, d.terms[lead], tail))
    rem = dict(p.terms)
    heap = [(_negated(key(e)), e) for e in rem]
    heapify(heap)
    quots = [{} for _ in heads]
    done: dict = {}
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
            factor = _norm_coeff(Fraction(c) / lc)
        quots[i][shift] = factor
        for te, tc in tail:
            k = tuple(map(int.__add__, te, shift))
            old = rem.get(k)
            if old is None:
                rem[k] = _norm_coeff(-factor * tc)
                heappush(heap, (_negated(key(k)), k))
            else:
                s = old - factor * tc
                if s:
                    rem[k] = _norm_coeff(s)
                else:
                    del rem[k]
    return [Poly(p.ring, q) for q in quots], Poly(p.ring, done if full else rem)


class Echelon:
    """Exact Gaussian elimination over Q on sparse vectors, dicts from an
    index to nonzero int/Fraction entries, added one at a time and numbered
    0, 1, ... in that order."""

    def __init__(self):
        self._count = 0
        self._rows = []  # (pivot, row, combination of added vectors = row)

    def add(self, vec: dict):
        """Record vec.  Returns None when it is independent of the vectors
        added before it; else {number: coefficient}, the combination of
        earlier independent vectors that equals it."""
        own = self._count
        self._count += 1
        vec = dict(vec)
        comb = {own: 1}
        for piv, row, row_comb in self._rows:
            c = vec.get(piv)
            if c is not None:
                factor = _norm_coeff(Fraction(c) / row[piv])
                _sub_scaled(vec, factor, row)
                _sub_scaled(comb, factor, row_comb)
        if vec:
            self._rows.append((next(iter(vec)), vec, comb))
            return None
        del comb[own]
        return {k: -c for k, c in comb.items()}


def _sub_scaled(acc: dict, factor, vec: dict) -> None:
    """acc -= factor * vec in place, dropping entries that cancel."""
    for k, c in vec.items():
        s = acc.get(k, 0) - factor * c
        if s:
            acc[k] = _norm_coeff(s)
        else:
            acc.pop(k, None)


# ---------------------------------------------------------------------------
# parsing (grammar in module docs: terms joined by +/-, coeff [-]a or a/b,
# monomial var[^k] products joined by *, parentheses allowed)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, ring: Ring):
        self.text = text
        self.ring = ring
        self.pos = 0

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> Poly:
        p = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return p

    def expr(self) -> Poly:
        sign = 1
        c = self.peek()
        if c in "+-":
            self.pos += 1
            sign = -1 if c == "-" else 1
        p = self.term() * sign
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                p = p + self.term()
            elif c == "-":
                self.pos += 1
                p = p - self.term()
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while self.peek() == "*":
            self.pos += 1
            p = p * self.factor()
        return p

    def factor(self) -> Poly:
        base = self.base()
        if self.peek() == "^":
            self.pos += 1
            k = self.integer()
            return base**k
        return base

    def base(self) -> Poly:
        c = self.peek()
        if c == "(":
            self.pos += 1
            p = self.expr()
            self.expect(")")
            return p
        if c.isdigit():
            n = self.integer()
            if self.peek() == "/":
                self.pos += 1
                d = self.integer()
                if d == 0:
                    self.error("zero denominator")
                return Poly.constant(self.ring, Fraction(n, d))
            return Poly.constant(self.ring, n)
        if c.isalpha():
            return Poly.variable(self.ring, self.name())
        self.error("expected a coefficient, variable, or '('")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        word = self.text[start : self.pos]
        if word not in self.ring.index:
            self.pos = start
            self.error(f"unknown variable '{word}'")
        return word


def poly_parse(text: str, ring: Ring) -> Poly:
    """Parse the ASCII polynomial grammar; round-trips with str() on canonical
    form.  Raises ParseError with a byte offset on malformed input."""
    return _Parser(text, ring).parse()


# ---------------------------------------------------------------------------
# free-function helpers
# ---------------------------------------------------------------------------


def elementary_symmetric(ring: Ring, k: int, m: int | None = None) -> Poly:
    """sigma_k in the first m ring variables (C(m,k) terms, coefficients 1)."""
    m = ring.nvars if m is None else m
    if not 1 <= k <= m or m > ring.nvars:
        raise ValueError(f"need 1 <= k <= m <= {ring.nvars}")
    from itertools import combinations

    terms = {}
    for combo in combinations(range(m), k):
        e = [0] * ring.nvars
        for i in combo:
            e[i] = 1
        terms[tuple(e)] = 1
    return Poly(ring, terms)
