"""Exact polynomial and binary-form arithmetic over Z and Z[phi].

Internal engine for the criterion-(tau) resultant pipeline, all on
coefficient lists: resultants by the subresultant polynomial remainder
sequence (no Sylvester matrix is built), whose first pseudo-remainder by a
g that many polynomials meet can come from remainder rows kept with g
(remainder_resultant), stripping a known factor from a binary form by
exact long division (one routine for a primitive integer form and for a
monic form over Z[phi]), and integer interpolation at the nodes 0..n for
resultants computed by specialization.

Z[phi] is the ring of integers of Q(sqrt 5).  Its elements are Phi numbers
a + b*phi with phi^2 = phi + 1; they mix with int on either side of the
operators, and Phi(a, 0) == a.  So every routine here takes ints, Phis or
both through Python's operators: there are no domain tables, and a
computation stays in int until a Phi enters it.  Everything stays in the
ring -- divisions are exactness-checked through divmod, never floating.
"""

from __future__ import annotations

from itertools import islice
from math import gcd
from operator import mul

ZZ = int  # read only by perfbench/tracing.py, which counts resultants by ring


class Phi:
    """a + b*phi in Z[phi], phi^2 = phi + 1.  Immutable; mixes with int."""

    __slots__ = ("a", "b")

    def __init__(self, a: int = 0, b: int = 0):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("Phi is immutable")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return Phi, (self.a, self.b)

    def __add__(self, other):
        if isinstance(other, Phi):
            return Phi(self.a + other.a, self.b + other.b)
        if isinstance(other, int):
            return Phi(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Phi):
            return Phi(self.a - other.a, self.b - other.b)
        if isinstance(other, int):
            return Phi(self.a - other, self.b)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return Phi(other - self.a, -self.b)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Phi):
            a, b, c, d = self.a, self.b, other.a, other.b
            bd = b * d
            return Phi(a * c + bd, a * d + b * c + bd)
        if isinstance(other, int):
            return Phi(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out, base = Phi(1), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return Phi(-self.a, -self.b)

    def __bool__(self):
        return bool(self.a or self.b)

    def conj(self) -> "Phi":
        """Galois conjugate: phi -> 1 - phi."""
        return Phi(self.a + self.b, -self.b)

    def norm(self) -> int:
        """u * conj(u), an int; zero only for u = 0."""
        a, b = self.a, self.b
        return a * a + a * b - b * b

    def __divmod__(self, other):
        """(q, r) with self = q*other + r: q is u*conj(v)/norm(v) floored
        coordinatewise, so r == 0 exactly when other divides self."""
        if isinstance(other, int):
            other = Phi(other)
        elif not isinstance(other, Phi):
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Z[phi]")
        w = self * other.conj()
        q = Phi(w.a // n, w.b // n)
        return q, self - q * other

    def __rdivmod__(self, other):
        if isinstance(other, int):
            return divmod(Phi(other), self)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Phi):
            return self.a == other.a and self.b == other.b
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __repr__(self):
        return f"Phi({self.a}, {self.b})"


# ---------------------------------------------------------------------------
# resultants: the subresultant polynomial remainder sequence
# ---------------------------------------------------------------------------


def _exact(a, d):
    """a / d, which must be exact in the ring."""
    q, r = divmod(a, d)
    if r:
        raise ArithmeticError(f"subresultant step not exact: {r} left by {d}")
    return q


def pseudo_remainder(a, b):
    """prem(a, b) of coefficient lists (descending, deg b >= 1, b[0] != 0):
    the R with deg R < deg b and b[0]^(deg a - deg b + 1) * a = Q*b + R,
    leading zeros dropped (the zero polynomial is []).  When deg a < deg b
    it is a.

    Each step reduces only the window of deg b coefficients under b's tail;
    a later coefficient a_j is multiplied by b[0]^i once, when it enters the
    window at step i, instead of the whole tail being rescaled every step."""
    lead, tail, k = b[0], b[1:], len(b) - 1
    r, scale = list(a[:k]), 1
    for x in a[k:]:
        c = r[0]
        r = [lead * u - c * v for u, v in zip(r[1:] + [x * scale], tail)]
        scale *= lead
    while r and not r[0]:
        r = r[1:]
    return r


def sylvester_resultant(f, g, dom=None):
    """Res(f, g) of two univariate polynomials given as coefficient lists
    (descending powers): the determinant of their Sylvester matrix, which is
    never built.  Needs deg f, deg g >= 1 and nonzero leading coefficients,
    else ValueError.

    Subresultant PRS (Collins 1967; Brown-Traub 1971; Cohen, GTM 138,
    Alg. 3.3.7 without its content step).  With deg A >= deg B and
    delta = deg A - deg B, each step sets A, B = B, prem(A, B)/(g*h^delta),
    g = lc(A), h = g^delta/h^(delta-1), and flips the sign when both degrees
    are odd (also when f and g are swapped at the start).  The result is
    sign * lc(B)^deg A / h^(deg A - 1) once B is constant, 0 if B vanishes:
    O(deg f * deg g) ring operations on subresultant-sized numbers.  Every
    division is exact in an integral domain (ints, Phis or both); divmod
    checks it, and a remainder raises ArithmeticError, never a floored value.

    ``dom`` is accepted and ignored: the ring follows from the coefficients."""
    a, b = list(f), list(g)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("sylvester_resultant needs two positive-degree inputs")
    if not a[0] or not b[0]:
        raise ValueError("sylvester_resultant needs nonzero leading coefficients")
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            sign = -sign
    lc, h = 1, 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            sign = -sign
        r = pseudo_remainder(a, b)
        if not r:
            return 0
        scale = lc * h**delta
        a, b = b, [_exact(c, scale) for c in r]
        lc = a[0]
        if delta:
            h = _exact(lc**delta, h ** (delta - 1))
    deg_a = len(a) - 1
    return sign * _exact(b[0] ** deg_a, h ** (deg_a - 1))


def remainder_resultant(f, g, cols):
    """Res(f, g), the value sylvester_resultant(f, g) returns, with the first
    pseudo-remainder prem(f, g) assembled from rows kept for a g that many
    f meet.  The remainder rows of g are X_j = lc^e_j * (x^j mod g), j >= 0,
    with lc = g[0], k = deg g and e_j = max(0, j - k + 1), each as k
    coefficients (descending).  cols holds them by column, cols[t][j] being
    coefficient t of X_j; it is empty for a new g and is extended here up to
    j = deg f by X_(j+1) = lc*x*X_j - top(X_j)*g.

    With d = deg f and s = d - k + 1, prem(f, g) = lc^s (f mod g)
    = sum_i f[i] * lc^(s - e_(d-i)) * X_(d-i): k dot products.  For
    R = f mod g, Res(g, f) = lc^(d - deg R) Res(g, R) (Collins 1967; Cohen,
    GTM 138, Sec. 3.3) and Res(g, prem) = lc^(s*k) Res(g, R), so
    Res(f, g) = (-1)^(d*k) lc^(d - deg prem - s*k) Res(g, prem); a negative
    power is an exact division.  Res(g, prem) is 0 for prem = 0, c^k for a
    constant c, and otherwise the subresultant PRS of (g, prem).  When
    d < k there is no remainder to take, and the PRS runs on (f, g)."""
    d, k, lc = len(f) - 1, len(g) - 1, g[0]
    if d < k or k < 1 or not f[0] or not lc:
        return sylvester_resultant(f, g)
    if not cols:  # X_0 .. X_(k-1) are the powers of x themselves
        cols.extend([0] * (k - 1 - t) + [1] + [0] * t for t in range(k))
    if len(cols[0]) <= d:
        top, new, tail, last = [col[-1] for col in cols], [], g[1:], -g[-1]
        for _ in range(len(cols[0]), d + 1):
            c = top[0]
            top = [lc * u - c * v for u, v in zip(top[1:], tail)]
            top.append(c * last)
            new.append(top)
        for col, vals in zip(cols, zip(*new)):
            col.extend(vals)
    # f[i] meets X_(d-i) with the power lc^(s - e_(d-i)): lc^i for i < s,
    # and lc^s for i >= s, where X_(d-i) is the unit vector of x^(d-i)
    s, scale, weights = d - k + 1, 1, []
    for c in f[:s]:
        weights.append(c * scale)
        scale *= lc
    weights.reverse()  # those of X_k .. X_d
    prem = [sum(map(mul, weights, islice(col, k, None)), c * scale)
            for col, c in zip(cols, f[s:])]
    while prem and not prem[0]:
        prem = prem[1:]
    if not prem:
        return 0
    res = prem[0] ** k if len(prem) == 1 else sylvester_resultant(g, prem)
    e = d - (len(prem) - 1) - s * k
    res = res * lc**e if e >= 0 else _exact(res, lc**-e)
    return -res if d * k % 2 else res


# ---------------------------------------------------------------------------
# binary forms: coefficient lists [c_0 .. c_d] for sum c_i s^(d-i) t^i
# ---------------------------------------------------------------------------


def strip_root(f, g):
    """Remove the form g from the nonzero form f as often as g divides f.
    g has degree >= 1, g[0] or g[-1] is nonzero (else ValueError), and g is
    a primitive integer form or a monic form over Z[phi]: by Gauss's lemma
    every quotient is then integral, so long division from the top stays in
    the ring, each coefficient an exact divmod by g[0] (none if g[0] = 1).
    The first divmod that leaves a remainder, or a nonzero remainder form,
    shows that g does not divide.  When g[0] = 0 the division runs from the
    other end, with s and t swapped; for g = +-t, whose powers divide f as
    far as f's leading coefficients vanish, a slice and a sign do it."""
    if not (g[0] or g[-1]):
        raise ValueError("strip_root needs g[0] or g[-1] nonzero")
    if not g[0]:
        if len(g) == 2 and g[1] in (1, -1):
            z = next((i for i, c in enumerate(f) if c), len(f) - 1)
            return [-c for c in f[z:]] if g[1] == -1 and z % 2 else list(f[z:])
        return strip_root(f[::-1], g[::-1])[::-1]
    m, tail, cur = len(g) - 1, g[1:], list(f)
    while len(cur) > m:
        r, n = list(cur), len(cur) - m
        for j in range(n):
            if g[0] != 1:  # a monic g needs no division
                r[j], left = divmod(r[j], g[0])
                if left:
                    return cur
            for k, c in enumerate(tail, j + 1):
                r[k] -= r[j] * c
        if any(r[n:]):
            return cur
        cur = r[:n]
    return cur


def form_content_free(f):
    """Integer forms only: divide by the gcd of the coefficients (sign kept)."""
    g = gcd(*f)
    return [c // g for c in f] if g > 1 else list(f)


# ---------------------------------------------------------------------------
# interpolation at the nodes 0..n, in Z
# ---------------------------------------------------------------------------


def interpolate(values):
    """Coefficients (descending) of the unique p of degree <= n with
    p(i) = values[i] for i = 0..n, leading zeros dropped (the zero
    polynomial is [0]); None when p has a coefficient outside Z.

    With the forward differences d_k = (Delta^k p)(0),
    n! p(x) = sum_k d_k (n!/k!) x(x-1)...(x-k+1): Horner's rule in that
    falling-factorial basis stays in Z, and one exact divmod by n! per
    coefficient ends it."""
    if not values:
        raise ValueError("interpolate needs at least one value")
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    n = len(diffs) - 1
    poly, scale = [diffs[n]], 1  # scale = n!/k! at step k
    for k in range(n - 1, -1, -1):
        scale *= k + 1
        tail = diffs[k] * scale - k * poly[-1]
        poly = [poly[0]] + [c - k * p for c, p in zip(poly[1:], poly)] + [tail]
    out = []
    for c in poly:
        q, r = divmod(c, scale)
        if r:
            return None
        out.append(q)
    while len(out) > 1 and not out[0]:
        out = out[1:]
    return out
