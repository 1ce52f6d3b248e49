"""Exact linear algebra and binary-form arithmetic over Z and Z[phi].

Internal engine for the criterion-(tau) resultant pipeline: fraction-free
Bareiss determinants (Sylvester resultants), binary homogeneous forms as
coefficient lists, root stripping by fraction-free synthetic division by a
linear form (exact in the ring, the quotient scaled by a power of the
form's s-coefficient), and Lagrange interpolation for resultants computed
by specialization.

Z[phi] is the ring of integers of Q(sqrt 5).  Its elements are Phi numbers
a + b*phi with phi^2 = phi + 1; they mix with int on either side of the
operators, and Phi(a, 0) == a.  So every routine here takes ints, Phis or
both through Python's operators: there are no domain tables, and a
computation stays in int until a Phi enters it.  Everything stays in the
ring -- divisions are exactness-checked through divmod, never floating.
"""

from __future__ import annotations

from fractions import Fraction

ZZ = int  # read only by perfbench/tracing.py, which counts resultants by ring


class Phi:
    """a + b*phi in Z[phi], phi^2 = phi + 1.  Immutable; mixes with int."""

    __slots__ = ("a", "b")

    def __init__(self, a: int = 0, b: int = 0):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("Phi is immutable")

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
# Bareiss determinant (fraction-free; works over any integral domain)
# ---------------------------------------------------------------------------


def bareiss_det(matrix):
    """Exact determinant of a square matrix of ints and Phis."""
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


def sylvester_resultant(f, g, dom=None):
    """Resultant of two univariate polynomials given as coefficient lists
    (descending powers; leading coefficient first).  deg f, deg g >= 1.

    ``dom`` is accepted and ignored: the coefficient ring follows from the
    coefficients themselves."""
    f = list(f)
    g = list(g)
    dn = len(f) - 1
    dm = len(g) - 1
    if dn < 1 or dm < 1:
        raise ValueError("sylvester_resultant needs two positive-degree inputs")
    size = dn + dm
    rows = []
    for i in range(dm):
        rows.append([0] * i + f + [0] * (size - i - dn - 1))
    for i in range(dn):
        rows.append([0] * i + g + [0] * (size - i - dm - 1))
    return bareiss_det(rows)


# ---------------------------------------------------------------------------
# binary forms: coefficient lists [c_0 .. c_d] for sum c_i s^(d-i) t^i
# ---------------------------------------------------------------------------


def divide_linear(f, a, b):
    """Divide the binary form f of degree d by (b*s - a*t), the linear form
    vanishing at (s:t) = (a:b).  Returns b^d times the quotient, or None
    when the division has a remainder.

    Fraction-free synthetic division: p_0 = f_0 and p_i = b^i f_i + a p_(i-1)
    give b^d q_i = b^(d-1-i) p_i, and the remainder is zero iff p_d is.  The
    scalar b^d is irrelevant to root bookkeeping, the only thing callers do
    with this.  For b = 0 the linear form is a multiple of t and the quotient
    is returned unscaled.
    """
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


def strip_root(f, a, b):
    """Remove the root (a:b) from the binary form f as often as it divides.
    Returns (reduced form, multiplicity)."""
    mult = 0
    cur = f
    while len(cur) > 1:
        nxt = divide_linear(cur, a, b)
        if nxt is None:
            break
        cur = nxt
        mult += 1
    return cur, mult


def form_content_free(f):
    """Integer forms only: divide by the gcd of the coefficients (sign kept)."""
    from math import gcd

    g = 0
    for c in f:
        g = gcd(g, c)
    if g <= 1:
        return list(f)
    return [c // g for c in f]


# ---------------------------------------------------------------------------
# Lagrange interpolation (exact, over Q)
# ---------------------------------------------------------------------------


def interpolate(points) -> list:
    """Coefficients (descending) of the unique poly of degree < len(points)
    through the given (x, y) pairs, as exact Fractions collapsed to int when
    possible.  Newton's divided differences keep it O(n^2)."""
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    coeffs = [Fraction(y) for _, y in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    # expand the Newton form to the monomial basis (descending order)
    poly = [coeffs[n - 1]]
    for i in range(n - 2, -1, -1):
        poly = _mul_shift(poly, xs[i])
        poly[-1] += coeffs[i]
    while len(poly) > 1 and poly[0] == 0:
        poly = poly[1:]
    return [int(c) if c.denominator == 1 else c for c in poly]


def _mul_shift(poly, root):
    """poly(x) * (x - root), coefficients descending."""
    out = list(poly) + [Fraction(0)]
    for j in range(len(poly)):
        out[j + 1] -= poly[j] * root
    return out
