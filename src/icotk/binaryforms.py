"""Exact linear algebra and binary-form arithmetic over Z and Z[phi].

Internal engine for the criterion-(tau) resultant pipeline: fraction-free
Bareiss determinants (Sylvester resultants), binary homogeneous forms as
coefficient lists, root stripping by fraction-free synthetic division by a
linear form (exact in the ring, the quotient scaled by a power of the
form's s-coefficient), and Lagrange interpolation for resultants computed
by specialization.

Z[phi] is the ring of integers of Q(sqrt 5): pairs (a, b) standing for
a + b*phi with phi^2 = phi + 1.  Everything stays in the ring -- divisions
are exactness-checked, never floating.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------


class ZZ:
    """Plain integers."""

    zero = 0
    one = 1

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def exact_div(a, b):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError(f"{a} not divisible by {b}")
        return q

    @staticmethod
    def from_int(n):
        return n


class ZPhi:
    """Z[phi], phi^2 = phi + 1, elements as pairs (a, b) = a + b*phi."""

    zero = (0, 0)
    one = (1, 0)
    phi = (0, 1)

    @staticmethod
    def add(u, v):
        return (u[0] + v[0], u[1] + v[1])

    @staticmethod
    def sub(u, v):
        return (u[0] - v[0], u[1] - v[1])

    @staticmethod
    def mul(u, v):
        a, b = u
        c, d = v
        return (a * c + b * d, a * d + b * c + b * d)

    @staticmethod
    def neg(u):
        return (-u[0], -u[1])

    @staticmethod
    def is_zero(u):
        return u == (0, 0)

    @staticmethod
    def conj(u):
        """Galois conjugate: phi -> 1 - phi."""
        a, b = u
        return (a + b, -b)

    @staticmethod
    def norm(u) -> int:
        a, b = u
        return a * a + a * b - b * b

    @classmethod
    def exact_div(cls, u, v):
        n = cls.norm(v)
        if n == 0:
            raise ZeroDivisionError("division by zero in Z[phi]")
        w = cls.mul(u, cls.conj(v))
        if w[0] % n or w[1] % n:
            raise ArithmeticError(f"{u} not divisible by {v} in Z[phi]")
        return (w[0] // n, w[1] // n)

    @staticmethod
    def from_int(n):
        return (n, 0)


# ---------------------------------------------------------------------------
# Bareiss determinant (fraction-free; works over any integral domain)
# ---------------------------------------------------------------------------


def bareiss_det(matrix, dom=ZZ):
    """Exact determinant of a square matrix over the given domain."""
    n = len(matrix)
    if n == 0:
        return dom.one
    m = [row[:] for row in matrix]
    sign = 1
    prev = dom.one
    for k in range(n - 1):
        if dom.is_zero(m[k][k]):
            for r in range(k + 1, n):
                if not dom.is_zero(m[r][k]):
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return dom.zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = dom.sub(dom.mul(m[i][j], m[k][k]), dom.mul(m[i][k], m[k][j]))
                m[i][j] = dom.exact_div(num, prev)
            m[i][k] = dom.zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return dom.neg(det) if sign < 0 else det


def sylvester_resultant(f, g, dom=ZZ):
    """Resultant of two univariate polynomials given as coefficient lists
    (descending powers; leading coefficient first).  deg f, deg g >= 1."""
    f = list(f)
    g = list(g)
    dn = len(f) - 1
    dm = len(g) - 1
    if dn < 1 or dm < 1:
        raise ValueError("sylvester_resultant needs two positive-degree inputs")
    size = dn + dm
    rows = []
    for i in range(dm):
        rows.append([dom.zero] * i + f + [dom.zero] * (size - i - dn - 1))
    for i in range(dn):
        rows.append([dom.zero] * i + g + [dom.zero] * (size - i - dm - 1))
    return bareiss_det(rows, dom)


# ---------------------------------------------------------------------------
# binary forms: coefficient lists [c_0 .. c_d] for sum c_i s^(d-i) t^i
# ---------------------------------------------------------------------------


def form_is_zero(f, dom=ZZ):
    return all(dom.is_zero(c) for c in f)


def divide_linear(f, a, b, dom=ZZ):
    """Divide the binary form f of degree d by (b*s - a*t), the linear form
    vanishing at (s:t) = (a:b).  Returns b^d times the quotient, or None
    when the division has a remainder.

    Fraction-free synthetic division: p_0 = f_0 and p_i = b^i f_i + a p_(i-1)
    give b^d q_i = b^(d-1-i) p_i, and the remainder is zero iff p_d is.  The
    scalar b^d is irrelevant to root bookkeeping, the only thing callers do
    with this.  For b = 0 the linear form is a multiple of t and the quotient
    is returned unscaled.
    """
    if form_is_zero(f, dom):
        return None
    d = len(f) - 1
    if d < 1:
        return None
    if dom.is_zero(b):
        # linear form is a multiple of t; divisible iff no s^d term
        if not dom.is_zero(f[0]):
            return None
        return list(f[1:])
    p = [f[0]]
    bpow = [dom.one]
    for i in range(1, d + 1):
        bpow.append(dom.mul(bpow[-1], b))
        p.append(dom.add(dom.mul(bpow[i], f[i]), dom.mul(a, p[-1])))
    if not dom.is_zero(p[d]):
        return None
    return [dom.mul(bpow[d - 1 - i], p[i]) for i in range(d)]


def strip_root(f, a, b, dom=ZZ):
    """Remove the root (a:b) from the binary form f as often as it divides.
    Returns (reduced form, multiplicity)."""
    mult = 0
    cur = f
    while len(cur) > 1:
        nxt = divide_linear(cur, a, b, dom)
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
