"""Exact polynomial and binary-form arithmetic over Z and Z[phi].

Criterion (tau) calls only strip_root, form_content_free and
sylvester_resultant: stage 2 strips the root forms of the T_tau points
from F on each parametrized C_tau component, and the build of those
parametrizations checks them for base points with a resultant.  The rest
served the resultant stage 2 that came before it, and stays for the
benchmark's tracer, which patches it by name, and for the tests' oracle
of that stage 2.  All of it works on coefficient lists: resultants by one
subresultant polynomial remainder sequence (_prs; no Sylvester matrix is
built), which goes on from a given first pseudo-remainder -- prem(f, g)
itself, or, for a g that many polynomials meet, the same prem assembled
from remainder rows kept with g (remainder_resultant) -- stripping a known
factor from a binary form by exact long division (one routine for a
primitive integer form and for a monic form over Z[phi]; +-t by a slice),
and integer interpolation at the nodes 0..n for resultants computed by
specialization.

Coefficients are ints or algebra.Phi numbers of Z[phi], mixed through
Python's operators: this module names no ring and imports nothing from the
package.  Everything stays in the ring -- divisions are exactness-checked
through divmod, never floating.
"""

from __future__ import annotations

from itertools import islice
from math import gcd
from operator import mul

ZZ = int  # read only by perfbench/tracing.py, which counts resultants by ring


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


def _prs(a, b, sign, r):
    """sign * Res(a, b) for deg a >= deg b >= 1, given the first
    pseudo-remainder r = prem(a, b): the subresultant PRS from its first
    step on (Collins 1967; Brown-Traub 1971; Cohen, GTM 138, Alg. 3.3.7
    without its content step).

    With delta = deg A - deg B, each step sets A, B = B, prem(A, B)/(g*h^delta),
    g = lc(A), h = g^delta/h^(delta-1), and flips the sign when both degrees
    are odd; at the first step g = h = 1, so r is taken as it is.  The
    result is sign * lc(B)^deg A / h^(deg A - 1) once B is constant, 0 if a
    remainder vanishes: O(deg a * deg b) ring operations on
    subresultant-sized numbers.  Every division is exact in an integral
    domain (ints, Phis or both); divmod checks it, and a remainder raises
    ArithmeticError, never a floored value."""
    h = 1
    while True:
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            sign = -sign
        if not r:
            return 0
        delta = len(a) - len(b)
        a, b = b, r
        if len(a) == 2:  # B is constant and h^0 = 1; _exact still refuses a Fraction
            return sign * _exact(b[0], 1)
        lc = a[0]
        if delta:
            h = _exact(lc**delta, h ** (delta - 1))
        if len(b) == 1:
            deg_a = len(a) - 1
            return sign * _exact(b[0] ** deg_a, h ** (deg_a - 1))
        scale = lc * h ** (len(a) - len(b))
        r = [_exact(c, scale) for c in pseudo_remainder(a, b)]


def sylvester_resultant(f, g, dom=None):
    """Res(f, g) of two univariate polynomials given as coefficient lists
    (descending powers): the determinant of their Sylvester matrix, which is
    never built.  Needs deg f, deg g >= 1 and nonzero leading coefficients,
    else ValueError.  The subresultant PRS (_prs) runs on the pair with the
    larger degree first; swapping f and g flips the sign when both degrees
    are odd.

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
    return _prs(a, b, sign, pseudo_remainder(a, b))


def remainder_resultant(f, g, cols):
    """Res(f, g), the value sylvester_resultant(f, g) returns, with the first
    pseudo-remainder prem(f, g) assembled from rows kept for a g that many
    f meet.  The remainder rows of g are X_j = lc^e_j * (x^j mod g), j >= 0,
    with lc = g[0], k = deg g and e_j = max(0, j - k + 1), each as k
    coefficients (descending).  cols holds them by column, cols[t][j] being
    coefficient t of X_j; it is empty for a new g and is extended here up to
    j = deg f by X_(j+1) = lc*x*X_j - top(X_j)*g.

    With d = deg f and s = d - k + 1, prem(f, g) = lc^s (f mod g)
    = sum_i f[i] * lc^(s - e_(d-i)) * X_(d-i): k dot products, after which
    the subresultant PRS of (f, g) goes on from its first step (_prs).
    When d < k there is no remainder to take, and the PRS runs on (f, g)."""
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
    return _prs(f, g, 1, prem)


# ---------------------------------------------------------------------------
# binary forms: coefficient lists [c_0 .. c_d] for sum c_i s^(d-i) t^i
# ---------------------------------------------------------------------------


def strip_root(f, g):
    """Remove the form g from the nonzero form f as often as g divides f.
    g has degree >= 1 and is a primitive integer form or a monic form over
    Z[phi]: by Gauss's lemma every quotient is then integral, so long
    division from the top stays in the ring, each coefficient an exact
    divmod by g[0] (none if g[0] = 1).  The first divmod that leaves a
    remainder, or a nonzero remainder form, shows that g does not divide.
    The one g with g[0] = 0 is +-t, whose powers divide f as far as f's
    leading coefficients vanish: a slice and a sign do it.  Any other g
    with g[0] = 0 raises ValueError.  Stage 2 passes none: it strips the
    primitive integer root forms of the T_tau points on a C_tau component,
    a line with g[0] = 0 is +-t, and the conjugate pair's quadratic
    (l s + m t)(l' s + m' t) has g[0] = N(l) != 0, since l = 0 would put
    the pair at the parameter (1:0), whose point is rational."""
    if not g[0]:
        if len(g) == 2 and g[1] in (1, -1):
            z = next((i for i, c in enumerate(f) if c), len(f) - 1)
            return [-c for c in f[z:]] if g[1] == -1 and z % 2 else list(f[z:])
        raise ValueError("strip_root needs g[0] != 0 unless g is +-t")
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
