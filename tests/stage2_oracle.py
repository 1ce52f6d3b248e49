"""Oracle: criterion (tau)'s stage 2 by resultants after a unimodular move.

This is how plane_curves decided "X meets C_tau only inside T_tau" before
it read the intersections off rational parametrizations of the C_tau
components; the tests run it against the program's stage 2.

After one unimodular change of coordinates -- center off X, off C_tau, and
separating the eight base-point images in the (y:z) projection --
Res_x(F~, g~) is a binary form whose roots are exactly the projections of
V(F~) meet V(g~).  Stripping the eight base-point projections and then
re-examining each fiber line decides containment in T_tau over the
algebraic closure; the conjugate pair of base points is stripped at once,
by the integer quadratic of their projections (_pair_quadratic).
Only "center off X" depends on the curve, so each geometry keeps the
transforms that meet the rest, in trial order, and a curve takes the first
whose center is off X.  The fiber check runs at one of the conjugate pair:
F~ and g~ have integer coefficients, so at the other point every value is
the image under phi -> 1 - phi, a ring automorphism of Z[phi], which
commutes with the ring operations, zero tests and exact quotients of root
stripping and resultants; the two checks agree.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from functools import lru_cache

from icotk.algebra import P2, Poly
from icotk.binaryforms import (
    form_content_free,
    interpolate,
    remainder_resultant,
    strip_root,
    sylvester_resultant,
)
from icotk.errors import IcotkError
from icotk.ico_surface import fixed_geometry

# An admissible transform v = A*w: the images A*(x, y, z) that a form takes
# (F~ = F(A*w)), its center A*(1, 0, 0), the moved T_tau points (conjugate
# pair last), the eight base-point projections as primitive integer forms
# in (y, z) (the six lines, then _pair_quadratic), and per C_tau factor (g,
# x-coefficients of g~, their values at the nodes (m, 1) so far, the
# remainder rows of g~ at those nodes, g~ on the fiber lines of moved[:7]).
_Move = namedtuple("_Move", "images center moved projections factors")


@lru_cache(maxsize=1)
def _cache(geo):
    """Per geometry: the admissible transforms found so far and the trial
    generator that finds the next ones."""
    return [], _admissible(geo)


def _admissible(geo):
    """In a fixed trial order, each unimodular U (with inverse A) such that,
    in the new coordinates, the center (1:0:0) lies off C_tau and the eight
    T_tau points have pairwise distinct (y:z) projections.  Both conditions
    fail only on proper closed loci, so a small deterministic search lands.
    A trial draws the shear entries of unitriangular lo and up; U = up*lo and
    A = lo^-1 * up^-1, by the closed-form unitriangular inverses."""
    quad = geo.ttau_quadratic
    pts = [p.coords for p in geo.ttau_rational] + [quad.coords, quad.conjugate()]
    x, y, z = (Poly.variable(P2, n) for n in P2.names)
    for trial in range(500):
        rng = random.Random(1_000_003 * trial + 7)
        l10, l20, l21, u01, u02, u12 = (rng.randint(-3, 3) for _ in range(6))
        U = _product3(((1, u01, u02), (0, 1, u12), (0, 0, 1)),
                      ((1, 0, 0), (l10, 1, 0), (l20, l21, 1)))
        A = _product3(((1, 0, 0), (-l10, 1, 0), (l10 * l21 - l20, -l21, 1)),
                      ((1, -u01, u01 * u12 - u02), (0, 1, -u12), (0, 0, 1)))
        center = tuple(A[i][0] for i in range(3))
        if any(g.evaluate(center) == 0 for g in geo.ctau_factors()):
            continue
        moved = [tuple(sum(U[i][j] * p[j] for j in range(3)) for i in range(3)) for p in pts]
        if any(not q[1] and not q[2] for q in moved):
            continue  # a point hit the projection center
        if all(qa[1] * qb[2] != qa[2] * qb[1] for qa, qb in itertools.combinations(moved, 2)):
            images = tuple(x * a + y * b + z * c for a, b, c in A)
            factors = []
            for g in geo.ctau_factors():
                gc = _x_coefficients(g.substitute(images), g.degree())
                factors.append((g, gc, [], [], [_fiber(gc, q) for q in moved[:-1]]))
            lines = [form_content_free([q[2], -q[1]]) for q in moved[:-2]]
            yield _Move(images, center, moved, (*lines, _pair_quadratic(moved[-2])), factors)
    raise IcotkError("no suitable unimodular transform found")  # pragma: no cover


def _product3(m, n):
    """The 3x3 matrix product m*n."""
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*n)) for row in m)


def _transform(F: Poly) -> _Move:
    """The first admissible transform, in trial order, whose center is off
    V(F): the one a search over all trials for this curve would pick."""
    kept, pending = _cache(fixed_geometry())
    for i in itertools.count():
        if i == len(kept):
            kept.append(next(pending))
        if F.evaluate(kept[i].center) != 0:
            return kept[i]


def _x_coefficients(poly: Poly, d: int):
    """[c_d, ..., c_0] for the degree-d form poly = sum_k c_k x^k, each c_k
    the coefficient list of a binary form in descending powers of y."""
    out = [[0] * (k + 1) for k in range(d + 1)]
    for (ex, _, ez), c in poly.terms.items():
        out[d - ex][ez] = c
    return out


def _at(coeffs, y, z=1):
    """sum_i c_i y^(n-i) z^i for coeffs = [c_0..c_n], by Horner's rule in y
    carrying the power of z."""
    acc, zi = 0, 1
    for c in coeffs:
        acc = acc * y + c * zi
        zi *= z
    return acc


def _fiber(xc, q):
    """The form on the fiber line of the projection of q, in x, with the
    root q itself stripped."""
    return strip_root([_at(c, q[1], q[2]) for c in xc], [1, -q[0]])


def _pair_quadratic(q):
    """The primitive integer form proportional to
    (q2*y - q1*z)*(q2'*y - q1'*z), for the moved point q of the conjugate
    pair and ' the Galois conjugate phi -> 1 - phi: the coefficients are
    N(q2), -Tr(q2*q1') and N(q1).

    Stripping it from an integer form (strip_root, as for the six rational
    lines) leaves the degree that stripping the roots (q1:q2) and (q1':q2')
    one after the other in Z[phi] leaves, and stage 2 reads only the degree.
    If (q2*y - q1*z)^k exactly divides the integer form, conjugation shows
    that (q2'*y - q1'*z)^k exactly divides it too: both roots have
    multiplicity k.  The two linear forms are coprime (the projections are
    distinct), so their product to the k-th power divides the form and the
    (k+1)-th does not; that product is a rational form, so this holds over
    Q as well.  Both routes lower the degree by 2k."""
    u = q[2] * q[1].conj()
    return form_content_free([q[2].norm(), -(2 * u.a + u.b), q[1].norm()])


def _resultant_in_x(fc, fvals, gc, gvals, grows, de):
    """Res_x(F~, g~) as an integer binary form in (y, z) of degree de, from
    the x-coefficients fc, gc at the nodes (m, 1), m = 0..de; fvals, gvals
    hold their values at the nodes so far and are extended here.  grows[m]
    holds the remainder rows of g~ at node m (remainder_resultant), kept
    with gvals per geometry and extended to the degree of F.  Building the
    rows costs about one resultant, so a node gets them only when a second
    curve meets it; at a node first met now, the PRS runs on (F_m, g_m).
    The leading coefficients are the nonzero constants F(center),
    g(center), so specialization commutes with the resultant, the rows
    share one lc, and interpolation is exact."""
    met = len(gvals)  # the nodes an earlier curve met
    for xc, vals in ((fc, fvals), (gc, gvals)):
        vals.extend([_at(c, m) for c in xc] for m in range(len(vals), de + 1))
    grows.extend([] for _ in range(len(grows), met))
    uni = interpolate([
        remainder_resultant(fvals[m], gvals[m], grows[m]) if m < met
        else sylvester_resultant(fvals[m], gvals[m])
        for m in range(de + 1)
    ])
    if uni is None:
        raise AssertionError("resultant interpolation is not integral")
    if not any(uni):
        return None  # identically zero: common component
    return [0] * (de + 1 - len(uni)) + uni


def _stage2(curve):
    """None if X meets C_tau only inside T_tau (decided over the algebraic
    closure); else a failure description."""
    d = curve.degree
    move = _transform(curve.F)
    fc = _x_coefficients(curve.F.substitute(move.images), d)
    fvals, fibers = [], None
    for g, gc, gvals, grows, gfibers in move.factors:
        de = d * (len(gc) - 1)
        R = _resultant_in_x(fc, fvals, gc, gvals, grows, de)
        if R is None:
            return f"V(F) and V({g}) share a component"
        # the six rational projections, then the conjugate pair at once
        rem = form_content_free(R)
        for p in move.projections:
            rem = strip_root(rem, p)
        if len(rem) > 1:
            return (
                f"V(F) meets V({g}) at a point off T_tau "
                "(projection survives base-point stripping)"
            )
        # every intersection projects onto a base-point fiber; check each
        # fiber carries nothing but the base point itself (the conjugate
        # point's check is the Galois conjugate of the one before it)
        if fibers is None:
            fibers = [_fiber(fc, q) for q in move.moved[:-1]]
        for fl, gl in zip(fibers, gfibers):
            if len(fl) > 1 and len(gl) > 1 and sylvester_resultant(fl, gl) == 0:
                return (
                    f"V(F) meets V({g}) at a second point on the "
                    "fiber line of a T_tau point"
                )
    return None
