"""Ico models: curves cut inside the surface {sigma_2 = sigma_4 = 0} by
polynomial tuples, their diagonal data and degeneracy invariants, and the
one-polynomial general families.

The diagonal matrix a[i][j] -- the coefficient of x_i^(deg f_j) in f_j --
doubles as the value f_j(e_i), and everything degeneracy-related factors
through it: a model is degenerate exactly when its curve meets one of the
five coordinate points.
"""

from __future__ import annotations

from itertools import combinations

# modules, not names: each runs on first use, and the genus formulas use none
from . import algebra, groebner, ico_surface, integers
from .config import DEFAULT_FACTOR_BUDGET, DEFAULT_GB_BUDGET, FactorBudget, GroebnerBudget
from .errors import IcotkError


class IcoModel:
    """A tuple of primitive integer homogeneous polynomials in the P4 ring.

    Rational input is normalized to primitive integer form first (the
    diagonal invariants below are only canonical on that normalization).
    """

    def __init__(self, polys):
        what = "ico model polynomials"
        self.polys = tuple(algebra.primitive_form(f, algebra.P4, what, "x0..x4") for f in polys)
        if not self.polys:
            raise ValueError("ico model needs at least one polynomial")
        self.degrees = tuple(f.degree() for f in self.polys)
        self._diagonal = None

    def __repr__(self):
        return "IcoModel(" + "; ".join(str(f) for f in self.polys) + ")"

    def diagonal(self) -> tuple:
        """5 x m matrix a[i][j] = coefficient of x_i^(n_j) in f_j.

        Computed by coefficient extraction and re-checked against evaluation
        at the coordinate points (the two must agree for any polynomial).
        """
        if self._diagonal is None:
            rows = []
            for i in range(5):
                row = []
                for j, f in enumerate(self.polys):
                    expo = tuple(self.degrees[j] if k == i else 0 for k in range(5))
                    coeff = f.coeff(expo)
                    point = [1 if k == i else 0 for k in range(5)]
                    if f.evaluate(point) != coeff:
                        raise AssertionError("diagonal extraction mismatch")
                    row.append(int(coeff))
                rows.append(tuple(row))
            self._diagonal = tuple(rows)
        return self._diagonal


def is_degenerate(model: IcoModel) -> bool:
    """True iff some diagonal row vanishes identically."""
    return any(all(a == 0 for a in row) for row in model.diagonal())


def nu_f(model: IcoModel, budget: FactorBudget = DEFAULT_FACTOR_BUDGET) -> int:
    """Radical of the product of all nonzero diagonal entries (empty
    product = 1)."""
    prod = 1
    for row in model.diagonal():
        for a in row:
            if a:
                prod *= a
    return integers.int_radical(prod, budget) if prod != 1 else 1


def model_ideal(model: IcoModel) -> groebner.Ideal:
    geo = ico_surface.fixed_geometry()
    return groebner.Ideal(algebra.P4, [geo.sigma2, geo.sigma4, *model.polys])


def is_curve(model: IcoModel, budget: GroebnerBudget = DEFAULT_GB_BUDGET) -> bool:
    """True iff the cut-out scheme has projective dimension 1."""
    return groebner.dim_degree(model_ideal(model), budget)[0] == 1


# ---------------------------------------------------------------------------
# the general families: monomial bases of A_n = (ring/(sigma2, sigma4))_n
# ---------------------------------------------------------------------------


def expected_rank(n: int) -> int:
    """dim A_n: 5 for n = 1, else 4n^2 - 4n + 6."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return 5 if n == 1 else 4 * n * n - 4 * n + 6


def _degree_monomials(n: int):
    """Exponent tuples of degree n in five variables, grevlex-descending:
    stars and bars, the four bars at positions chosen from n + 4."""
    cuts = ((-1, *bars, n + 4) for bars in combinations(range(n + 4), 4))
    expos = [tuple(b - a - 1 for a, b in zip(c, c[1:])) for c in cuts]
    return sorted(expos, key=algebra.grevlex_key, reverse=True)


def basis_An(n: int, budget: GroebnerBudget = DEFAULT_GB_BUDGET) -> tuple:
    """Degree-n monomials forming a basis of A_n, pure powers first.

    One greedy pass over x0^n..x4^n and then the other degree-n monomials
    in grevlex order keeps each monomial whose normal form modulo
    (sigma2, sigma4) is independent of those kept, by exact row reduction.
    Raises if a pure power is dependent (not expected for any n, but
    verified, not assumed).
    """
    r = expected_rank(n)
    surface = ico_surface.fixed_geometry().surface_ideal()
    basis_polys = surface.groebner(groebner.GREVLEX, budget)
    pure = [tuple(n if k == i else 0 for k in range(5)) for i in range(5)]
    echelon = algebra.Echelon()
    chosen = []
    for expo in pure + [e for e in _degree_monomials(n) if e not in pure]:
        if len(chosen) == r:
            break
        mono = algebra.Poly.monomial(algebra.P4, expo)
        nf = groebner.normal_form(mono, basis_polys, groebner.GREVLEX, budget)
        if echelon.add(nf.terms) is None:
            chosen.append(expo)
        elif expo in pure:
            raise IcotkError(f"pure powers are dependent in A_{n}")
    if len(chosen) != r:
        raise IcotkError(
            f"A_{n} basis completion found rank {len(chosen)}, expected {r}"
        )
    return tuple(algebra.Poly.monomial(algebra.P4, e) for e in chosen)


def general_model(n: int, v, budget: GroebnerBudget = DEFAULT_GB_BUDGET) -> IcoModel:
    """The one-polynomial model sum(v_i * s_i) over the A_n monomial basis;
    non-degenerate exactly when v_1..v_5 are all nonzero."""
    v = list(v)
    basis = basis_An(n, budget)
    if len(v) != len(basis):
        raise ValueError(f"coefficient vector must have length {len(basis)}")
    f = algebra.Poly.zero(algebra.P4)
    for c, s in zip(v, basis):
        f = f + s * c
    if f.is_zero():
        raise ValueError("zero polynomial is not a model")
    return IcoModel([f])


def genus_phi_sum(degrees) -> int:
    """Arithmetic genus of a complete-intersection curve in P4 by the
    inclusion-exclusion sum over the three hypersurface degrees, using
    phi(z) = (z+1)(z+2)(z+3)(z+4)/24 = C(z+4, 4), exact in ints: 24 = 4!
    divides any product of four consecutive integers."""
    d1, d2, d3 = degrees

    def phi(z: int) -> int:
        return (z + 1) * (z + 2) * (z + 3) * (z + 4) // 24

    singles = [d1, d2, d3]
    pairs = [d1 + d2, d1 + d3, d2 + d3]
    return sum(phi(-d) for d in singles) - sum(phi(-d) for d in pairs) + phi(
        -(d1 + d2 + d3)
    )


def genus_general(n: int) -> int:
    """(2n+1)^2, cross-checked against the inclusion-exclusion formula for
    the complete intersection of degrees (2, 4, n)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    closed = (2 * n + 1) ** 2
    check = genus_phi_sum((2, 4, n))
    if closed != check:
        raise AssertionError(
            f"genus cross-check failed at n={n}: {closed} vs {check}"
        )
    return closed
