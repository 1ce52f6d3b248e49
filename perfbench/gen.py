"""Seeded input generators.  Each takes a ``random.Random`` and returns
plain data (integers, tuples, polynomial text), so the same seed gives the
same inputs whatever the program does with them."""

from __future__ import annotations

# The point (0:1:2) lies on V(x), a component of C_tau, and is not one of
# the base points T_tau, so every plane curve through it fails (tau).
FAIL_POINT = (0, 1, 2)


def nonzero(rng, bound: int = 9) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, bound)


def ternary_monomials(d: int):
    return [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]


def curve_through_fail_point(rng, degree: int, bound: int = 5) -> str:
    """A nonzero integer form of the given degree in x, y, z vanishing at
    (0:1:2), as polynomial text: the y^d coefficient absorbs the value."""
    while True:
        coeffs = {e: rng.randint(-bound, bound) for e in ternary_monomials(degree)}
        value = sum(c * FAIL_POINT[1] ** e[1] * FAIL_POINT[2] ** e[2]
                    for e, c in coeffs.items() if e[0] == 0)
        coeffs[(0, degree, 0)] -= value
        if any(coeffs.values()):
            return form_text(coeffs, ("x", "y", "z"))


def form_text(coeffs: dict, names) -> str:
    parts = []
    for expo, c in coeffs.items():
        if c == 0:
            continue
        factors = [str(c)] + [f"{v}^{k}" for v, k in zip(names, expo) if k]
        parts.append("*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")


def family_vector(rng, size: int) -> tuple:
    """Coefficients over the A_n monomial basis: the first five (the pure
    powers, the diagonal of the model) nonzero, so the model is
    non-degenerate and its pullback is in the good family."""
    head = [nonzero(rng) for _ in range(5)]
    tail = [rng.randint(-5, 5) for _ in range(size - 5)]
    return tuple(head + tail)


def monomials(n: int, nvars: int = 5):
    """Exponent tuples of the degree-n monomials in nvars variables, pure
    powers first."""
    pure = [tuple(n if k == i else 0 for k in range(nvars)) for i in range(nvars)]
    out = []

    def rec(prefix, left, slots):
        if slots == 1:
            out.append(tuple(prefix + [left]))
            return
        for k in range(left, -1, -1):
            rec(prefix + [k], left - k, slots - 1)

    rec([], n, nvars)
    return pure + [e for e in out if e not in pure]


def nondegenerate_model(rng, n: int, bound: int = 1000):
    """A general degree-n ico model: one form over every degree-n monomial
    of x0..x4 with nonzero coefficients (the first five, on the pure powers,
    are the model's diagonal), rejecting degenerate models."""
    from icotk.algebra import P4, Poly
    from icotk.ico_models import IcoModel, is_degenerate

    while True:
        model = IcoModel([Poly(P4, {e: nonzero(rng, bound) for e in monomials(n)})])
        if not is_degenerate(model):
            return model


def fermat_coefficients(rng, bound: int = 60) -> tuple:
    """Five nonzero coefficients, for ``bound corF`` and Fermat instances."""
    return tuple(nonzero(rng, bound) for _ in range(5))


def fermat_instance(rng) -> tuple:
    """(a, n) for a generalized-Fermat instance a_0 x_0^n + ... = 0."""
    return fermat_coefficients(rng, 9), rng.randint(1, 3)


# ---------------------------------------------------------------------------
# an independent construction of the n = 1 family curves
# ---------------------------------------------------------------------------

T_FORMS = (
    "(y - z)*(x*y + x*z - z^2)",
    "x*z^2 + y*z^2 - x^2*y - z^3",
    "x*(z^2 - y^2 - x*z)",
    "z*(y*z - x*z + x^2 - y^2)",
)


def tau_forms():
    """tau_i = -(prod_{j != i} t_j) * (t_0 + ... + t_3) for i < 4 and
    tau_4 = t_0 t_1 t_2 t_3, built from the four cubics alone."""
    from icotk.algebra import P2, Poly, poly_parse

    t = [poly_parse(s, P2) for s in T_FORMS]
    total = t[0] + t[1] + t[2] + t[3]
    taus = []
    for i in range(4):
        prod = Poly.constant(P2, 1)
        for j in range(4):
            if j != i:
                prod = prod * t[j]
        taus.append(-(prod * total))
    taus.append(t[0] * t[1] * t[2] * t[3])
    return taus


def family_curve_n1(v):
    """The n = 1 family curve tau^*(sum v_i x_i) as a primitive Poly; the
    A_1 basis is x_0..x_4."""
    from icotk.algebra import P2, Poly

    F = Poly.zero(P2)
    for c, tau_i in zip(v, tau_forms()):
        F = F + tau_i * c
    return F.primitive_part()


def contains_image(ftilde, model_poly) -> bool:
    """True iff f~ lies in (sigma_2, sigma_4, f) for the model form f whose
    pullback is the curve: the containing model must vanish on the curve
    V(sigma_2, sigma_4, f) that the curve maps onto."""
    from icotk.algebra import P4, elementary_symmetric
    from icotk.groebner import Ideal, normal_form

    gens = [elementary_symmetric(P4, 2), elementary_symmetric(P4, 4), model_poly]
    return normal_form(ftilde, Ideal(P4, gens).groebner()).is_zero()
