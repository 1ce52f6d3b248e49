"""The fixed geometry: sigma_2/sigma_4, the quartic plane cubics t_j, the
degree-12 map tau: P^2 --> Mbar and the degree-8 map rho: Mbar --> P^2, the
curve C_tau = V(lambda), and the base locus T_tau.

Everything is *constructed* from the defining data at first use rather
than transcribed as expanded constants: t0, t2 and t3 from the factors
y - z, x, z and the conics q0, q2, q3, which C_tau's factor list reuses,
and rho from the monomials r_i.  So a typo in the inputs breaks loudly in
the degree and identity checks.  Before tau is built, the four cubics must
satisfy (sum t) e_2(t) = e_3(t), which is what makes sigma_2(tau) =
sigma_4(tau) = 0; after it, tau must satisfy two bracket identities, and
the quintic cofactor v of lambda must satisfy y v = t0 (sum t).  The build
itself stays below degree 25: C_tau = V(t0 t1 t2 t3 (sum t)) comes from the
four cubics through those identities, and lambda = rho_0(tau)/x (degree 95,
2228 terms) is expanded only when something reads it -- the symbolic
identity suite and the tests.  The geometry is built once and shared (it
is immutable).
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd, prod

from .algebra import P2, P4, Phi, Poly, elementary_symmetric, poly_parse
from .config import DEFAULT_GB_BUDGET, GroebnerBudget
from .errors import BasePointError, NotOnSurfaceError
from .groebner import GREVLEX, Ideal, normal_form
from .integers import ProjPoint


class QuadraticPoint(namedtuple("QuadraticPoint", "coords minpoly",
                                defaults=((Phi(1), Phi(1), Phi(0, 1)), "t^2 - t - 1"))):
    """The non-rational T_tau representative (1, 1, t), t^2 = t + 1, with
    Phi coordinates (1, 1, phi)."""

    __slots__ = ()

    def conjugate(self) -> tuple:
        return tuple(c.conj() for c in self.coords)


class FixedGeometry:
    """All the fixed polynomials and points, built from first principles."""

    def __init__(self):
        """Build the geometry and check it: the cubic identity before tau,
        the two bracket identities after it, and y v = t0 (sum t) for the
        quintic v of lambda = (t0 t1 t2 t3 (sum t))^6 v.  Each broken
        identity raises AssertionError with its own message."""
        x, z = Poly.variable(P2, "x"), Poly.variable(P2, "z")
        lin0, q0, q2, q3 = (poly_parse(f, P2) for f in (
            "y - z", "x*y + x*z - z^2", "z^2 - y^2 - x*z", "y*z - x*z + x^2 - y^2"))
        self.t = (lin0 * q0, poly_parse("x*z^2 + y*z^2 - x^2*y - z^3", P2), x * q2, z * q3)
        self.t_sum = sum(self.t)
        # For tau_i = -(sum t) P / t_i (i < 4) and tau_4 = P, P = t0 t1 t2 t3,
        # sigma_4(tau) = 0 and sigma_2(tau) = P (sum t) ((sum t) e_2(t) - e_3(t))
        # for any four forms, so this degree-9 check of the cubics gives
        # sigma_2(tau) = sigma_4(tau) = 0 without expanding either
        e2 = sum(a * b for a, b in combinations(self.t, 2))
        e3 = sum(a * b * c for a, b, c in combinations(self.t, 3))
        if self.t_sum * e2 != e3:
            raise AssertionError("cubic identity sum(t)*e2(t) == e3(t) broken")
        prod_all = prod(self.t)
        self.tau = tuple(-(prod(self.t[:i] + self.t[i + 1:]) * self.t_sum)
                         for i in range(4)) + (prod_all,)

        def r(i):
            e = [1] * 5
            e[i] = 0
            return Poly.monomial(P4, tuple(e))

        self.r = tuple(r(i) for i in range(5))
        self.rho = (
            -(self.r[1] + self.r[3]) * (self.r[0] + self.r[1] + self.r[2]),
            self.r[0] * (self.r[0] + self.r[1] + self.r[2] + self.r[3]),
            self.r[0] * (self.r[0] + self.r[2]),
        )
        self.sigma2 = elementary_symmetric(P4, 2)
        self.sigma4 = elementary_symmetric(P4, 4)

        # rho_0 = -(r1 + r3)(r0 + r1 + r2) with (r1 + r3)(tau) = tau0 tau2 tau4
        # (tau1 + tau3) and (r0 + r1 + r2)(tau) = tau3 tau4 (tau1 tau2 + tau0
        # tau2 + tau0 tau1).  The two brackets below, checked against the
        # cubics, make lambda = rho_0(tau)/x = (t0 t1 t2 t3 (sum t))^6 * v with
        # v = -(t1 + t3)(t0 + t1 + t2)/x, so C_tau needs no lambda
        t, tau = self.t, self.tau
        if tau[1] + tau[3] != -(self.t_sum * t[0] * t[2] * (t[1] + t[3])):
            raise AssertionError("bracket identity tau1 + tau3 broken")
        if (tau[1] * tau[2] + tau[0] * tau[2] + tau[0] * tau[1]
                != self.t_sum**2 * prod_all * t[3] * (t[0] + t[1] + t[2])):
            raise AssertionError("bracket identity tau1 tau2 + tau0 tau2 + tau0 tau1 broken")
        self.v = (-(t[1] + t[3]) * (t[0] + t[1] + t[2])).exact_div(x)
        # y v = t0 (sum t) puts V(v) inside V(t0) u V(sum t), so C_tau =
        # V(t0 t1 t2 t3 (sum t)) and ctau_factors leaves v out
        if Poly.variable(P2, "y") * self.v != t[0] * self.t_sum:
            raise AssertionError("quintic identity y*v == t0*sum(t) broken")
        self._ctau_factors = (x, z, lin0, q0, q2, q3, t[1], self.t_sum)
        self._ctau_components = None

        self.e_points = tuple(
            ProjPoint([1 if j == i else 0 for j in range(5)]) for i in range(5)
        )
        self.ttau_rational = (
            ProjPoint([1, 0, 0]),
            ProjPoint([0, 1, 0]),
            ProjPoint([0, 0, 1]),
            ProjPoint([1, 0, 1]),
            ProjPoint([0, 1, 1]),
            ProjPoint([1, 1, 1]),
        )
        self.ttau_quadratic = QuadraticPoint()
        self._surface_ideal = None

    # -- derived data -------------------------------------------------------

    @cached_property
    def lam(self) -> Poly:
        """lambda = rho_0(tau)/x, degree 95 and 2228 terms, built on first
        use from rho_0's factored form, r_i(tau) being the product of the
        tau_j with j != i.  It equals (t0 t1 t2 t3 (sum t))^6 v, and since
        y v = t0 (sum t) its zero set is C_tau = V(t0 t1 t2 t3 (sum t)).
        Nothing on the criterion (tau) path reads lambda or v: C_tau comes
        from the cubics (ctau_factors) and lambda(p) from lam_at;
        verify_identities checks the expanded substitution."""
        rt = [prod(t for j, t in enumerate(self.tau) if j != i) for i in range(4)]
        x = Poly.variable(P2, "x")
        lam = (-(rt[1] + rt[3]) * (rt[0] + rt[1] + rt[2])).exact_div(x)
        if lam.degree() != 95:
            raise AssertionError("lambda does not have degree 95")
        return lam

    def lam_at(self, p):
        """lambda(p) = (t0 t1 t2 t3 (sum t))(p)^6 * v(p), without lambda."""
        vals = [t.evaluate(p) for t in self.t]
        core = vals[0] * vals[1] * vals[2] * vals[3] * sum(vals)
        return core**6 * self.v.evaluate(p)

    def surface_ideal(self) -> Ideal:
        if self._surface_ideal is None:
            self._surface_ideal = Ideal(P4, [self.sigma2, self.sigma4])
        return self._surface_ideal

    def ctau_factors(self) -> tuple:
        """Eight factors of lambda whose zero sets union to C_tau:
        x, z, y - z, q0, q2, q3, t1 and sum t.

        lambda = (t0 t1 t2 t3 (sum t))^6 * v with the quintic
        v = -(t1 + t3)(t0 + t1 + t2)/x (the bracket identities of the build;
        the expanded product is checked by symbolic verify_identities).
        The build checks y v = t0 (sum t), so V(v) lies in V(t0) u V(sum t)
        and C_tau = V(t0 t1 t2 t3 (sum t)): v, kept as the attribute v, adds
        no point and is left out.  t0, t2 and t3 appear through the factors
        the build multiplies them from: t0 = (y - z) q0, t2 = x q2 and
        t3 = z q3.
        The list need not consist of irreducibles: stage 2 of criterion (tau)
        works on their components (ctau_components).
        """
        return self._ctau_factors

    def ctau_components(self) -> tuple:
        """Per C_tau factor, in ctau_factors order, (factor, its components):
        the seven lines x, z, y - z, x - y, x + y - z, x - z and y, the lines
        through pairs of rational T_tau points, and the four conics q0, q2,
        z^2 - x*y - y*z and x^2 + y*z - z^2.  Built on first use, with the
        three factorizations checked: q3 = (x - y)(x + y - z),
        t1 = (x - z)(z^2 - x*y - y*z) and sum t = -y (x^2 + y*z - z^2).
        plane_curves checks that each component is irreducible: it has a
        parametrization by binary forms without a base point."""
        if self._ctau_components is None:
            q3, t1, t_sum = self._ctau_factors[5:]
            split = {q3: ("x - y", "x + y - z"), t1: ("x - z", "z^2 - x*y - y*z"),
                     t_sum: ("y", "x^2 + y*z - z^2")}
            out = []
            for g in self._ctau_factors:
                parts = tuple(poly_parse(c, P2) for c in split[g]) if g in split else (g,)
                if prod(parts) not in (g, -g):
                    raise AssertionError(f"C_tau factor {g} is not the product of its components")
                out.append((g, parts))
            self._ctau_components = tuple(out)
        return self._ctau_components


@lru_cache(maxsize=1)
def fixed_geometry() -> FixedGeometry:
    return FixedGeometry()


# ---------------------------------------------------------------------------
# point maps
# ---------------------------------------------------------------------------


def tau_point(p) -> ProjPoint:
    """Image of a plane point under tau; raises BasePointError on T_tau."""
    p = p if isinstance(p, ProjPoint) else ProjPoint(p)
    geo = fixed_geometry()
    image = [t.evaluate(p.coords) for t in geo.tau]
    if all(v == 0 for v in image):
        raise BasePointError(f"{p} is a base point of tau")
    return ProjPoint(image)


def rho_point(q) -> ProjPoint:
    """Image of a surface point under rho; the round trip rho(tau(p)) = p
    holds whenever lambda(p) != 0."""
    q = q if isinstance(q, ProjPoint) else ProjPoint(q)
    geo = fixed_geometry()
    if geo.sigma2.evaluate(q.coords) != 0 or geo.sigma4.evaluate(q.coords) != 0:
        raise NotOnSurfaceError(f"{q} is not on the surface")
    image = [r.evaluate(q.coords) for r in geo.rho]
    if all(v == 0 for v in image):
        raise BasePointError(f"{q} is a base point of rho")
    return ProjPoint(image)


def ttau_points() -> tuple:
    """(six rational T_tau points, quadratic representative)."""
    geo = fixed_geometry()
    return geo.ttau_rational, geo.ttau_quadratic


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


class IdentityReport(namedtuple("IdentityReport", "mode samples seed checks")):
    """What verify_identities checked: checks is a tuple of (name, bool)."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def _random_plane_point(rng, geo) -> tuple:
    while True:
        p = tuple(rng.randint(-1000, 1000) for _ in range(3))
        if any(p) and geo.lam_at(p) != 0:
            return p


def verify_identities(
    mode: str = "symbolic",
    samples: int = 25,
    seed: int | None = 0,
    symbolic_c: bool = False,
    budget: GroebnerBudget = DEFAULT_GB_BUDGET,
) -> IdentityReport:
    """Check the defining identities of the geometry.

    (a) sigma_2(tau) = sigma_4(tau) = 0;
    (b) rho_0(tau) = lambda*x, rho_1(tau) = lambda*y, rho_2(tau) = lambda*z;
        symbolically also lambda = (t0 t1 t2 t3 (sum t))^6 * v, the factored
        form that lam_at uses without expanding lambda (ctau_factors covers
        its zero set, v adding no point as y v = t0 (sum t));
    (c) tau_i(rho)*x_j - tau_j(rho)*x_i in (sigma_2, sigma_4) for all i < j.

    mode="symbolic" expands (a) and (b) as polynomials; identity (c) is
    checked on sample points by default even then, because tau_i(rho) has
    degree 96 in five variables -- pass symbolic_c=True to attempt the full
    normal-form computation under the step budget (it raises
    BudgetExceededError rather than running unbounded).
    mode="sampled" checks all three identities on exact random rational
    points with lambda != 0.
    """
    if mode not in ("symbolic", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 1:
        raise ValueError("sample count must be >= 1")
    geo = fixed_geometry()
    checks = []
    rng = random.Random(seed)
    pts = [_random_plane_point(rng, geo) for _ in range(samples)]

    if mode == "symbolic":
        s2t = geo.sigma2.substitute(geo.tau)
        s4t = geo.sigma4.substitute(geo.tau)
        checks.append(("sigma2(tau) == 0", s2t.is_zero()))
        checks.append(("sigma4(tau) == 0", s4t.is_zero()))
        lam = geo.lam
        for name, rho_i in zip("xyz", geo.rho):
            var = Poly.variable(P2, name)
            checks.append(
                (f"rho_{'xyz'.index(name)}(tau) == lambda*{name}",
                 rho_i.substitute(geo.tau) == lam * var)
            )
        core = geo.t[0] * geo.t[1] * geo.t[2] * geo.t[3] * geo.t_sum
        checks.append(("lambda == (t0*t1*t2*t3*sum(t))^6 * v",
                       lam == core**6 * geo.v))
        if symbolic_c:
            surface = geo.surface_ideal().groebner(GREVLEX, budget)
            taurho = [t.substitute(geo.rho) for t in geo.tau]
            ok = True
            for i in range(5):
                for j in range(i + 1, 5):
                    xi = Poly.variable(P4, f"x{i}")
                    xj = Poly.variable(P4, f"x{j}")
                    diff = taurho[i] * xj - taurho[j] * xi
                    if not normal_form(diff, surface, budget=budget).is_zero():
                        ok = False
            checks.append(("tau_i(rho)x_j == tau_j(rho)x_i mod (s2,s4) [symbolic]", ok))
        else:
            checks.append(_sampled_c(geo, pts))
    else:
        ok_a = ok_b = True
        for p in pts:
            q = [t.evaluate(p) for t in geo.tau]
            if geo.sigma2.evaluate(q) != 0 or geo.sigma4.evaluate(q) != 0:
                ok_a = False
            lam_p = geo.lam_at(p)
            if tuple(r.evaluate(q) for r in geo.rho) != tuple(lam_p * c for c in p):
                ok_b = False
        checks.append(("sigma2(tau) == sigma4(tau) == 0 on samples", ok_a))
        checks.append(("rho(tau(p)) == lambda(p)*p on samples", ok_b))
        checks.append(_sampled_c(geo, pts))

    return IdentityReport(mode=mode, samples=samples, seed=seed, checks=tuple(checks))


def _sampled_c(geo: FixedGeometry, pts) -> tuple:
    ok = True
    for p in pts:
        q = [t.evaluate(p) for t in geo.tau]
        back = [r.evaluate(q) for r in geo.rho]
        g = gcd(*back) or 1  # tau is homogeneous: each tq scales by g^-12
        tq = [t.evaluate([c // g for c in back]) for t in geo.tau]
        ok = ok and all(tq[i] * q[j] == tq[j] * q[i] for i, j in combinations(range(5), 2))
    return ("tau_i(rho(q))q_j == tau_j(rho(q))q_i on samples", ok)
