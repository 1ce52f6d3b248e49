"""The eleven acceptance criteria, one test and one printed verdict each.

Every check is exact (integer/rational arithmetic); the stated tolerances
are therefore all zero.  Each criterion also carries a wall-clock budget,
asserted here so a regression that blows a budget fails loudly.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import record_acceptance
from icotk.algebra import P2, P4, poly_parse
from icotk.groebner import arithmetic_genus, dim_degree, hilbert_function, normal_form
from icotk.heights import LogBound, bound_corD, bound_corF, bound_thmE, point_height
from icotk.ico_models import (
    basis_An,
    general_model,
    is_degenerate,
    model_ideal,
)
from icotk.ico_surface import (
    ProjPoint,
    fixed_geometry,
    rho_point,
    tau_point,
    ttau_points,
)
from icotk.fermat import (
    FermatInstance,
    scan_instance,
    scan_surface,
    unit_reduce,
    z_member,
    z_triviality_scan,
)
from icotk.integers import factorize
from icotk.plane_curves import (
    PlaneCurve,
    check_tau,
    containing_model,
    family_curve,
    image_ideal,
    tau_witness,
)


@contextmanager
def _criterion(number, budget_seconds, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        record_acceptance(f"criterion {number:2d}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - t0
    record_acceptance(
        f"criterion {number:2d}: PASS  {description}  "
        f"[{elapsed:.2f}s of {budget_seconds}s]"
    )
    assert elapsed < budget_seconds, f"criterion {number} blew its time budget"


def test_criterion_01_symbolic_identities():
    with _criterion(1, 300, "symbolic: sigma(tau) = 0 and rho(tau) = lambda*id"):
        geo = fixed_geometry()
        assert geo.sigma2.substitute(geo.tau).is_zero()
        assert geo.sigma4.substitute(geo.tau).is_zero()
        lam = geo.lam  # single shared multiplier
        assert lam.degree() == 95
        for name, rho_i in zip(("x", "y", "z"), geo.rho):
            var = poly_parse(name, P2)
            assert rho_i.substitute(geo.tau) == lam * var


def test_criterion_02_sampled_identities():
    with _criterion(2, 10, "sampled: 25 seeded points round-trip exactly"):
        geo = fixed_geometry()
        rng = random.Random(20260825)
        done = 0
        while done < 25:
            p = tuple(rng.randint(-200, 200) for _ in range(3))
            if not any(p) or geo.lam.evaluate(p) == 0:
                continue
            q = [t.evaluate(p) for t in geo.tau]
            assert geo.sigma2.evaluate(q) == 0
            assert geo.sigma4.evaluate(q) == 0
            assert rho_point(q) == ProjPoint(p)
            back = rho_point(q).coords
            tq = [t.evaluate(back) for t in geo.tau]
            for i in range(5):
                for j in range(i + 1, 5):
                    assert tq[i] * q[j] == tq[j] * q[i]
            done += 1


def test_criterion_03_ttau_points():
    with _criterion(3, 1, "T_tau: 6 rational + quadratic annihilate tau; (1,1,0) not"):
        geo = fixed_geometry()
        rational, quadratic = ttau_points()
        assert len(rational) == 6
        for p in rational:
            assert all(t.evaluate(p.coords) == 0 for t in geo.tau)
        for coords in (quadratic.coords, quadratic.conjugate()):
            assert all(t.evaluate(coords) == 0 for t in geo.tau)
        vals = [t.evaluate((1, 1, 0)) for t in geo.tau]
        assert vals[3] == 1 and any(vals)


def test_criterion_04_hilbert_dimensions():
    with _criterion(4, 60, "hilbert_function(surface, 1..5) = 5,14,30,54,86"):
        surface = fixed_geometry().surface_ideal()
        values = [hilbert_function(surface, n) for n in range(1, 6)]
        assert values == [5, 14, 30, 54, 86]
        for n in range(2, 6):
            assert values[n - 1] == 4 * n * n - 4 * n + 6


def test_criterion_05_genus():
    with _criterion(5, 300, "genus 9 and 25 for seeded degree-1/2 sections"):
        rng = random.Random(5)
        for n, expected in ((1, 9), (2, 25)):
            k = len(basis_An(n))
            while True:
                v = tuple(rng.randint(-5, 5) for _ in range(k))
                if all(v[:5]):
                    model = general_model(n, v)
                    if not is_degenerate(model):
                        break
            I = model_ideal(model)
            assert dim_degree(I) == (1, 8 * n)
            assert arithmetic_genus(I) == expected


@pytest.fixture(scope="module")
def seeded_satisfying_curves():
    rng = random.Random(6)
    curves = []
    while len(curves) < 5:
        v = tuple(rng.randint(-6, 6) for _ in range(5))
        if all(v):
            curves.append((v, family_curve(1, v)))
    return curves


def test_criterion_06_check_tau(seeded_satisfying_curves):
    with _criterion(6, 900, "check_tau: V(x) fails; 5 seeded pullbacks satisfy"):
        rep = check_tau(PlaneCurve(poly_parse("x", P2)))
        assert rep.verdict == "fails"
        for v, curve in seeded_satisfying_curves:
            model = general_model(1, v)
            rep = check_tau(curve)
            assert rep.verdict == "satisfies", (v, rep.witness)
            assert tau_witness(model) == rep.satisfies


def test_criterion_07_containing_models(seeded_satisfying_curves):
    with _criterion(7, 900, "containing_model: NF = 0, positive diagonal, in-bounds"):
        geo = fixed_geometry()
        for v, curve in seeded_satisfying_curves:
            rep = containing_model(curve)
            ftilde = rep.model.polys[0]
            basis = image_ideal(curve).groebner()
            assert normal_form(ftilde, basis).is_zero()
            for e in geo.e_points:
                assert ftilde.evaluate(e.coords) > 0
            assert not is_degenerate(rep.model)
            assert rep.degree <= 128 * curve.degree
            assert rep.within_degree_bound


def test_criterion_08_point_example():
    with _criterion(8, 1, "tau(1,2,4) orbit: image, round-trip, height log 630"):
        geo = fixed_geometry()
        q = tau_point((1, 2, 4))
        assert q.coords == (126, -140, 315, 630, -180)
        assert geo.sigma2.evaluate(q.coords) == 0
        assert geo.sigma4.evaluate(q.coords) == 0
        assert rho_point(q).coords == (1, 2, 4)
        h = point_height(q.coords)
        assert h.max_abs == 630
        assert h.nat == math.log(630)


def test_criterion_09_surface_scan():
    with _criterion(9, 600, "scan_surface: B=1 exactly {e_i}; B=200 finds the orbit"):
        small = scan_surface(1)
        assert len(small.points) == 5
        assert all(sorted(p.coords) == [0, 0, 0, 0, 1] for p in small.points)

        big = scan_surface(200, threads=4)
        assert ProjPoint((126, -140, 315, 630, -180)) in set(big.points)
        for p in big.points:
            assert fixed_geometry().sigma2.evaluate(p.coords) == 0
            assert fixed_geometry().sigma4.evaluate(p.coords) == 0
            g = 0
            for c in p.coords:
                g = math.gcd(g, c)
            assert g == 1


def test_criterion_10_fermat_z():
    with _criterion(10, 300, "z_member 10^4 tuples; z-scan(30) empty; unit sums = 1"):
        rng = random.Random(10)
        for _ in range(10_000):
            m = rng.randint(2, 5)
            coords = tuple(rng.randint(-10, 10) for _ in range(m))
            z_member(coords)  # asserts the two definitions agree internally

        assert z_triviality_scan(30, threads=4).is_trivial

        synthetic = [
            ((1, 1, -2, 1, 1), 1, (1, 1, 1, 0, 0)),
            ((1, -1, 2, 1, -3), 1, (1, 1, 1, 1, 1)),
            ((1, 1, 1, 1, 1), 3, (1, -1, 1, -1, 0)),
            ((2, 3, -5, 1, 1), 1, (1, 1, 1, 0, 0)),
            ((1, 1, 1, 1, 1), 1, (2, 3, -5, 0, 0)),
        ]
        for a, n, x in synthetic:
            inst = FermatInstance(a, n)
            ue = unit_reduce(inst, x)
            assert sum(ue.u) == 1
            prod = 1
            for i in ue.support:
                prod *= inst.a[i] * ProjPoint(x).coords[i]
            assert set(ue.S) == set(factorize(abs(prod)))
        # scanned points reduce too
        inst = FermatInstance((1, 1, 1, 1, 1), 1)
        for p in scan_instance(inst, 6).points:
            if sum(1 for c in p.coords if c) >= 2:
                ue = unit_reduce(inst, p)
                assert sum(ue.u) == 1 and not ue.off_surface


def test_criterion_11_bound_certificates():
    with _criterion(11, 1, "certificates: thmE(1) = 10^12; corD kappa; corF nu"):
        thmE = bound_thmE(1)
        assert thmE.bound == LogBound(10**12, [])

        corD = bound_corD(1, 1)
        kappa = corD.input("kappa")
        assert kappa == 16777216 == 8**8
        assert corD.bound == LogBound(0, [(8, kappa * kappa)])

        corF = bound_corF((1, 1, 1, 1, 2))
        assert corF.input("nu") == 2
        assert corF.bound == LogBound(10**12, [(2, 24)])
