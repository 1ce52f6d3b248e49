"""Workload ``tau-corpus``: criterion (tau) on seeded plane curves, in
process.  Set-up builds the fixed geometry and the C_tau factors, so the
timed operations cost only the decision procedure.  Only n = 1 pullbacks
(degree 12) are timed: a degree-24 pullback takes 10 s, too long to repeat
within one run."""

from __future__ import annotations

import random

import gen
from common import expect, in_process
from tracing import paused

FAILS_PER_DEGREE = 17  # degrees 1..6: 102 operations a round
SAT12 = 6
SETUP_REPEATS = 3  # each set-up builds the fixed geometry, ~4 s


def setup(seed: int, tracer) -> dict:
    from icotk.algebra import P2, poly_parse
    from icotk.ico_models import general_model
    from icotk.ico_surface import fixed_geometry
    from icotk.plane_curves import family_curve, tau_witness

    fixed_geometry.cache_clear()
    fixed_geometry().ctau_factors()
    rng = random.Random(seed)
    fails = [poly_parse(gen.curve_through_fail_point(rng, d), P2)
             for _ in range(FAILS_PER_DEGREE) for d in range(1, 7)]
    sats = []
    for _ in range(SAT12):
        v = gen.family_vector(rng, 5)
        model = general_model(1, v)
        F = family_curve(1, v).F
        with paused(tracer):  # the answers the checks compare with
            witness = tau_witness(model)
            independent = gen.family_curve_n1(v)
        sats.append((F, witness, model.polys[0], independent))
    return {"fails": fails, "sats": sats}


def run_round(state: dict, op, tracer) -> dict:
    from icotk.plane_curves import PlaneCurve, check_tau, containing_model

    samples = {"fail": [], "sat12": [], "model12": []}

    def fail_batch(k):
        # The fast failing checks are spread over the round in batches.
        fails = state["fails"]
        size = -(-len(fails) // (len(state["sats"]) + 1))
        for i in range(k * size, min((k + 1) * size, len(fails))):
            F = fails[i]
            curve = PlaneCurve(F)  # fresh: verdicts are cached on the curve
            samples["fail"].append(op(
                f"fail-{i}", lambda: check_tau(curve),
                lambda rep, F=F: expect("point (0:1:2) on F", F.evaluate((0, 1, 2)), 0)
                + expect("verdict", rep.verdict, "fails")
                + expect("stage", rep.stage, "curve-meets-Ctau-off-Ttau")))

    for i, (F, witness, f, independent) in enumerate(state["sats"]):
        fail_batch(i)
        curve = PlaneCurve(F)  # fresh each round, shared by the two calls
        samples["sat12"].append(op(
            f"sat12-{i}", lambda: check_tau(curve),
            lambda rep, F=F, w=witness, ind=independent:
                expect("tau_witness", w, True)
                + expect("verdict", rep.verdict, "satisfies")
                + expect("stage", rep.stage, "none")
                + expect("pullback", F == ind, True)))
        samples["model12"].append(op(
            f"model12-{i}", lambda: containing_model(curve),
            lambda rep, F=F, f=f: _model_problems(rep.model.polys[0], rep.degree,
                                                  rep.within_degree_bound, F, f)))
    fail_batch(len(state["sats"]))
    return samples


def _model_problems(ftilde, degree, within_bound, F, f) -> list:
    """f~ has the reported degree within 128 deg F and vanishes on the
    image curve V(sigma_2, sigma_4, f)."""
    return (expect("degree", degree, ftilde.degree())
            + expect("degree <= 128 deg F", degree <= 128 * F.degree(), True)
            + expect("within_degree_bound", within_bound, True)
            + expect("f~ in (sigma_2, sigma_4, f)", gen.contains_image(ftilde, f), True))


def workload(seed: int, seconds: float, trace: bool, clock):
    return in_process(seed, seconds, trace, clock, setup, run_round, SETUP_REPEATS)
