"""Workload ``ideals``: Groebner bases and Hilbert data of seeded general
models for n = 1..4, each round with a fresh ``ICOTK_CACHE_DIR``.  Part A
misses the disk cache and stores each basis; part B builds new ``Ideal``
objects with the same generators, so every basis comes back from disk.

The models' ideals (sigma_2, sigma_4, f) are built from ``algebra`` alone,
so this workload never builds the fixed geometry."""

from __future__ import annotations

import os
import random

import gen
from common import expect, in_process, temp_dir
from tracing import paused

DEGREES = (1, 2, 3, 4)
SETUP_REPEATS = 25


def setup(seed: int, tracer) -> dict:
    from icotk.algebra import P4, elementary_symmetric

    rng = random.Random(seed)
    sigmas = [elementary_symmetric(P4, 2), elementary_symmetric(P4, 4)]
    with paused(tracer):  # input generation and its rejection test
        models = [(n, gen.nondegenerate_model(rng, n)) for n in DEGREES]
    return {"sigmas": sigmas, "models": models}


def run_round(state: dict, op, tracer) -> dict:
    from icotk.algebra import P4
    from icotk.groebner import Ideal, arithmetic_genus, dim_degree

    def model_ideal(model):
        return Ideal(P4, [*state["sigmas"], *model.polys])

    def compute(model):
        ideal = model_ideal(model)
        basis = ideal.groebner()
        # dim_degree and arithmetic_genus reuse the basis held by this Ideal
        return basis, dim_degree(ideal), arithmetic_genus(ideal)

    samples = {"compute": [], "read": []}
    bases = {}
    with temp_dir("gb-cache") as cache:
        os.environ["ICOTK_CACHE_DIR"] = cache
        try:
            for n, model in state["models"]:
                def verify(out, n=n):
                    bases[n] = out[0]
                    return (expect(f"dim_degree n={n}", out[1], (1, 8 * n))
                            + expect(f"genus n={n}", out[2], (2 * n + 1) ** 2))

                samples["compute"].append(
                    op(f"compute-n{n}", lambda: compute(model), verify))
            for n, model in state["models"]:
                samples["read"].append(op(
                    f"read-n{n}", lambda: model_ideal(model).groebner(),
                    lambda basis, n=n: expect(f"basis n={n} as in part A", basis,
                                              bases.get(n))))
        finally:
            os.environ.pop("ICOTK_CACHE_DIR", None)
    return samples


def workload(seed: int, seconds: float, trace: bool, clock):
    return in_process(seed, seconds, trace, clock, setup, run_round, SETUP_REPEATS)
