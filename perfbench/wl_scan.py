"""Workload ``scan``: the prime-coordinate surface scan at B = 70 with one
worker and with ``nproc`` workers, then a seeded Fermat-instance scan and
the Z-locus triviality scan at a smaller bound.  It touches no polynomial,
Groebner or geometry code: the control for optimisations of those layers."""

from __future__ import annotations

import functools
import random

import gen
from common import digest, expect, in_process, nproc
from tracing import paused

# B = 70, not 200: a round of four scans then takes about 4 s, so a run
# repeats each scan.  The 7235 points are those of the B = 200 scan (24155
# points, digest 5964ea92641973ce) whose three smallest |coordinates| are
# at most 70.
B = 70
SMALL_B = 30
POINTS_AT_B = 7235
POINTS_DIGEST = "f8b521975502495b"
KNOWN_POINT = (0, 0, 70, -4970, -71)
SETUP_REPEATS = 5
WARMUP_B = 25


def point_digest(points) -> str:
    return digest([list(p.coords) for p in points])


def on_surface(coords) -> bool:
    """sigma_2 = sigma_4 = 0, from the elementary symmetric sums directly."""
    e = [1, 0, 0, 0, 0]
    for c in coords:
        for k in range(4, 0, -1):
            e[k] += e[k - 1] * c
    return e[2] == 0 and e[4] == 0


def is_trivial(coords) -> bool:
    return all(abs(c) <= 1 for c in coords)


def in_z_locus(coords) -> bool:
    """Every coordinate is 0 or equals another one up to sign."""
    return all(c == 0 or any(abs(c) == abs(d) for j, d in enumerate(coords) if j != i)
               for i, c in enumerate(coords))


def setup(seed: int, tracer) -> dict:
    from icotk.fermat import FermatInstance, scan_surface

    rng = random.Random(seed)
    instance = FermatInstance(*gen.fermat_instance(rng))
    with paused(tracer):  # imports and first-call costs, not scan work
        warm = scan_surface(WARMUP_B, threads=1)
    if not all(on_surface(p.coords) for p in warm.points):
        raise AssertionError("warm-up scan returned an off-surface point")
    return {"instance": instance, "workers": nproc()}


def _check_b(rep) -> list:
    coords = {p.coords for p in rep.points}
    return (expect("points", len(rep.points), POINTS_AT_B)
            + expect("point digest", point_digest(rep.points), POINTS_DIGEST)
            + expect(f"contains {KNOWN_POINT}", KNOWN_POINT in coords, True)
            + expect("every point on the surface", all(map(on_surface, coords)), True))


def run_round(state: dict, op, tracer, clock) -> dict:
    from icotk import fermat

    state.pop("found", None)
    samples = {"t1": [], "tmax": [], "small": []}

    def keep(rep):
        state["found"] = rep
        return _check_b(rep)

    if tracer is None:
        samples["t1"].append(op("scan-t1", lambda: fermat.scan_surface(B, threads=1), keep))
    else:
        samples["t1"].append(_traced_t1(state, tracer, op, keep))
    base = state.get("found")
    small = [p.coords for p in base.points] if base is not None else []
    small = [c for c in small if sorted(map(abs, c))[2] <= SMALL_B]
    want_z = [c for c in small if in_z_locus(c) and not is_trivial(c)]

    # The instance scan runs before the nproc scan and the Z-locus scan
    # after it, so the small-scan percentiles sample more than one moment.
    inst = state["instance"]
    want_inst = [c for c in small if inst.lhs(c) == 0]
    samples["small"].append(op(
        "instance", lambda: fermat.scan_instance(inst, SMALL_B, threads=1),
        lambda rep: expect("instance points", [p.coords for p in rep.points], want_inst)))
    want = point_digest(base.points) if base is not None else None

    def scan_tmax():
        with clock.on_all_cpus():  # the pool's workers inherit the CPUs
            return fermat.scan_surface(B, threads=state["workers"])

    samples["tmax"].append(op(
        "scan-tmax", scan_tmax,
        lambda rep: _check_b(rep)
        + expect("digest as with one worker", point_digest(rep.points), want)))
    samples["small"].append(op(
        "z-scan", lambda: fermat.z_triviality_scan(SMALL_B, threads=1),
        lambda rep: expect("z-locus points", [p.coords for p in rep.points], want_z)
        + expect("is_trivial", rep.is_trivial, not want_z)))
    return samples


def _traced_t1(state, tracer, op, keep) -> float:
    """The one-worker scan with its enumeration worker wrapped; the pool of
    the nproc scan pickles the worker, so only this scan is wrapped."""
    from icotk import fermat

    raw = []
    chunk = fermat._scan_chunk
    enumerate_span = tracer.span("fermat.enumerate", chunk)

    @functools.wraps(chunk)
    def counted(task):
        out = enumerate_span(task)
        raw.append(len(out))
        return out

    first = len(tracer.spans)
    made = tracer.counts["ico_surface.projpoint_calls"]
    fermat._scan_chunk = counted
    try:
        elapsed = op("scan-t1", lambda: fermat.scan_surface(B, threads=1), keep)
    finally:
        fermat._scan_chunk = chunk
    made = tracer.counts["ico_surface.projpoint_calls"] - made
    spans = tracer.spans[first:]
    scan = sum(e - s for name, s, e, _, _ in spans if name == "fermat.scan")
    enum = sum(e - s for name, s, e, _, _ in spans if name == "fermat.enumerate")
    points = len(state["found"].points) if "found" in state else 0
    state["layer_extra"] = {
        "fermat.canonicalize_s": scan - enum,
        "fermat.raw_hits": sum(raw),
        "fermat.points": points,
        "fermat.projpoints_per_point": made / points if points else 0.0,
    }
    return elapsed


def workload(seed: int, seconds: float, trace: bool, clock):
    return in_process(seed, seconds, trace, clock, setup,
                      functools.partial(run_round, clock=clock), SETUP_REPEATS)
