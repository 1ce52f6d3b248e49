"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import random
import sys
import time

import pytest

from common import (
    ALL_CPUS,
    REFERENCE_BURST_S,
    ROOT,
    SRC,
    Checker,
    Setups,
    SpeedClock,
    digest,
    expect,
    in_process,
    op_medians,
    percentile,
    strip_millis,
)

if SRC not in sys.path:
    sys.path.insert(0, SRC)

import gen  # noqa: E402
import tracing  # noqa: E402


def test_checker_counts_a_wrong_expected_answer_as_failure():
    checker = Checker(SpeedClock(sampled=False))
    checker.run("right", lambda: 2 + 2, lambda got: expect("sum", got, 4))
    checker.run("wrong", lambda: 2 + 2, lambda got: expect("sum", got, 5))
    checker.run("raises", lambda: 1 // 0, lambda got: [])
    assert checker.attempted == 3
    assert checker.failed == 2
    assert [label for label, _ in checker.failures] == ["wrong", "raises"]


def test_a_wrong_pinned_digest_is_a_failure():
    result = strip_millis({"verdict": "fails", "millis": 3.5, "inner": [{"millis": 1}]})
    assert result == {"verdict": "fails", "inner": [{}]}
    checker = Checker(SpeedClock(sampled=False))
    checker.run("cmd", lambda: result, lambda r: expect("digest", digest(r), "0" * 16))
    assert checker.failed == 1


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping: their
    # union covers 5), a has a child c [2, 3]; d [20, 21] is a second root.
    spans = [
        ["root", 0.0, 10.0, -1, "op"],
        ["a", 1.0, 4.0, 0, "op"],
        ["c", 2.0, 3.0, 1, "op"],
        ["b", 3.0, 6.0, 0, "op"],
        ["a", 20.0, 21.0, -1, "op2"],
    ]
    self_t = tracing.self_times(spans)
    assert self_t["root"] == pytest.approx(5.0)
    assert self_t["a"] == pytest.approx(2.0 + 1.0)
    assert self_t["c"] == pytest.approx(1.0)
    assert self_t["b"] == pytest.approx(3.0)
    assert tracing.call_counts(spans)["a"] == 2


def test_child_spans_clipped_to_their_parent():
    spans = [["p", 0.0, 2.0, -1, None], ["q", 1.0, 5.0, 0, None]]
    assert tracing.self_times(spans)["p"] == pytest.approx(1.0)


@pytest.mark.parametrize("make", [
    lambda rng: [gen.curve_through_fail_point(rng, d) for d in range(1, 7)],
    lambda rng: gen.family_vector(rng, 14),
    lambda rng: [str(gen.nondegenerate_model(rng, n).polys[0]) for n in (1, 2)],
    lambda rng: gen.fermat_coefficients(rng),
    lambda rng: gen.fermat_instance(rng),
])
def test_generators_repeat_for_the_same_seed(make):
    assert make(random.Random(7)) == make(random.Random(7))
    assert make(random.Random(7)) != make(random.Random(8))


def test_generated_inputs_have_the_promised_properties():
    from icotk.algebra import P2, poly_parse

    rng = random.Random(3)
    for d in range(1, 7):
        F = poly_parse(gen.curve_through_fail_point(rng, d), P2)
        assert F.evaluate(gen.FAIL_POINT) == 0 and F.degree() == d
    assert all(gen.family_vector(rng, 14)[:5])
    model = gen.nondegenerate_model(rng, 2)
    assert all(row[0] != 0 for row in model.diagonal())
    assert all(gen.fermat_coefficients(rng))


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile([5.0], 90) == 5.0


def test_op_medians_take_each_operation_across_rounds():
    rounds = [{"a": [3.0, 1.0], "b": [5.0]},
              {"a": [2.0, 4.0], "b": [6.0]},
              {"a": [9.0, 1.5], "b": [4.0]}]
    assert op_medians(rounds) == {"a": [3.0, 1.5], "b": [5.0]}


def test_speed_clock_scales_by_the_bursts_around_an_operation():
    clock = SpeedClock(sampled=False)
    clock.samplers = {clock.cpu: None}  # as if sampled; _drain is replaced
    clock._drain = lambda: None
    t = time.monotonic()
    # a burst twice the reference inside the window, one far before it
    clock.samples = {clock.cpu: [(t - 10.0, REFERENCE_BURST_S), (t, 2 * REFERENCE_BURST_S)]}
    scaled, out = clock.timed(lambda: time.sleep(0.05) or "done")
    assert out == "done"
    assert 0.02 <= scaled < 0.05


def test_sampler_reports_bursts_and_stops_with_the_benchmark():
    with SpeedClock() as clock:
        procs = list(clock.samplers.values())
        time.sleep(0.3)
        clock._drain()
        assert all(len(samples) >= 2 for samples in clock.samples.values())
    assert all(proc.returncode == 0 for proc in procs)
    assert os.sched_getaffinity(0) == ALL_CPUS


def test_setups_run_the_requested_number_of_times():
    calls = []
    setups = Setups(lambda: calls.append(1) or len(calls), 5, 0.0, SpeedClock(sampled=False))
    assert setups.state == 1
    setups.between_ops()  # due at once with a zero-length run
    assert len(calls) == 2
    setups.median()
    assert len(calls) == 5 and len(setups.times) == 5


def test_tracer_restores_every_patched_name():
    import icotk.cli
    from icotk import algebra, plane_curves

    before = (plane_curves.check_tau, icotk.cli.check_tau, algebra.Poly.__mul__,
              plane_curves.sylvester_resultant)
    tracer = tracing.Tracer().install()
    try:
        assert plane_curves.check_tau is icotk.cli.check_tau
        assert plane_curves.check_tau is not before[0]
        x = algebra.Poly.variable(algebra.P2, "x")
        assert (x * x).degree() == 2
        assert tracing.call_counts(tracer.spans)["algebra.mul"] == 1
    finally:
        tracer.uninstall()
    after = (plane_curves.check_tau, icotk.cli.check_tau, algebra.Poly.__mul__,
             plane_curves.sylvester_resultant)
    assert after == before


def test_answer_checks_and_references_are_not_traced():
    from icotk.algebra import P2, Poly

    x = Poly.variable(P2, "x")

    def setup(seed, tracer):
        with tracing.paused(tracer):
            reference = x * x
        return {"square": x * x, "reference": reference}

    def run_round(state, op, tracer):
        return {"mul": [op("square", lambda: x * x,
                           lambda got: expect("square", got * x, state["reference"] * x))]}

    checker, _, _, layer = in_process(0, 0.0, True, SpeedClock(sampled=False), setup, run_round, 1)
    assert checker.attempted == 2 and checker.failed == 0
    assert layer["algebra.mul_calls"] == 2  # one in set-up, one in the traced round


def test_layer_report_names_match_the_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {row["name"] for row in spec["per_layer"]}
    report = tracing.layer_metrics([], {}, {"trace.overhead_s": 0.0})
    assert set(report) == names
