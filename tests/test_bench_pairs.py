"""The summary that scripts/bench_pairs.py writes into BENCH_<label>.json."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pair(workload, parent, change, failed=(0, 0)):
    """A pair whose setup_s is 1 on both sides and whose pass_s is given."""
    return {"workload": workload, "seed": 0, "first": "parent",
            "parent": {"setup_s": 1.0, "pass_s": parent, "failed": failed[0], "attempted": 10},
            "change": {"setup_s": 1.0, "pass_s": change, "failed": failed[1], "attempted": 20}}


def test_medians_quartiles_and_pairs_won():
    parent = [0.10, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17, 0.18, 0.19]
    change = [p - 0.06 for p in parent]
    change[3] = 0.20  # the change loses one pair
    pairs = [_pair("ideals", p, c) for p, c in zip(parent, change)]
    pairs.append(_pair("scan", 0.3, 0.3, failed=(1, 2)))
    summary = bench_pairs.summarize(pairs)
    assert list(summary) == ["ideals", "scan"]
    row = summary["ideals"]["pass_s"]
    # inclusive quartiles: q1 = 0.1225, the median 0.145, q3 = 0.1675
    assert row["parent"] == {"median": 0.145, "q1": 0.1225, "q3": 0.1675}
    assert row["pairs"] == 10 and row["change_lower"] == 9
    assert row["change"]["median"] == 0.095  # a gap of 0.05 > 0.045
    assert bench_pairs.gain(row)
    # equal times count for neither side
    assert summary["ideals"]["setup_s"]["change_lower"] == 0
    assert not bench_pairs.gain(summary["ideals"]["setup_s"])
    assert summary["scan"]["pass_s"]["parent"] == {"median": 0.3, "q1": 0.3, "q3": 0.3}
    assert summary["scan"]["failed/attempted"] == {"parent": [1, 10], "change": [2, 20]}


def test_a_gain_needs_nine_tenths_and_a_gap_past_the_parents_spread():
    parent = [0.10, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17, 0.18, 0.19]
    two_lost = [p - 0.05 if k > 1 else p + 0.01 for k, p in enumerate(parent)]
    assert not bench_pairs.gain(bench_pairs.summarize(
        [_pair("w", p, c) for p, c in zip(parent, two_lost)])["w"]["pass_s"])
    # lower in every pair, but by less than the parent's interquartile range
    narrow = [p - 0.01 for p in parent]
    assert not bench_pairs.gain(bench_pairs.summarize(
        [_pair("w", p, c) for p, c in zip(parent, narrow)])["w"]["pass_s"])
