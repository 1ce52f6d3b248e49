"""icotk benchmark: one workload per run, answers checked on every operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints a human-readable report and, as
the last line, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1.  Exits 2 without a result when the
checkout holds no icotk sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from statistics import median

from common import REFERENCE_BURST_S, ROOT, SRC, SpeedClock, op_medians, percentile, pin_environment

WORKLOADS = {
    "cli-cold": "wl_cli",
    "tau-corpus": "wl_tau",
    "scan": "wl_scan",
    "ideals": "wl_ideals",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "icotk", "cli.py")):
        print(f"no icotk sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    pin_environment()
    module = __import__(WORKLOADS[args.workload])
    with SpeedClock() as clock:
        checker, setup_s, rounds, layer = module.workload(
            args.seed, args.seconds, bool(args.trace), clock)

    attempted, failed = checker.attempted, checker.failed
    per_op = op_medians(rounds)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}")
    print(f"  burst p50 {1000 * median(clock.bursts or [0.0]):.3f} ms over {len(clock.bursts)} on CPU"
          f" {clock.cpu}, reference {1000 * REFERENCE_BURST_S:.3f} ms;"
          f" times below are scaled by their ratio")
    print(f"  operations {attempted}, failed {failed}, fail_ratio {failed / attempted:.4f}")
    for label, problems in checker.failures[:20]:
        print(f"  FAILED {label}: {'; '.join(problems)}")
    for kind, medians in per_op.items():
        samples = [s for r in rounds for s in r[kind]]
        print(f"  {kind:10s} {len(medians):4d} ops/round  op medians {sum(medians):10.4f} s"
              f"  round p50 {median([sum(r[kind]) for r in rounds]):10.4f} s"
              f"  op p50 {1000 * median(samples):10.2f} ms"
              f"  op p90 {1000 * percentile(samples, 90):10.2f} ms  ({len(samples)} samples)")
    if args.trace:
        rows, values = spec["per_layer"], layer
    else:
        rows = spec["end_to_end"]
        values = {"setup_s": setup_s, "pass_s": sum(sum(v) for v in per_op.values())}
    metrics = {}
    for row in rows:
        value = values[row["name"]]
        metrics[row["name"]] = {"value": value, "unit": row["unit"]}
        print(f"  {row['name']:40s} {value:16.6f} {row['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
