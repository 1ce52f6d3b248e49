#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, kept in BENCH_<label>.json.

    python3 scripts/bench_pairs.py --label NAME --parent REF --what TEXT \\
        --claim TEXT --runs ideals:10 --runs tau-corpus:3 [--seed 70001] \\
        [--seconds 20] [--machine TEXT]

Each pair runs ``perfbench/run.py`` once on each side, back to back, and
alternates which side goes first.  Every run starts from a fresh copy of
its tree: the parent from ``git archive REF``, the change from the working
tree's files that git tracks or would track (``git ls-files --cached
--others --exclude-standard``), so uncommitted edits count and ignored
build output does not.  Seeds count up from --seed across all pairs.  The
file holds the pairs and, per workload and metric, each side's median and
quartiles and the number of pairs the change is lower in.  Standard
library only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "pass_s")


def _quartiles(values) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def summarize(pairs) -> dict:
    """Per workload and metric: pairs, each side's median and quartiles, and
    change_lower, the pairs where the change reads lower (ties count for
    neither); per workload also failed/attempted operations on each side."""
    out: dict = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        mine = [p for p in pairs if p["workload"] == workload]
        row = out[workload] = {}
        for metric in METRICS:
            row[metric] = {
                "pairs": len(mine),
                **{side: _quartiles([p[side][metric] for p in mine])
                   for side in ("parent", "change")},
                "change_lower": sum(p["change"][metric] < p["parent"][metric] for p in mine),
            }
        row["failed/attempted"] = {
            side: [sum(p[side]["failed"] for p in mine), sum(p[side]["attempted"] for p in mine)]
            for side in ("parent", "change")
        }
    return out


def gain(row: dict) -> bool:
    """The claim rule: lower in at least 9 of 10 pairs, and a median gap
    wider than the parent's interquartile range."""
    parent, change = row["parent"], row["change"]
    return (10 * row["change_lower"] >= 9 * row["pairs"]
            and parent["median"] - change["median"] > parent["q3"] - parent["q1"])


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _parent_tree(ref: str, into: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", ref))) as tar:
        tar.extractall(into)


def _change_tree(into: Path) -> None:
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # deleted but still in the index: skipped
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, into / name)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return {**{m: round(report["metrics"][m]["value"], 5) for m in METRICS},
            "failed": report["failed"], "attempted": report["attempted"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--what", required=True, help="what the change does")
    ap.add_argument("--claim", required=True, help="the gain claimed, or none")
    ap.add_argument("--runs", action="append", required=True, metavar="WORKLOAD:PAIRS")
    ap.add_argument("--seed", type=int, default=70001)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--machine", default="not recorded")
    args = ap.parse_args(argv)
    pairs, seed = [], args.seed
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        for workload, count in (r.split(":") for r in args.runs):
            for k in range(int(count)):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    tree = Path(tmp) / side
                    shutil.rmtree(tree, ignore_errors=True)
                    tree.mkdir()
                    if side == "parent":
                        _parent_tree(args.parent, tree)
                    else:
                        _change_tree(tree)
                    pair[side] = _run(tree, workload, seed, args.seconds)
                print(json.dumps(pair), flush=True)
                pairs.append(pair)
                seed += 1
    summary = summarize(pairs)
    for workload, row in summary.items():
        for metric in METRICS:
            print(workload, metric, row[metric], "gain" if gain(row[metric]) else "no gain")
    doc = {
        "label": args.label,
        "what": args.what,
        "machine": args.machine,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "method": ("each pair runs parent and change back to back, each from a fresh copy of "
                   f"its tree (parent: git archive of {args.parent}; change: the working "
                   "tree's tracked and unignored files), alternating which side runs first; "
                   "times are the benchmark's speed-scaled seconds"),
        "claim": args.claim,
        "summary": summary,
        "pairs": pairs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
