"""Child launcher for traced ``cli-cold`` commands.

    python perfbench/launcher.py SPANS_FILE ARG...

times a cold ``import icotk.cli``, installs the benchmark's wrappers, runs
``icotk.cli.run(ARG...)`` (its report goes to standard output as usual) and
writes the spans, counters and import time to SPANS_FILE for the parent.
The exit code is the command's own.
"""

from __future__ import annotations

import json
import os
import sys
import time

from tracing import Tracer, layer_metrics


def main(argv) -> int:
    spans_file, args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import icotk.cli

    startup = time.perf_counter() - t0
    tracer = Tracer().install()
    try:
        code = icotk.cli.run(args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts, "startup_s": startup}, fh)
    return code


class ChildSpans:
    """Parent side: merges the spans each child hands back, one operation
    id per command, and builds the per-layer report."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.startups: list = []
        self.handler_ms: list = []

    def absorb_child(self, spans_file: str, op_id: str) -> None:
        with open(spans_file, encoding="utf-8") as fh:
            data = json.load(fh)
        os.unlink(spans_file)
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op_id])
        for key, n in data["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + n
        self.startups.append(data["startup_s"])

    def report(self, overhead_s: float) -> dict:
        from statistics import median

        return layer_metrics(self.spans, self.counts, {
            "cli.startup_s": median(self.startups),
            "cli.handler_ms": median(self.handler_ms),
            "trace.overhead_s": overhead_s,
        })


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    sys.exit(main(sys.argv[1:]))
