"""Measures one CPU's speed while the benchmark runs.

    python3 perfbench/sampler.py CPU

Pinned to CPU, it runs a short fixed burst of interpreter work (about
2 ms) every INTERVAL seconds and prints one line per burst: the monotonic
time at its end and the CPU time the burst took.  The burst's CPU time
leaves out any time the burst waited while the benchmark held the CPU.  It
exits when its standard input closes, so it ends with the benchmark even
when the benchmark is killed."""

from __future__ import annotations

import os
import select
import sys
import time

from common import calibration_work

INTERVAL = 0.05  # seconds between bursts
BURST = 3000  # calibration_work iterations


def main(argv) -> int:
    os.sched_setaffinity(0, {int(argv[0])})
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL)
        if ready and not os.read(sys.stdin.fileno(), 4096):
            return 0
        c0 = time.thread_time()
        calibration_work(BURST)
        took = time.thread_time() - c0
        sys.stdout.write(f"{time.monotonic():.6f} {took:.9f}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
