"""Shared pieces of the benchmark: paths and pinned environment, timing
statistics, answer checking and result digests."""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")


# The CPUs the benchmark may use, read before it pins itself to one of them.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def nproc() -> int:
    return len(ALL_CPUS)


def pin_environment() -> None:
    """The benchmark's own environment, whatever the caller's: one default
    scan worker, no disk cache (the ideals workload sets its own), and the
    program imported from this checkout's ``src`` as in the tier-1 tests."""
    os.environ["ICOTK_THREADS"] = "1"
    os.environ.pop("ICOTK_CACHE_DIR", None)
    os.environ["PYTHONPATH"] = SRC
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


@contextmanager
def temp_dir(name: str):
    """A fresh directory inside the checkout, removed afterwards."""
    path = os.path.join(TMP_ROOT, f"{os.getpid()}-{name}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# The CPU time of one sampler burst (calibration_work(3000)) on the machine
# the benchmark was written on, a 2-core x86-64 VM shared with other
# tenants, when that machine ran fast.
REFERENCE_BURST_S = 0.0021
SAMPLE_WINDOW = 0.15  # seconds of samples before an operation that count


def calibration_work(iterations: int) -> int:
    """A fixed piece of interpreter work of the kind the program does:
    small-integer and dict arithmetic, big-integer products and remainders."""
    table = {}
    x = 3 ** 200
    for i in range(iterations):
        table[i & 1023] = table.get(i & 1023, 0) + i * i % 97
        x = (x * 7 + i) % (10 ** 120 + 7)
    return x


class SpeedClock:
    """Times work in seconds at a reference machine speed.

    On a shared machine the same code runs up to 1.9 times slower for
    stretches of a second to minutes, and each CPU changes speed on its
    own.  So the benchmark pins itself, and the processes it starts, to one
    CPU, and one ``sampler.py`` process per CPU measures that CPU's speed
    every 50 ms with a fixed burst.  An operation's time is its elapsed
    time times REFERENCE_BURST_S over the mean burst on its CPUs from
    SAMPLE_WINDOW before it starts to when it ends.  Without samplers
    (``sampled=False``) times are not scaled."""

    def __init__(self, sampled: bool = True):
        self.cpu = min(ALL_CPUS)
        self.samplers = {}
        self.samples = {}
        self.bursts: list = []  # every burst of the pinned CPU's sampler
        self.cpus = {self.cpu}  # the CPUs the current operation may use
        if not sampled:
            return
        os.sched_setaffinity(0, {self.cpu})
        for cpu in sorted(ALL_CPUS):
            proc = subprocess.Popen(
                [sys.executable, os.path.join(BENCH_DIR, "sampler.py"), str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            os.set_blocking(proc.stdout.fileno(), False)
            self.samplers[cpu] = proc
            self.samples[cpu] = []
        self.partial = {cpu: b"" for cpu in self.samplers}

    def close(self) -> None:
        """Stop the samplers, wait for them to end and unpin."""
        if self.samplers:
            os.sched_setaffinity(0, ALL_CPUS)
        for proc in self.samplers.values():
            proc.stdin.close()
        for proc in self.samplers.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.samplers = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _drain(self) -> None:
        for cpu, proc in self.samplers.items():
            while True:
                try:
                    chunk = os.read(proc.stdout.fileno(), 65536)
                except BlockingIOError:
                    break
                if not chunk:
                    break
                *lines, self.partial[cpu] = (self.partial[cpu] + chunk).split(b"\n")
                for line in lines:
                    t, took = map(float, line.split())
                    self.samples[cpu].append((t, took))
                    if cpu == self.cpu:
                        self.bursts.append(took)

    def _burst(self, start: float, end: float) -> float:
        """Mean burst CPU time on the operation's CPUs around [start, end]."""
        self._drain()
        chosen = []
        for cpu in self.cpus:
            samples = self.samples.get(cpu, [])
            inside = [took for t, took in samples if start - SAMPLE_WINDOW <= t <= end]
            chosen += inside or [took for _, took in samples[-3:]]
        return statistics.mean(chosen) if chosen else REFERENCE_BURST_S

    @contextmanager
    def on_all_cpus(self):
        """Let the work inside (and the processes it starts) use every CPU;
        the operation around it is then scaled by every CPU's speed."""
        self.cpus = set(ALL_CPUS)
        if self.samplers:
            os.sched_setaffinity(0, ALL_CPUS)
        try:
            yield
        finally:
            if self.samplers:
                os.sched_setaffinity(0, {self.cpu})

    def timed(self, fn, *args, **kwargs):
        """(scaled seconds, result) of ``fn(*args, **kwargs)``."""
        self.cpus = {self.cpu}
        start = time.monotonic()
        out = fn(*args, **kwargs)
        end = time.monotonic()
        if not self.samplers:
            return end - start, out
        return (end - start) * REFERENCE_BURST_S / self._burst(start, end), out


MIN_ROUNDS = 3


class Setups:
    """``setup`` timed ``repeats`` times: once before the first round, the
    rest between operations over the first two thirds of the run, so that
    their median samples the whole run and not one moment of it.  ``state``
    is the first set-up's result; the later ones only time the same work."""

    def __init__(self, setup, repeats: int, seconds: float, clock):
        self.setup = setup
        self.clock = clock
        self.left = repeats - 1
        self.gap = 2 * seconds / 3 / max(1, self.left)
        dt, self.state = clock.timed(setup)
        self.times = [dt]
        self.due = time.perf_counter() + self.gap

    def _once(self) -> None:
        self.times.append(self.clock.timed(self.setup)[0])
        self.left -= 1

    def between_ops(self) -> None:
        if self.left and time.perf_counter() >= self.due:
            self._once()
            self.due = time.perf_counter() + self.gap

    def median(self) -> float:
        while self.left:  # those the run's operations left no room for
            self._once()
        return statistics.median(self.times)


def closed_loop(run_round, seconds: float) -> list:
    """Run rounds one after another: at least ``MIN_ROUNDS``, then more
    while the next one, estimated by the last, still ends within
    ``seconds``."""
    results = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        results.append(run_round())
        last = time.perf_counter() - p0
        if len(results) >= MIN_ROUNDS and time.perf_counter() - t0 + last > seconds:
            return results


def op_medians(rounds: list) -> dict:
    """Per kind of operation, each operation's median time over the rounds.
    Every round runs the same operations in the same order, so the i-th
    sample of a kind is the same operation in every round."""
    return {kind: [statistics.median(r[kind][i] for r in rounds)
                   for i in range(len(rounds[0][kind]))]
            for kind in rounds[0]}


# ---------------------------------------------------------------------------
# answer checks
# ---------------------------------------------------------------------------


class Checker:
    """Counts operations attempted and failed; an operation fails when it
    raises or when its answer check reports a problem.  Operations are
    timed by ``clock``, a SpeedClock."""

    def __init__(self, clock):
        self.attempted = 0
        self.failures: list = []
        self.clock = clock

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, label: str, call, verify):
        """Time ``call()`` and check its result with ``verify(result)``,
        which returns a list of problems.  Returns the scaled seconds taken."""
        self.attempted += 1

        def attempt():
            try:
                return True, call()
            except Exception as exc:  # any error is a failed operation
                return False, exc

        elapsed, (ok, result) = self.clock.timed(attempt)
        if not ok:
            self.failures.append((label, [f"raised {type(result).__name__}: {result}"]))
            return elapsed
        try:
            problems = list(verify(result))
        except Exception as exc:  # a checker that cannot read the answer
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append((label, problems))
        return elapsed


def expect(label: str, got, want) -> list:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def strip_millis(obj):
    if isinstance(obj, dict):
        return {k: strip_millis(v) for k, v in obj.items() if k != "millis"}
    if isinstance(obj, list):
        return [strip_millis(v) for v in obj]
    return obj


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the in-process workload runner
# ---------------------------------------------------------------------------


def round_seconds(samples: dict) -> float:
    return sum(sum(v) for v in samples.values())


def in_process(seed, seconds, trace, clock, setup, run_round, repeats):
    """Set up, then run rounds in a closed loop.  ``setup(seed, tracer)``
    returns the state; ``run_round(state, op, tracer)`` runs each operation
    through ``op(label, call, verify)`` and returns its seconds by kind.

    Untraced: ``repeats`` set-ups spread over the run (median reported),
    rounds for ``seconds``.  Traced: one traced set-up, one untraced round,
    one traced round; the per-layer report comes from the traced spans, and
    the tracing overhead is the traced minus the untraced round time.
    Answer checks run with the tracer paused, and so do the reference
    constructions of set-up."""
    from tracing import Tracer, layer_metrics

    checker = Checker(clock)
    if not trace:
        setups = Setups(lambda: setup(seed, None), repeats, seconds, checker.clock)

        def timed_op(label, call, verify):
            elapsed = checker.run(label, call, verify)
            setups.between_ops()
            return elapsed

        rounds = closed_loop(lambda: run_round(setups.state, timed_op, None), seconds)
        return checker, setups.median(), rounds, None
    tracer = Tracer()

    def op(label, call, verify):
        tracer.op_id = label

        def untraced_verify(result):
            with tracer.pause():
                return verify(result)

        return checker.run(label, call, untraced_verify)

    tracer.op_id = "setup"
    tracer.install()
    setup_s, state = checker.clock.timed(setup, seed, tracer)
    tracer.uninstall()
    untraced = run_round(state, checker.run, None)
    tracer.install()
    traced = run_round(state, op, tracer)
    tracer.uninstall()
    extra = dict(state.get("layer_extra", {}))
    extra["trace.overhead_s"] = round_seconds(traced) - round_seconds(untraced)
    layer = layer_metrics(tracer.spans, tracer.counts, extra)
    return checker, setup_s, [untraced], layer
