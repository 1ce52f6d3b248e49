"""In-memory spans around calls into icotk's public functions.

A traced run patches each wrapped name in every icotk module that looks it
up (``from .binaryforms import sylvester_resultant`` binds a second name in
``plane_curves``), and patches methods on their class.  A span records its
name, start, end, parent span and the id of the benchmark operation it
belongs to.  Spans stay in memory until the run ends; ``self_times`` turns
them into per-layer self time (span time minus the time its children cover).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

# (module, attribute path, span name).  A dotted path names a method.
SPANNED = (
    ("icotk.ico_surface", "FixedGeometry.__init__", "ico_surface.geometry"),
    ("icotk.ico_surface", "FixedGeometry.ctau_factors", "ico_surface.ctau_factors"),
    ("icotk.algebra", "Poly.substitute", "algebra.substitute"),
    ("icotk.algebra", "Poly.exact_div", "algebra.exact_div"),
    ("icotk.algebra", "Poly.__mul__", "algebra.mul"),
    ("icotk.algebra", "factorize", "algebra.factorize"),
    ("icotk.binaryforms", "sylvester_resultant", "binaryforms.resultant"),
    ("icotk.binaryforms", "interpolate", "binaryforms.interpolate"),
    ("icotk.binaryforms", "strip_root", "binaryforms.strip_root"),
    ("icotk.plane_curves", "check_tau", "plane_curves.check_tau"),
    ("icotk.plane_curves", "pullback_tau", "plane_curves.pullback_tau"),
    ("icotk.groebner", "normal_form", "groebner.normal_form"),
    ("icotk.groebner", "Ideal.groebner", "groebner.basis"),
    ("icotk.groebner", "hilbert_data", "groebner.hilbert"),
    ("icotk.ico_models", "basis_An", "ico_models.basis_An"),
    ("icotk.heights", "LogBound.compare", "heights.compare"),
    ("icotk.fermat", "scan_surface", "fermat.scan"),
    ("icotk.fermat", "scan_instance", "fermat.filter"),
    ("icotk.fermat", "z_triviality_scan", "fermat.filter"),
)

# Every span name is reported as "<name>_s" (self time) and "<name>_total_s"
# (span time, children included); those listed here also as "<name>_calls".
COUNTED_CALLS = (
    "algebra.substitute",
    "algebra.exact_div",
    "algebra.mul",
    "algebra.factorize",
    "groebner.normal_form",
    "groebner.basis",
    "heights.compare",
)

TAU_STAGES = (
    "none",
    "curve-meets-Ctau-off-Ttau",
    "image-contains-e0",
    "image-contains-e1",
    "image-contains-e2",
    "image-contains-e3",
    "image-contains-e4",
)


class Tracer:
    """Spans and counters of one process.  ``spans`` holds
    ``[name, start, end, parent_index, op_id]`` lists.  While ``paused``
    the wrappers only pass calls through, so the benchmark's own answer
    checks and reference constructions are not recorded as program work."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = None
        self.paused = False
        self._stack: list = []
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def pause(self):
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def count(self, key: str, n: int = 1) -> None:
        if not self.paused:
            self.counts[key] += n

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def patch_everywhere(self, module_name: str, path: str, make) -> None:
        """Replace ``module.path`` by ``make(original)``: on the class for a
        method, else in every loaded icotk module bound to the original."""
        module = sys.modules[module_name]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            orig = vars(cls)[meth]
            new = make(orig)
            self.patch(cls, meth, new)
            if meth == "__mul__":
                self.patch(cls, "__rmul__", new)
            return
        orig = getattr(module, path)
        new = make(orig)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "icotk" and getattr(mod, path, None) is orig:
                self.patch(mod, path, new)

    def install(self) -> "Tracer":
        """Wrap every layer boundary listed in SPANNED, plus the counters."""
        import icotk.cli  # noqa: F401  (loads every module that binds a name)
        from icotk import groebner, ico_surface
        from icotk.binaryforms import ZZ
        from icotk.config import cache_dir

        for module_name, path, name in SPANNED:
            self.patch_everywhere(
                module_name, path, lambda fn, name=name: self.span(name, fn)
            )

        count = self.count
        proj_init = ico_surface.ProjPoint.__init__

        def counted_projpoint(pt, coords):
            count("ico_surface.projpoint_calls")
            proj_init(pt, coords)

        self.patch(ico_surface.ProjPoint, "__init__", counted_projpoint)

        def count_resultants(resultant):
            def counted(f, g, dom=ZZ):
                count(f"binaryforms.resultant_{'zz' if dom is ZZ else 'zphi'}_calls")
                return resultant(f, g, dom)

            return counted

        def count_stages(check):
            def counted(curve, *args, **kwargs):
                fresh = curve._report is None  # a repeated call returns the cached report
                rep = check(curve, *args, **kwargs)
                if fresh:
                    count(f"plane_curves.stage.{rep.stage}")
                    count("plane_curves.image_pieces",
                          sum(len(polys) for _, polys in rep.image_pieces))
                return rep

            return counted

        self.patch_everywhere("icotk.binaryforms", "sylvester_resultant", count_resultants)
        self.patch_everywhere("icotk.plane_curves", "check_tau", count_stages)

        basis_wrapped = groebner.Ideal.groebner

        def counted_basis(ideal, order=groebner.GREVLEX, *args, **kwargs):
            root = cache_dir()
            in_memory = order.tag() in ideal._bases
            watch = root and not in_memory and not self.paused
            before = _cache_files(root) if watch else None
            out = basis_wrapped(ideal, order, *args, **kwargs)
            if watch:
                grew = _cache_files(root) > before
                count("groebner.cache_misses" if grew else "groebner.cache_hits")
            return out

        self.patch(groebner.Ideal, "groebner", counted_basis)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def paused(tracer):
    """``tracer.pause()``, or nothing to pause when the run is untraced."""
    return nullcontext() if tracer is None else tracer.pause()


def _cache_files(root: str) -> int:
    try:
        return sum(1 for n in os.listdir(root) if n.startswith("gb-") and n.endswith(".txt"))
    except OSError:
        return 0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def self_times(spans) -> dict:
    """Per span name: total of (duration minus the union of its children's
    intervals, clipped to the span).  ``spans`` are ``[name, start, end,
    parent_index, ...]`` records, a parent always before its children."""
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            children[rec[3]].append(i)
    out: dict = defaultdict(float)
    for i, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered = 0.0
        cursor = start
        for a, b in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(i, ())):
            a = max(a, cursor)
            if b > a:
                covered += b - a
                cursor = b
        out[rec[0]] += (end - start) - covered
    return dict(out)


def call_counts(spans) -> Counter:
    return Counter(rec[0] for rec in spans)


def layer_metrics(spans, counts, extra: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json from spans and counters;
    layers a workload never enters read 0."""
    selft = self_times(spans)
    total = defaultdict(float)
    for rec in spans:
        total[rec[0]] += rec[2] - rec[1]
    calls = call_counts(spans)
    out = {}
    for name in sorted({n for _, _, n in SPANNED} | {"fermat.enumerate"}):
        out[f"{name}_s"] = selft.get(name, 0.0)
        out[f"{name}_total_s"] = total.get(name, 0.0)
    for name in COUNTED_CALLS:
        out[f"{name}_calls"] = calls.get(name, 0)
    for stage in TAU_STAGES:
        out[f"plane_curves.stage.{stage}"] = counts.get(f"plane_curves.stage.{stage}", 0)
    for key in (
        "binaryforms.resultant_zz_calls",
        "binaryforms.resultant_zphi_calls",
        "plane_curves.image_pieces",
        "groebner.cache_hits",
        "groebner.cache_misses",
        "ico_surface.projpoint_calls",
    ):
        out[key] = counts.get(key, 0)
    for key in (  # filled in by the workloads that measure them
        "fermat.canonicalize_s",
        "fermat.raw_hits",
        "fermat.points",
        "fermat.projpoints_per_point",
        "cli.startup_s",
        "cli.handler_ms",
    ):
        out[key] = 0
    out.update(extra)
    return out
