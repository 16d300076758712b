"""Span tracing from outside the package.

The tracer replaces module attributes that the package's own callers look
up at call time (``splatscan.pipeline.refine``, ``splatscan.mapping.
rasterize_forward`` ...) with wrappers that record one span per call:
name, start, end, parent span and scan index.  Nothing under ``src/`` is
edited; :meth:`Tracer.installed` restores every attribute on exit.

Spans stay in memory as tuples and are written out once, at the end of a
run.  Per-layer metrics are derived from them afterwards: a span's self
time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# Span name for every wrapped (module, attribute).  One layer function can
# be reached through several modules' globals; each lookup site is wrapped.
WRAPPED = [
    ("splatscan.pipeline", "register", "registration.register"),
    ("splatscan.pipeline", "estimate_camera", "geometry.estimate_camera"),
    ("splatscan.pipeline", "make_keyframe", "mapping.make_keyframe"),
    ("splatscan.pipeline", "should_reset_local_map", "mapping.reset_check"),
    ("splatscan.pipeline", "add_keyframe", "mapping.add_keyframe"),
    ("splatscan.pipeline", "refine", "mapping.refine"),
    ("splatscan.pipeline", "export_oriented_points", "pipeline.export"),
    ("splatscan.pipeline", "rasterize_forward", "rasterizer.forward"),
    ("splatscan.registration", "sample_model", "registration.sample_model"),
    ("splatscan.registration", "build_leaf_tree", "registration.leaf_tree"),
    ("splatscan.registration", "rasterize_forward", "rasterizer.forward"),
    ("splatscan.mapping", "add_keyframe", "mapping.add_keyframe"),
    ("splatscan.mapping", "rasterize_forward", "rasterizer.forward"),
    ("splatscan.mapping", "rasterize_backward", "rasterizer.backward"),
    ("splatscan.mapping", "mapping_loss", "mapping.loss"),
    ("splatscan.mapping", "estimate_camera", "geometry.estimate_camera"),
    ("splatscan.mapping", "build_range_image", "geometry.range_image"),
    ("splatscan.mapping", "smooth_range_image", "geometry.smooth"),
    ("splatscan.mapping", "range_image_normals", "geometry.normals"),
]


def pixel_pairs(records) -> int:
    """Pixel-splat evaluations a forward render makes: sum of pixels x splats per tile."""
    T = records.config.tile_size
    H, W = records.cam.height, records.cam.width
    per_tile = np.diff(records.tile_ptr)
    t = np.arange(per_tile.size)
    rows = np.minimum(T, H - (t // records.tiles_x) * T)
    cols = np.minimum(T, W - (t % records.tiles_x) * T)
    return int(np.sum(per_tile * rows * cols))


def _count_forward(counts, result):
    records = result[1]
    counts["rasterizer.splats"] += records.n_splats
    counts["rasterizer.tile_pairs"] += len(records.pair_splats)
    counts["rasterizer.pixel_pairs"] += pixel_pairs(records)


def _count_register(counts, result):
    counts["registration.iters"] += result.iterations
    counts["registration.converged"] += bool(result.converged)
    counts["registration.n_geo"] += result.n_geo
    counts["registration.n_photo"] += result.n_photo


def _count_add_keyframe(counts, result):
    counts["mapping.spawned"] += result["spawned"]
    counts["mapping.pruned"] += result["pruned"]


def _count_reset(counts, result):
    counts["mapping.resets"] += bool(result)


def _count_refine(counts, result):
    counts["mapping.refine_iters"] += len(result)


def _count_export(counts, result):
    counts["pipeline.exported_points"] += len(result[0])


COUNTERS = {
    "rasterizer.forward": _count_forward,
    "registration.register": _count_register,
    "mapping.add_keyframe": _count_add_keyframe,
    "mapping.reset_check": _count_reset,
    "mapping.refine": _count_refine,
    "pipeline.export": _count_export,
}


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent, scan)."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.scan = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.scan)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry of :data:`WRAPPED` for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, span_name in WRAPPED:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(span_name, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    # --- analysis ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_time[sid]
        return dict(out)

    def edges(self) -> dict[tuple[str, str], int]:
        """How often each span name ran directly under each parent name."""
        out: defaultdict[tuple[str, str], int] = defaultdict(int)
        for name, _, _, parent, _ in self.spans:
            pname = self.spans[parent][0] if parent >= 0 else "-"
            out[(pname, name)] += 1
        return dict(out)

    def dump(self, path, meta: dict) -> None:
        """Write every span and the parent/child table as one JSON file."""
        doc = {
            "meta": meta,
            "fields": ["name", "start_s", "end_s", "parent", "scan"],
            "spans": self.spans,
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges().items())],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def layer_metrics(tracer: Tracer, scans: int, passes: int, wall_s: float,
                  final: dict[str, float], speed: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: times and counts per scan unless noted.

    Span times are multiplied by ``speed``, the run's machine-speed scale;
    ``wall_s`` is the loop time already scaled.
    """
    tot = tracer.totals()
    c = tracer.counts

    def get(name, key="total_s"):
        return tot.get(name, {}).get(key, 0)

    def per(x, n):
        return x / n if n else 0.0

    def ms(name, key="total_s"):
        return (1000.0 * speed * get(name, key) / scans, "ms/scan")

    fwd = get("rasterizer.forward", "calls")
    reg = get("registration.register", "calls")
    geometry_s = sum(v["total_s"] for k, v in tot.items() if k.startswith("geometry."))
    return {
        "rasterizer.forward_ms": ms("rasterizer.forward"),
        "rasterizer.forward_calls": (fwd / scans, "calls/scan"),
        "rasterizer.backward_ms": ms("rasterizer.backward"),
        "rasterizer.backward_calls": (get("rasterizer.backward", "calls") / scans, "calls/scan"),
        "rasterizer.splats": (per(c["rasterizer.splats"], fwd), "splats/call"),
        "rasterizer.tile_pairs": (per(c["rasterizer.tile_pairs"], fwd), "pairs/call"),
        "rasterizer.pixel_pairs": (per(c["rasterizer.pixel_pairs"], fwd), "pairs/call"),
        "rasterizer.pixel_pairs_per_s": (
            per(c["rasterizer.pixel_pairs"], speed * get("rasterizer.forward")), "1/s"),
        "registration.register_ms": ms("registration.register"),
        "registration.sample_model_ms": ms("registration.sample_model"),
        "registration.leaf_tree_ms": ms("registration.leaf_tree"),
        "registration.solve_ms": ms("registration.register", "self_s"),
        "registration.iters": (per(c["registration.iters"], reg), "iters/call"),
        "registration.converged_ratio": (per(c["registration.converged"], reg), "ratio"),
        "registration.n_geo": (per(c["registration.n_geo"], reg), "count/call"),
        "registration.n_photo": (per(c["registration.n_photo"], reg), "count/call"),
        "geometry.ms": (1000.0 * speed * geometry_s / scans, "ms/scan"),
        "mapping.make_keyframe_ms": ms("mapping.make_keyframe"),
        "mapping.reset_check_ms": ms("mapping.reset_check"),
        "mapping.add_keyframe_ms": ms("mapping.add_keyframe"),
        "mapping.refine_ms": ms("mapping.refine"),
        "mapping.refine_iter_ms": (
            per(1000.0 * speed * get("mapping.refine"), c["mapping.refine_iters"]), "ms/iter"),
        "mapping.loss_ms": ms("mapping.loss"),
        "mapping.step_ms": ms("mapping.refine", "self_s"),
        "mapping.spawned": (c["mapping.spawned"] / scans, "splats/scan"),
        "mapping.pruned": (c["mapping.pruned"] / scans, "splats/scan"),
        "mapping.resets": (c["mapping.resets"] / passes, "count/pass"),
        "mapping.splats_final": (final.get("splats", 0), "splats"),
        "splats.model_mb": (final.get("model_mb", 0.0), "MB"),
        "pipeline.export_ms": ms("pipeline.export"),
        "pipeline.exported_points": (c["pipeline.exported_points"] / passes, "points/pass"),
        "pipeline.maps": (get("pipeline.export", "calls") / passes, "maps/pass"),
        "trace.wall_ms": (1000.0 * wall_s / scans, "ms/scan"),
    }
