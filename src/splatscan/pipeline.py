"""Odometry-and-mapping orchestration over an ordered scan sequence.

Each scan is registered against the active local map, appended to the
trajectory, turned into a keyframe, and used to refine the map; the map
is reset (archived and exported as oriented points) when it fills up,
stops covering the current view, or is left behind spatially.  One
trajectory row is produced per scan no matter what happens inside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ExportError, GeometryError, RegistrationError
from .evaluation import Trajectory
from .geometry import estimate_camera
from .io import save_trajectory, write_ply, write_report
from .mapping import (
    LocalMap,
    MappingConfig,
    add_keyframe,
    make_keyframe,
    refine,
    should_reset_local_map,
)
from .rasterizer import RasterConfig, rasterize_forward
from .registration import RegistrationConfig, register
from .se3 import SE3Pose

__all__ = [
    "RunConfig",
    "ArchiveEntry",
    "Pipeline",
    "export_oriented_points",
]


@dataclass
class RunConfig:
    """Everything a full run needs, nested configs included."""

    image_width: int = 1024
    image_height: int = 64
    scan_fraction: float = 0.5    # share of each scan's points actually used
    keyframe_every: int = 1
    refine_iters: int = 10
    n_export_per_kf: int = 2000
    export_max_range_err: float | None = None
    seed: int = 0
    scan_period: float = 0.1      # seconds between trajectory timestamps
    out_dir: str | None = None
    mapping: MappingConfig = field(default_factory=MappingConfig)
    registration: RegistrationConfig = field(default_factory=RegistrationConfig)
    raster: RasterConfig = field(default_factory=RasterConfig)


@dataclass
class ArchiveEntry:
    """What remains of a finalized local map after its splats are freed."""

    export_path: str | None
    n_splats: int
    n_keyframes: int
    first_scan: int
    last_scan: int


def export_oriented_points(
    lmap: LocalMap,
    n_per_kf: int,
    rng: np.random.Generator,
    raster: RasterConfig | None = None,
    min_opacity: float = 0.5,
    max_range_err: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the map as world-frame oriented points, keyframe by keyframe.

    Renders the model at each keyframe pose, picks up to ``n_per_kf``
    confidently covered pixels uniformly, back-projects them at the
    opacity-normalized range and attaches the normalized blended normal.
    ``max_range_err`` adds a second confidence gate: pixels whose rendered
    range disagrees with the keyframe's own measurement by more than this
    are skipped (silhouette pixels blend foreground and background).
    """
    if not lmap.keyframes:
        raise ExportError("local map has no keyframes to export")
    pts_out, nrm_out = [], []
    for kf in lmap.keyframes:
        render, _ = rasterize_forward(kf.camera, kf.pose, lmap.model, raster)
        m = (render.opacity > min_opacity) & (render.range > 0)
        if max_range_err is not None:
            norm_range = render.range / np.maximum(render.opacity, 1e-9)
            m &= kf.range_image.valid
            m &= np.abs(norm_range - kf.range_image.range) < max_range_err
        idx = np.flatnonzero(m.ravel())
        if idx.size == 0:
            continue
        if idx.size > n_per_kf:
            idx = rng.choice(idx, n_per_kf, replace=False)
            idx.sort()
        rows, cols = np.unravel_index(idx, m.shape)
        opac = render.opacity[rows, cols]
        depth = render.range[rows, cols] / opac
        uv = kf.camera.sample_grid[rows, cols]
        pts = kf.pose.apply(kf.camera.back_project(uv, depth))
        nrm = render.normal[rows, cols] / opac[:, None]
        norm = np.linalg.norm(nrm, axis=1, keepdims=True)
        good = norm[:, 0] > 1e-9
        nrm = np.where(good[:, None], nrm / np.maximum(norm, 1e-9), [0.0, 0.0, 1.0])
        # orient toward the keyframe sensor: export consumers expect outward-facing
        to_sensor = kf.pose.translation[None, :] - pts
        flip = np.sum(nrm * to_sensor, axis=1) < 0
        nrm[flip] = -nrm[flip]
        pts_out.append(pts)
        nrm_out.append(nrm)
    if not pts_out:
        raise ExportError("no confidently rendered pixels in any keyframe")
    return np.concatenate(pts_out), np.concatenate(nrm_out)


class Pipeline:
    """Stateful scan-by-scan odometry loop.

    Feed scans with :meth:`process_scan`; read ``trajectory`` at any
    point; call :meth:`finalize` to export the active map and write
    outputs.  Deterministic for a fixed config (seed included).
    """

    def __init__(self, cfg: RunConfig | None = None):
        self.cfg = cfg or RunConfig()
        self.rng = np.random.default_rng(self.cfg.seed)
        self.pose = SE3Pose.identity()
        self.prev_pose: SE3Pose | None = None
        self.stamps: list[float] = []
        self.poses: list[SE3Pose] = []
        self.lmap: LocalMap | None = None
        self.archive: list[ArchiveEntry] = []
        self.scan_rows: list[dict] = []
        self.first_scan_of_map = 0
        self.n_exported = 0

    # --- helpers ---------------------------------------------------------

    def _subsample(self, cloud: np.ndarray) -> np.ndarray:
        f = self.cfg.scan_fraction
        if not (0 < f < 1) or cloud.shape[0] < 10:
            return cloud
        n = max(int(cloud.shape[0] * f), 10)
        idx = self.rng.choice(cloud.shape[0], n, replace=False)
        idx.sort()
        return cloud[idx]

    def _predicted_pose(self) -> SE3Pose:
        if self.prev_pose is None:
            return self.pose.copy()
        step = self.prev_pose.inverse().compose(self.pose)
        return self.pose.compose(step)

    def _archive_active(self) -> ArchiveEntry:
        lmap = self.lmap
        n_splats = len(lmap.model)
        path = None
        pts, nrm = export_oriented_points(
            lmap, self.cfg.n_export_per_kf, self.rng, self.cfg.raster,
            max_range_err=self.cfg.export_max_range_err,
        )
        if self.cfg.out_dir is not None:
            out = Path(self.cfg.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            path = str(out / f"map_{len(self.archive):03d}.ply")
            write_ply(path, pts, nrm)
        entry = ArchiveEntry(
            path,
            n_splats,
            len(lmap.keyframes),
            self.first_scan_of_map,
            len(self.poses) - 1,
        )
        self.archive.append(entry)
        self.n_exported += pts.shape[0]
        return entry

    # --- main loop -------------------------------------------------------

    def process_scan(self, cloud: np.ndarray, stamp: float | None = None,
                     pose: SE3Pose | None = None) -> dict:
        """Ingest one sensor-frame scan; returns the per-scan report row.

        Pass ``pose`` to bypass registration (mapping with known poses).  A
        scan that fails registration or yields no keyframe (empty, all at
        the origin, zero angular extent) still gets its row, flagged
        ``fallback`` with a ``fallback_reason``; it adds nothing to the map.
        """
        index = len(self.poses)
        cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
        sub = self._subsample(cloud)
        row: dict = {"scan": index, "n_points": int(cloud.shape[0]),
                     "n_used": int(sub.shape[0]), "fallback": False}

        t0 = time.perf_counter()
        if pose is not None:
            new_pose = pose.copy()
        elif self.lmap is None:
            new_pose = SE3Pose.identity()
        else:
            guess = self._predicted_pose()
            try:
                cam = estimate_camera(
                    sub, self.cfg.image_width, self.cfg.image_height
                )
                result = register(
                    self.lmap.model, sub, cam, guess,
                    self.cfg.registration, self.cfg.raster, self.rng,
                )
                new_pose = result.pose
                row["reg_iters"] = result.iterations
                row["converged"] = bool(result.converged)
            except (GeometryError, RegistrationError) as e:
                new_pose = guess
                row["fallback"] = True
                row["fallback_reason"] = str(e)
        row["register_ms"] = 1000.0 * (time.perf_counter() - t0)

        self.prev_pose, self.pose = self.pose, new_pose
        if self.lmap is None:
            self.prev_pose = None
        stamp = float(stamp) if stamp is not None else index * self.cfg.scan_period
        self.stamps.append(stamp)
        self.poses.append(new_pose.copy())

        t1 = time.perf_counter()
        kf = None
        if index % self.cfg.keyframe_every == 0:
            try:
                kf = make_keyframe(
                    index, sub, new_pose, self.cfg.image_width, self.cfg.image_height
                )
            except GeometryError as e:
                # no usable keyframe in this scan: keep the pose, skip mapping
                row["fallback"] = True
                row.setdefault("fallback_reason", str(e))
        if kf is not None:
            if self.lmap is None:
                self.lmap = LocalMap.start(kf, self.cfg.mapping, self.rng)
                self.first_scan_of_map = index
            elif should_reset_local_map(self.lmap, kf, self.cfg.mapping, self.cfg.raster):
                self._archive_active()
                self.lmap = LocalMap.start(kf, self.cfg.mapping, self.rng)
                self.first_scan_of_map = index
            else:
                add_keyframe(self.lmap, kf, self.cfg.mapping, self.rng, self.cfg.raster)
            refine(self.lmap, self.cfg.mapping, self.cfg.refine_iters, self.rng, self.cfg.raster)
        row["mapping_ms"] = 1000.0 * (time.perf_counter() - t1)
        has_map = self.lmap is not None
        row["n_splats"] = len(self.lmap.model) if has_map else 0
        row["model_bytes"] = int(self.lmap.model.memory_bytes()) if has_map else 0
        self.scan_rows.append(row)
        return row

    # --- outputs ---------------------------------------------------------

    @property
    def trajectory(self) -> Trajectory:
        return Trajectory(np.asarray(self.stamps), [p.copy() for p in self.poses])

    def finalize(self) -> dict:
        """Archive the active map and write trajectory, points and report."""
        if self.lmap is not None and self.lmap.keyframes:
            self._archive_active()
            self.lmap = None
        report = {
            "n_scans": len(self.poses),
            "n_maps": len(self.archive),
            "n_exported_points": self.n_exported,
            "fallbacks": int(sum(r["fallback"] for r in self.scan_rows)),
            "scans": self.scan_rows,
            "archive": [vars(a) for a in self.archive],
        }
        if self.cfg.out_dir is not None:
            out = Path(self.cfg.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            save_trajectory(self.trajectory, out / "trajectory.tum", "tum")
            save_trajectory(self.trajectory, out / "trajectory.kitti", "kitti")
            write_report(out / "report.json", report)
        return report
