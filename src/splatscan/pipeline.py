"""Odometry-and-mapping orchestration over an ordered scan sequence.

Each scan is registered against the active local map, appended to the
trajectory, turned into a keyframe, and used to refine the map; the map
is reset (archived) when it fills up, stops covering the current view,
or is left behind spatially.  Each archived map ``NNN`` leaves two files
in ``out_dir``: ``map_NNN.ply``, the map exported as oriented points, and
``map_NNN.splm``, its splats as a model file (see :func:`io.save_model`).
A map that cannot be exported keeps its model file, gets no PLY, and its
:class:`ArchiveEntry` says why; the run goes on.
One trajectory row is produced per scan no matter what happens inside.
Every scan makes a keyframe from ``SCAN_FRACTION`` of its points; a study
that sweeps that fraction should bring back only it as a :class:`RunConfig`
value.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EvaluationError, ExportError, GeometryError, IngestionError, RegistrationError
from .evaluation import Trajectory
from .geometry import estimate_camera, facing_sensor
from .io import save_model, save_trajectory, write_ply, write_report
from .mapping import (
    LocalMap,
    add_keyframe,
    make_keyframe,
    refine,
    should_reset_local_map,
)
from .rasterizer import rasterize_forward
from .registration import register
from .se3 import SE3Pose

__all__ = [
    "RunConfig",
    "ArchiveEntry",
    "Pipeline",
    "export_oriented_points",
]


SCAN_FRACTION = 0.5         # share of each scan's points actually used
EXPORT_PER_KEYFRAME = 2000  # exported points per keyframe, at most


@dataclass
class RunConfig:
    """The six settings of a run, each one that callers vary.

    ``image_width``/``image_height`` follow the sensor's azimuth resolution
    and beam count; ``refine_iters`` trades map quality for speed (10
    offline, 1 online); ``seed`` repeats a run exactly; ``scan_period``
    timestamps trajectory rows when scans come without stamps, as in CLI
    runs; ``out_dir`` receives maps, trajectories and the report (``None``
    writes nothing).  A size, ``refine_iters`` or ``seed`` that is not an
    integer, an image narrower or lower than 2 pixels, a negative
    ``refine_iters`` or ``seed`` and a ``scan_period`` that is not finite
    and positive raise :class:`IngestionError`.
    """

    image_width: int = 1024
    image_height: int = 64
    refine_iters: int = 10
    seed: int = 0
    scan_period: float = 0.1
    out_dir: str | None = None

    def __post_init__(self):
        for name in ("image_width", "image_height", "refine_iters", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise IngestionError(
                    f"{name} must be an integer, not {getattr(self, name)!r}") from None
        if self.image_width < 2 or self.image_height < 2:
            raise IngestionError(
                f"image must be at least 2 x 2, not {self.image_width} x {self.image_height}")
        for name in ("refine_iters", "seed"):
            if getattr(self, name) < 0:
                raise IngestionError(f"{name} must be at least 0, not {getattr(self, name)}")
        if not (np.isfinite(self.scan_period) and self.scan_period > 0):
            raise IngestionError(
                f"scan_period must be finite and positive, not {self.scan_period}")


@dataclass
class ArchiveEntry:
    """What remains of a finalized local map after its splats are freed.

    ``first_scan`` and ``last_scan`` are the scans of the map's first and
    last keyframes.  ``export_error`` is the reason the map has no oriented
    points, ``None`` when it was exported.
    """

    export_path: str | None
    model_path: str | None
    n_splats: int
    n_keyframes: int
    first_scan: int
    last_scan: int
    export_error: str | None = None


def export_oriented_points(
    lmap: LocalMap, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the map as world-frame oriented points, keyframe by keyframe.

    Renders the model at each keyframe pose, picks up to ``EXPORT_PER_KEYFRAME``
    pixels that show a surface (see :meth:`RenderOutput.surface`) uniformly and
    back-projects them at the surface's range.  The blended normal faces the
    sensor in the keyframe's frame (:func:`geometry.facing_sensor`); then the
    keyframe pose moves points and normals to the world.
    """
    if not lmap.keyframes:
        raise ExportError("local map has no keyframes to export")
    pts_out, nrm_out = [], []
    for kf in lmap.keyframes:
        render, _ = rasterize_forward(kf.camera, kf.pose, lmap.model)
        depth = render.surface()
        idx = np.flatnonzero(depth)
        if idx.size == 0:
            continue
        if idx.size > EXPORT_PER_KEYFRAME:
            idx = rng.choice(idx, EXPORT_PER_KEYFRAME, replace=False)
            idx.sort()
        rows, cols = np.unravel_index(idx, depth.shape)
        dirs = kf.camera.pixel_directions[rows, cols]
        pts = kf.pose.apply(depth[rows, cols][:, None] * dirs)
        nrm = facing_sensor(render.normal[rows, cols], dirs) @ kf.pose.rotation.T
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
        self.stamps: list[float] = []
        self.poses: list[SE3Pose] = []
        self.lmap: LocalMap | None = None
        self.archive: list[ArchiveEntry] = []
        self.scan_rows: list[dict] = []
        self.n_exported = 0

    # --- helpers ---------------------------------------------------------

    def _subsample(self, cloud: np.ndarray) -> np.ndarray:
        if cloud.shape[0] < 10:
            return cloud
        n = max(int(cloud.shape[0] * SCAN_FRACTION), 10)
        idx = self.rng.choice(cloud.shape[0], n, replace=False)
        idx.sort()
        return cloud[idx]

    @property
    def pose(self) -> SE3Pose:
        """The latest scan's pose."""
        return self.poses[-1]

    def _predicted_pose(self) -> SE3Pose:
        # constant velocity; every pose before the first map is the identity
        *prev, last = self.poses[-2:]
        return last.compose(prev[0].inverse().compose(last)) if prev else last

    def _archive_active(self):
        """End the active local map: export it, save it, add its
        :class:`ArchiveEntry` to ``archive`` and drop it."""
        lmap = self.lmap
        path = model_path = error = None
        try:
            pts, nrm = export_oriented_points(lmap, self.rng)
        except ExportError as e:
            pts, error = None, str(e)
        if self.cfg.out_dir is not None:
            out = Path(self.cfg.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            stem = out / f"map_{len(self.archive):03d}"
            model_path = f"{stem}.splm"
            save_model(model_path, lmap.model)
            if pts is not None:
                path = f"{stem}.ply"
                write_ply(path, pts, nrm)
        self.archive.append(ArchiveEntry(
            path,
            model_path,
            len(lmap.model),
            len(lmap.keyframes),
            lmap.keyframes[0].index,
            lmap.keyframes[-1].index,
            error,
        ))
        if pts is not None:
            self.n_exported += pts.shape[0]
        self.lmap = None

    # --- main loop -------------------------------------------------------

    def process_scan(self, cloud: np.ndarray, stamp: float | None = None) -> dict:
        """Ingest one sensor-frame scan; returns the per-scan report row.

        Non-finite rows are dropped first, as :func:`io.load_scan` drops
        them; ``n_points`` counts the finite points and ``n_used`` those
        subsampled from them.

        A scan that fails registration or yields no keyframe (empty, all at
        the origin, zero angular extent) still gets its row, flagged
        ``fallback`` with a ``fallback_reason``.  A registration fallback
        keeps the motion model's predicted pose and still joins the map at
        it; a scan with no keyframe adds nothing to the map.
        Registered scans report the solver's iterations and ``converged``
        (see :func:`registration.register`) and each residual family's
        count and RMS at the registered pose (``n_geo``/``geo_rms``,
        ``n_photo``/``photo_rms``).  Every row says
        what mapping did: ``reset`` is the trigger that archived the previous
        map (``"keyframes"``, ``"radius"`` or ``"coverage"``, see
        :func:`mapping.should_reset_local_map`) or ``None``,
        ``coverage`` is the mean rendered opacity the reset check measured
        (``None`` when it rendered nothing), and ``spawned``/``pruned``
        count the splats the keyframe added and removed, and ``valid_pixels``
        counts the keyframe's measured pixels, the only ones that the reset
        check and refinement render (0 without a keyframe).  Refined scans
        report the mapping loss by term at the first and last refine
        iteration (``refine_loss_first``/``refine_loss_last``).

        A ``cloud`` that is not ``(N, 3)`` raises :class:`IngestionError`.
        ``stamp`` defaults to ``index * scan_period``.  One that is not finite,
        or not above the last, raises :class:`EvaluationError`.  A refused
        scan changes nothing.
        """
        index = len(self.poses)
        cloud = np.asarray(cloud, dtype=float)
        if cloud.ndim != 2 or cloud.shape[1] != 3:
            raise IngestionError(f"scan {index}: a cloud of shape {cloud.shape} is not (N, 3)")
        stamp = float(stamp) if stamp is not None else index * self.cfg.scan_period
        if not np.isfinite(stamp) or (self.stamps and stamp <= self.stamps[-1]):
            raise EvaluationError(f"scan {index}: stamp {stamp} refused: timestamps must "
                                  "be finite and strictly increasing")
        cloud = cloud[np.isfinite(cloud).all(axis=1)]
        sub = self._subsample(cloud)
        row: dict = {"scan": index, "n_points": int(cloud.shape[0]),
                     "n_used": int(sub.shape[0]), "fallback": False,
                     "reset": None, "coverage": None, "spawned": 0, "pruned": 0,
                     "valid_pixels": 0}

        t0 = time.perf_counter()
        if self.lmap is None:
            new_pose = SE3Pose.identity()
        else:
            guess = self._predicted_pose()
            try:
                cam = estimate_camera(sub, self.cfg.image_width, self.cfg.image_height)
                result = register(self.lmap.model, sub, cam, guess, self.rng)
                new_pose = result.pose
                row["reg_iters"] = result.iterations
                row["converged"] = bool(result.converged)
                for key in ("n_geo", "geo_rms", "n_photo", "photo_rms"):
                    row[key] = getattr(result, key)
            except (GeometryError, RegistrationError) as e:
                new_pose = guess
                row["fallback"] = True
                row["fallback_reason"] = str(e)
        row["register_ms"] = 1000.0 * (time.perf_counter() - t0)

        self.stamps.append(stamp)
        self.poses.append(new_pose)

        t1 = time.perf_counter()
        try:
            kf = make_keyframe(index, sub, new_pose, self.cfg.image_width, self.cfg.image_height)
        except GeometryError as e:
            # no usable keyframe in this scan: keep the pose, skip mapping
            kf = None
            row["fallback"] = True
            row.setdefault("fallback_reason", str(e))
        if kf is not None:
            row["valid_pixels"] = int(np.count_nonzero(kf.range))
            if self.lmap is not None:
                row["reset"] = should_reset_local_map(self.lmap, kf)
                row["coverage"] = self.lmap.coverage
                if row["reset"]:
                    self._archive_active()
            if self.lmap is None:
                self.lmap = LocalMap.start(kf)
            row.update(add_keyframe(self.lmap, kf, self.rng))
            losses = refine(self.lmap, self.cfg.refine_iters, self.rng)
            if losses:
                row["refine_loss_first"] = losses[0]
                row["refine_loss_last"] = losses[-1]
        row["mapping_ms"] = 1000.0 * (time.perf_counter() - t1)
        has_map = self.lmap is not None
        row["n_splats"] = len(self.lmap.model) if has_map else 0
        row["model_bytes"] = int(self.lmap.model.memory_bytes()) if has_map else 0
        self.scan_rows.append(row)
        return row

    # --- outputs ---------------------------------------------------------

    @property
    def trajectory(self) -> Trajectory:
        return Trajectory(np.asarray(self.stamps), list(self.poses))

    def finalize(self) -> dict:
        """Archive the active map and write trajectory, points and report.

        Maps that could not be exported are in the report's ``archive`` with
        their ``export_error``; every output is written all the same.
        """
        if self.lmap is not None:
            self._archive_active()
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
