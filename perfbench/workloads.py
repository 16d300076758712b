"""Workload inputs, timed loops, output checks and accuracy.

Every workload uses ``room_with_boxes(seed=0)`` and range noise 0.01 m.
The workload seed draws the scan noise (and, for ``reloc_fig8``, the
subsampling and the perturbed initial guesses); the program under test
receives only the generated scans.  Each run is a closed loop: one scan is
in flight at a time.

A run measures whole passes over its scan sequence until ``seconds`` have
elapsed, and always at least one pass.  Every repeated pass must reproduce
the first pass exactly; accuracy and the determinism fingerprint come from
the first pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import splatscan.registration as registration
from splatscan.errors import RegistrationError
from splatscan.evaluation import Trajectory, reconstruction_metrics, relative_pose_error
from splatscan.geometry import SphericalCamera, estimate_camera
from splatscan.io import read_ply
from splatscan.pipeline import Pipeline, RunConfig
from splatscan.rasterizer import rasterize_forward, reference_rasterize
from splatscan.se3 import SE3Pose, so3_exp
from splatscan.splats import SplatModel, orthonormal_tangents
from splatscan.synth import ScanSpec, make_trajectory, raycast_scan, room_with_boxes

from machine import calibration_s

NOISE_SIGMA = 0.01
SETUP_REPEATS = 3          # setup_s takes the median over this many input builds
CAL_PER_SCAN = 5           # calibration kernel runs before each scan
REF_POINTS = 100_000       # ground-truth surface samples for the F-score
FSCORE_THRESHOLD_M = 0.2
RELOC_FAIL_M = 0.25        # a relocalized scan further off than this failed
REFERENCE_TOL = 1e-12      # tiled vs brute-force render


@dataclass(frozen=True)
class Odometry:
    """Full pipeline over the first ``n_scans`` poses of a trajectory."""

    kind: str
    length_m: float
    steps: int
    n_scans: int
    width: int
    height: int
    refine_iters: int


@dataclass(frozen=True)
class Reloc:
    """``register`` of subsampled scans against a fixed ground-truth map."""

    kind: str
    length_m: float
    steps: int
    n_scans: int
    width: int
    height: int
    map_splats: int
    splat_scale_m: float = 0.12
    splat_opacity: float = 0.95
    offset_m: float = 0.15
    offset_deg: float = 3.0


WORKLOADS = {
    "arc_refine": Odometry("arc", 3.0, 8, 8, 128, 16, refine_iters=10),
    "arc_online": Odometry("arc", 3.0, 8, 8, 128, 16, refine_iters=1),
    "reloc_fig8": Reloc("figure8", 6.0, 24, 24, 256, 32, map_splats=20_000),
}

# the same workloads at a size the smoke test can run in seconds
TOY = {
    "arc_refine": Odometry("arc", 3.0, 8, 3, 64, 16, refine_iters=10),
    "arc_online": Odometry("arc", 3.0, 8, 3, 64, 16, refine_iters=1),
    "reloc_fig8": Reloc("figure8", 6.0, 24, 4, 64, 16, map_splats=3_000),
}


@dataclass
class Inputs:
    gt: Trajectory            # ground truth of the scans actually run
    scans: list[np.ndarray]   # sensor-frame clouds
    initial: list[SE3Pose] | None = None
    model: SplatModel | None = None


@dataclass
class RunResult:
    attempted: int
    failed: int
    loop_s: float             # time inside timed calls, calibration excluded
    scan_ms: list[float]      # every attempted scan
    cal_s: list[float]        # calibration kernel times, taken before each scan
    passes: int
    accuracy: dict[str, float]
    fingerprint: str
    checks: list[tuple[str, bool, str]]
    final: dict[str, float]   # model size at the end of the first pass
    peak_rss_mb: float        # at the end of the timed loop, before scoring


def _no_span(name):
    return contextlib.nullcontext()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fingerprint(poses: list[SE3Pose], n_points: int) -> str:
    """Hash of the trajectory rounded to 1e-6 and the exported point count."""
    mats = np.round(np.stack([p.matrix() for p in poses]), 6) + 0.0  # folds -0.0
    h = hashlib.sha256(mats.tobytes())
    h.update(str(n_points).encode())
    return h.hexdigest()[:16]


# --- inputs -----------------------------------------------------------------


def _ground_truth(spec) -> Trajectory:
    full = make_trajectory(spec.kind, spec.length_m, spec.steps)
    return Trajectory(full.stamps[: spec.n_scans], full.poses[: spec.n_scans])


def _surface_model(scene, gt: Trajectory, spec: Reloc) -> SplatModel:
    """Splats on surfaces seen from the trajectory, aligned to the surface.

    Drawn from a fixed generator: the map is the same for every seed.
    """
    rng = np.random.default_rng(0)
    pts, nrm = scene.visible_surface_points(3 * spec.map_splats, gt.positions(), rng)
    idx = np.sort(rng.choice(len(pts), min(spec.map_splats, len(pts)), replace=False))
    pts, nrm = pts[idx], nrm[idx]
    ref = np.where(np.abs(nrm[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    ta = np.cross(nrm, ref)
    ta /= np.linalg.norm(ta, axis=1, keepdims=True)
    tb = np.cross(nrm, ta)
    model = SplatModel()
    n = len(pts)
    model.append(pts, ta, tb, np.full((n, 2), spec.splat_scale_m),
                 np.full(n, spec.splat_opacity), 0)
    return model


def build_inputs(spec, seed: int) -> Inputs:
    scene = room_with_boxes(seed=0)
    gt = _ground_truth(spec)
    scan_spec = ScanSpec(spec.width, spec.height, noise_sigma=NOISE_SIGMA)
    rng = np.random.default_rng(seed)
    scans, initial = [], []
    for pose in gt.poses:
        cloud = raycast_scan(scene, pose, scan_spec, rng).cloud
        if isinstance(spec, Reloc):
            keep = np.sort(rng.choice(len(cloud), len(cloud) // 2, replace=False))
            cloud = cloud[keep]
            axis = rng.normal(size=3)
            direction = rng.normal(size=3)
            offset = SE3Pose(
                so3_exp(np.deg2rad(spec.offset_deg) * axis / np.linalg.norm(axis)),
                spec.offset_m * direction / np.linalg.norm(direction),
            )
            initial.append(pose.compose(offset))
        scans.append(cloud)
    if isinstance(spec, Reloc):
        return Inputs(gt, scans, initial, _surface_model(scene, gt, spec))
    return Inputs(gt, scans)


def reference_points(spec) -> np.ndarray:
    scene = room_with_boxes(seed=0)
    gt = _ground_truth(spec)
    pts, _ = scene.visible_surface_points(REF_POINTS, gt.positions(), np.random.default_rng(1))
    return pts


# --- checks -----------------------------------------------------------------


def check_reference_render() -> tuple[str, bool, str]:
    """The tiled forward render equals the brute-force one on a tiny model.

    The camera is full-circle, so splats straddle the azimuth seam.
    """
    rng = np.random.default_rng(7)
    n = 120
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centers = dirs * rng.uniform(2.0, 8.0, n)[:, None]
    ta, tb = orthonormal_tangents(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
    model = SplatModel()
    model.append(centers, ta, tb, rng.uniform(0.1, 0.8, (n, 2)), rng.uniform(0.3, 0.95, n), 0)
    cam = SphericalCamera(32, 8, -np.pi, np.pi, np.deg2rad(-16.0), np.deg2rad(14.0))
    pose = SE3Pose.identity()
    tiled, _ = rasterize_forward(cam, pose, model)
    ref = reference_rasterize(cam, pose, model)
    diff = max(float(np.max(np.abs(getattr(tiled, c) - getattr(ref, c))))
               for c in ("range", "normal", "opacity"))
    covered = float(np.mean(ref.opacity > 0))
    ok = diff <= REFERENCE_TOL and covered > 0.5
    return "reference_render", ok, f"max diff {diff:.1e}, {covered:.0%} of pixels covered"


def _trajectory_checks(poses: list[SE3Pose], n_scans: int) -> list[tuple[str, bool, str]]:
    finite = all(np.all(np.isfinite(p.matrix())) for p in poses)
    return [
        ("one_row_per_scan", len(poses) == n_scans, f"{len(poses)} rows for {n_scans} scans"),
        ("finite_poses", finite, "every pose finite" if finite else "non-finite pose"),
    ]


def _accuracy(poses: list[SE3Pose], gt: Trajectory, pts: np.ndarray, ref_pts_fn) -> dict:
    """RMS translation error, mean RPE and F-score of ``pts`` against the surfaces."""
    err = np.stack([p.translation for p in poses]) - gt.positions()
    return {
        "ate_cm": float(100.0 * np.sqrt(np.mean(np.sum(err * err, axis=1)))),
        "rpe_pct": relative_pose_error(Trajectory(gt.stamps, poses), gt).mean_percent,
        "fscore_pct": reconstruction_metrics(pts, ref_pts_fn(),
                                             threshold=FSCORE_THRESHOLD_M).fscore_pct,
    }


# --- loops ------------------------------------------------------------------


def run_odometry(spec: Odometry, inputs: Inputs, seconds: float, tracer, out_root: Path,
                 ref_pts_fn) -> RunResult:
    span = tracer.span if tracer else _no_span
    gt, scans = inputs.gt, inputs.scans
    attempted = failed = 0
    loop_s = 0.0
    scan_ms: list[float] = []
    cal_s: list[float] = []
    prints: list[str] = []
    errors: list[str] = []
    first = None
    while not prints or loop_s < seconds:
        with tempfile.TemporaryDirectory(dir=out_root) as out:
            pipe = Pipeline(RunConfig(image_width=spec.width, image_height=spec.height,
                                      refine_iters=spec.refine_iters, out_dir=out))
            for i, cloud in enumerate(scans):
                if tracer:
                    tracer.scan = i
                cal_s += [calibration_s() for _ in range(CAL_PER_SCAN)]
                attempted += 1
                t0 = time.perf_counter()
                try:
                    with span("pipeline.process_scan"):
                        row = pipe.process_scan(cloud, gt.stamps[i])
                except Exception as e:  # a raising scan counts as failed; the run goes on
                    row = {"fallback": True}
                    errors.append(f"scan {i}: {type(e).__name__}: {e}")
                dt = time.perf_counter() - t0
                loop_s += dt
                scan_ms.append(1000.0 * dt)
                if row["fallback"] or not np.all(np.isfinite(pipe.pose.matrix())):
                    failed += 1
            if tracer:
                tracer.scan = -1
            t0 = time.perf_counter()
            with span("pipeline.finalize"):
                pipe.finalize()
            loop_s += time.perf_counter() - t0
            clouds = [read_ply(p)[0] for p in sorted(Path(out).glob("*.ply"))]
        poses = pipe.trajectory.poses
        n_points = sum(len(c) for c in clouds)
        prints.append(fingerprint(poses, n_points))
        if first is None:
            first = (poses, clouds, pipe.scan_rows[-1] if pipe.scan_rows else {})

    peak_rss_mb = _peak_rss_mb()
    poses, clouds, last_row = first
    checks = _trajectory_checks(poses, len(scans))
    checks.append(("no_exceptions", not errors, "; ".join(errors[:3]) or "none raised"))
    checks.append(("maps_exported", bool(clouds), f"{len(clouds)} map files"))
    checks.append(("repeats_identical", len(set(prints)) == 1,
                   f"{len(prints)} passes, {len(set(prints))} distinct"))
    accuracy = {}
    if all(ok for _, ok, _ in checks):
        A = gt.poses[0].compose(poses[0].inverse())  # align the first pose
        accuracy = _accuracy([A.compose(p) for p in poses], gt,
                             A.apply(np.concatenate(clouds)), ref_pts_fn)
    final = {"splats": last_row.get("n_splats", 0),
             "model_mb": last_row.get("model_bytes", 0) / 1e6}
    return RunResult(attempted, failed, loop_s, scan_ms, cal_s, len(prints), accuracy,
                     prints[0], checks, final, peak_rss_mb)


def run_reloc(spec: Reloc, inputs: Inputs, seconds: float, tracer, ref_pts_fn) -> RunResult:
    register = registration.register
    if tracer:
        register = tracer.wrap("registration.register", register)
    n = len(inputs.scans)
    poses: list[SE3Pose | None] = [None] * n
    attempted = failed = 0
    repeats_equal = True
    scan_ms: list[float] = []
    cal_s: list[float] = []
    loop_s = 0.0
    i = 0
    while i < n or loop_s < seconds:
        k = i % n
        i += 1
        if tracer:
            tracer.scan = k
        scan, guess = inputs.scans[k], inputs.initial[k]
        cal_s += [calibration_s() for _ in range(CAL_PER_SCAN)]
        attempted += 1
        t_cam = time.perf_counter()
        cam = estimate_camera(scan, spec.width, spec.height)
        t0 = time.perf_counter()
        try:
            pose = register(inputs.model, scan, cam, guess).pose
        except RegistrationError:
            pose, bad = guess, True
        else:
            bad = False
        t1 = time.perf_counter()
        loop_s += t1 - t_cam
        scan_ms.append(1000.0 * (t1 - t0))
        err = float(np.linalg.norm(pose.translation - inputs.gt.poses[k].translation))
        bad = bad or not np.all(np.isfinite(pose.matrix())) or not err <= RELOC_FAIL_M
        failed += bad
        if poses[k] is None:
            poses[k] = pose
        else:
            repeats_equal &= bool(np.array_equal(poses[k].matrix(), pose.matrix()))

    peak_rss_mb = _peak_rss_mb()
    gt = inputs.gt
    checks = _trajectory_checks(poses, n)
    checks.append(("repeats_identical", repeats_equal,
                   f"{attempted - n} repeated registrations"))
    accuracy = {}
    if all(ok for _, ok, _ in checks):
        pts = np.concatenate([p.apply(s) for p, s in zip(poses, inputs.scans)])
        accuracy = _accuracy(poses, gt, pts, ref_pts_fn)
    final = {"model_mb": inputs.model.memory_bytes() / 1e6}
    passes = -(-attempted // n)
    return RunResult(attempted, failed, loop_s, scan_ms, cal_s, passes, accuracy,
                     fingerprint(poses, 0), checks, final, peak_rss_mb)
