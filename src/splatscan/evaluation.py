"""Trajectory and reconstruction quality metrics.

Absolute trajectory error (ATE) is the RMS position error after the
first associated estimated pose is moved onto its reference.  Relative
pose error follows the usual odometry protocol: estimated and
reference trajectories are associated by nearest timestamp, then for a
set of path-length deltas every start pose is paired with the first pose
at least that far along the reference path, and the translational error
of the relative motion is reported as a percentage of distance traveled.

Reconstruction metrics compare two point clouds by nearest neighbors:
accuracy (estimate to reference), completeness (reference to estimate),
their mean, and the F-score at an inlier threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import EvaluationError
from .se3 import SE3Pose

__all__ = [
    "Trajectory",
    "RPEResult",
    "ReconMetrics",
    "associate",
    "aligned_ate",
    "relative_pose_error",
    "voxel_downsample",
    "reconstruction_metrics",
]

RPE_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5)  # RPE deltas, as shares of the path length
MAX_DIST_M = 2.0  # reconstruction distances are clamped here, so outliers cannot dominate


@dataclass
class Trajectory:
    """Timestamped poses (sensor in world), timestamps finite and strictly increasing."""

    stamps: np.ndarray
    poses: list[SE3Pose]

    def __post_init__(self):
        self.stamps = np.asarray(self.stamps, dtype=float).reshape(-1)
        if len(self.stamps) != len(self.poses):
            raise EvaluationError("timestamps and poses disagree in length")
        if not np.all(np.isfinite(self.stamps)):
            raise EvaluationError("timestamps must be finite")
        if len(self.stamps) > 1 and np.any(np.diff(self.stamps) <= 0):
            raise EvaluationError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.poses)

    def positions(self) -> np.ndarray:
        if not self.poses:
            return np.zeros((0, 3))
        return np.stack([p.translation for p in self.poses])


def _require(name: str, value: float, positive: bool = False) -> None:
    """Raise :class:`EvaluationError` unless ``value`` is finite and at least
    0, or above 0 if ``positive``."""
    value = float(value)
    if not (np.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        rule = "positive" if positive else "at least 0"
        raise EvaluationError(f"{name} must be finite and {rule}, not {value}")


def associate(
    est: Trajectory, ref: Trajectory, max_dt: float = 0.05
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of timestamp-matched pose pairs within ``max_dt`` seconds.

    ``max_dt`` must be finite and at least 0.
    """
    _require("max_dt", max_dt)
    if len(est) == 0 or len(ref) == 0:
        raise EvaluationError("cannot associate empty trajectories")
    j = np.searchsorted(ref.stamps, est.stamps)
    j_lo = np.clip(j - 1, 0, len(ref) - 1)
    j_hi = np.clip(j, 0, len(ref) - 1)
    pick = np.where(
        np.abs(ref.stamps[j_hi] - est.stamps)
        < np.abs(ref.stamps[j_lo] - est.stamps),
        j_hi,
        j_lo,
    )
    ok = np.abs(ref.stamps[pick] - est.stamps) <= max_dt
    if not np.any(ok):
        raise EvaluationError("no timestamp overlap between trajectories")
    return np.nonzero(ok)[0], pick[ok]


def aligned_ate(est: Trajectory, ref: Trajectory, max_dt: float = 0.05) -> float:
    """RMS position error in centimeters, first associated pose aligned.

    The rigid motion that carries the first timestamp-matched estimated
    pose onto its reference is applied to every estimated pose, so a run
    that starts at the identity is scored against a reference that does not.
    """
    ei, ri = associate(est, ref, max_dt)
    A = ref.poses[ri[0]].compose(est.poses[ei[0]].inverse())
    err = np.stack([A.compose(est.poses[i]).translation - ref.poses[j].translation
                    for i, j in zip(ei, ri)])
    return float(100.0 * np.sqrt(np.mean(np.sum(err * err, axis=1))))


@dataclass
class RPEResult:
    """Translational drift in percent, per path-length delta and averaged."""

    per_delta: dict[float, float]
    mean_percent: float
    deltas_m: dict[float, float] = field(default_factory=dict)


def relative_pose_error(
    est: Trajectory,
    ref: Trajectory,
    max_dt: float = 0.05,
) -> RPEResult:
    """Percent translational RPE over the path-length deltas of ``RPE_FRACTIONS``."""
    ei, ri = associate(est, ref, max_dt)
    if len(ei) < 2:
        raise EvaluationError("need at least two associated poses")
    e_poses = [est.poses[i] for i in ei]
    r_poses = [ref.poses[i] for i in ri]
    pos = np.stack([p.translation for p in r_poses])
    seg = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total <= 0:
        raise EvaluationError("reference path has zero length")

    per: dict[float, float] = {}
    meters: dict[float, float] = {}
    for frac in RPE_FRACTIONS:
        delta = frac * total
        errs = []
        for i in range(len(cum)):
            target = cum[i] + delta
            if target > cum[-1] + 1e-12:
                break
            j = int(np.searchsorted(cum, target - 1e-12, side="left"))
            if j <= i:
                continue
            dist = cum[j] - cum[i]
            if dist <= 0:
                continue
            rel_ref = r_poses[i].inverse().compose(r_poses[j])
            rel_est = e_poses[i].inverse().compose(e_poses[j])
            err = rel_ref.inverse().compose(rel_est)
            errs.append(np.linalg.norm(err.translation) / dist * 100.0)
        if errs:
            per[frac] = float(np.mean(errs))
            meters[frac] = delta
    if not per:
        raise EvaluationError("trajectory too short for the requested deltas")
    return RPEResult(per, float(np.mean(list(per.values()))), meters)


def voxel_downsample(points: np.ndarray, voxel: float) -> np.ndarray:
    """One representative (centroid) point per occupied voxel.

    ``voxel`` must be finite and at least 0; 0 returns a copy of the points.
    A voxel so small that a point's voxel index does not fit int64 raises
    :class:`EvaluationError`.
    """
    _require("voxel", voxel)
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    if p.shape[0] == 0 or voxel == 0:
        return p.copy()
    with np.errstate(over="ignore"):
        keys = np.floor(p / voxel)
    if not np.all((keys >= -(2.0**63)) & (keys < 2.0**63)):
        raise EvaluationError(f"voxel {voxel} is too small: a voxel index overflows int64")
    keys = keys.astype(np.int64)
    _, inv, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    sums = np.zeros((counts.shape[0], 3))
    np.add.at(sums, inv, p)
    return sums / counts[:, None]


@dataclass
class ReconMetrics:
    """Cloud-to-cloud distances in centimeters, F-score in percent."""

    accuracy_cm: float
    completeness_cm: float
    chamfer_cm: float
    precision_pct: float
    recall_pct: float
    fscore_pct: float
    threshold_m: float


def reconstruction_metrics(
    est: np.ndarray,
    ref: np.ndarray,
    threshold: float = 0.2,
    voxel: float = 0.0,
) -> ReconMetrics:
    """Accuracy/completeness/F-score of ``est`` against reference ``ref``.

    Distances are clamped at ``MAX_DIST_M`` before averaging.  ``voxel``
    downsamples both clouds first (see :func:`voxel_downsample`); 0, the
    default, keeps every point.
    ``threshold`` must be finite and positive.
    """
    _require("threshold", threshold, positive=True)
    est = np.asarray(est, dtype=float).reshape(-1, 3)
    ref = np.asarray(ref, dtype=float).reshape(-1, 3)
    if est.shape[0] == 0 or ref.shape[0] == 0:
        raise EvaluationError("empty cloud in reconstruction metrics")
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(ref))):
        raise EvaluationError("non-finite point in reconstruction metrics")
    est = voxel_downsample(est, voxel)
    ref = voxel_downsample(ref, voxel)
    d_er, _ = cKDTree(ref).query(est)
    d_re, _ = cKDTree(est).query(ref)
    acc = float(np.mean(np.minimum(d_er, MAX_DIST_M)))
    com = float(np.mean(np.minimum(d_re, MAX_DIST_M)))
    prec = float(np.mean(d_er <= threshold) * 100.0)
    rec = float(np.mean(d_re <= threshold) * 100.0)
    f = 0.0 if prec + rec == 0 else 2.0 * prec * rec / (prec + rec)
    return ReconMetrics(
        acc * 100.0, com * 100.0, 0.5 * (acc + com) * 100.0, prec, rec, f, threshold
    )
