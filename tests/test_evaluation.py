import numpy as np
import pytest

from splatscan.errors import EvaluationError
from splatscan.evaluation import (
    Trajectory,
    aligned_ate,
    associate,
    reconstruction_metrics,
    voxel_downsample,
)
from splatscan.se3 import SE3Pose, so3_exp


def _random_pose(rng, t_scale=1.0, r_scale=0.3):
    return SE3Pose(so3_exp(r_scale * rng.normal(size=3)), t_scale * rng.normal(size=3))


@pytest.fixture
def trajectories():
    """A reference path and an estimate that starts at the identity and drifts."""
    rng = np.random.default_rng(3)
    ref = [_random_pose(rng, 2.0)]
    for _ in range(9):
        ref.append(ref[-1].compose(_random_pose(rng, 0.3, 0.1)))
    start = ref[0].inverse()
    est = [start.compose(p).compose(_random_pose(rng, 0.05, 0.01)) for p in ref]
    stamps = 0.1 * np.arange(len(ref))
    return Trajectory(stamps, est), Trajectory(stamps, ref)


def test_aligned_ate_moves_the_first_pose_onto_the_reference(trajectories):
    est, ref = trajectories
    # first-pose alignment as written out in the benchmark's accuracy code
    A = ref.poses[0].compose(est.poses[0].inverse())
    err = np.stack([A.compose(p).translation for p in est.poses]) - ref.positions()
    expected = float(100.0 * np.sqrt(np.mean(np.sum(err * err, axis=1))))
    assert aligned_ate(est, ref) == expected
    assert expected > 1.0


def test_aligned_ate_ignores_a_rigid_motion_of_the_estimate(trajectories):
    _, ref = trajectories
    B = SE3Pose(so3_exp([0.3, -0.2, 1.1]), [4.0, -1.0, 0.5])
    moved = Trajectory(ref.stamps, [B.compose(p) for p in ref.poses])
    assert aligned_ate(moved, ref) < 1e-9


def test_aligned_ate_aligns_the_first_associated_pose(trajectories):
    est, ref = trajectories
    late = Trajectory(est.stamps[3:] + 0.01, est.poses[3:])
    tail = Trajectory(ref.stamps[3:], ref.poses[3:])
    assert aligned_ate(late, ref, max_dt=0.02) == aligned_ate(late, tail, max_dt=0.02)
    with pytest.raises(EvaluationError):
        aligned_ate(late, ref, max_dt=0.001)


@pytest.mark.parametrize("max_dt", [-1.0, np.nan, np.inf])
def test_associate_refuses_a_window_out_of_range(trajectories, max_dt):
    est, ref = trajectories
    with pytest.raises(EvaluationError, match="max_dt must be finite and at least 0"):
        associate(est, ref, max_dt)


def test_a_zero_window_matches_equal_stamps(trajectories):
    est, ref = trajectories
    ei, ri = associate(est, ref, 0.0)
    assert np.array_equal(ei, ri) and ei.size == len(est)


@pytest.fixture
def clouds():
    rng = np.random.default_rng(4)
    ref = rng.uniform(-2.0, 2.0, (200, 3))
    return ref + rng.normal(0.0, 0.05, ref.shape), ref


@pytest.mark.parametrize("threshold", [0.0, -1.0, np.nan, np.inf])
def test_reconstruction_metrics_refuse_a_threshold_out_of_range(clouds, threshold):
    with pytest.raises(EvaluationError, match="threshold must be finite and positive"):
        reconstruction_metrics(*clouds, threshold=threshold)


@pytest.mark.parametrize("voxel", [-0.2, np.nan, np.inf])
def test_voxels_out_of_range_are_refused(clouds, voxel):
    with pytest.raises(EvaluationError, match="voxel must be finite and at least 0"):
        voxel_downsample(clouds[0], voxel)
    with pytest.raises(EvaluationError, match="voxel must be finite and at least 0"):
        reconstruction_metrics(*clouds, voxel=voxel)


def test_a_zero_voxel_keeps_every_point(clouds):
    est, ref = clouds
    kept = voxel_downsample(est, 0.0)
    assert np.array_equal(kept, est) and kept is not est
    assert reconstruction_metrics(est, ref, voxel=0.0) == reconstruction_metrics(est, ref)


@pytest.mark.parametrize("voxel", [1e-300, 1e-19])
def test_a_voxel_whose_index_overflows_int64_is_refused(clouds, voxel):
    # the points reach 2 m, so 2 / voxel is past 2**63 ~ 9.2e18
    with pytest.raises(EvaluationError, match="voxel index overflows int64"):
        voxel_downsample(clouds[0], voxel)
    with pytest.raises(EvaluationError, match="voxel index overflows int64"):
        reconstruction_metrics(*clouds, voxel=voxel)


def test_a_voxel_whose_index_fits_int64_keeps_apart_points(clouds):
    # 2 / 1e-18 is below 2**63: every point keeps a voxel of its own
    est, ref = clouds
    kept = voxel_downsample(est, 1e-18)
    assert np.array_equal(np.unique(kept, axis=0), np.unique(est, axis=0))
    assert (reconstruction_metrics(est, ref, voxel=1e-18).fscore_pct
            == reconstruction_metrics(est, ref).fscore_pct)
