import numpy as np
import pytest

from splatscan.errors import EvaluationError
from splatscan.evaluation import Trajectory, aligned_ate
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
