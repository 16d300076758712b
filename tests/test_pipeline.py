import numpy as np
import pytest

from splatscan.pipeline import Pipeline, RunConfig
from splatscan.se3 import SE3Pose, so3_exp
from splatscan.synth import ScanSpec, raycast_scan, room_with_boxes

# each one raises GeometryError in camera estimation: no point off the origin,
# or zero angular extent
BAD_SCANS = {
    "empty": np.zeros((0, 3)),
    "all_at_origin": np.zeros((50, 3)),
    # five returns of one scanline: they share an elevation
    "five_points": np.array([[3.0, 0.1, 0.0], [2.0, 1.5, 0.0], [-1.0, 2.5, 0.0],
                             [-2.5, -1.0, 0.0], [1.0, -3.0, 0.0]]),
    # points along one ray from the sensor
    "collinear": np.linspace(1.0, 4.0, 30)[:, None] * np.array([[0.8, 0.5, -0.1]]),
}


@pytest.fixture(scope="module")
def good_scans():
    scene = room_with_boxes(seed=0)
    rng = np.random.default_rng(0)
    poses = [SE3Pose(so3_exp([0.0, 0.0, 0.05 * i]), [0.1 * i, 0.0, 0.0]) for i in range(2)]
    return [raycast_scan(scene, p, ScanSpec(64, 16), rng).cloud for p in poses]


@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("name", sorted(BAD_SCANS))
def test_one_trajectory_row_per_scan(good_scans, name, position):
    scans = list(good_scans)
    scans.insert(position, BAD_SCANS[name])
    pipe = Pipeline(RunConfig(image_width=64, image_height=16, refine_iters=1))
    rows = [pipe.process_scan(s) for s in scans]

    assert len(pipe.trajectory.poses) == len(scans)
    assert all(np.all(np.isfinite(p.matrix())) for p in pipe.trajectory.poses)
    bad = rows[position]
    assert bad["fallback"] and bad["fallback_reason"]
    if position == 0:
        assert bad["n_splats"] == 0 and bad["model_bytes"] == 0
    # the bad scan made no keyframe: the map holds only the good ones
    assert pipe.lmap is not None
    assert [kf.index for kf in pipe.lmap.keyframes] == [
        i for i in range(len(scans)) if i != position]
    report = pipe.finalize()
    assert report["n_scans"] == len(scans)
    assert report["fallbacks"] >= 1
