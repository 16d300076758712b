import dataclasses

import numpy as np
import pytest

from splatscan import mapping
from splatscan.io import read_ply
from splatscan.mapping import coverage
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


def _run(scans, seed, out_dir):
    pipe = Pipeline(RunConfig(image_width=64, image_height=16, refine_iters=1, seed=seed,
                              out_dir=str(out_dir)))
    rows = [pipe.process_scan(s) for s in scans]
    pipe.finalize()
    points = [read_ply(p) for p in sorted(out_dir.glob("map_*.ply"))]
    return pipe.trajectory, points, rows


@pytest.fixture(scope="module")
def three_scans(good_scans):
    scene = room_with_boxes(seed=0)
    pose = SE3Pose(so3_exp([0.0, 0.0, 0.1]), [0.2, 0.05, 0.0])
    return good_scans + [raycast_scan(scene, pose, ScanSpec(64, 16),
                                      np.random.default_rng(1)).cloud]


@pytest.mark.parametrize("seed", [0, 7])
def test_fixed_seed_gives_identical_runs(three_scans, tmp_path, seed):
    traj_a, pts_a, _ = _run(three_scans, seed, tmp_path / "a")
    traj_b, pts_b, _ = _run(three_scans, seed, tmp_path / "b")
    assert np.array_equal(traj_a.stamps, traj_b.stamps)
    assert len(traj_a.poses) == len(traj_b.poses) == 3
    for pa, pb in zip(traj_a.poses, traj_b.poses):
        assert np.array_equal(pa.matrix(), pb.matrix())
    assert pts_a and len(pts_a) == len(pts_b)
    for (xa, na), (xb, nb) in zip(pts_a, pts_b):
        assert xa.shape[0] > 0
        assert np.array_equal(xa, xb) and np.array_equal(na, nb)


def test_registered_scans_report_their_residuals(three_scans, tmp_path):
    _, _, rows = _run(three_scans, 0, tmp_path)
    assert "n_geo" not in rows[0]  # the first scan opens the map unregistered
    for row in rows[1:]:
        assert not row["fallback"]
        assert row["n_geo"] > 0 and row["n_photo"] > 0
        assert np.isfinite(row["geo_rms"]) and row["geo_rms"] > 0.0
        assert np.isfinite(row["photo_rms"]) and row["photo_rms"] > 0.0


LOSS_TERMS = {"total", "range", "opacity", "normal", "scale"}


def test_refined_scans_report_their_loss_by_term(three_scans, tmp_path):
    _, _, rows = _run(three_scans, 0, tmp_path)
    for row in rows:
        for key in ("refine_loss_first", "refine_loss_last"):
            assert set(row[key]) == LOSS_TERMS
            assert all(np.isfinite(v) for v in row[key].values())
        assert row["refine_loss_first"]["total"] > 0.0


def test_unrefined_scans_report_no_loss(good_scans):
    pipe = Pipeline(RunConfig(image_width=64, image_height=16, refine_iters=0))
    for row in (pipe.process_scan(s) for s in good_scans):
        assert "refine_loss_first" not in row and "refine_loss_last" not in row


def test_rows_count_the_splats_mapping_spawned_and_pruned(three_scans, tmp_path):
    _, _, rows = _run(three_scans, 0, tmp_path)
    assert [row["reset"] for row in rows] == [None, None, None]
    assert rows[0]["spawned"] > 0 and rows[0]["pruned"] == 0
    for before, row in zip(rows, rows[1:]):
        assert row["n_splats"] == before["n_splats"] + row["spawned"] - row["pruned"]


# settings under which the second scan opens a new map, by trigger
TRIGGERS = {
    "keyframes": {"max_keyframes": 1},
    "radius": {"reset_radius": 0.05},   # the second scan is 0.1 m away
    "coverage": {"coverage_min": 1.01},  # mean opacity is below 1
}


@pytest.mark.parametrize("trigger", sorted(TRIGGERS))
def test_rows_name_the_reset_trigger(good_scans, monkeypatch, trigger):
    monkeypatch.setattr(mapping, "MAPPING_CONFIG",
                        dataclasses.replace(mapping.MAPPING_CONFIG, **TRIGGERS[trigger]))
    pipe = Pipeline(RunConfig(image_width=64, image_height=16, refine_iters=1))
    rows = [pipe.process_scan(s) for s in good_scans]
    assert [row["reset"] for row in rows] == [None, trigger]
    # only the coverage trigger comes after the check's render
    assert (rows[1]["coverage"] is None) == (trigger != "coverage")
    assert len(pipe.archive) == 1
    # the new map is seeded from the second scan alone
    assert rows[1]["spawned"] == rows[1]["n_splats"] > 0


def test_rows_report_the_coverage_the_reset_check_measured(good_scans, monkeypatch):
    measured = []

    def recorded(render, kf):
        measured.append(coverage(render, kf))
        return measured[-1]

    monkeypatch.setattr(mapping, "coverage", recorded)
    pipe = Pipeline(RunConfig(image_width=64, image_height=16, refine_iters=1))
    rows = [pipe.process_scan(s) for s in good_scans]
    assert rows[0]["coverage"] is None  # no map to check against yet
    assert [row["coverage"] for row in rows[1:]] == measured
    assert 0.0 < measured[0] <= 1.0
