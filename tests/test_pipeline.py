import dataclasses

import numpy as np
import pytest

from splatscan import mapping, pipeline
from splatscan.errors import EvaluationError, IngestionError
from splatscan.geometry import SphericalCamera
from splatscan.io import read_ply
from splatscan.mapping import coverage
from splatscan.pipeline import Pipeline, RunConfig, export_oriented_points
from splatscan.se3 import SE3Pose, so3_exp
from splatscan.splats import SplatModel
from splatscan.synth import ScanSpec, make_trajectory, raycast_scan, room_with_boxes

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_row_is_dropped(good_scans, bad):
    # one corrupt return added to each scan: the run is the one without it
    dirty = [np.insert(scan, 3 + i, np.where(np.arange(3) == i, bad, 1.0), axis=0)
             for i, scan in enumerate(good_scans)]
    runs = []
    for scans in (good_scans, dirty):
        pipe = Pipeline(RunConfig(image_width=64, image_height=16, refine_iters=1))
        runs.append(([pipe.process_scan(s) for s in scans], pipe.trajectory.poses))
    (clean_rows, clean_poses), (rows, poses) = runs
    assert len(poses) == len(dirty)
    assert not any(row["fallback"] for row in rows)
    assert [row["n_points"] for row in rows] == [len(s) for s in good_scans]
    for p, q in zip(poses, clean_poses):
        np.testing.assert_array_equal(p.matrix(), q.matrix())


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_a_refused_stamp_leaves_no_trace(three_scans, tmp_path, bad):
    """A stamp that would break the trajectory raises before the scan changes
    any state; the next valid scan goes on as if it had never been given."""
    runs = []
    for refuse in (False, True):
        out = tmp_path / str(refuse)
        pipe = Pipeline(RunConfig(image_width=64, image_height=16, refine_iters=1,
                                  out_dir=str(out)))
        pipe.process_scan(three_scans[0], 0.0)
        if refuse:
            with pytest.raises(EvaluationError, match="strictly increasing"):
                pipe.process_scan(three_scans[1], bad)
            assert len(pipe.scan_rows) == len(pipe.poses) == len(pipe.stamps) == 1
        rows = [pipe.process_scan(s, t) for s, t in zip(three_scans[1:], (0.1, 0.2))]
        report = pipe.finalize()
        runs.append((rows, pipe.trajectory, out))
    (rows, traj, out), (rows_r, traj_r, out_r) = runs
    assert np.array_equal(traj_r.stamps, [0.0, 0.1, 0.2])
    for p, q in zip(traj_r.poses, traj.poses):
        assert np.array_equal(p.matrix(), q.matrix())
    assert [r["n_used"] for r in rows_r] == [r["n_used"] for r in rows]
    assert report["n_scans"] == 3
    for name in ("trajectory.tum", "trajectory.kitti", "report.json", "map_000.ply",
                 "map_000.splm"):
        assert (out_r / name).is_file()


@pytest.mark.parametrize("field, value, message", [
    ("image_width", 1, "image must be at least 2 x 2, not 1 x 64"),
    ("image_height", 0, "image must be at least 2 x 2, not 1024 x 0"),
    ("refine_iters", -3, "refine_iters must be at least 0, not -3"),
    ("seed", -1, "seed must be at least 0, not -1"),
    ("scan_period", 0.0, "scan_period must be finite and positive, not 0.0"),
    ("scan_period", -0.1, "scan_period must be finite and positive, not -0.1"),
    ("scan_period", np.nan, "scan_period must be finite and positive, not nan"),
    ("scan_period", np.inf, "scan_period must be finite and positive, not inf"),
    # a run would find these out only mid-scan, after appending its pose
    ("image_width", 64.5, "image_width must be an integer, not 64.5"),
    ("image_height", 16.0, "image_height must be an integer, not 16.0"),
    ("refine_iters", 2.5, "refine_iters must be an integer, not 2.5"),
    ("seed", 1.5, "seed must be an integer, not 1.5"),
])
def test_a_setting_no_run_can_use_is_refused(field, value, message):
    with pytest.raises(IngestionError, match=message):
        RunConfig(**{field: value})


@pytest.mark.parametrize("case", ["intensity_column", "flat", "three_axes"])
def test_a_cloud_that_is_not_n_by_3_is_refused(good_scans, case):
    """An x, y, z, intensity cloud is not read as x, y, z triples; a refused
    cloud changes no state, so the next good scan is still scan 0."""
    cloud = good_scans[0]
    bad = {"intensity_column": np.column_stack([cloud, np.ones(len(cloud))]),
           "flat": cloud.ravel(), "three_axes": cloud[:, None, :]}[case]
    rows = []
    for refuse in (False, True):
        pipe = Pipeline(RunConfig(image_width=64, image_height=16, refine_iters=1))
        if refuse:
            with pytest.raises(IngestionError, match=r"not \(N, 3\)"):
                pipe.process_scan(bad)
            assert not pipe.poses and not pipe.stamps and not pipe.scan_rows
        rows.append(pipe.process_scan(cloud))
    clean, after = rows
    assert after["scan"] == 0 and not after["fallback"]
    for key in ("n_points", "n_used", "valid_pixels", "n_splats"):
        assert after[key] == clean[key], key


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


def test_rows_count_the_measured_keyframe_pixels(good_scans):
    scans = [good_scans[0], BAD_SCANS["empty"], good_scans[1]]
    pipe = Pipeline(RunConfig(image_width=64, image_height=16, refine_iters=1))
    rows = [pipe.process_scan(s) for s in scans]
    counts = [int(np.count_nonzero(kf.range)) for kf in pipe.lmap.keyframes]
    assert [row["valid_pixels"] for row in rows] == [counts[0], 0, counts[1]]
    # a keyframe takes part of its scan's points, so it misses some pixels
    assert all(0 < c < 64 * 16 for c in counts)


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


def test_a_joining_scan_renders_its_view_once(three_scans, monkeypatch):
    """Before refinement, each scan that joins the map makes one render in
    mapping: range and opacity, no normals, at its keyframe's measured pixels.
    The reset check makes it and add_keyframe densifies from it."""
    events = []
    render, refine = mapping.rasterize_forward, pipeline.refine

    def spy(cam, pose, model, **kwargs):
        events.append((pose, kwargs))
        return render(cam, pose, model, **kwargs)

    def marked(*args):
        events.append("refine")
        return refine(*args)

    monkeypatch.setattr(mapping, "rasterize_forward", spy)
    monkeypatch.setattr(pipeline, "refine", marked)
    pipe = Pipeline(RunConfig(image_width=64, image_height=16, refine_iters=1))
    for i, scan in enumerate(three_scans):
        events.clear()
        assert pipe.process_scan(scan)["reset"] is None
        kf = pipe.lmap.keyframes[-1]
        before = events[:events.index("refine")]
        if i == 0:
            assert before == []  # the first keyframe seeds the map
            continue
        [(pose, kwargs)] = before
        assert pose is kf.pose
        assert kwargs["normals"] is False
        assert np.array_equal(kwargs["mask"], kf.range > 0)


def test_a_scan_that_fails_registration_joins_the_map_at_the_predicted_pose(good_scans):
    """Registration falls back on 80 points in two tight clusters 30 m out;
    the scan keeps the motion model's pose (here the first scan's) and its
    keyframe still joins the map and spawns splats."""
    rng = np.random.default_rng(1)
    clusters = np.concatenate([c + 0.05 * rng.standard_normal((40, 3))
                               for c in ([30.0, 0.0, 2.0], [0.0, 30.0, -2.0])])
    pipe = Pipeline(RunConfig(image_width=64, image_height=16, refine_iters=1))
    _, row = [pipe.process_scan(s) for s in (good_scans[0], clusters)]
    assert row["fallback"]
    assert row["fallback_reason"] == "too few residuals survive association"
    assert np.array_equal(pipe.poses[1].matrix(), pipe.poses[0].matrix())
    assert row["reset"] is None
    assert [kf.index for kf in pipe.lmap.keyframes] == [0, 1]
    assert row["spawned"] > 0


def test_a_map_that_cannot_be_exported_is_archived_without_points(tmp_path):
    """A first scan scaled by 1e6 makes a map that covers none of the next
    view, so the second scan resets it, and its export finds no surface."""
    scene = room_with_boxes(seed=0)
    rng = np.random.default_rng(0)
    scans = [raycast_scan(scene, p, ScanSpec(64, 16), rng).cloud
             for p in make_trajectory("arc", 3.0, 5).poses]
    scans[0] = scans[0] * 1e6
    pipe = Pipeline(RunConfig(image_width=64, image_height=16, refine_iters=2,
                              out_dir=str(tmp_path)))
    rows = [pipe.process_scan(s) for s in scans]
    assert [row["scan"] for row in rows] == list(range(5))
    assert rows[1]["reset"] == "coverage"
    # the reset left a fresh map, which every later scan joins
    assert [row["reset"] for row in rows[2:]] == [None] * 3
    assert [kf.index for kf in pipe.lmap.keyframes] == [1, 2, 3, 4]

    report = pipe.finalize()
    failed, exported = report["archive"]
    assert failed["export_error"] == "no confidently rendered pixels in any keyframe"
    assert failed["export_path"] is None and (tmp_path / "map_000.splm").is_file()
    assert exported["export_error"] is None
    # the scan that reset map 0 opens map 1 and belongs to it alone
    assert [(e["first_scan"], e["last_scan"]) for e in report["archive"]] == [(0, 0), (1, 4)]
    assert report["n_exported_points"] == len(read_ply(exported["export_path"])[0]) > 0
    for name in ("trajectory.tum", "trajectory.kitti", "report.json"):
        assert (tmp_path / name).is_file()


def _wall_model():
    """Splats tiling a wall at x = 3 m, 6 m wide and 2 m high."""
    y, z = np.meshgrid(np.arange(-3.0, 3.01, 0.1), np.arange(-1.0, 1.01, 0.1))
    centers = np.stack([np.full(y.size, 3.0), y.ravel(), z.ravel()], axis=1)
    n = centers.shape[0]
    model = SplatModel()
    # t_alpha x t_beta = +x: the splats' own normal faces away from the sensor
    model.append(centers, np.tile([0.0, 1.0, 0.0], (n, 1)), np.tile([0.0, 0.0, 1.0], (n, 1)),
                 np.full((n, 2), 0.08), np.full(n, 0.95), 0)
    return model


def _yawed_keyframe(index, yaw_deg):
    """A keyframe at the origin; the export reads only its camera and pose."""
    cam = SphericalCamera(64, 16, -np.pi, np.pi - 2.0 * np.pi / 64, -0.3, 0.3)
    return mapping.Keyframe(index, SE3Pose(so3_exp([0.0, 0.0, np.deg2rad(yaw_deg)]),
                                           np.zeros(3)), cam, None, None)


@pytest.mark.parametrize("yaw_deg", [0.0, 30.0, 90.0])
def test_exported_normals_are_world_frame_and_face_the_sensor(yaw_deg):
    """A wall of splats at x = 3 m, seen from the origin by a yawed keyframe:
    every exported normal is the wall's, (-1, 0, 0), in the world frame."""
    kf = _yawed_keyframe(0, yaw_deg)
    pts, nrm = export_oriented_points(mapping.LocalMap(_wall_model(), [kf]),
                                      np.random.default_rng(0))
    assert pts.shape[0] > 50
    np.testing.assert_allclose(pts[:, 0], 3.0, atol=0.05)
    angle = np.degrees(np.arccos(np.clip(nrm @ [-1.0, 0.0, 0.0], -1.0, 1.0)))
    assert angle.max() < 1.0


def test_export_caps_the_points_of_each_keyframe(monkeypatch):
    """With the cap below every keyframe's surface pixels, each keyframe
    exports exactly the cap, drawn without repeats from its uncapped export."""
    model = _wall_model()
    kfs = [_yawed_keyframe(0, 0.0), _yawed_keyframe(1, 30.0)]
    # below the cap nothing is drawn, so the map's export is its keyframes' in turn
    full = [np.concatenate(export_oriented_points(mapping.LocalMap(model, [kf]), None), axis=1)
            for kf in kfs]
    cap = 25
    assert min(len(rows) for rows in full) > cap
    monkeypatch.setattr(pipeline, "EXPORT_PER_KEYFRAME", cap)
    pts, nrm = export_oriented_points(mapping.LocalMap(model, kfs), np.random.default_rng(0))
    got = np.concatenate([pts, nrm], axis=1)
    assert got.shape == (cap * len(kfs), 6)
    for k, rows in enumerate(full):
        block = got[k * cap:(k + 1) * cap]
        assert len(np.unique(block, axis=0)) == cap
        assert (block[:, None, :] == rows[None, :, :]).all(axis=2).any(axis=1).all()
