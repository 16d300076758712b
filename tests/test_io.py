import struct

import numpy as np
import pytest

from splatscan.cli import main
from splatscan.errors import IngestionError
from splatscan.evaluation import Trajectory
from splatscan.io import (
    load_model,
    load_scan,
    read_ply,
    read_trajectory,
    save_model,
    save_trajectory,
    write_pfm,
    write_ply,
)
from splatscan.se3 import SE3Pose, so3_exp
from splatscan.splats import SplatModel, orthonormal_tangents
from splatscan.synth import Box, Plane, Scene, Sphere, load_scene, room_with_boxes, save_scene

SIZES = [0, 1, 7]


def _write_ascii_ply(path, points, normals=None):
    """An ASCII PLY of double properties, as another program would write it."""
    names = ["x", "y", "z"] + ([] if normals is None else ["nx", "ny", "nz"])
    data = points if normals is None else np.concatenate([points, normals], axis=1)
    lines = ["ply", "format ascii 1.0", f"element vertex {len(points)}"]
    lines += [f"property double {n}" for n in names] + ["end_header"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in data]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("write", [write_ply, _write_ascii_ply], ids=["binary", "ascii"])
@pytest.mark.parametrize("with_normals", [False, True], ids=["points", "normals"])
@pytest.mark.parametrize("n", SIZES)
def test_ply_round_trip_is_exact(tmp_path, rng, write, with_normals, n):
    points = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    normals = rng.normal(size=(n, 3)) if with_normals else None
    path = tmp_path / "cloud.ply"
    write(path, points, normals)
    got, got_normals = read_ply(path)
    assert got.shape == (n, 3)
    assert np.array_equal(got, points)
    if with_normals:
        assert got_normals.shape == (n, 3)
        assert np.array_equal(got_normals, normals)
    else:
        assert got_normals is None


def test_truncated_ascii_ply_raises(tmp_path, rng):
    path = tmp_path / "cloud.ply"
    _write_ascii_ply(path, rng.normal(size=(4, 3)))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(IngestionError, match="truncated"):
        read_ply(path)


@pytest.mark.parametrize("write", [write_ply, _write_ascii_ply], ids=["binary", "ascii"])
@pytest.mark.parametrize("count", ["3000000000", "99999999999999999999"])
def test_a_vertex_count_beyond_the_body_is_truncation(tmp_path, rng, write, count):
    """The count is weighed against the body before any vertex is read."""
    path = tmp_path / "cloud.ply"
    write(path, rng.normal(size=(1, 3)))
    path.write_bytes(path.read_bytes().replace(b"element vertex 1\n",
                                               f"element vertex {count}\n".encode()))
    with pytest.raises(IngestionError, match="truncated"):
        read_ply(path)


def test_a_vertex_element_after_another_is_refused(tmp_path):
    """Only the vertex element is read, from the start of the body: a camera
    element before it would be read as the first vertex."""
    header = ["ply", "format binary_little_endian 1.0", "element camera 1",
              "property double f", "element vertex 2"]
    header += [f"property double {n}" for n in "xyz"] + ["end_header"]
    path = tmp_path / "cloud.ply"
    path.write_bytes(("\n".join(header) + "\n").encode("ascii")
                     + np.array([99.0, 0, 1, 2, 3, 4, 5]).astype("<f8").tobytes())
    with pytest.raises(IngestionError, match="vertex element must be the first"):
        read_ply(path)


@pytest.mark.parametrize("line, message", [
    ("element vertex abc", "malformed PLY header line 'element vertex abc'"),
    ("element vertex -1", "malformed PLY header line 'element vertex -1'"),
    ("element vertex", "malformed PLY header line 'element vertex'"),
    ("format", "malformed PLY header line 'format'"),
    ("property double", "malformed PLY header line 'property double'"),
    ("property double y", "PLY vertex property 'y' appears twice"),
])
def test_a_malformed_ply_header_line_is_refused(tmp_path, rng, line, message):
    path = tmp_path / "cloud.ply"
    _write_ascii_ply(path, rng.normal(size=(2, 3)))
    lines = path.read_text().splitlines()
    keyword = line.split()[0]
    at = next(i for i, text in enumerate(lines) if text.startswith(keyword))
    path.write_text("\n".join(lines[:at] + [line] + lines[at + 1:]) + "\n")
    with pytest.raises(IngestionError, match=message):
        read_ply(path)


def _trajectory(rng, n):
    poses = [SE3Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3) * 20.0)
             for _ in range(n)]
    return Trajectory(np.cumsum(rng.uniform(0.05, 0.15, n)), poses)


@pytest.mark.parametrize("fmt", ["tum", "kitti"])
@pytest.mark.parametrize("n", [1, 9])
def test_trajectory_round_trip(tmp_path, rng, fmt, n):
    traj = _trajectory(rng, n)
    path = tmp_path / f"traj.{fmt}"
    save_trajectory(traj, path, fmt)
    got, got_fmt = read_trajectory(path)  # the column count tells the format apart
    assert got_fmt == fmt
    assert len(got) == n
    for a, b in zip(traj.poses, got.poses):
        assert np.max(np.abs(a.matrix() - b.matrix())) <= 1e-12
    if fmt == "tum":
        assert np.array_equal(got.stamps, traj.stamps)


@pytest.mark.parametrize("ncols", [7, 9, 13])
def test_trajectory_of_another_column_count_raises(tmp_path, ncols):
    path = tmp_path / "traj.txt"
    path.write_text(" ".join(["0"] * ncols) + "\n")
    with pytest.raises(IngestionError, match=f"from {ncols} columns"):
        read_trajectory(path)


# 3x3 blocks whose determinant is not positive: reflections, which a snap
# onto SO(3) would turn into another rotation, and a singular block
NOT_ROTATIONS = {
    "mirror_z": np.diag([1.0, 1.0, -1.0]),
    "swap_xy": np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    "point_reflection": -np.eye(3),
    "singular": np.diag([1.0, 1.0, 0.0]),
}


@pytest.mark.parametrize("name", sorted(NOT_ROTATIONS))
def test_kitti_row_with_a_reflection_raises(tmp_path, name):
    rows = [np.eye(3), NOT_ROTATIONS[name]]
    path = tmp_path / "traj.txt"
    path.write_text("".join(
        " ".join(f"{v:g}" for v in np.concatenate([R, [[1.0], [2.0], [3.0]]], axis=1).ravel())
        + "\n" for R in rows))
    with pytest.raises(IngestionError, match="determinant"):
        read_trajectory(path)


def test_kitti_row_with_a_nan_translation_raises(tmp_path):
    path = tmp_path / "traj.txt"
    path.write_text("1 0 0 nan 0 1 0 0 0 0 1 0\n")
    with pytest.raises(IngestionError, match="translation"):
        read_trajectory(path)


def test_empty_trajectory_file_raises(tmp_path):
    path = tmp_path / "traj.txt"
    path.write_text("")
    with pytest.raises(IngestionError, match="empty"):
        read_trajectory(path)


def _write_bin(path, records):
    np.asarray(records, dtype="<f4").tofile(path)


def test_bin_scan_drops_intensity_and_non_finite_rows(tmp_path, rng):
    records = rng.normal(size=(10, 4)).astype("<f4")
    records[2, 0] = np.nan
    records[5, 2] = np.inf
    records[7, 3] = np.nan  # a bad intensity alone keeps the point
    path = tmp_path / "scan.bin"
    _write_bin(path, records)
    pts = load_scan(path)
    keep = [i for i in range(10) if i not in (2, 5)]
    assert pts.shape == (8, 3) and pts.dtype == float
    assert np.array_equal(pts, records[keep, :3].astype(float))


@pytest.mark.parametrize("name, data, message", [
    ("scan.bin", np.zeros(0), "empty scan file"),
    ("scan.bin", np.ones(10), "truncated scan file"),
    ("scan.bin", np.full((3, 4), np.nan), "no finite points"),
    ("scan.xyz", np.ones((3, 4)), "unknown scan format '.xyz'"),
    ("missing.bin", None, "scan file not found"),
    # two whole records, then 2 bytes of a third
    pytest.param("scan.bin", np.ones((2, 4), "<f4").tobytes() + b"\0\0",
                 r"truncated scan file: .* \(34 bytes\)",
                 id="scan.bin-stray_bytes-truncated scan file"),
])
def test_bad_scan_file_raises(tmp_path, name, data, message):
    path = tmp_path / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    elif data is not None:
        _write_bin(path, data)
    with pytest.raises(IngestionError, match=message):
        load_scan(path)


def _model(rng, n):
    ta, tb = orthonormal_tangents(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
    model = SplatModel()
    model.append(rng.normal(size=(n, 3)) * 5.0, ta * 1.5, tb,
                 rng.uniform(0.01, 1.0, (n, 2)), rng.uniform(0.05, 0.95, n), 0)
    return model


# the ids name the file kind: save_model writes binary files only
@pytest.mark.parametrize("n", SIZES + [2000], ids=lambda n: f"{n}-binary")
def test_model_round_trip(tmp_path, rng, n):
    model = _model(rng, n)
    path = tmp_path / "map.splm"
    save_model(path, model)
    got = load_model(path)
    assert len(got) == n
    assert np.array_equal(got.params, model.params)


def test_model_file_column_order(tmp_path):
    values = np.arange(1.0, 13.0)
    path = tmp_path / "one.splm"
    path.write_bytes(b"SPLM" + struct.pack("<IQ", 2, 1) + values.astype("<f8").tobytes())
    got = load_model(path)
    assert len(got) == 1
    expected = {"centers": [1, 2, 3], "raw_t_alpha": [4, 5, 6], "raw_t_beta": [7, 8, 9],
                "log_scales": [10, 11], "logit_opacity": 12}
    for name, want in expected.items():
        assert np.array_equal(getattr(got, name)[0], want), name


def _corrupt(path, how):
    """Rewrite a saved model file: an old version, a short body, an inf or a text header."""
    data = path.read_bytes()
    if how == "v1":
        data = data[:4] + (1).to_bytes(4, "little") + data[8:]
    elif how == "truncated":
        data = data[: 2 * len(data) // 3]
    elif how == "non_finite":
        data = data[:-8] + np.float64(np.inf).tobytes()
    else:
        data = b"# splat-model v2 count=0\n"
    path.write_bytes(data)


@pytest.mark.parametrize("how, message", [
    pytest.param("v1", "unsupported model version 1", id="v1-unsupported model version 1-binary"),
    pytest.param("truncated", None, id="truncated-None-binary"),
    pytest.param("non_finite", "non-finite", id="non_finite-non-finite-binary"),
    pytest.param("text", "not a splat model file", id="text-not a splat model file"),
])
def test_bad_model_file_raises(tmp_path, rng, how, message):
    path = tmp_path / "map.splm"
    save_model(path, _model(rng, 7))
    _corrupt(path, how)
    with pytest.raises(IngestionError, match=message):
        load_model(path)


def read_pfm(path) -> np.ndarray:
    """A PFM file as a float array, top row first (PFM stores rows bottom-up)."""
    with open(path, "rb") as fh:
        kind = fh.readline().strip()
        assert kind in (b"Pf", b"PF"), kind
        w, h = (int(x) for x in fh.readline().split())
        endian = "<" if float(fh.readline()) < 0 else ">"
        channels = 3 if kind == b"PF" else 1
        img = np.frombuffer(fh.read(), dtype=endian + "f4")
    assert img.size == w * h * channels
    shape = (h, w, 3) if channels == 3 else (h, w)
    return img.reshape(shape)[::-1].astype(float)


@pytest.mark.parametrize("shape", [(5, 7), (5, 7, 3)], ids=["1ch", "3ch"])
def test_pfm_round_trip_is_exact_in_float32(tmp_path, rng, shape):
    image = rng.normal(size=shape) * 100.0
    path = tmp_path / "image.pfm"
    write_pfm(path, image)
    got = read_pfm(path)
    assert got.shape == shape
    assert np.array_equal(got, image.astype(np.float32))


def test_scene_round_trip_is_exact(tmp_path, rng):
    scene = room_with_boxes(seed=0)
    save_scene(tmp_path / "scene.txt", scene)
    loaded = load_scene(tmp_path / "scene.txt")
    assert [type(p) for p in loaded.primitives] == [type(p) for p in scene.primitives]
    assert {Box, Sphere} == set(map(type, scene.primitives))
    for a, b in zip(scene.primitives, loaded.primitives):
        for name, value in vars(a).items():
            assert np.array_equal(getattr(b, name), value), name
    # inside the 12 x 12 x 4 m room, whose walls every ray then hits
    origins = rng.uniform([-5.0, -5.0, -1.5], [5.0, 5.0, 1.5], (2000, 3))
    dirs = rng.normal(size=(2000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    hits = scene.raycast(origins, dirs)
    assert np.isfinite(hits).all()
    assert np.array_equal(loaded.raycast(origins, dirs), hits)


def test_plane_records_round_trip(tmp_path, rng):
    """A plane's axes are orthonormalised again on load, which moves them by
    rounding (at most 2.2e-16 over these planes); the rest is exact."""
    planes = [Plane(rng.uniform(-5.0, 5.0, 3), *so3_exp(rng.normal(size=3)).T[:2],
                    *rng.uniform(0.1, 3.0, 2)) for _ in range(200)]
    save_scene(tmp_path / "scene.txt", Scene(planes))
    for a, b in zip(planes, load_scene(tmp_path / "scene.txt").primitives):
        assert np.array_equal(b.origin, a.origin)
        assert (b.half_u, b.half_v) == (a.half_u, a.half_v)
        np.testing.assert_allclose(b.e_u, a.e_u, rtol=0, atol=1e-14)
        np.testing.assert_allclose(b.e_v, a.e_v, rtol=0, atol=1e-14)


@pytest.mark.parametrize("text, message", [
    ("sphere 0 0 0 1\nbox 0 0 0 1 1\n", "unrecognized record 'box'"),
    ("sphere 0 0 0 1\ncone 0 0 0 1\n", "unrecognized record 'cone'"),
    ("sphere 0 0 x 1\n", "bad number"),
    ("# only a comment\n", "no primitives found"),
    ("plane 0 0 0 0 0 0 0 1 0 1 1\n", "plane axes are zero or parallel"),
    ("plane 0 0 0 1 0 0 2 0 0 1 1\n", "plane axes are zero or parallel"),
    ("plane 0 0 0 1 0 0 0 1 0 1 0\n", "plane values must be finite, sizes positive"),
    ("sphere 0 0 0 -1\n", "sphere values must be finite, sizes positive"),
    ("box 0 0 0 1 0 1\n", "box values must be finite, sizes positive"),
    ("sphere 0 0 0 1\nbox 0 0 nan 1 1 1\n", "box values must be finite, sizes positive"),
    ("sphere 0 inf 0 1\n", "sphere values must be finite, sizes positive"),
])
def test_malformed_scene_record(tmp_path, capsys, text, message):
    path = tmp_path / "scene.txt"
    path.write_text(text)
    with pytest.raises(IngestionError, match=message):
        load_scene(path)
    argv = ["synth", "--out", str(tmp_path / "out"), "--scene", str(path), "--steps", "1",
            "--width", "8", "--height", "4"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
