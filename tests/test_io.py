import struct

import numpy as np
import pytest

from splatscan.errors import IngestionError
from splatscan.evaluation import Trajectory
from splatscan.io import (
    load_model,
    load_trajectory,
    read_ply,
    save_model,
    save_trajectory,
    write_pfm,
    write_ply,
)
from splatscan.se3 import SE3Pose, so3_exp
from splatscan.splats import SplatModel, orthonormal_tangents

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
    for given in (fmt, None):  # the column count tells the format apart
        got = load_trajectory(path, given)
        assert len(got) == n
        for a, b in zip(traj.poses, got.poses):
            assert np.max(np.abs(a.matrix() - b.matrix())) <= 1e-12
        if fmt == "tum":
            assert np.array_equal(got.stamps, traj.stamps)


def test_kitti_row_with_a_nan_translation_raises(tmp_path):
    path = tmp_path / "traj.txt"
    path.write_text("1 0 0 nan 0 1 0 0 0 0 1 0\n")
    with pytest.raises(IngestionError, match="translation"):
        load_trajectory(path)


def test_empty_trajectory_file_raises(tmp_path):
    path = tmp_path / "traj.txt"
    path.write_text("")
    with pytest.raises(IngestionError, match="empty"):
        load_trajectory(path)


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
