"""Exit codes of the command-line front end: 0 success, 1 usage,
2 unreadable or malformed data, 3 numerical failure."""

import dataclasses
import json

import numpy as np
import pytest

from splatscan import cli, mapping
from splatscan.cli import main
from splatscan.io import save_model, write_ply
from splatscan.rasterizer import rasterize_forward
from splatscan.splats import SplatModel

SMALL = ["--set", "image_width=64", "--set", "image_height=16", "--set", "refine_iters=1"]


@pytest.fixture(scope="module")
def scans(tmp_path_factory):
    out = tmp_path_factory.mktemp("scans")
    assert main(["synth", "--out", str(out), "--steps", "2", "--width", "64",
                 "--height", "16", "--seed", "0"]) == 0
    assert len(list(out.glob("scan_*.ply"))) == 2
    return out


def test_run_succeeds(scans, tmp_path, capsys):
    assert main(["run", str(scans), "--out", str(tmp_path)] + SMALL) == 0
    assert "processed 2 scans" in capsys.readouterr().out
    assert (tmp_path / "trajectory.tum").is_file()
    assert list(tmp_path.glob("map_*.ply"))


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["no-such-command"]) == 1


def test_missing_scan_file(tmp_path, capsys):
    missing = tmp_path / "missing.ply"
    assert main(["run", str(missing), "--out", str(tmp_path / "out")]) == 2
    assert "scan file not found" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ("mapping.no_such_key=1", "unknown config key"),
    ("raster.tile_size=16", "unknown config key"),
    ("mapping=3", "unknown config key"),
    # fixed settings: one value in use, so no key sets them
    ("mapping.w_scale=1", "unknown config key"),
    ("registration.max_iters=3", "unknown config key"),
    ("scan_fraction=0.3", "unknown config key"),
    ("keyframe_every=2", "unknown config key"),
    ("refine_iters=abc", "expects int"),
    ("refine_iters=2.5", "expects int"),
    ("scan_period=yes", "expects float"),
])
def test_bad_override_is_malformed_data(scans, tmp_path, capsys, override, message):
    assert main(["run", str(scans), "--out", str(tmp_path), "--set", override]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("source", ["set", "config"])
def test_out_dir_comes_from_out_only(scans, tmp_path, capsys, source):
    other = tmp_path / "other"
    if source == "set":
        extra = ["--set", f"out_dir={other}"]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"out_dir = {other}\n")
        extra = ["--config", str(config)]
    assert main(["run", str(scans), "--out", str(tmp_path / "out")] + SMALL + extra) == 2
    assert "--out" in capsys.readouterr().err
    assert not other.exists() and not (tmp_path / "out").exists()


def test_nothing_to_export_is_a_numerical_failure(scans, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mapping, "MAPPING_CONFIG",
                        dataclasses.replace(mapping.MAPPING_CONFIG, opacity_init=0.01))
    argv = ["run", str(scans), "--out", str(tmp_path)] + SMALL + ["--set", "refine_iters=0"]
    assert main(argv) == 3
    assert "no confidently rendered pixels" in capsys.readouterr().err


@pytest.fixture(scope="module")
def run_dir(scans, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["run", str(scans), "--out", str(out)] + SMALL) == 0
    return out


def test_info_reads_the_archived_model(run_dir, capsys):
    report = json.loads((run_dir / "report.json").read_text())
    entry = report["archive"][0]
    assert entry["model_path"] == str(run_dir / "map_000.splm")
    capsys.readouterr()
    assert main(["info", entry["model_path"]]) == 0
    assert f"model: {entry['n_splats']} splats" in capsys.readouterr().out


def test_render_reads_the_archived_model(run_dir, tmp_path, capsys, monkeypatch):
    cams = []

    def capture(cam, *args, **kwargs):
        cams.append(cam)
        return rasterize_forward(cam, *args, **kwargs)

    monkeypatch.setattr(cli, "rasterize_forward", capture)
    prefix = tmp_path / "view"
    argv = ["render", str(run_dir / "map_000.splm"), "--out", str(prefix),
            "--width", "64", "--height", "16"]
    assert main(argv) == 0
    for channel in ("range", "normal", "opacity"):
        assert (tmp_path / f"view.{channel}.pfm").is_file(), channel
    # 64 columns one pitch apart all round: the seam is not rendered twice
    az, _ = cams[0].angles_of(np.array([[0.0, 0.0], [1.0, 0.0], [63.0, 0.0]]))
    pitch = 2.0 * np.pi / 64
    assert az[0] - az[1] == pytest.approx(pitch)
    assert 2.0 * np.pi - (az[0] - az[2]) == pytest.approx(pitch)


@pytest.mark.parametrize("damage, message", [
    ("truncated", "model file size does not match its count"),
    ("inf", "non-finite values in model file"),
])
def test_info_reports_a_damaged_model(tmp_path, capsys, damage, message):
    path = _small_model_file(tmp_path / "map.splm")
    data = path.read_bytes()
    path.write_bytes(data[:-20] if damage == "truncated"
                     else data[:-8] + np.float64(np.inf).tobytes())
    assert main(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "unknown scan format" not in err


def _small_model_file(path):
    model = SplatModel()
    model.append(np.ones((3, 3)), np.eye(3), np.roll(np.eye(3), 1, axis=1),
                 np.full((3, 2), 0.1), np.full(3, 0.5), 0)
    save_model(path, model)
    return path


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("tail", ["0 0 0 0", "nan 0 0 1", "nan 0 0 0 0 0 1", "1 0 inf 0 0 0 1"])
def test_eval_traj_rejects_a_row_without_a_rotation(tmp_path, capsys, tail):
    # ``tail`` is the end of the second row: its quaternion, or its
    # translation and quaternion
    ref = tmp_path / "ref.tum"
    ref.write_text("0 0 0 0 0 0 0 1\n1 1 0 0 0 0 0 1\n")
    fields = "1 1 0 0 0 0 0 1".split()
    fields[-len(tail.split()):] = tail.split()
    est = tmp_path / "est.tum"
    est.write_text(f"0 0 0 0 0 0 0 1\n{' '.join(fields)}\n")
    assert main(["eval-traj", str(est), str(ref)]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert ("quaternion" if len(tail.split()) == 4 else "translation") in err


@pytest.mark.parametrize("stamps", [(0, "nan", 2), (0, 1, "inf")])
def test_eval_traj_rejects_a_non_finite_stamp(tmp_path, capsys, stamps):
    ref = tmp_path / "ref.tum"
    ref.write_text("".join(f"{t} {t} 0 0 0 0 0 1\n" for t in range(3)))
    est = tmp_path / "est.tum"
    est.write_text("".join(f"{t} {i} 0 0 0 0 0 1\n" for i, t in enumerate(stamps)))
    assert main(["eval-traj", str(est), str(ref)]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "finite" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("side", ["est", "ref"])
def test_eval_map_rejects_a_non_finite_point(tmp_path, capsys, bad, side):
    clouds = {name: np.random.default_rng(0).uniform(-2.0, 2.0, (50, 3))
              for name in ("est", "ref")}
    clouds[side][7, 1] = bad
    for name, cloud in clouds.items():
        write_ply(tmp_path / f"{name}.ply", cloud)
    assert main(["eval-map", str(tmp_path / "est.ply"), str(tmp_path / "ref.ply")]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "non-finite" in err


@pytest.mark.parametrize("pose", ["0,0,0,0,0,0,0", "0,0,0,0,0,inf,1", "0,0,0,x,0,0,1",
                                  "nan,0,0,0,0,0,1", "0,0,-inf,0,0,0,1"])
def test_render_rejects_a_pose_without_a_rotation(tmp_path, capsys, pose):
    model = _small_model_file(tmp_path / "map.splm")
    argv = ["render", str(model), "--out", str(tmp_path / "view"), "--pose", pose,
            "--width", "16", "--height", "4"]
    assert main(argv) == 2
    assert _one_error_line(capsys.readouterr().err)
    assert not list(tmp_path.glob("view.*"))
