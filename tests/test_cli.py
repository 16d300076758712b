"""Exit codes of the command-line front end: 0 success, 1 usage,
2 unreadable or malformed data, 3 numerical failure."""

import dataclasses
import json

import numpy as np
import pytest

from splatscan import cli, mapping
from splatscan.cli import main
from splatscan.io import read_ply, save_model, save_trajectory, write_ply
from splatscan.pipeline import Pipeline, RunConfig
from splatscan.rasterizer import rasterize_forward
from splatscan.splats import SplatModel
from splatscan.synth import make_trajectory

SMALL = ["--width", "64", "--height", "16", "--refine-iters", "1"]


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


def test_run_on_a_directory_without_scans(tmp_path, capsys):
    (tmp_path / "scans").mkdir()
    (tmp_path / "scans" / "notes.txt").write_text("no scan here\n")
    assert main(["run", str(tmp_path / "scans"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "no scan files in directory" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting, message", [
    # no run setting is spelled like these: fixed values, out_dir (--out
    # sets it), key=value forms, a config option, an abbreviation
    ("--no-such-key 1", "unrecognized arguments"),
    ("--tile-size 16", "unrecognized arguments"),
    ("--mapping 3", "unrecognized arguments"),
    ("--w-scale 1", "unrecognized arguments"),
    ("--max-iters 3", "unrecognized arguments"),
    ("--scan-fraction 0.3", "unrecognized arguments"),
    ("--keyframe-every 2", "unrecognized arguments"),
    ("--out-dir elsewhere", "unrecognized arguments"),
    ("--set refine_iters=1", "unrecognized arguments"),
    ("--config run.cfg", "unrecognized arguments"),
    ("--refine 1", "unrecognized arguments"),
    ("--refine-iters abc", "invalid int value: 'abc'"),
    ("--refine-iters 2.5", "invalid int value: '2.5'"),
    ("--scan-period yes", "invalid float value: 'yes'"),
    # values no run can use, refused before a scan is read
    ("--width 0", "argument --width: must be an integer of at least 2: '0'"),
    ("--width -5", "argument --width: must be an integer of at least 2: '-5'"),
    ("--height 1", "argument --height: must be an integer of at least 2: '1'"),
    ("--refine-iters -3", "argument --refine-iters: must be an integer of at least 0: '-3'"),
    ("--scan-period 0", "argument --scan-period: must be finite and positive: '0'"),
    ("--scan-period -0.1", "argument --scan-period: must be finite and positive: '-0.1'"),
    ("--scan-period nan", "argument --scan-period: must be finite and positive: 'nan'"),
    ("--scan-period inf", "argument --scan-period: must be finite and positive: 'inf'"),
    ("--seed -1", "argument --seed: must be an integer of at least 0: '-1'"),
    ("@no-such-file", "No such file or directory"),
])
def test_bad_setting_is_a_usage_error(scans, tmp_path, capsys, setting, message):
    assert main(["run", str(scans), "--out", str(tmp_path / "out")] + setting.split()) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, setting, message", [
    ("synth", "--steps 0", "argument --steps: must be an integer of at least 1: '0'"),
    ("synth", "--width 1", "argument --width: must be an integer of at least 2: '1'"),
    ("synth", "--height 1", "argument --height: must be an integer of at least 2: '1'"),
    ("synth", "--noise -1", "argument --noise: must be finite and at least 0: '-1'"),
    ("synth", "--noise nan", "argument --noise: must be finite and at least 0: 'nan'"),
    ("synth", "--dropout 1.5", "argument --dropout: must be at least 0 and below 1: '1.5'"),
    ("synth", "--dropout -0.1", "argument --dropout: must be at least 0 and below 1: '-0.1'"),
    ("synth", "--seed -1", "argument --seed: must be an integer of at least 0: '-1'"),
    ("synth", "--boxes -1", "argument --boxes: must be an integer of at least 0: '-1'"),
    ("synth", "--size nan", "argument --size: must be finite and positive: 'nan'"),
    ("synth", "--room-height -2", "argument --room-height: must be finite and positive: '-2'"),
    ("synth", "--length inf", "argument --length: must be finite and at least 0: 'inf'"),
    ("synth", "--el-max 95", "argument --el-max: must be degrees within [-90, 90]: '95'"),
    ("synth", "--el-min 20", "--el-min must be below --el-max"),
    ("render", "--width 1", "argument --width: must be an integer of at least 2: '1'"),
    ("render", "--height 0", "argument --height: must be an integer of at least 2: '0'"),
    ("render", "--el-min -91", "argument --el-min: must be degrees within [-90, 90]: '-91'"),
    ("render", "--el-min 15", "--el-min must be below --el-max"),
])
def test_bad_value_is_a_usage_error(tmp_path, capsys, command, setting, message):
    out = tmp_path / "out"
    model = [str(_small_model_file(tmp_path / "map.splm"))] if command == "render" else []
    assert main([command, *model, "--out", str(out)] + setting.split()) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_settings_file_runs_as_its_flags(scans, tmp_path, monkeypatch):
    configs = []

    def pipeline(cfg):
        configs.append(dataclasses.replace(cfg, out_dir=None))
        return Pipeline(cfg)

    monkeypatch.setattr(cli, "Pipeline", pipeline)
    settings = tmp_path / "small.args"
    settings.write_text("# a small run\n--width=64\n\n--height\n16\n  # one step\n"
                        "--refine-iters=1\n")
    assert main(["run", str(scans), "--out", str(tmp_path / "file"), f"@{settings}"]) == 0
    assert main(["run", str(scans), "--out", str(tmp_path / "flags")] + SMALL) == 0
    assert configs[0] == configs[1] == RunConfig(image_width=64, image_height=16,
                                                 refine_iters=1)
    trajectories = [(tmp_path / d / "trajectory.tum").read_text() for d in ("file", "flags")]
    assert trajectories[0] == trajectories[1]


def test_nothing_to_export_is_a_numerical_failure(scans, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mapping, "MAPPING_CONFIG",
                        dataclasses.replace(mapping.MAPPING_CONFIG, opacity_init=0.01))
    argv = ["run", str(scans), "--out", str(tmp_path)] + SMALL + ["--refine-iters", "0"]
    assert main(argv) == 3
    assert "no confidently rendered pixels" in capsys.readouterr().err
    # the outputs are written before the run fails
    assert (tmp_path / "trajectory.tum").is_file()


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
    az = (np.array([0.0, 1.0, 63.0]) - cams[0].cx) / cams[0].fx
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


def test_info_reports_a_malformed_ply_header(tmp_path, capsys):
    path = tmp_path / "cloud.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex abc\nproperty double x\n"
                    "property double y\nproperty double z\nend_header\n")
    assert main(["info", str(path)]) == 2
    assert "malformed PLY header line 'element vertex abc'" in capsys.readouterr().err


def test_info_reports_a_repeated_ply_property(tmp_path, capsys):
    path = tmp_path / "cloud.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
                    "property float x\nproperty float y\nproperty float z\nend_header\n"
                    "1 2 3 4\n")
    assert main(["info", str(path)]) == 2
    assert "PLY vertex property 'x' appears twice" in capsys.readouterr().err


def test_info_summarizes_a_scan_file(scans, capsys):
    path = scans / "scan_0000.ply"
    cloud, _ = read_ply(path)
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"scan: {cloud.shape[0]} points"
    r = np.linalg.norm(cloud, axis=1)
    assert out[2] == (f"  range  : min {r.min():.2f}, median {np.median(r):.2f}, "
                      f"max {r.max():.2f} m")


def test_info_on_a_missing_path(tmp_path, capsys):
    assert main(["info", str(tmp_path / "missing.ply")]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "no such file" in err


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


def test_eval_traj_rejects_a_reflection(tmp_path, capsys):
    """A KITTI row whose 3x3 block mirrors z is no pose; it is not read as
    the identity."""
    ref = tmp_path / "ref.tum"
    ref.write_text("".join(f"{t} {t} 0 0 0 0 0 1\n" for t in range(3)))
    est = tmp_path / "est.kitti"
    est.write_text("".join(f"1 0 0 {t} 0 1 0 0 0 0 {1 - 2 * (t == 1)} 0\n" for t in range(3)))
    assert main(["eval-traj", str(est), str(ref)]) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured.err) and "determinant" in captured.err
    assert not captured.out


def test_eval_traj_prints_the_aligned_ate(tmp_path, capsys):
    # the estimate starts at the origin, the reference 5 m away; after
    # alignment only the last pose is off, by 0.3 m in y
    ref = tmp_path / "ref.tum"
    ref.write_text("".join(f"{t} {5 + t} 2 0 0 0 0 1\n" for t in range(4)))
    est = tmp_path / "est.tum"
    est.write_text("".join(f"{t} {t} {0.3 * (t == 3)} 0 0 0 0 1\n" for t in range(4)))
    assert main(["eval-traj", str(est), str(ref)]) == 0
    out = capsys.readouterr().out
    ate = [line for line in out.splitlines() if line.startswith("ATE")]
    assert ate == [f"ATE (aligned)  : {100 * np.sqrt(0.3 ** 2 / 4):7.3f} cm"]


@pytest.mark.parametrize("kitti", ["est", "ref"])
def test_eval_traj_pairs_a_kitti_file_row_by_row(tmp_path, capsys, kitti):
    # KITTI rows have no stamps; the same poses as TUM rows 0.1 s apart score 0
    traj = make_trajectory("arc", 3.0, 12)
    paths = {"est": tmp_path / "est", "ref": tmp_path / "ref"}
    for name, path in paths.items():
        save_trajectory(traj, path, "kitti" if name == kitti else "tum")
    assert main(["eval-traj", str(paths["est"]), str(paths["ref"])]) == 0
    scores = [line.split(":")[1].split()[0] for line in capsys.readouterr().out.splitlines()]
    assert len(scores) == 7 and set(scores) == {"0.000"}
    # pairing row by row needs as many rows in both files
    save_trajectory(make_trajectory("arc", 3.0, 10), paths[kitti], "kitti")
    assert main(["eval-traj", str(paths["est"]), str(paths["ref"])]) == 2
    err = capsys.readouterr().err
    n_est, n_ref = (10, 12) if kitti == "est" else (12, 10)
    assert _one_error_line(err) and f"{n_est} estimated rows, {n_ref} reference rows" in err


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


@pytest.mark.parametrize("command, setting, message", [
    ("eval-map", "--threshold nan", "argument --threshold: must be finite and positive: 'nan'"),
    ("eval-map", "--threshold -1", "argument --threshold: must be finite and positive: '-1'"),
    ("eval-map", "--threshold 0", "argument --threshold: must be finite and positive: '0'"),
    ("eval-map", "--voxel nan", "argument --voxel: must be finite and at least 0: 'nan'"),
    ("eval-map", "--voxel -0.2", "argument --voxel: must be finite and at least 0: '-0.2'"),
    ("eval-map", "--voxel inf", "argument --voxel: must be finite and at least 0: 'inf'"),
    ("eval-traj", "--max-dt -1", "argument --max-dt: must be finite and at least 0: '-1'"),
    ("eval-traj", "--max-dt nan", "argument --max-dt: must be finite and at least 0: 'nan'"),
])
def test_bad_evaluation_setting_is_a_usage_error(tmp_path, capsys, command, setting, message):
    """Inputs that score without the setting; the setting alone is refused."""
    if command == "eval-map":
        cloud = np.random.default_rng(0).uniform(-2.0, 2.0, (50, 3))
        inputs = [tmp_path / "est.ply", tmp_path / "ref.ply"]
        for path in inputs:
            write_ply(path, cloud)
    else:
        inputs = [tmp_path / "est.tum", tmp_path / "ref.tum"]
        for path in inputs:
            path.write_text("".join(f"{t} {t} 0 0 0 0 0 1\n" for t in range(3)))
    argv = [command, *map(str, inputs)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + setting.split()) == 1
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


@pytest.mark.parametrize("pose", ["0,0,0,0,0,0,0", "0,0,0,0,0,inf,1", "0,0,0,x,0,0,1",
                                  "nan,0,0,0,0,0,1", "0,0,-inf,0,0,0,1"])
def test_render_rejects_a_pose_without_a_rotation(tmp_path, capsys, pose):
    model = _small_model_file(tmp_path / "map.splm")
    argv = ["render", str(model), "--out", str(tmp_path / "view"), "--pose", pose,
            "--width", "16", "--height", "4"]
    assert main(argv) == 2
    assert _one_error_line(capsys.readouterr().err)
    assert not list(tmp_path.glob("view.*"))
