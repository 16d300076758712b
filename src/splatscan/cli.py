"""Command-line front end.

Subcommands:
  run        odometry+mapping over an ordered scan sequence
  synth      simulate a scan sequence through a synthetic scene
  eval-traj  RPE table of an estimated trajectory against ground truth
  eval-map   accuracy/completeness/F-score of one cloud against another
  render     range/normal/opacity images of a model from a pose
  info       summary statistics of a model or scan file (a file that
             starts with the model magic SPLM is a model, any other a scan)

Exit codes: 0 success, 1 usage, 2 unreadable or malformed data,
3 numerical failure.  Diagnostics go to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import (
    EvaluationError,
    ExportError,
    GeometryError,
    IngestionError,
    RegistrationError,
)
from .evaluation import reconstruction_metrics, relative_pose_error
from .geometry import SphericalCamera
from .io import (
    apply_overrides,
    is_model_file,
    load_model,
    load_scan,
    load_trajectory,
    parse_config_text,
    read_ply,
    read_pose,
    save_trajectory,
    write_pfm,
    write_ply,
)
from .pipeline import Pipeline, RunConfig
from .rasterizer import rasterize_forward
from .se3 import SE3Pose
from .synth import (
    ScanSpec,
    load_scene,
    make_trajectory,
    raycast_scan,
    room_with_boxes,
    save_scene,
)

__all__ = ["main"]

_SCAN_EXTS = (".ply", ".bin")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _kv(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    k, v = text.split("=", 1)
    return k.strip(), v.strip()


def _build_run_config(args) -> RunConfig:
    overrides = {}
    if args.config:
        cfg_path = Path(args.config)
        if not cfg_path.is_file():
            raise IngestionError(f"config file not found: {cfg_path}")
        overrides.update(parse_config_text(cfg_path.read_text()))
    overrides.update(args.set or [])
    if "out_dir" in overrides:
        raise IngestionError("config key 'out_dir' is set by --out only")
    cfg = RunConfig(out_dir=args.out)
    apply_overrides(cfg, overrides)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _scan_paths(inputs: list[str]) -> list[Path]:
    if len(inputs) == 1 and Path(inputs[0]).is_dir():
        found = sorted(
            p for p in Path(inputs[0]).iterdir() if p.suffix.lower() in _SCAN_EXTS
        )
        if not found:
            raise IngestionError(f"no scan files in directory {inputs[0]}")
        return found
    paths = [Path(p) for p in inputs]
    for p in paths:
        if not p.is_file():
            raise IngestionError(f"scan file not found: {p}")
    return paths


def _cmd_run(args) -> int:
    cfg = _build_run_config(args)
    paths = _scan_paths(args.scans)
    pipe = Pipeline(cfg)
    for p in paths:
        row = pipe.process_scan(load_scan(p))
        if args.verbose:
            print(f"scan {row['scan']}: splats={row['n_splats']} "
                  f"reg={row['register_ms']:.0f}ms map={row['mapping_ms']:.0f}ms"
                  f"{' FALLBACK' if row['fallback'] else ''}", file=sys.stderr)
    report = pipe.finalize()
    print(f"processed {report['n_scans']} scans, {report['n_maps']} local maps, "
          f"{report['n_exported_points']} exported points, "
          f"{report['fallbacks']} fallbacks -> {args.out}")
    return 0


def _cmd_synth(args) -> int:
    if args.scene:
        scene = load_scene(args.scene)
    else:
        scene = room_with_boxes(size=args.size, height=args.room_height,
                                n_boxes=args.boxes, seed=args.seed or 0)
    traj = make_trajectory(args.trajectory, args.length, args.steps)
    spec = ScanSpec(width=args.width, height=args.height,
                    el_min=float(np.deg2rad(args.el_min)),
                    el_max=float(np.deg2rad(args.el_max)),
                    noise_sigma=args.noise, dropout=args.dropout)
    rng = np.random.default_rng(args.seed or 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, pose in enumerate(traj.poses):
        scan = raycast_scan(scene, pose, spec, rng)
        write_ply(out / f"scan_{i:04d}.ply", scan.cloud)
    save_trajectory(traj, out / "groundtruth.tum", "tum")
    if not args.scene:
        save_scene(out / "scene.txt", scene)
    print(f"wrote {len(traj.poses)} scans to {out}")
    return 0


def _cmd_eval_traj(args) -> int:
    est = load_trajectory(args.est)
    ref = load_trajectory(args.ref)
    rpe = relative_pose_error(est, ref, max_dt=args.max_dt)
    for frac in sorted(rpe.per_delta):
        print(f"RPE @ {rpe.deltas_m[frac]:8.2f} m : {rpe.per_delta[frac]:7.3f} %")
    print(f"RPE mean       : {rpe.mean_percent:7.3f} %")
    return 0


def _cmd_eval_map(args) -> int:
    est, _ = read_ply(args.est)
    ref, _ = read_ply(args.ref)
    m = reconstruction_metrics(est, ref, threshold=args.threshold,
                               voxel=args.voxel or None)
    print(f"accuracy     : {m.accuracy_cm:.2f} cm")
    print(f"completeness : {m.completeness_cm:.2f} cm")
    print(f"chamfer-l1   : {m.chamfer_cm:.2f} cm")
    print(f"f-score      : {m.fscore_pct:.2f} % @ {m.threshold_m} m")
    return 0


def _parse_pose(text: str) -> SE3Pose:
    try:
        vals = [float(x) for x in text.replace(",", " ").split()]
    except ValueError:
        vals = []
    if len(vals) != 7:
        raise IngestionError("pose must be 7 numbers: tx ty tz qx qy qz qw")
    return read_pose(vals[:3], vals[3:])


def _cmd_render(args) -> int:
    model = load_model(args.model)
    pose = _parse_pose(args.pose) if args.pose else SE3Pose.identity()
    # the last column stops one pitch short of +pi: -pi is the same ray
    cam = SphericalCamera(args.width, args.height, -np.pi, np.pi - 2.0 * np.pi / args.width,
                          float(np.deg2rad(args.el_min)),
                          float(np.deg2rad(args.el_max)))
    render, _ = rasterize_forward(cam, pose, model)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_pfm(f"{prefix}.range.pfm", render.range)
    write_pfm(f"{prefix}.normal.pfm", render.normal)
    write_pfm(f"{prefix}.opacity.pfm", render.opacity)
    covered = float((render.opacity > 0.5).mean())
    print(f"rendered {len(model)} splats at {args.width}x{args.height}; "
          f"{covered * 100:.1f}% of pixels confidently covered -> {prefix}.*.pfm")
    return 0


def _cmd_info(args) -> int:
    path = Path(args.path)
    if not path.is_file():
        raise IngestionError(f"no such file: {path}")
    if is_model_file(path):
        model = load_model(path)
        s, o = model.scales, model.opacities
        print(f"model: {len(model)} splats")
        if len(model):
            lo, hi = model.centers.min(0), model.centers.max(0)
            print(f"  bounds   : [{lo[0]:.2f} {lo[1]:.2f} {lo[2]:.2f}] .. "
                  f"[{hi[0]:.2f} {hi[1]:.2f} {hi[2]:.2f}] m")
            print(f"  scales   : median {np.median(s):.4f} m, max {s.max():.4f} m")
            print(f"  opacity  : median {np.median(o):.3f}")
        print(f"  memory   : {model.memory_bytes() / 1e6:.2f} MB")
        return 0
    cloud = load_scan(path)
    r = np.linalg.norm(cloud, axis=1)
    lo, hi = cloud.min(0), cloud.max(0)
    print(f"scan: {cloud.shape[0]} points")
    print(f"  bounds : [{lo[0]:.2f} {lo[1]:.2f} {lo[2]:.2f}] .. "
          f"[{hi[0]:.2f} {hi[1]:.2f} {hi[2]:.2f}] m")
    print(f"  range  : min {r.min():.2f}, median {np.median(r):.2f}, "
          f"max {r.max():.2f} m")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splatscan",
                     description="LiDAR odometry and mapping with surface splats")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    run = sub.add_parser("run", help="process a scan sequence", epilog=(
        "config keys for --config and --set: image_width, image_height (range image "
        "size, from the sensor); refine_iters (map refinement steps per scan: quality "
        "against speed); seed (as --seed); scan_period (seconds between scans, for "
        "trajectory timestamps).  out_dir is set by --out only."))
    run.add_argument("scans", nargs="+",
                     help="scan files in order, or one directory of scans")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--config", help="config file of key = value lines (keys below)")
    run.add_argument("--set", action="append", type=_kv, metavar="KEY=VALUE",
                     help="override one config key (repeatable; keys below)")
    run.add_argument("--seed", type=int, help="RNG seed for a deterministic run")
    run.add_argument("--verbose", action="store_true",
                     help="per-scan progress on stderr")
    run.set_defaults(func=_cmd_run)

    synth = sub.add_parser("synth", help="simulate a scan sequence")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--scene", help="scene file; omit for a random box room")
    synth.add_argument("--size", type=float, default=12.0, help="room size (m)")
    synth.add_argument("--room-height", type=float, default=4.0)
    synth.add_argument("--boxes", type=int, default=4)
    synth.add_argument("--trajectory", default="line",
                       choices=("line", "arc", "figure8"))
    synth.add_argument("--length", type=float, default=5.0, help="path length (m)")
    synth.add_argument("--steps", type=int, default=20, help="number of scans")
    synth.add_argument("--width", type=int, default=256)
    synth.add_argument("--height", type=int, default=32)
    synth.add_argument("--el-min", type=float, default=-16.0, help="degrees")
    synth.add_argument("--el-max", type=float, default=14.0, help="degrees")
    synth.add_argument("--noise", type=float, default=0.0, help="range sigma (m)")
    synth.add_argument("--dropout", type=float, default=0.0)
    synth.add_argument("--seed", type=int, help="RNG seed")
    synth.set_defaults(func=_cmd_synth)

    et = sub.add_parser("eval-traj", help="relative pose error vs ground truth")
    et.add_argument("est", help="estimated trajectory (TUM or KITTI)")
    et.add_argument("ref", help="reference trajectory")
    et.add_argument("--max-dt", type=float, default=0.05,
                    help="timestamp association window (s)")
    et.set_defaults(func=_cmd_eval_traj)

    em = sub.add_parser("eval-map", help="cloud-to-cloud reconstruction metrics")
    em.add_argument("est", help="estimated cloud (PLY)")
    em.add_argument("ref", help="reference cloud (PLY)")
    em.add_argument("--threshold", type=float, default=0.2, help="F-score radius (m)")
    em.add_argument("--voxel", type=float, default=0.2,
                    help="downsample voxel (m); 0 disables")
    em.set_defaults(func=_cmd_eval_map)

    ren = sub.add_parser("render", help="render a model to float images")
    ren.add_argument("model", help="model file (map_NNN.splm from run)")
    ren.add_argument("--out", required=True, help="output path prefix")
    ren.add_argument("--pose", help="tx,ty,tz,qx,qy,qz,qw (default identity)")
    ren.add_argument("--width", type=int, default=512)
    ren.add_argument("--height", type=int, default=64)
    ren.add_argument("--el-min", type=float, default=-25.0, help="degrees")
    ren.add_argument("--el-max", type=float, default=15.0, help="degrees")
    ren.set_defaults(func=_cmd_render)

    info = sub.add_parser("info", help="summarize a model or scan file", epilog=(
        "a file that starts with the model magic SPLM (as map_NNN.splm from run) is "
        "read as a model, and its errors are reported as such; any other file is "
        "read as a scan (.ply or .bin)."))
    info.add_argument("path")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (RegistrationError, ExportError, np.linalg.LinAlgError,
            FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (IngestionError, GeometryError, EvaluationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
