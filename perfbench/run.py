"""splatscan benchmark: one workload per process, or all of them in turn.

    python3 perfbench/run.py --workload arc_refine --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

With ``--workload`` the run prints its checks and metrics, then one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run (spans are also written to ``.bench_out/``).  Without
``--workload`` every workload of ``BENCHMARK.json`` runs in a fresh
process, one at a time, untraced and then traced, and the tracing overhead
is the difference between the two.

Run from the repository root; the package is imported from ``src/``.
"""

import argparse
import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def run_one(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> int:
    if not (ROOT / "src" / "splatscan" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'splatscan'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import statistics

    import numpy  # noqa: F401  dependencies: their import is not the package's set-up
    import scipy.spatial  # noqa: F401

    import machine

    machine.calibration_s()  # warm-up, discarded
    cal_setup = [machine.calibration_s() for _ in range(2)]
    t0 = time.perf_counter()
    import splatscan  # noqa: F401

    import_s = time.perf_counter() - t0
    import tracing
    import workloads as wl

    if name not in wl.WORKLOADS:
        print(f"error: unknown workload {name!r}; one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = (wl.TOY if toy else wl.WORKLOADS)[name]
    OUT.mkdir(exist_ok=True)
    ref_check = wl.check_reference_render()

    build_s = []
    for _ in range(wl.SETUP_REPEATS):
        cal_setup.append(machine.calibration_s())
        t0 = time.perf_counter()
        inputs = wl.build_inputs(spec, seed)
        build_s.append(time.perf_counter() - t0)
    cal_setup.append(machine.calibration_s())
    setup_s = import_s + statistics.median(build_s)
    ref_cache = []

    def ref_pts():
        if not ref_cache:
            ref_cache.append(wl.reference_points(spec))
        return ref_cache[0]

    tracer = tracing.Tracer() if trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        if isinstance(spec, wl.Reloc):
            res = wl.run_reloc(spec, inputs, seconds, tracer, ref_pts)
        else:
            res = wl.run_odometry(spec, inputs, seconds, tracer, OUT, ref_pts)
    checks = [ref_check] + res.checks
    # times below are read at the reference speed of the calibration kernel
    speed = machine.speed_scale(res.cal_s)
    loop_s = res.loop_s * speed
    env = machine.environment(THREAD_VARS)

    print(f"workload {name} seed {seed} trace {int(trace)}{' toy' if toy else ''}")
    print("env " + json.dumps(env))
    print(f"speed scale {speed:.4f} over the loop ({len(res.cal_s)} kernel runs), "
          f"{machine.speed_scale(cal_setup):.4f} over set-up")
    for check, ok, detail in checks:
        print(f"check {check} {'ok' if ok else 'FAILED'}: {detail}")
    correct = all(ok for _, ok, _ in checks)

    if trace:
        metrics = tracing.layer_metrics(tracer, res.attempted, res.passes, loop_s,
                                        res.final, speed)
        metrics["machine.speed_scale"] = (speed, "ratio")
        totals = tracer.totals()
        print("span calls total_ms self_ms")
        for span, row in sorted(totals.items(), key=lambda kv: -kv[1]["total_s"]):
            print(f"span {span} {row['calls']} {1000 * row['total_s']:.1f} "
                  f"{1000 * row['self_s']:.1f}")
        for (parent, child), n in sorted(tracer.edges().items()):
            print(f"edge {parent} -> {child} {n}")
        trace_path = OUT / f"trace-{name}-{seed}{'-toy' if toy else ''}.json"
        tracer.dump(trace_path, {"workload": name, "seed": seed, "env": env,
                                 "speed_scale": speed})
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        print(f"raw setup_s {setup_s:.6g} scans_per_s {res.attempted / res.loop_s:.6g} "
              f"scan_ms_p50 {statistics.median(res.scan_ms):.6g}")
        metrics = {
            "setup_s": (setup_s * machine.speed_scale(cal_setup), "s"),
            "scans_per_s": (res.attempted / loop_s, "1/s"),
            "scan_ms_p50": (statistics.median(res.scan_ms) * speed, "ms"),
            "peak_rss_mb": (res.peak_rss_mb, "MB"),
        }
        if "fscore_pct" in res.accuracy:
            metrics["fscore_pct"] = (res.accuracy["fscore_pct"], "%")
        # printed beside the result but not in it: too seed-dependent to bound
        print(f"samples scan_ms {len(res.scan_ms)} over {res.passes} passes")
        print(f"metric fail_ratio {res.failed / res.attempted:.4f} ratio "
              f"({res.failed} of {res.attempted} scans)")
        for key, unit in (("ate_cm", "cm"), ("rpe_pct", "%")):
            if key in res.accuracy:
                print(f"metric {key} {res.accuracy[key]:.6g} {unit}")
    print(f"fingerprint {res.fingerprint}")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float | None, toy: bool) -> int:
    """Every workload, each untraced then traced, in fresh processes one at a time."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if seconds is None else seconds
    status = 0
    summary = []
    for w in bench["workloads"]:
        out = {}
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            if toy:
                cmd.append("--toy")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            got = result.get("metrics", {})
            missing = [m["name"] for m in wanted
                       if got.get(m["name"], {}).get("unit") != m["unit"]]
            if proc.returncode or not result.get("correct") or missing:
                print(f"FAILED {w['name']} trace {trace}: exit {proc.returncode}, "
                      f"missing or mis-united metrics {missing}")
                status = 1
            out[trace] = got
        if 0 in out and 1 in out and "scans_per_s" in out[0] and "trace.wall_ms" in out[1]:
            untraced_ms = 1000.0 / out[0]["scans_per_s"]["value"]
            traced_ms = out[1]["trace.wall_ms"]["value"]
            share = {k: out[1].get(k, {}).get("value", 0.0) / traced_ms
                     for k in ("mapping.refine_ms", "registration.register_ms")}
            summary.append((w["name"], untraced_ms, traced_ms, share))
    print("summary workload untraced_ms/scan traced_ms/scan overhead refine_share "
          "register_share")
    for name, u, t, share in summary:
        print(f"summary {name} {u:.1f} {t:.1f} {100 * (t / u - 1):+.1f}% "
              f"{share['mapping.refine_ms']:.1%} {share['registration.register_ms']:.1%}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one workload; omit to run them all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measure whole passes until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.toy)
    return run_one(args.workload, args.seed, args.seconds or 0.0, bool(args.trace), args.toy)


if __name__ == "__main__":
    sys.exit(main())
