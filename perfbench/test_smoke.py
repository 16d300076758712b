"""Smoke test of the benchmark at toy size (64x16, a few scans).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced through the real command line,
checks that each metric named in BENCHMARK.json is emitted with its unit,
and that the traced spans nest under the expected parents.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]

# (parent, child) span pairs every traced run of the workload must contain
ODOMETRY_EDGES = {
    ("-", "pipeline.process_scan"),
    ("pipeline.process_scan", "registration.register"),
    ("registration.register", "registration.sample_model"),
    ("registration.register", "registration.leaf_tree"),
    ("registration.sample_model", "rasterizer.forward"),
    ("pipeline.process_scan", "mapping.make_keyframe"),
    ("mapping.make_keyframe", "geometry.range_image"),
    ("pipeline.process_scan", "mapping.reset_check"),
    ("pipeline.process_scan", "mapping.add_keyframe"),
    ("pipeline.process_scan", "mapping.refine"),
    ("mapping.refine", "rasterizer.forward"),
    ("mapping.refine", "rasterizer.backward"),
    ("mapping.refine", "mapping.loss"),
    ("pipeline.finalize", "pipeline.export"),
    ("pipeline.export", "rasterizer.forward"),
}
EXPECTED_EDGES = {
    "arc_refine": ODOMETRY_EDGES,
    "arc_online": ODOMETRY_EDGES,
    "reloc_fig8": {
        ("-", "registration.register"),
        ("registration.register", "registration.sample_model"),
        ("registration.register", "registration.leaf_tree"),
        ("registration.sample_model", "rasterizer.forward"),
    },
}
# every parent a render may legitimately run under
FORWARD_PARENTS = {"registration.sample_model", "mapping.refine", "mapping.reset_check",
                   "mapping.add_keyframe", "pipeline.export"}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(args[0]), *map(str, args[1:])],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    return result["metrics"]


def _assert_metrics(metrics, wanted):
    assert set(metrics) == {m["name"] for m in wanted}
    for m in wanted:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], float)


@pytest.mark.parametrize("name", NAMES)
def test_workload_emits_every_metric_and_nests_spans(name):
    common = ("--workload", name, "--seed", 3, "--seconds", 0, "--toy")
    _assert_metrics(_result(_run(RUN, *common, "--trace", 0)), BENCH["end_to_end"])
    layers = _result(_run(RUN, *common, "--trace", 1))
    _assert_metrics(layers, BENCH["per_layer"])

    trace = json.loads((ROOT / ".bench_out" / f"trace-{name}-3-toy.json").read_text())
    edges = {(p, c) for p, c, _ in trace["edges"]}
    assert EXPECTED_EDGES[name] <= edges, EXPECTED_EDGES[name] - edges
    assert {p for p, c in edges if c == "rasterizer.forward"} <= FORWARD_PARENTS
    if name == "reloc_fig8":
        assert layers["rasterizer.backward_calls"]["value"] == 0
        assert not any(c.startswith("mapping.") for _, c in edges)


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "perfbench" / "run.py", "--workload", NAMES[0], "--seed", 0,
                "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
