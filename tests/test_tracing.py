"""The benchmark's span tracer wraps package attributes by name and reads
fields of what they return; a rename or deletion in the package would
otherwise surface only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from splatscan import registration
from splatscan.geometry import estimate_camera
from splatscan.pipeline import Pipeline, RunConfig
from splatscan.se3 import SE3Pose, so3_exp
from splatscan.synth import ScanSpec, raycast_scan, room_with_boxes

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_callable(tracing):
    assert tracing.WRAPPED
    for module, name, _ in tracing.WRAPPED:
        attr = getattr(importlib.import_module(module), name, None)
        assert callable(attr), f"{module}.{name}"


def test_every_counter_reads_what_its_function_returns(tracing):
    """A two-scan pipeline pass and one registration, as the benchmark's
    odometry and relocalisation loops trace them."""
    scene = room_with_boxes(seed=0)
    rng = np.random.default_rng(0)
    poses = [SE3Pose(so3_exp([0.0, 0.0, 0.05 * i]), [0.1 * i, 0.0, 0.0]) for i in range(2)]
    scans = [raycast_scan(scene, p, ScanSpec(32, 8), rng).cloud for p in poses]
    tracer = tracing.Tracer()
    with tracer.installed():
        pipe = Pipeline(RunConfig(image_width=32, image_height=8, refine_iters=1))
        for i, cloud in enumerate(scans):
            tracer.scan = i
            row = pipe.process_scan(cloud)
        model = pipe.lmap.model
        pipe.finalize()
    tracer.scan = 0
    register = tracer.wrap("registration.register", registration.register)
    register(model, scans[1], estimate_camera(scans[1], 32, 8), poses[1])
    assert not row["fallback"]

    totals = tracer.totals()
    assert set(tracing.COUNTERS) <= set(totals)
    assert totals["registration.register"]["calls"] == 2
    metrics = tracing.layer_metrics(tracer, 2, 1, 0.5, {"splats": row["n_splats"],
                                                        "model_mb": row["model_bytes"] / 1e6},
                                    1.0)
    assert metrics and all(np.isfinite(value) for value, _ in metrics.values())
    assert metrics["rasterizer.pixel_pairs"][0] > 0
