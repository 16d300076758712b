import numpy as np
import pytest

from splatscan import mapping
from splatscan.mapping import (
    MAPPING_CONFIG,
    LocalMap,
    _Adam,
    _learning_rates,
    add_keyframe,
    make_keyframe,
    scale_loss,
    should_reset_local_map,
)
from splatscan.se3 import SE3Pose, so3_exp
from splatscan.splats import SplatModel, orthonormal_tangents
from splatscan.synth import ScanSpec, raycast_scan, room_with_boxes


def test_adam_step_moves_each_column_by_its_learning_rate():
    model = SplatModel()
    model.append([[1.0, 2.0, 3.0]], [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]],
                 [[0.1, 0.2]], [0.5], 0)
    before = model.params.copy()
    _Adam(1).step(model, np.ones((1, 12)), _learning_rates(2.0))

    # the first step of Adam on a unit gradient moves each value by its rate
    moved = SplatModel(before - model.params)
    cfg = MAPPING_CONFIG
    rates = {"centers": 2.0 * cfg.lr_centers, "raw_t_alpha": cfg.lr_tangents,
             "raw_t_beta": cfg.lr_tangents, "log_scales": cfg.lr_log_scales,
             "logit_opacity": cfg.lr_logit_opacity}
    for name, lr in rates.items():
        np.testing.assert_allclose(getattr(moved, name), lr, rtol=1e-7, err_msg=name)


def test_scale_hinge_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    cap = MAPPING_CONFIG.scale_cap
    # rows 0-3 have their larger axis above the cap, rows 4-5 are below it;
    # every row keeps clear of both kinks (larger axis at the cap, equal axes)
    scales = cap * np.array([[1.8, 1.2], [0.9, 2.6], [1.6, 0.4], [4.0, 2.0],
                             [0.6, 0.8], [0.2, 0.4]])
    n = len(scales)
    ta, tb = orthonormal_tangents(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
    model = SplatModel()
    model.append(rng.normal(size=(n, 3)), ta, tb, scales, rng.uniform(0.2, 0.8, n), 0)
    _, grads = scale_loss(model)
    assert grads.shape == model.params.shape

    h = 1e-6
    num = np.zeros((n, 2))
    for idx in np.ndindex(n, 2):
        x = model.log_scales[idx]
        vals = []
        for step in (h, -h):
            model.log_scales[idx] = x + step
            vals.append(scale_loss(model)[0])
        model.log_scales[idx] = x
        num[idx] = (vals[0] - vals[1]) / (2.0 * h)
    hinge = SplatModel(grads)
    np.testing.assert_allclose(hinge.log_scales, num, rtol=0, atol=1e-8)
    assert np.count_nonzero(num) == 4 and not num[4:].any()
    # no other column of the parameter gradient moves
    hinge.log_scales[:] = 0.0
    assert not hinge.params.any()


def test_add_keyframe_keeps_moments_aligned_with_splats():
    scene = room_with_boxes(seed=0)
    rng = np.random.default_rng(0)
    poses = [SE3Pose.identity(), SE3Pose(so3_exp([0.0, 0.0, 0.4]), [0.8, 0.3, 0.0])]
    kfs = [make_keyframe(i, raycast_scan(scene, p, ScanSpec(64, 16), rng).cloud, p, 64, 16)
           for i, p in enumerate(poses)]
    lmap = LocalMap.start(kfs[0])
    add_keyframe(lmap, kfs[0], rng)
    n = len(lmap.model)
    dead = 10
    lmap.model.logit_opacity[:dead] = -20.0
    lmap.optimizer.m[:] = np.arange(n)[:, None]

    stats = add_keyframe(lmap, kfs[1], rng)
    assert stats["pruned"] == dead and stats["spawned"] > 0
    rows = len(lmap.model)
    assert rows == n - dead + stats["spawned"]
    assert lmap.optimizer.m.shape == lmap.optimizer.v.shape == (rows, 12)
    # survivors keep their moments, in order; spawned splats start at zero
    assert np.array_equal(lmap.optimizer.m[: n - dead, 0], np.arange(dead, n))
    assert not lmap.optimizer.m[n - dead:].any()


@pytest.fixture
def two_keyframes():
    scene = room_with_boxes(seed=0)
    rng = np.random.default_rng(0)
    poses = [SE3Pose.identity(), SE3Pose(so3_exp([0.0, 0.0, 0.1]), [0.2, 0.05, 0.0])]
    return [make_keyframe(i, raycast_scan(scene, p, ScanSpec(64, 16), rng).cloud, p, 64, 16)
            for i, p in enumerate(poses)]


def _seeded_map(kf):
    lmap = LocalMap.start(kf)
    add_keyframe(lmap, kf, np.random.default_rng(3))
    return lmap


@pytest.fixture
def renders(monkeypatch):
    """Counts the renders mapping makes."""
    calls = []
    render = mapping.rasterize_forward

    def counted(*args, **kwargs):
        calls.append(args[1])
        return render(*args, **kwargs)

    monkeypatch.setattr(mapping, "rasterize_forward", counted)
    return calls


def test_reset_check_and_add_keyframe_render_once(two_keyframes, renders):
    kf0, kf1 = two_keyframes
    shared, alone = _seeded_map(kf0), _seeded_map(kf0)
    assert not renders  # seeding an empty map renders nothing

    assert should_reset_local_map(shared, kf1) is None
    stats = add_keyframe(shared, kf1, np.random.default_rng(4))
    assert len(renders) == 1
    assert shared.keyframe_render is None

    # the shared render densifies exactly as a render of its own
    assert add_keyframe(alone, kf1, np.random.default_rng(4)) == stats
    assert len(renders) == 2
    assert np.array_equal(shared.model.params, alone.model.params)


def test_a_render_from_before_a_model_change_is_not_used(two_keyframes, renders):
    kf0, kf1 = two_keyframes
    lmap = _seeded_map(kf0)
    assert should_reset_local_map(lmap, kf1) is None
    lmap.model.touch()
    add_keyframe(lmap, kf1, np.random.default_rng(4))
    assert len(renders) == 2


def test_a_render_of_another_keyframe_is_not_used(two_keyframes, renders):
    kf0, kf1 = two_keyframes
    lmap = _seeded_map(kf0)
    assert should_reset_local_map(lmap, kf0) is None
    add_keyframe(lmap, kf1, np.random.default_rng(4))
    assert len(renders) == 2
    assert renders[1] is kf1.pose
