import dataclasses

import numpy as np
import pytest

from splatscan import mapping
from splatscan.geometry import RangeImage, SphericalCamera
from splatscan.mapping import (
    MAPPING_CONFIG,
    Keyframe,
    LocalMap,
    _Adam,
    _learning_rates,
    _range_gradient_weights,
    add_keyframe,
    make_keyframe,
    mapping_loss,
    refine,
    scale_loss,
    should_reset_local_map,
    spawn_splats,
)
from splatscan.rasterizer import rasterize_backward, rasterize_forward
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


def _toy_keyframe(cam, range_image, valid, rng):
    """A keyframe at the identity with random unit normals at 80% of the
    pixels; the others have no normal and read 0."""
    H, W = range_image.shape
    normals = rng.normal(size=(H, W, 3))
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    normals[~(rng.random((H, W)) < 0.8)] = 0.0
    return Keyframe(0, SE3Pose.identity(), cam, RangeImage(range_image, valid), normals)


def test_mapping_loss_gradients_match_central_differences():
    """What refine steps by, the backward pass of a render of the keyframe's
    valid pixels that takes mapping_loss's pixel gradients, plus its
    ``d_params``, against central differences of its total over every
    column of ``model.params``."""
    rng = np.random.default_rng(5)
    cam = SphericalCamera(24, 8, -0.6, 0.6, -0.25, 0.25)
    kf = _toy_keyframe(cam, rng.uniform(2.5, 4.0, (8, 24)), rng.random((8, 24)) < 0.9, rng)
    n = 12
    centers = np.stack([rng.uniform(2.5, 4.0, n), rng.uniform(-1.5, 1.5, n),
                        rng.uniform(-0.6, 0.6, n)], axis=1)
    ta, tb = orthonormal_tangents(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
    model = SplatModel()
    # the larger scales put some splats on the scale hinge
    model.append(centers, ta, tb, rng.uniform(0.15, 0.7, (n, 2)), rng.uniform(0.3, 0.9, n), 0)

    ml = mapping_loss(model, kf)
    render, rec = rasterize_forward(cam, kf.pose, model, pixel_grads=ml.pixel_grads,
                                    mask=kf.range_image.valid)
    terms = ml.terms(render)
    assert all(terms[term] > 0 for term in ("range", "opacity", "normal", "scale"))
    grads = rasterize_backward(model, rec) + ml.d_params

    h = 1e-6
    num = np.zeros_like(grads)
    for idx in np.ndindex(*num.shape):
        x = model.params[idx]
        vals = []
        for step in (h, -h):
            model.params[idx] = x + step
            model.touch()
            render = rasterize_forward(cam, kf.pose, model)[0]
            vals.append(mapping_loss(model, kf).terms(render)["total"])
        model.params[idx] = x
        model.touch()
        num[idx] = (vals[0] - vals[1]) / (2.0 * h)
    scale = float(np.max(np.abs(num)))
    assert scale > 0
    assert float(np.max(np.abs(grads - num))) <= 1e-6 * scale


def _spawn_at_patch(monkeypatch, n_spawn):
    """Spawn with the cap at ``n_spawn`` on a keyframe whose 3x3 patch,
    nearer than its surroundings, gives 20 pixels a range gradient.  Returns
    the spawned model and the back-projected points of those 20 pixels."""
    monkeypatch.setattr(mapping, "MAPPING_CONFIG",
                        dataclasses.replace(MAPPING_CONFIG, n_spawn=n_spawn))
    cam = SphericalCamera(64, 16, -np.pi, np.pi, -np.deg2rad(20.0), np.deg2rad(15.0))
    D = np.full((16, 64), 5.0)
    D[6:9, 30:33] = 4.0
    rng = np.random.default_rng(0)
    kf = _toy_keyframe(cam, D, np.ones(D.shape, dtype=bool), rng)
    weighted = _range_gradient_weights(kf) > 0
    assert np.count_nonzero(weighted) == 20

    model = SplatModel()
    assert spawn_splats(model, kf, kf.range_image.valid, rng) == len(model) == n_spawn
    return model, D[weighted][:, None] * cam.pixel_directions[weighted]


def _gaps(model, points):
    """Distance from each of ``points`` (rows) to each splat centre (columns)."""
    return np.linalg.norm(model.centers[None] - points[:, None], axis=-1)


def test_spawn_takes_every_weighted_pixel_when_fewer_than_the_cap(monkeypatch):
    """All 20 weighted pixels are spawned, and 80 more drawn from the rest."""
    model, points = _spawn_at_patch(monkeypatch, 100)
    # each weighted pixel's splat sits on its back-projected point
    assert np.all(_gaps(model, points).min(axis=1) < 1e-9)


def test_spawn_draws_the_cap_from_the_weighted_pixels(monkeypatch):
    """With more weighted pixels than the cap, the cap is drawn from them
    alone by weight, without replacement."""
    model, points = _spawn_at_patch(monkeypatch, 12)
    assert np.unique(model.centers, axis=0).shape[0] == 12
    # each splat sits on a weighted pixel's back-projected point
    assert np.all(_gaps(model, points).min(axis=0) < 1e-9)


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


def test_refine_reports_the_terms_of_a_plain_render(two_keyframes):
    """The render that takes the gradients blends the images a plain render
    does, so refine's first loss entry is mapping_loss's terms on one."""
    kf0, _ = two_keyframes
    lmap = _seeded_map(kf0)
    before = SplatModel(lmap.model.params)
    render, _ = rasterize_forward(kf0.camera, kf0.pose, before)
    expected = mapping_loss(before, kf0).terms(render)
    losses = refine(lmap, 2, np.random.default_rng(6))
    assert losses[0] == expected
    assert losses[1] != expected


@pytest.fixture
def half_keyframes():
    """Two keyframes from half of each scan's points, as the pipeline makes
    them: some of their pixels have no range."""
    scene = room_with_boxes(seed=0)
    rng = np.random.default_rng(0)
    poses = [SE3Pose.identity(), SE3Pose(so3_exp([0.0, 0.0, 0.1]), [0.2, 0.05, 0.0])]
    return [make_keyframe(i, raycast_scan(scene, p, ScanSpec(64, 16), rng).cloud[::2], p, 64, 16)
            for i, p in enumerate(poses)]


def test_mapping_renders_only_the_measured_keyframe_pixels(half_keyframes, monkeypatch):
    """The reset check, add_keyframe's own render and refine pass the
    keyframe's valid mask to every render."""
    kf0, kf1 = half_keyframes
    assert 0 < np.count_nonzero(kf1.range_image.valid) < kf1.range_image.valid.size
    lmap = _seeded_map(kf0)
    masks = []
    render = mapping.rasterize_forward

    def spy(cam, pose, model, **kwargs):
        masks.append((pose, kwargs.get("mask")))
        return render(cam, pose, model, **kwargs)

    monkeypatch.setattr(mapping, "rasterize_forward", spy)
    assert should_reset_local_map(lmap, kf1) is None
    lmap.model.touch()  # so add_keyframe makes a render of its own
    add_keyframe(lmap, kf1, np.random.default_rng(4))
    refine(lmap, 6, np.random.default_rng(6))
    assert len(masks) == 8
    by_pose = {id(kf.pose): kf for kf in (kf0, kf1)}
    for pose, mask in masks:
        assert mask is by_pose[id(pose)].range_image.valid
    assert {id(pose) for pose, _ in masks} == set(by_pose)
