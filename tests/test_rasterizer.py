import dataclasses

import numpy as np
import pytest

from conftest import random_model, surface_model
from splatscan import rasterizer
from splatscan.errors import GeometryError
from splatscan.geometry import SphericalCamera
from splatscan.rasterizer import (
    RASTER_CONFIG,
    PixelGradients,
    _binned_tiles,
    _blend,
    _near_pairs,
    _splat_camera_arrays,
    rasterize_backward,
    rasterize_forward,
    reference_rasterize,
)
from splatscan.se3 import SE3Pose, so3_exp
from splatscan.splats import SplatModel, orthonormal_tangents, tangent_raw_gradients
from splatscan.synth import room_with_boxes

CHANNELS = ("range", "normal", "opacity")


def _max_diff(a, b):
    return max(float(np.max(np.abs(getattr(a, c) - getattr(b, c)))) for c in CHANNELS)


def _pose():
    return SE3Pose(so3_exp([0.05, -0.1, 2.5]), [0.3, -0.2, 0.1])


class TestTiledMatchesReference:
    @pytest.mark.parametrize("behind_frac", [0.0, 0.5])
    def test_random_model_full_circle(self, full_cam, rng, behind_frac):
        # the second camera's first and last rows look straight up and down
        sphere = SphericalCamera(16, 9, -np.pi, np.pi - np.pi / 8, -np.pi / 2, np.pi / 2)
        model = random_model(150, rng, behind_frac=behind_frac)
        for cam in (full_cam, sphere):
            for pose in (SE3Pose.identity(), _pose()):
                tiled, _ = rasterize_forward(cam, pose, model)
                ref = reference_rasterize(cam, pose, model)
                assert _max_diff(tiled, ref) <= 1e-12
                assert np.mean(ref.opacity > 0) > 0.3

    def test_splats_straddle_the_seam(self, full_cam, rng):
        # centroids just either side of azimuth +-pi, large enough to cross it
        n = 40
        az = np.pi + rng.uniform(-0.15, 0.15, n)
        el = rng.uniform(-0.2, 0.2, n)
        r = rng.uniform(2.0, 5.0, n)
        centers = r[:, None] * np.stack(
            [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=1)
        ta, tb = orthonormal_tangents(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
        model = SplatModel()
        model.append(centers, ta, tb, rng.uniform(0.1, 0.5, (n, 2)),
                     rng.uniform(0.3, 0.95, n), 0)
        tiled, _ = rasterize_forward(full_cam, SE3Pose.identity(), model)
        ref = reference_rasterize(full_cam, SE3Pose.identity(), model)
        assert _max_diff(tiled, ref) <= 1e-12
        seam = ref.opacity[:, [0, -1]]
        assert np.all(seam.max(axis=0) > 0)

    def test_surface_model(self, full_cam, rng):
        scene = room_with_boxes(seed=0)
        viewpoint = [0.5, -0.5, 0.0]
        model = surface_model(scene, viewpoint, 1500, rng)
        pose = SE3Pose(so3_exp([0.0, 0.0, 0.7]), viewpoint)
        tiled, _ = rasterize_forward(full_cam, pose, model)
        ref = reference_rasterize(full_cam, pose, model)
        assert _max_diff(tiled, ref) <= 1e-12
        assert np.mean(ref.opacity > 0) > 0.3

    def test_empty_model(self, full_cam):
        tiled, rec = rasterize_forward(full_cam, SE3Pose.identity(), SplatModel())
        assert rec.pair_splats.size == 0
        for c in CHANNELS:
            assert not np.any(getattr(tiled, c))


# --- gradients --------------------------------------------------------------


def _pixel_grads(cam, rng):
    H, W = cam.height, cam.width
    return PixelGradients(rng.normal(size=(H, W)), rng.normal(size=(H, W, 3)),
                          rng.normal(size=(H, W)))


def _loss(cam, pose, model, pg):
    """Linear loss sum(pg * image): its pixel gradients are ``pg`` itself."""
    out, _ = rasterize_forward(cam, pose, model)
    return float(np.sum(pg.d_range * out.range) + np.sum(pg.d_normal * out.normal)
                 + np.sum(pg.d_opacity * out.opacity))


def _central_difference(cam, pose, model, pg, array, set_value, h):
    """d(loss)/d(value) for every entry of ``array``; ``set_value`` writes one entry."""
    grad = np.zeros(array.shape)
    for idx in np.ndindex(*array.shape):
        x = array[idx]
        vals = []
        for step in (h, -h):
            set_value(idx, x + step)
            model.touch()
            vals.append(_loss(cam, pose, model, pg))
        set_value(idx, x)
        model.touch()
        grad[idx] = (vals[0] - vals[1]) / (2.0 * h)
    return grad


@pytest.fixture
def grad_case(rng, request):
    cam = SphericalCamera(24, 8, -0.6, 0.6, -0.25, 0.25)
    n = 12
    centers = np.stack([rng.uniform(2.5, 4.0, n), rng.uniform(-1.5, 1.5, n),
                        rng.uniform(-0.6, 0.6, n)], axis=1)
    ta, tb = orthonormal_tangents(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
    model = SplatModel()
    model.append(centers, ta, tb, rng.uniform(0.15, 0.4, (n, 2)),
                 rng.uniform(0.3, 0.9, n), 0)
    pose = SE3Pose(so3_exp([0.02, -0.03, 0.05]), [0.1, 0.05, -0.02])
    return _with_gradients(cam, pose, model, rng, getattr(request.cls, "batch_pairs", None))


def _with_gradients(cam, pose, model, rng, batch_pairs=None):
    """(cam, pose, model, pixel gradients, splat gradients) of a random linear loss.

    ``batch_pairs``, if given, is the blend batch size of the render that
    keeps the pairs.
    """
    pg = _pixel_grads(cam, rng)
    with pytest.MonkeyPatch.context() as m:
        if batch_pairs is not None:
            m.setattr(rasterizer, "_BATCH_PAIRS", batch_pairs)
        out, rec = rasterize_forward(cam, pose, model, keep_pairs=True)
    grads = rasterize_backward(model, rec, out, pg)
    return cam, pose, model, pg, grads


def _blended_batches(cam, pose, model):
    """The :func:`_blend` terms of every batch of near pairs of a render."""
    _, rec = rasterize_forward(cam, pose, model)
    arrays = _splat_camera_arrays(model, pose)
    tiles = _binned_tiles(rec.tile_ptr, rec.pair_splats, rec.tiles_x)
    return [_blend(arrays["terms"], *batch) for batch in _near_pairs(cam, arrays, tiles)]


def _branch_counts(cam, pose, model):
    """(clamped pairs that blend, pairs cut off by the transmittance threshold)."""
    cfg = RASTER_CONFIG
    clamped = stopped = 0
    for b in _blended_batches(cam, pose, model):
        a_raw = b["sp"][0] * b["G"]
        clamped += int(np.sum((b["w"] > 0) & (a_raw > cfg.alpha_clamp)))
        stopped += int(np.sum((b["alpha"] > 0) & (b["t"] < cfg.min_transmittance)))
    return clamped, stopped


def _assert_close(analytic, numeric, rel=1e-6):
    scale = max(float(np.max(np.abs(numeric))), 1e-12)
    assert float(np.max(np.abs(analytic - numeric))) <= rel * scale
    assert float(np.max(np.abs(numeric))) > 0


class TestBackwardMatchesCentralDifferences:
    def test_centers(self, grad_case):
        cam, pose, model, pg, grads = grad_case

        def put(idx, v):
            model.centers[idx] = v

        num = _central_difference(cam, pose, model, pg, model.centers, put, 1e-6)
        _assert_close(grads.d_centers, num)

    def test_scales(self, grad_case):
        cam, pose, model, pg, grads = grad_case
        scales = model.scales

        def put(idx, v):
            model.log_scales[idx] = np.log(v)

        num = _central_difference(cam, pose, model, pg, scales, put, 1e-6)
        _assert_close(grads.d_scales, num)

    def test_opacity(self, grad_case):
        cam, pose, model, pg, grads = grad_case
        opac = model.opacities

        def put(idx, v):
            model.logit_opacity[idx] = np.log(v) - np.log1p(-v)

        num = _central_difference(cam, pose, model, pg, opac, put, 1e-6)
        _assert_close(grads.d_opacity, num)

    def test_raw_tangents_through_gram_schmidt(self, grad_case):
        cam, pose, model, pg, grads = grad_case
        ga, gb = tangent_raw_gradients(model.raw_t_alpha, model.raw_t_beta,
                                       grads.d_t_alpha, grads.d_t_beta, grads.d_normal)
        for raw, analytic in ((model.raw_t_alpha, ga), (model.raw_t_beta, gb)):
            def put(idx, v, raw=raw):
                raw[idx] = v

            num = _central_difference(cam, pose, model, pg, raw.copy(), put, 1e-6)
            _assert_close(analytic, num)

    def test_stale_records_raise(self, grad_case):
        cam, pose, model, pg, _ = grad_case
        out, rec = rasterize_forward(cam, pose, model, keep_pairs=True)
        model.touch()
        with pytest.raises(GeometryError):
            rasterize_backward(model, rec, out, pg)


class TestBackwardOnAnOpaqueStack(TestBackwardMatchesCentralDifferences):
    """The same checks on 16 camera-facing splats stacked 2.5 to 4.5 m along
    the view, each centred on a pixel ray.

    Opacities of 0.993 to 0.998 put alpha at the 0.99 clamp around those
    pixels, the stack drives transmittance below the early-stop threshold,
    and two more splats lie behind the sensor, outside the view.
    """

    @pytest.fixture
    def grad_case(self, rng):
        cam = SphericalCamera(24, 8, -0.6, 0.6, -0.25, 0.25)
        pose = SE3Pose(so3_exp([0.02, -0.03, 0.05]), [0.1, 0.05, -0.02])
        n = 16
        rows, cols = rng.integers(1, 7, n), rng.integers(2, 22, n)
        in_view = np.linspace(2.5, 4.5, n)[:, None] * cam.pixel_directions[rows, cols]
        outside = [[-3.0, 0.5, 0.0], [-4.0, -0.5, 0.2]]
        m = n + 2
        ta, tb = orthonormal_tangents(
            pose.rotation @ [0.0, 1.0, 0.0] + rng.normal(0.0, 0.1, (m, 3)),
            pose.rotation @ [0.0, 0.0, 1.0] + rng.normal(0.0, 0.1, (m, 3)))
        model = SplatModel()
        model.append(pose.apply(np.vstack([in_view, outside])), ta, tb,
                     rng.uniform(0.5, 0.9, (m, 2)), rng.uniform(0.993, 0.998, m), 0)
        return _with_gradients(cam, pose, model, rng, getattr(self, "batch_pairs", None))

    def test_reaches_the_clamp_and_the_early_stop(self, grad_case):
        cam, pose, model, _, _ = grad_case
        clamped, stopped = _branch_counts(cam, pose, model)
        assert clamped >= 10
        assert stopped >= 100

    def test_splats_outside_the_view_get_zero_gradients(self, grad_case):
        *_, grads = grad_case
        for name in ("d_centers", "d_t_alpha", "d_t_beta", "d_normal", "d_scales",
                     "d_opacity"):
            values = getattr(grads, name)
            assert not np.any(values[-2:])
            assert np.any(values[:-2])


GRADIENTS = ("d_centers", "d_t_alpha", "d_t_beta", "d_normal", "d_scales", "d_opacity")


class _InChunksOfFour:
    """Screens tiles in blocks of ``tile_size**2 * 4`` pairs, so that a
    tile's pixels are matched against its splats in several blocks."""

    @pytest.fixture(autouse=True)
    def _small_chunks(self, monkeypatch):
        monkeypatch.setattr(rasterizer, "RASTER_CONFIG",
                            dataclasses.replace(RASTER_CONFIG, chunk_size=4))


class TestBackwardInChunksOfFour(_InChunksOfFour, TestBackwardMatchesCentralDifferences):
    pass


class TestOpaqueStackInChunksOfFour(_InChunksOfFour, TestBackwardOnAnOpaqueStack):
    pass


@pytest.mark.parametrize("chunk_size", [1, 2, 4])
def test_gradients_do_not_depend_on_the_chunk_size(grad_case, monkeypatch, chunk_size):
    cam, pose, model, pg, grads = grad_case
    out, _ = rasterize_forward(cam, pose, model)
    monkeypatch.setattr(rasterizer, "RASTER_CONFIG",
                        dataclasses.replace(RASTER_CONFIG, chunk_size=chunk_size))
    blocked, rec = rasterize_forward(cam, pose, model, keep_pairs=True)
    # a full tile is screened in three blocks or more
    assert np.max(np.diff(rec.tile_ptr)) > 2 * chunk_size
    # smaller blocks change only the rounding of the plane products
    for c in CHANNELS:
        scale = float(np.max(np.abs(getattr(out, c))))
        assert float(np.max(np.abs(getattr(blocked, c) - getattr(out, c)))) <= 1e-13 * scale
    chunked = rasterize_backward(model, rec, blocked, pg)
    for name in GRADIENTS:
        _assert_close(getattr(chunked, name), getattr(grads, name), rel=1e-12)


class _InBatchesOfOne:
    """Takes the analytic gradients from a render that blends one pixel per
    batch, so that every kept record holds one pixel.  The central
    differences render at the default size, which gives the same images.
    """

    batch_pairs = 1

    def test_each_record_holds_one_pixel(self, grad_case, monkeypatch):
        cam, pose, model, _, _ = grad_case
        monkeypatch.setattr(rasterizer, "_BATCH_PAIRS", 1)
        _, rec = rasterize_forward(cam, pose, model, keep_pairs=True)
        assert len(rec.pairs) > 10
        assert all(np.all(pix == pix[0]) for pix, _, _ in rec.pairs)


class TestBackwardInBatchesOfOne(_InBatchesOfOne, TestBackwardMatchesCentralDifferences):
    pass


class TestOpaqueStackInBatchesOfOne(_InBatchesOfOne, TestBackwardOnAnOpaqueStack):
    pass


@pytest.mark.parametrize("batch", [1, 7])
def test_results_do_not_depend_on_the_batch_size(grad_case, monkeypatch, batch):
    cam, pose, model, pg, grads = grad_case
    out, _ = rasterize_forward(cam, pose, model)
    n_default = len(_blended_batches(cam, pose, model))
    monkeypatch.setattr(rasterizer, "_BATCH_PAIRS", batch)
    # the batch size splits tiles
    assert len(_blended_batches(cam, pose, model)) > n_default
    small, rec = rasterize_forward(cam, pose, model, keep_pairs=True)
    for c in CHANNELS:
        assert np.array_equal(getattr(small, c), getattr(out, c))
    batched = rasterize_backward(model, rec, small, pg)
    for name in GRADIENTS:
        _assert_close(getattr(batched, name), getattr(grads, name), rel=1e-12)


def test_the_near_test_is_conservative(full_cam, rng, monkeypatch):
    """A 3x wider near test (and binning) finds no pair that adds to the image."""
    model = random_model(150, rng, behind_frac=0.5)
    pose = _pose()
    out, _ = rasterize_forward(full_cam, pose, model)
    monkeypatch.setattr(rasterizer, "RASTER_CONFIG", dataclasses.replace(
        RASTER_CONFIG, cutoff_sigma=3.0 * RASTER_CONFIG.cutoff_sigma))
    wide, _ = rasterize_forward(full_cam, pose, model)
    for c in CHANNELS:
        scale = float(np.max(np.abs(getattr(out, c))))
        assert float(np.max(np.abs(getattr(wide, c) - getattr(out, c)))) <= 1e-13 * scale


class TestRecordsServeOneBackwardPass:
    def test_records_without_pairs_raise(self, grad_case):
        cam, pose, model, pg, _ = grad_case
        out, rec = rasterize_forward(cam, pose, model)
        assert rec.pairs is None and rec.arrays is None
        with pytest.raises(GeometryError, match="keep_pairs"):
            rasterize_backward(model, rec, out, pg)

    def test_a_backward_pass_consumes_the_pairs(self, grad_case):
        cam, pose, model, pg, grads = grad_case
        out, rec = rasterize_forward(cam, pose, model, keep_pairs=True)
        assert rec.pairs and rec.arrays is not None
        again = rasterize_backward(model, rec, out, pg)
        assert rec.pairs is None and rec.arrays is None
        assert np.array_equal(again.d_centers, grads.d_centers)
        with pytest.raises(GeometryError, match="keep_pairs"):
            rasterize_backward(model, rec, out, pg)

    def test_kept_pairs_are_the_blending_pairs(self, grad_case):
        cam, pose, model, _, _ = grad_case
        _, rec = rasterize_forward(cam, pose, model, keep_pairs=True)
        kept = sum(pix.size for pix, _, _ in rec.pairs)
        blending = sum(int(np.sum(b["w"] > 0)) for b in _blended_batches(cam, pose, model))
        assert kept == blending > 0

    def test_the_backward_pass_reads_the_forward_arrays(self, grad_case, monkeypatch):
        cam, pose, model, pg, grads = grad_case
        out, rec = rasterize_forward(cam, pose, model, keep_pairs=True)
        calls = []

        def counted(*args):
            calls.append(args)
            return _splat_camera_arrays(*args)

        monkeypatch.setattr(rasterizer, "_splat_camera_arrays", counted)
        again = rasterize_backward(model, rec, out, pg)
        assert not calls
        assert np.array_equal(again.d_centers, grads.d_centers)


def test_tangent_raw_gradients_match_central_differences(rng):
    n = 5
    raw_a = rng.normal(size=(n, 3))
    raw_b = rng.normal(size=(n, 3))
    gu, gv, gn = (rng.normal(size=(n, 3)) for _ in range(3))

    def f(a, b):
        u, v = orthonormal_tangents(a, b)
        return float(np.sum(gu * u) + np.sum(gv * v) + np.sum(gn * np.cross(u, v)))

    ga, gb = tangent_raw_gradients(raw_a, raw_b, gu, gv, gn)
    h = 1e-6
    for raw, analytic in ((raw_a, ga), (raw_b, gb)):
        num = np.zeros_like(raw)
        for idx in np.ndindex(*raw.shape):
            x = raw[idx]
            raw[idx] = x + h
            fp = f(raw_a, raw_b)
            raw[idx] = x - h
            fm = f(raw_a, raw_b)
            raw[idx] = x
            num[idx] = (fp - fm) / (2.0 * h)
        np.testing.assert_allclose(analytic, num, rtol=0, atol=1e-8)
