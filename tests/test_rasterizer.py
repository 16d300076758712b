import numpy as np
import pytest

from conftest import random_model, surface_model
from splatscan.errors import GeometryError
from splatscan.geometry import SphericalCamera
from splatscan.rasterizer import (
    PixelGradients,
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
        model = random_model(150, rng, behind_frac=behind_frac)
        for pose in (SE3Pose.identity(), _pose()):
            tiled, _ = rasterize_forward(full_cam, pose, model)
            ref = reference_rasterize(full_cam, pose, model)
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
def grad_case(rng):
    cam = SphericalCamera(24, 8, -0.6, 0.6, -0.25, 0.25)
    n = 12
    centers = np.stack([rng.uniform(2.5, 4.0, n), rng.uniform(-1.5, 1.5, n),
                        rng.uniform(-0.6, 0.6, n)], axis=1)
    ta, tb = orthonormal_tangents(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
    model = SplatModel()
    model.append(centers, ta, tb, rng.uniform(0.15, 0.4, (n, 2)),
                 rng.uniform(0.3, 0.9, n), 0)
    pose = SE3Pose(so3_exp([0.02, -0.03, 0.05]), [0.1, 0.05, -0.02])
    pg = _pixel_grads(cam, rng)
    out, rec = rasterize_forward(cam, pose, model)
    grads = rasterize_backward(model, rec, out, pg)
    return cam, pose, model, pg, grads


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
        out, rec = rasterize_forward(cam, pose, model)
        model.touch()
        with pytest.raises(GeometryError):
            rasterize_backward(model, rec, out, pg)


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
