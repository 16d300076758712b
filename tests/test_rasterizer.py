import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_model, surface_model
from splatscan import rasterizer
from splatscan.errors import GeometryError
from splatscan.geometry import SphericalCamera, ray_direction
from splatscan.rasterizer import (
    RASTER_CONFIG,
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


def _seam_model(rng, n=40):
    """Splats with centroids just either side of azimuth +-pi, large enough
    to cross it."""
    az = np.pi + rng.uniform(-0.15, 0.15, n)
    el = rng.uniform(-0.2, 0.2, n)
    r = rng.uniform(2.0, 5.0, n)
    centers = r[:, None] * np.stack(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=1)
    ta, tb = orthonormal_tangents(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
    model = SplatModel()
    model.append(centers, ta, tb, rng.uniform(0.1, 0.5, (n, 2)), rng.uniform(0.3, 0.95, n), 0)
    return model


def _all(cam):
    """The mask of every pixel of ``cam``."""
    return np.ones((cam.height, cam.width), dtype=bool)


def _assert_masked(masked, full, mask):
    """``masked`` holds ``full``'s bits on ``mask`` and 0 off it, in every channel."""
    for c in CHANNELS:
        on, off = getattr(masked, c)[mask], getattr(masked, c)[~mask]
        assert np.array_equal(on, getattr(full, c)[mask]) and not off.any(), c


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

    def test_the_pole_rows_render(self, rng):
        """Rows 0 and 8 of this camera look straight up and down; their rays
        have planes like every other ray."""
        sphere = SphericalCamera(16, 9, -np.pi, np.pi - np.pi / 8, -np.pi / 2, np.pi / 2)
        model = random_model(400, rng, scale=(0.3, 0.8))
        tiled, _ = rasterize_forward(sphere, SE3Pose.identity(), model)
        ref = reference_rasterize(sphere, SE3Pose.identity(), model)
        assert _max_diff(tiled, ref) <= 1e-12
        assert tiled.opacity[0].max() > 0.1 and tiled.opacity[-1].max() > 0.1

    def test_splats_straddle_the_seam(self, full_cam, rng):
        model = _seam_model(rng)
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


# --- binning by the cutoff ellipse -------------------------------------------


def _one_splat(center, tilt, spin, roll, scales, opacity):
    """One splat at ``center`` whose normal is ``tilt`` away from the ray
    through it (pi/2 is edge-on: the splat's plane holds the sensor),
    turned by ``spin`` about that ray; ``roll`` turns its tangents about
    the normal."""
    center = np.asarray(center, dtype=float)
    d = center / np.linalg.norm(center)
    e1 = np.cross([0.0, 0.0, 1.0], d) if np.hypot(d[0], d[1]) > 1e-6 else np.array([0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    w = np.cos(spin) * e1 + np.sin(spin) * e2
    across = np.cos(spin) * e2 - np.sin(spin) * e1
    # (across, along, normal) is orthonormal
    along = np.cos(tilt) * w - np.sin(tilt) * d
    ta = np.cos(roll) * across + np.sin(roll) * along
    tb = np.cos(roll) * along - np.sin(roll) * across
    model = SplatModel()
    model.append(center[None], ta[None], tb[None], [scales], [opacity], 0)
    return model


# the -90..90 sphere's first and last rows look straight up and down; the
# -170..170 camera's columns leave a gap across the seam, which a splat at
# azimuth pi reaches from both ends
PROPERTY_CAMERAS = {
    "full_cam": SphericalCamera(64, 16, -np.pi, np.pi, -np.deg2rad(20.0), np.deg2rad(15.0)),
    "sphere": SphericalCamera(16, 9, -np.pi, np.pi - np.pi / 8, -np.pi / 2, np.pi / 2),
    "gap_at_seam": SphericalCamera(34, 12, -np.deg2rad(170.0), np.deg2rad(170.0),
                                   -np.deg2rad(40.0), np.deg2rad(40.0)),
}

one_splat = st.builds(
    lambda az, el, r, tilt, spin, roll, scale, ratio, swap, opacity: _one_splat(
        r * ray_direction(az, el), tilt, spin, roll,
        (scale / ratio, scale) if swap else (scale, scale / ratio), opacity),
    # anywhere, or straddling +-pi
    az=st.floats(-np.pi, np.pi) | st.floats(np.pi - 0.3, np.pi + 0.3),
    # anywhere, or near a pole
    el=st.floats(-1.4, 1.4) | st.floats(1.4, np.pi / 2) | st.floats(-np.pi / 2, -1.4),
    # out in the scene, or close enough for a large splat to enclose the sensor
    r=st.floats(1.0, 8.0) | st.floats(0.02, 0.6),
    # face-on to edge-on, and grazing
    tilt=st.floats(0.0, np.pi / 2) | st.just(np.pi / 2) | st.floats(np.pi / 2 - 1e-3, np.pi / 2),
    spin=st.floats(0.0, 2.0 * np.pi),
    roll=st.floats(0.0, 2.0 * np.pi),
    scale=st.floats(0.05, 1.5),
    ratio=st.floats(1.0, 100.0),
    swap=st.booleans(),
    # just above the 1/255 cutoff, or anything up to opaque
    opacity=st.floats(1.0001 / 255.0, 1.05 / 255.0) | st.floats(0.01, 1.0 - 1e-9),
)


@pytest.mark.parametrize("name", PROPERTY_CAMERAS)
@settings(deadline=None, max_examples=150)
@given(model=one_splat, mask_seed=st.integers(0, 2**32 - 1),
       share=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
def test_one_splat_renders_tiled_as_the_reference(name, model, mask_seed, share):
    """Tiled against the reference; a render of the pixels of a random mask,
    which holds about ``share`` of them, has the tiled render's bits there."""
    cam = PROPERTY_CAMERAS[name]
    tiled, _ = rasterize_forward(cam, SE3Pose.identity(), model)
    ref = reference_rasterize(cam, SE3Pose.identity(), model)
    assert _max_diff(tiled, ref) <= 1e-12
    mask = np.random.default_rng(mask_seed).random((cam.height, cam.width)) < share
    _assert_masked(rasterize_forward(cam, SE3Pose.identity(), model, mask=mask)[0], tiled, mask)


def test_edge_on_and_grazing_splats_render_as_the_reference(full_cam):
    """Splats seen from 1 to 0 degrees off their plane: thin slivers
    across the image, down to none at all."""
    tilts = np.pi / 2 - np.deg2rad([1.0, 0.3, 0.1, 0.01, 0.0])
    model = SplatModel(np.vstack([
        _one_splat(3.0 * ray_direction(az, 0.1 * np.sin(3 * az)), tilts[i % 5], 0.7 * i,
                   0.3 * i, (0.8, 0.4), 0.9).params
        for i, az in enumerate(np.linspace(-np.pi, np.pi, 20, endpoint=False))]))
    tiled, _ = rasterize_forward(full_cam, SE3Pose.identity(), model)
    ref = reference_rasterize(full_cam, SE3Pose.identity(), model)
    assert _max_diff(tiled, ref) <= 1e-12
    assert np.sum(ref.opacity > 0.1) > 20


def _tile_count(cam, model):
    _, rec = rasterize_forward(cam, SE3Pose.identity(), model)
    return rec.pair_splats.size


def test_an_edge_on_splat_bins_into_fewer_tiles_than_face_on(full_cam):
    center = 4.0 * full_cam.pixel_directions[8, 20]
    face_on = _tile_count(full_cam, _one_splat(center, 0.0, 0.0, 0.0, (1.0, 1.0), 0.9))
    edge_on = _tile_count(full_cam, _one_splat(center, np.pi / 2, 0.0, 0.0, (1.0, 1.0), 0.9))
    assert 0 < edge_on < face_on


def test_a_splat_below_the_alpha_cutoff_bins_into_no_tile(full_cam):
    center = 4.0 * full_cam.pixel_directions[8, 20]
    assert _tile_count(full_cam, _one_splat(center, 0.0, 0.0, 0.0, (0.5, 0.5), 0.99 / 255)) == 0
    assert _tile_count(full_cam, _one_splat(center, 0.0, 0.0, 0.0, (0.5, 0.5), 1.01 / 255)) > 0


def test_a_faint_splat_screens_fewer_near_pairs(full_cam):
    def near_pairs(opacity):
        model = _one_splat(4.0 * full_cam.pixel_directions[8, 20], 0.3, 0.0, 0.0, (0.6, 0.4),
                           opacity)
        _, rec = rasterize_forward(full_cam, SE3Pose.identity(), model)
        arrays = _splat_camera_arrays(model, SE3Pose.identity())
        tiles = _binned_tiles(full_cam, rec.tile_ptr, rec.pair_splats, rec.tiles_x, _all(full_cam))
        return sum(pix.size for pix, *_ in _near_pairs(full_cam, arrays, tiles))

    assert 0 < near_pairs(0.05) < near_pairs(0.95)


# --- blend batches and channels ----------------------------------------------


def _near_batches(cam, pose, model):
    """Every batch of near pairs of a tiled render."""
    _, rec = rasterize_forward(cam, pose, model)
    arrays = _splat_camera_arrays(model, pose)
    return list(_near_pairs(cam, arrays, _binned_tiles(cam, rec.tile_ptr, rec.pair_splats,
                                                       rec.tiles_x, _all(cam))))


def _tile_of(cam, pix):
    T = RASTER_CONFIG.tile_size
    return (pix // cam.width // T) * -(-cam.width // T) + pix % cam.width // T


def _assert_whole_runs(batches):
    """Each batch's counts are its pixels' runs, and no pixel is in two batches."""
    seen = []
    for pix, *_, counts in batches:
        starts = np.flatnonzero(np.append(True, pix[1:] != pix[:-1]))
        assert np.array_equal(np.diff(np.append(starts, pix.size)), counts)
        seen.append(pix[starts])
    seen = np.concatenate(seen)
    assert np.unique(seen).size == seen.size


def test_blend_batches_span_tiles(full_cam, rng):
    model = random_model(150, rng)
    batches = _near_batches(full_cam, _pose(), model)
    _assert_whole_runs(batches)
    assert all(pix.size <= rasterizer._BATCH_PAIRS for pix, *_ in batches)
    assert max(np.unique(_tile_of(full_cam, pix)).size for pix, *_ in batches) > 2
    tiled, _ = rasterize_forward(full_cam, _pose(), model)
    ref = reference_rasterize(full_cam, _pose(), model)
    assert _max_diff(tiled, ref) <= 1e-12
    assert np.mean(ref.opacity > 0) > 0.3


def test_a_tile_with_more_near_pairs_than_a_batch_is_cut_at_pixel_ends(rng):
    """Hundreds of large splats in front of a three-tile camera: every pixel
    has about as many near pairs, so each tile passes the batch size."""
    cam = SphericalCamera(24, 8, -0.6, 0.6, -0.25, 0.25)
    n = 250
    centers = np.stack([rng.uniform(2.5, 4.0, n), rng.uniform(-1.0, 1.0, n),
                        rng.uniform(-0.4, 0.4, n)], axis=1)
    ta, tb = orthonormal_tangents(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
    model = SplatModel()
    model.append(centers, ta, tb, rng.uniform(0.3, 0.8, (n, 2)), rng.uniform(0.3, 0.9, n), 0)
    batches = _near_batches(cam, SE3Pose.identity(), model)
    _assert_whole_runs(batches)
    per_tile = np.bincount(np.concatenate([_tile_of(cam, pix) for pix, *_ in batches]))
    assert per_tile.max() > rasterizer._BATCH_PAIRS
    assert all(pix.size <= rasterizer._BATCH_PAIRS for pix, *_ in batches)
    tiled, _ = rasterize_forward(cam, SE3Pose.identity(), model)
    ref = reference_rasterize(cam, SE3Pose.identity(), model)
    assert _max_diff(tiled, ref) <= 1e-12


def test_a_render_without_normals_blends_the_same_range_and_opacity(full_cam, rng):
    model = random_model(150, rng, behind_frac=0.5)
    # a camera that does not close the circle
    partial = SphericalCamera(40, 12, -1.0, 2.0, -0.3, 0.4)
    for cam in (full_cam, partial):
        full, _ = rasterize_forward(cam, _pose(), model)
        bare, _ = rasterize_forward(cam, _pose(), model, normals=False)
        assert bare.normal is None
        assert np.array_equal(bare.range, full.range)
        assert np.array_equal(bare.opacity, full.opacity)
        assert np.mean(full.opacity > 0) > 0.3
    # a render that takes gradients blends the normal
    with pytest.raises(GeometryError, match="normals=True"):
        rasterize_forward(full_cam, _pose(), model, normals=False,
                          pixel_grads=_rule(_pixel_grads(full_cam, rng)))


def test_a_render_that_takes_gradients_blends_the_same_images(full_cam, rng):
    model = random_model(150, rng, behind_frac=0.5)
    partial = SphericalCamera(40, 12, -1.0, 2.0, -0.3, 0.4)
    for cam in (full_cam, partial):
        plain, _ = rasterize_forward(cam, _pose(), model)
        taking, rec = rasterize_forward(cam, _pose(), model,
                                        pixel_grads=_rule(_pixel_grads(cam, rng)))
        for c in CHANNELS:
            assert np.array_equal(getattr(taking, c), getattr(plain, c))
        assert rec.splat_grads.shape == (13, len(model)) and rec.splat_grads.any()
        assert np.mean(plain.opacity > 0) > 0.3


# --- rendering the pixels of a mask -------------------------------------------


# tiles_x = 5 and tiles_y = 2, the last of each cut short
RAGGED_CAM = SphericalCamera(37, 13, -1.2, 1.5, -0.4, 0.3)


@pytest.mark.parametrize("case", ["ragged_tiles", "seam"])
def test_a_masked_render_is_the_full_render_on_the_mask(full_cam, rng, case):
    if case == "ragged_tiles":
        cam, pose, model = RAGGED_CAM, _pose(), random_model(150, rng, behind_frac=0.5)
        assert cam.width % RASTER_CONFIG.tile_size and cam.height % RASTER_CONFIG.tile_size
    else:
        cam, pose, model = full_cam, SE3Pose.identity(), _seam_model(rng)
    mask = rng.random((cam.height, cam.width)) < 0.5
    full, _ = rasterize_forward(cam, pose, model)
    masked, _ = rasterize_forward(cam, pose, model, mask=mask)
    _assert_masked(masked, full, mask)
    # the mask keeps covered pixels and drops covered pixels
    covered = full.opacity > 0
    assert np.sum(covered & mask) > 20 and np.sum(covered & ~mask) > 20
    if case == "seam":
        assert np.all(masked.opacity[:, [0, -1]].max(axis=0) > 0)


def test_a_masked_pixel_alone_in_its_tile_keeps_the_full_render_bits(rng):
    """One masked pixel per tile: products of that pixel alone would be a
    matrix-vector product, which numpy rounds differently from the blocks
    of the full render."""
    cam = SphericalCamera(128, 32, -np.pi, np.pi, -0.4, 0.4)
    model = random_model(600, rng, behind_frac=0.5)
    T = RASTER_CONFIG.tile_size
    rows, cols = np.meshgrid(np.arange(0, cam.height, T), np.arange(0, cam.width, T))
    mask = np.zeros((cam.height, cam.width), dtype=bool)
    mask[rows + rng.integers(0, T, rows.shape), cols + rng.integers(0, T, cols.shape)] = True
    full, _ = rasterize_forward(cam, _pose(), model)
    _assert_masked(rasterize_forward(cam, _pose(), model, mask=mask)[0], full, mask)
    assert np.sum(full.opacity[mask] > 0) > 20


def test_an_empty_mask_renders_nothing_and_takes_no_gradient(full_cam, rng):
    model = random_model(150, rng)
    calls = []

    def rule(pix, values):
        calls.append(pix)
        return np.ones_like(values)

    mask = np.zeros((full_cam.height, full_cam.width), dtype=bool)
    out, rec = rasterize_forward(full_cam, _pose(), model, pixel_grads=rule, mask=mask)
    for c in CHANNELS:
        assert not getattr(out, c).any()
    assert not calls
    assert rec.pair_splats.size > 0 and rec.splat_grads.shape == (13, len(model))
    assert not rec.splat_grads.any() and not rasterize_backward(model, rec).any()


def test_a_full_mask_takes_the_gradients_of_the_unmasked_render(full_cam, rng):
    model = random_model(150, rng, behind_frac=0.5)
    rule = _rule(_pixel_grads(full_cam, rng))
    plain, plain_rec = rasterize_forward(full_cam, _pose(), model, pixel_grads=rule)
    mask = np.ones((full_cam.height, full_cam.width), dtype=bool)
    masked, rec = rasterize_forward(full_cam, _pose(), model, pixel_grads=rule, mask=mask)
    _assert_masked(masked, plain, mask)
    assert np.array_equal(rec.splat_grads, plain_rec.splat_grads) and rec.splat_grads.any()


def test_a_mask_that_does_not_fit_the_camera_raises(full_cam, rng):
    with pytest.raises(GeometryError, match="mask"):
        rasterize_forward(full_cam, _pose(), random_model(5, rng),
                          mask=np.ones((full_cam.width, full_cam.height), dtype=bool))


# --- gradients --------------------------------------------------------------


def _pixel_grads(cam, rng):
    """Random pixel gradients as (5, pixels) rows: range, opacity, normal."""
    H, W = cam.height, cam.width
    d_range, d_normal, d_opacity = (rng.normal(size=shape) for shape in ((H, W), (H, W, 3), (H, W)))
    return np.vstack([d_range.ravel(), d_opacity.ravel(), d_normal.reshape(-1, 3).T])


def _rule(rows):
    """The ``pixel_grads`` rule of the linear loss whose pixel gradients are ``rows``."""
    return lambda pix, values: rows[:, pix]


def _images(cam, pose, model):
    """The rendered images as (5, pixels) rows, in the order of :func:`_pixel_grads`."""
    out, _ = rasterize_forward(cam, pose, model)
    return np.vstack([out.range.ravel(), out.opacity.ravel(), out.normal.reshape(-1, 3).T])


def _central_difference(cam, pose, model, pg, columns, h=1e-6):
    """d(loss)/d(entry) for every entry of ``columns``, a view into ``model.params``,
    of the linear loss sum(pg * image), whose pixel gradients are ``pg`` itself.

    The images are differenced before they are contracted with ``pg``: a
    difference of the summed loss would round at the loss's own magnitude.
    """
    grad = np.zeros(columns.shape)
    for idx in np.ndindex(*columns.shape):
        x = columns[idx]
        images = []
        for step in (h, -h):
            columns[idx] = x + step
            model.touch()
            images.append(_images(cam, pose, model))
        columns[idx] = x
        model.touch()
        grad[idx] = np.sum(pg * (images[0] - images[1])) / (2.0 * h)
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
    """(cam, pose, model, pixel gradients, (N, 12) parameter gradients) of a random linear loss.

    ``batch_pairs``, if given, is the blend batch size of the render that
    takes the gradients.
    """
    pg = _pixel_grads(cam, rng)
    with pytest.MonkeyPatch.context() as m:
        if batch_pairs is not None:
            m.setattr(rasterizer, "_BATCH_PAIRS", batch_pairs)
        _, rec = rasterize_forward(cam, pose, model, pixel_grads=_rule(pg))
    grads = rasterize_backward(model, rec)
    return cam, pose, model, pg, grads


def _blended_batches(cam, pose, model):
    """The :func:`_blend` terms of every batch of near pairs of a render."""
    _, rec = rasterize_forward(cam, pose, model)
    arrays = _splat_camera_arrays(model, pose)
    tiles = _binned_tiles(cam, rec.tile_ptr, rec.pair_splats, rec.tiles_x, _all(cam))
    return [_blend(arrays["terms"][:4], pix, spl, planes, counts)
            for pix, spl, planes, _, counts in _near_pairs(cam, arrays, tiles)]


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


def _assert_matches_central_differences(grad_case, *names):
    """The named columns of the gradient against central differences over
    the same columns of ``model.params``."""
    cam, pose, model, pg, grads = grad_case
    assert grads.shape == model.params.shape
    for name in names:
        num = _central_difference(cam, pose, model, pg, getattr(model, name))
        _assert_close(getattr(SplatModel(grads), name), num)


class TestBackwardMatchesCentralDifferences:
    """The backward pass's (N, 12) gradient against central differences over
    ``model.params``; the first four tests cover every column between them."""

    def test_centers(self, grad_case):
        _assert_matches_central_differences(grad_case, "centers")

    def test_scales(self, grad_case):
        _assert_matches_central_differences(grad_case, "log_scales")

    def test_opacity(self, grad_case):
        _assert_matches_central_differences(grad_case, "logit_opacity")

    def test_raw_tangents_through_gram_schmidt(self, grad_case):
        _assert_matches_central_differences(grad_case, "raw_t_alpha", "raw_t_beta")

    def test_stale_records_raise(self, grad_case):
        cam, pose, model, pg, _ = grad_case
        _, rec = rasterize_forward(cam, pose, model, pixel_grads=_rule(pg))
        model.touch()
        with pytest.raises(GeometryError):
            rasterize_backward(model, rec)


def _opaque_stack(rng):
    """(cam, pose, model) of :class:`TestBackwardOnAnOpaqueStack`."""
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
    return cam, pose, model


class TestBackwardOnAnOpaqueStack(TestBackwardMatchesCentralDifferences):
    """The same checks on 16 camera-facing splats stacked 2.5 to 4.5 m along
    the view, each centred on a pixel ray.

    Opacities of 0.993 to 0.998 put alpha at the 0.99 clamp around those
    pixels, the stack drives transmittance below the early-stop threshold,
    and two more splats lie behind the sensor, outside the view.
    """

    @pytest.fixture
    def grad_case(self, rng):
        return _with_gradients(*_opaque_stack(rng), rng, getattr(self, "batch_pairs", None))

    def test_reaches_the_clamp_and_the_early_stop(self, grad_case):
        cam, pose, model, _, _ = grad_case
        clamped, stopped = _branch_counts(cam, pose, model)
        assert clamped >= 10
        assert stopped >= 100

    def test_splats_outside_the_view_get_zero_gradients(self, grad_case):
        *_, grads = grad_case
        assert not np.any(grads[-2:])
        assert np.all(np.any(grads[:-2], axis=0))


@pytest.mark.parametrize("case", ["shell", "half_behind", "opaque_stack"])
def test_range_is_positive_wherever_opacity_is(full_cam, rng, case):
    """Every blended pair lies in front of the sensor, so
    :meth:`RenderOutput.surface` needs no test on range."""
    if case == "opaque_stack":
        cam, pose, model = _opaque_stack(rng)
    else:
        cam, pose = full_cam, _pose()
        model = random_model(300, rng, behind_frac=0.5 if case == "half_behind" else 0.0)
    out, _ = rasterize_forward(cam, pose, model)
    assert np.all(out.range[out.opacity > 0] > 0)
    mask, depth = out.surface()
    assert mask.any() and np.array_equal(mask, out.opacity > 0.5)
    assert np.all(depth[mask] > 0) and not np.any(depth[~mask])


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
    blocked, rec = rasterize_forward(cam, pose, model, pixel_grads=_rule(pg))
    # a full tile is screened in three blocks or more
    assert np.max(np.diff(rec.tile_ptr)) > 2 * chunk_size
    # smaller blocks change no bit of the images
    for c in CHANNELS:
        assert np.array_equal(getattr(blocked, c), getattr(out, c)), c
    _assert_close(rasterize_backward(model, rec), grads, rel=1e-12)


def test_screening_blocks_do_not_change_render_bits(full_cam, monkeypatch):
    """Small chunk sizes screen a full tile in blocks of a few pixels, some
    of one; neither the block size nor a mask changes a pixel's bits."""
    model = random_model(400, np.random.default_rng(3))
    full, rec = rasterize_forward(full_cam, _pose(), model)
    mask = np.random.default_rng(4).random((full_cam.height, full_cam.width)) < 0.5
    # a full tile is screened in three blocks or more
    assert np.max(np.diff(rec.tile_ptr)) > 2 * 4
    for chunk_size in (1, 2, 4):
        monkeypatch.setattr(rasterizer, "RASTER_CONFIG",
                            dataclasses.replace(RASTER_CONFIG, chunk_size=chunk_size))
        blocked, _ = rasterize_forward(full_cam, _pose(), model)
        for c in CHANNELS:
            assert np.array_equal(getattr(blocked, c), getattr(full, c)), (chunk_size, c)
        if chunk_size == 1:
            _assert_masked(rasterize_forward(full_cam, _pose(), model, mask=mask)[0], full, mask)
    assert np.mean(full.opacity > 0) > 0.3


class _InBatchesOfOne:
    """Takes the analytic gradients from a render that blends one pixel per
    batch.  The central differences render at the default size, which
    gives the same images.
    """

    batch_pairs = 1


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
    small, rec = rasterize_forward(cam, pose, model, pixel_grads=_rule(pg))
    for c in CHANNELS:
        assert np.array_equal(getattr(small, c), getattr(out, c))
    _assert_close(rasterize_backward(model, rec), grads, rel=1e-12)


def test_the_near_test_is_conservative(full_cam, rng, monkeypatch):
    """A 3x wider near test (and binning) finds no pair that adds to the image."""
    model = random_model(150, rng, behind_frac=0.5)
    pose = _pose()
    out, _ = rasterize_forward(full_cam, pose, model)
    cutoff = rasterizer._kernel_cutoff
    monkeypatch.setattr(rasterizer, "_kernel_cutoff", lambda opacity: 3.0 * cutoff(opacity))
    wide, _ = rasterize_forward(full_cam, pose, model)
    for c in CHANNELS:
        scale = float(np.max(np.abs(getattr(out, c))))
        assert float(np.max(np.abs(getattr(wide, c) - getattr(out, c)))) <= 1e-13 * scale


class TestRecordsServeOneBackwardPass:
    def test_records_without_gradients_raise(self, grad_case):
        cam, pose, model, _, _ = grad_case
        _, rec = rasterize_forward(cam, pose, model)
        assert rec.splat_grads is None
        with pytest.raises(GeometryError, match="pixel_grads"):
            rasterize_backward(model, rec)

    def test_a_render_without_pairs_gives_zero_rows(self, grad_case):
        cam, pose, _, pg, _ = grad_case
        behind = SplatModel()
        behind.append(pose.apply([[-3.0, 0.0, 0.0]]), [[0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]],
                      [[0.2, 0.2]], [0.5], 0)
        _, rec = rasterize_forward(cam, pose, behind, pixel_grads=_rule(pg))
        assert rec.pair_splats.size == 0
        grads = rasterize_backward(behind, rec)
        assert grads.shape == (1, 12) and not grads.any()


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
