import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatscan.errors import GeometryError
from splatscan.geometry import (
    RangeImage,
    SphericalCamera,
    build_range_image,
    estimate_camera,
    range_image_normals,
    ray_direction,
    smooth_range_image,
    spherical_coords,
)
from splatscan.se3 import SE3Pose, so3_exp
from splatscan.synth import ScanSpec, raycast_scan, room_with_boxes

finite = st.floats(-50.0, 50.0, allow_nan=False)


@given(st.tuples(finite, finite, finite))
def test_angles_round_trip(p):
    p = np.asarray(p)
    r = np.linalg.norm(p)
    if r < 1e-6:
        return
    az, el = spherical_coords(p)
    back = r * ray_direction(az, el)
    np.testing.assert_allclose(back, p, atol=1e-9 * max(r, 1.0))


@given(st.floats(-np.pi, np.pi), st.floats(-1.5, 1.5))
def test_ray_direction_unit(az, el):
    assert np.linalg.norm(ray_direction(az, el)) == pytest.approx(1.0, abs=1e-12)


class TestCamera:
    def make(self):
        return SphericalCamera(64, 16, -np.pi, np.pi,
                               -np.deg2rad(20.0), np.deg2rad(15.0))

    def test_validation(self):
        with pytest.raises(GeometryError):
            SphericalCamera(1, 16, -1.0, 1.0, -0.5, 0.5)
        with pytest.raises(GeometryError):
            SphericalCamera(64, 16, 1.0, -1.0, -0.5, 0.5)
        with pytest.raises(GeometryError):
            SphericalCamera(64, 16, -1.0, 1.0, -2.0, 0.5)

    def test_project_back_project_round_trip(self, rng):
        cam = SphericalCamera(64, 16, -2.5, 2.5,
                              -np.deg2rad(20.0), np.deg2rad(15.0))
        uv = np.stack([rng.uniform(0, cam.width - 1, 200),
                       rng.uniform(0, cam.height - 1, 200)], axis=-1)
        r = rng.uniform(0.5, 30.0, 200)
        pts = cam.back_project(uv, r)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), r, rtol=1e-12)
        np.testing.assert_allclose(cam.project(pts), uv, atol=1e-9)

    def test_round_trip_wraps_at_seam(self, rng):
        # full 2pi span: u is only defined modulo the width
        cam = self.make()
        uv = np.stack([rng.uniform(-0.5, cam.width - 0.5, 200),
                       rng.uniform(0, cam.height - 1, 200)], axis=-1)
        pts = cam.back_project(uv, np.full(200, 5.0))
        got = cam.project(pts)
        period = -2.0 * np.pi * cam.fx
        du = (got[:, 0] - uv[:, 0] + period / 2) % period - period / 2
        np.testing.assert_allclose(du, 0.0, atol=1e-9)
        np.testing.assert_allclose(got[:, 1], uv[:, 1], atol=1e-9)

    def test_projection_convention(self):
        # angular extremes sit exactly W-1 / H-1 pixels apart, u falling with az
        cam = SphericalCamera(64, 16, -2.0, 1.1, -0.4, 0.25)
        tl = cam.project(ray_direction(cam.az_max, cam.el_max))
        br = cam.project(ray_direction(cam.az_min, cam.el_min))
        assert br[0] - tl[0] == pytest.approx(cam.width - 1)
        assert br[1] - tl[1] == pytest.approx(cam.height - 1)
        az = np.linspace(cam.az_min, cam.az_max, 9)
        u = cam.project(ray_direction(az, np.zeros(9)))[:, 0]
        assert np.all(np.diff(u) < 0)

    def test_pixel_of_rounds_half_up(self):
        cam = self.make()
        az = (3.5 - cam.cx) / cam.fx
        p = ray_direction(az, 0.0)
        cols, rows, ok = cam.pixel_of(p)
        assert ok and cols == 4

    def test_out_of_bounds_masked(self):
        cam = SphericalCamera(32, 8, -1.0, 1.0, -0.3, 0.3)
        _, _, ok = cam.pixel_of(np.array([-5.0, 0.0, 0.0]))   # behind
        assert not ok

    def test_full_circle_detection(self):
        w = 64
        pitch = 2.0 * np.pi / w
        wrap = SphericalCamera(w, 8, -np.pi, np.pi - pitch, -0.3, 0.3)
        assert wrap.full_circle
        assert not SphericalCamera(w, 8, -1.0, 1.0, -0.3, 0.3).full_circle


class TestEstimateCamera:
    def test_bounds_are_cloud_extremes(self, rng):
        pts = rng.normal(size=(500, 3)) * 5.0
        cam = estimate_camera(pts, 128, 32)
        az, el = spherical_coords(pts)
        assert cam.az_min == pytest.approx(az.min())
        assert cam.az_max == pytest.approx(az.max())
        assert cam.el_min == pytest.approx(el.min())
        assert cam.el_max == pytest.approx(el.max())

    def test_points_project_inside_up_to_border_rounding(self, rng):
        pts = rng.normal(size=(500, 3)) * 3.0
        cam = estimate_camera(pts, 64, 16)
        _, _, ok = cam.pixel_of(pts)
        assert ok.mean() > 0.99
        # only rounding at the grid border may drop a point
        uv = cam.project(pts[~ok])
        inside_half = ((uv[:, 0] > 0.4) & (uv[:, 0] < cam.width - 1.4)
                       & (uv[:, 1] > 0.4) & (uv[:, 1] < cam.height - 1.4))
        assert not inside_half.any()

    def test_rejects_degenerate_clouds(self):
        with pytest.raises(GeometryError):
            estimate_camera(np.zeros((5, 3)), 64, 16)
        with pytest.raises(GeometryError):
            estimate_camera(np.zeros((0, 3)), 64, 16)


class TestRangeImage:
    def test_collision_keeps_nearest(self):
        cam = SphericalCamera(8, 4, -1.0, 1.0, -0.5, 0.5)
        d = ray_direction(0.0, 0.0)
        rimg = build_range_image(cam, np.stack([d * 5.0, d * 2.0]))
        assert rimg.valid.sum() == 1
        assert rimg.range[rimg.valid] == pytest.approx(2.0)

    def test_empty_pixels_zero_invalid(self):
        cam = SphericalCamera(8, 4, -1.0, 1.0, -0.5, 0.5)
        rimg = build_range_image(cam, ray_direction(0.0, 0.0)[None] * 3.0)
        assert rimg.range[~rimg.valid].sum() == 0.0

    def test_origin_points_dropped(self):
        cam = SphericalCamera(8, 4, -1.0, 1.0, -0.5, 0.5)
        rimg = build_range_image(cam, np.zeros((10, 3)))
        assert not rimg.valid.any()

    @pytest.mark.parametrize("spec", [
        ScanSpec(1024, 16, el_min=-np.deg2rad(15.0), el_max=np.deg2rad(15.0)),
        ScanSpec(128, 32, el_min=-0.7, el_max=0.7),
        ScanSpec(),
    ], ids=["1024x16-15deg", "128x32-0.7rad", "default"])
    def test_every_scan_point_gets_its_own_pixel(self, spec):
        pose = SE3Pose(so3_exp([0.0, 0.0, 0.4]), [0.5, -0.5, 0.1])
        cloud = raycast_scan(room_with_boxes(seed=0), pose, spec).cloud
        assert cloud.shape[0] == spec.width * spec.height
        cam = estimate_camera(cloud, spec.width, spec.height)
        assert build_range_image(cam, cloud).valid.all()
        cols, rows, ok = cam.pixel_of(cloud)
        assert ok.all()
        dirs = cloud / np.linalg.norm(cloud, axis=1, keepdims=True)
        np.testing.assert_allclose(cam.pixel_directions[rows, cols], dirs, atol=1e-12)

    def test_points_go_to_the_nearest_sample(self):
        spec = ScanSpec()
        cam = SphericalCamera(spec.width, spec.height, -np.pi, np.pi - 2 * np.pi / spec.width,
                              spec.el_min, spec.el_max)
        pitch = (spec.el_max - spec.el_min) / (spec.height - 1)
        el = np.linspace(spec.el_max, spec.el_min, spec.height)
        p = ray_direction(0.0, [el[10] - 0.3 * pitch, el[10] + 0.3 * pitch])
        _, rows, ok = cam.pixel_of(p)
        assert ok.all()
        np.testing.assert_array_equal(rows, [10, 10])


class TestNormals:
    def floor_image(self, cam, z=-1.5):
        dirs = cam.pixel_directions
        t = z / dirs[..., 2]
        valid = dirs[..., 2] < -1e-6
        return RangeImage(np.where(valid, t, 0.0), valid & (t > 0))

    def test_flat_floor_normals_point_up(self):
        cam = SphericalCamera(64, 16, -np.pi, np.pi, -np.deg2rad(40), -np.deg2rad(5))
        nimg = range_image_normals(cam, self.floor_image(cam))
        n = nimg.normals[nimg.valid]
        assert nimg.valid.sum() > 100
        np.testing.assert_allclose(n[:, 2], 1.0, atol=1e-6)

    def test_normals_unit_and_sensor_facing(self, full_cam, rng):
        pts = rng.normal(size=(2000, 3)) * 4.0
        rimg = build_range_image(full_cam, pts)
        nimg = range_image_normals(full_cam, rimg)
        n = nimg.normals[nimg.valid]
        np.testing.assert_allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-9)
        dirs = full_cam.pixel_directions[nimg.valid]
        assert np.all(np.sum(n * dirs, axis=1) <= 1e-12)

    def test_needs_all_four_neighbors(self):
        cam = SphericalCamera(8, 4, -1.0, 1.0, -0.5, 0.5)
        img = np.full((4, 8), 3.0)
        valid = np.ones((4, 8), bool)
        valid[1, 3] = False
        nimg = range_image_normals(cam, RangeImage(img, valid))
        # the hole and its cross neighbors all lose their normal
        for r, c in [(1, 3), (0, 3), (2, 3), (1, 2), (1, 4)]:
            assert not nimg.valid[r, c]


class TestSmoothRangeImage:
    def test_constant_unchanged(self):
        img = RangeImage(np.full((6, 10), 4.0), np.ones((6, 10), bool))
        out = smooth_range_image(img)
        np.testing.assert_array_equal(out.range, img.range)
        np.testing.assert_array_equal(out.valid, img.valid)

    def test_median_removes_salt_noise(self):
        base = np.full((6, 10), 4.0)
        base[3, 5] = 9.0
        out = smooth_range_image(RangeImage(base, np.ones((6, 10), bool)))
        assert out.range[3, 5] == pytest.approx(4.0)

    def test_invalid_pixels_excluded_from_windows(self):
        base = np.full((6, 10), 4.0)
        valid = np.ones((6, 10), bool)
        base[3, 5] = 0.0
        valid[3, 5] = False
        out = smooth_range_image(RangeImage(base, valid))
        # neighbors keep their value; the hole itself is untouched
        assert out.range[3, 4] == pytest.approx(4.0)
        assert out.range[3, 5] == 0.0
        np.testing.assert_array_equal(out.valid, valid)

    def test_wrap_smooths_across_seam(self):
        base = np.full((6, 10), 4.0)
        base[3, 0] = 9.0
        out = smooth_range_image(RangeImage(base, np.ones((6, 10), bool)), wrap=True)
        assert out.range[3, 0] == pytest.approx(4.0)


@settings(max_examples=25)
@given(st.integers(3, 40), st.integers(3, 12),
       st.sampled_from([(-2.0, 1.3, -0.7, 0.5), (-1.0, 1.0, -0.7, 0.7),
                        (-np.pi, np.pi, -np.pi / 2, np.pi / 2)]))
def test_sample_grid_covers_bounds(w, h, bounds):
    """The outermost samples sit exactly on the angular bounds."""
    cam = SphericalCamera(w, h, *bounds)
    az, el = cam.angles_of(cam.pixel_grid)
    assert az[0, 0] == pytest.approx(cam.az_max, abs=1e-9)
    assert az[0, -1] == pytest.approx(cam.az_min, abs=1e-9)
    assert el[0, 0] == pytest.approx(cam.el_max, abs=1e-9)
    assert el[-1, 0] == pytest.approx(cam.el_min, abs=1e-9)
    np.testing.assert_allclose(cam.pixel_directions, ray_direction(az, el), atol=1e-12)


@pytest.mark.parametrize("height", [9, 16])
def test_every_pixel_ray_has_two_orthonormal_planes(height):
    """Both planes contain the ray, the poles' rays included (height 9 puts
    rows 0 and 8 on the poles), and h_x is the ray's vertical plane."""
    cam = SphericalCamera(16, height, -np.pi, np.pi - np.pi / 8, -np.pi / 2, np.pi / 2)
    hx, hy = cam.pixel_ray_planes
    v = cam.pixel_directions
    for a, b in ((hx, hx), (hy, hy), (hx, hy), (hx, v), (hy, v)):
        expected = 1.0 if a is b else 0.0
        np.testing.assert_allclose(np.sum(a * b, axis=-1), expected, atol=1e-12)
    assert not hx[..., 2].any()
    # away from the poles, h_x is (v x z) / |v x z|
    vz = np.cross(v[1:-1], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(hx[1:-1], vz / np.linalg.norm(vz, axis=-1, keepdims=True),
                               atol=1e-12)
