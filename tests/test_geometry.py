import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splatscan
from splatscan.errors import GeometryError
from splatscan.geometry import (
    SphericalCamera,
    build_range_image,
    estimate_camera,
    facing_sensor,
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
        pts = r[:, None] * ray_direction(*((uv - [cam.cx, cam.cy]) / [cam.fx, cam.fy]).T)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), r, rtol=1e-12)
        np.testing.assert_allclose(cam.project(pts), uv, atol=1e-9)

    def test_round_trip_wraps_at_seam(self, rng):
        # full 2pi span: u is only defined modulo the width
        cam = self.make()
        uv = np.stack([rng.uniform(-0.5, cam.width - 0.5, 200),
                       rng.uniform(0, cam.height - 1, 200)], axis=-1)
        pts = 5.0 * ray_direction(*((uv - [cam.cx, cam.cy]) / [cam.fx, cam.fy]).T)
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
        D = build_range_image(cam, np.stack([d * 5.0, d * 2.0]))
        assert np.count_nonzero(D) == 1
        assert D.max() == pytest.approx(2.0)

    def test_empty_pixels_zero_invalid(self):
        cam = SphericalCamera(8, 4, -1.0, 1.0, -0.5, 0.5)
        p = ray_direction(0.0, 0.0)[None] * 3.0
        D = build_range_image(cam, p)
        assert D.shape == (4, 8) and D.dtype == float
        cols, rows, _ = cam.pixel_of(p)
        assert np.count_nonzero(D) == 1 and D[rows[0], cols[0]] == pytest.approx(3.0)

    def test_positive_exactly_where_a_point_landed(self, rng):
        cam = SphericalCamera(16, 6, -0.8, 0.8, -0.3, 0.3)
        # points off the grid, at the origin and well inside it
        pts = np.concatenate([rng.normal(size=(300, 3)) * 4.0, np.zeros((5, 3))])
        D = build_range_image(cam, pts)
        assert D.shape == (6, 16) and D.dtype == float
        cols, rows, ok = cam.pixel_of(pts)
        ok &= np.linalg.norm(pts, axis=1) > 0
        reached = np.zeros((6, 16), dtype=bool)
        reached[rows[ok], cols[ok]] = True
        assert 0 < reached.sum() < reached.size
        np.testing.assert_array_equal(D > 0, reached)
        assert not D[~reached].any()

    def test_origin_points_dropped(self):
        cam = SphericalCamera(8, 4, -1.0, 1.0, -0.5, 0.5)
        assert not build_range_image(cam, np.zeros((10, 3))).any()

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
        assert np.all(build_range_image(cam, cloud) > 0)
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
        return np.where(dirs[..., 2] < -1e-6, t, 0.0)

    def test_flat_floor_normals_point_up(self):
        cam = SphericalCamera(64, 16, -np.pi, np.pi, -np.deg2rad(40), -np.deg2rad(5))
        normals = range_image_normals(cam, self.floor_image(cam))
        has = normals.any(axis=-1)
        n = normals[has]
        assert has.sum() > 100
        np.testing.assert_allclose(n[:, 2], 1.0, atol=1e-6)

    def test_normals_unit_and_sensor_facing(self, full_cam, rng):
        pts = rng.normal(size=(2000, 3)) * 4.0
        normals = range_image_normals(full_cam, build_range_image(full_cam, pts))
        has = normals.any(axis=-1)
        n = normals[has]
        np.testing.assert_allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-9)
        dirs = full_cam.pixel_directions[has]
        assert np.all(np.sum(n * dirs, axis=1) <= 1e-12)

    def test_needs_all_four_neighbors(self):
        cam = SphericalCamera(8, 4, -1.0, 1.0, -0.5, 0.5)
        img = np.full((4, 8), 3.0)
        img[1, 3] = 0.0
        normals = range_image_normals(cam, img)
        assert normals.shape == (4, 8, 3)
        # the hole and its cross neighbors all lose their normal: they read 0
        for r, c in [(1, 3), (0, 3), (2, 3), (1, 2), (1, 4)]:
            assert not normals[r, c].any()


def test_facing_sensor_normals_are_unit_and_face_the_ray(rng):
    rays = rng.normal(size=(6, 8, 3))
    rays /= np.linalg.norm(rays, axis=-1, keepdims=True)
    normals = rng.normal(size=(6, 8, 3)) * rng.uniform(0.01, 10.0, (6, 8, 1))
    normals[0] = 0.0  # too short to normalize: they face the sensor head on
    normals[1, :4] = rays[1, :4]  # pointing along the ray: flipped
    n = facing_sensor(normals, rays)
    assert n.shape == (6, 8, 3)
    np.testing.assert_allclose(np.linalg.norm(n, axis=-1), 1.0, atol=1e-12)
    assert np.all(np.sum(n * rays, axis=-1) <= 0.0)
    np.testing.assert_allclose(n[0], -rays[0], atol=1e-12)
    np.testing.assert_allclose(n[1, :4], -rays[1, :4], atol=1e-12)
    # the same rule on (N, 3) rows
    np.testing.assert_array_equal(facing_sensor(normals.reshape(-1, 3), rays.reshape(-1, 3)),
                                  n.reshape(-1, 3))


class TestSmoothRangeImage:
    def test_constant_unchanged(self):
        img = np.full((6, 10), 4.0)
        np.testing.assert_array_equal(smooth_range_image(img), img)

    def test_median_removes_salt_noise(self):
        base = np.full((6, 10), 4.0)
        base[3, 5] = 9.0
        assert smooth_range_image(base)[3, 5] == pytest.approx(4.0)

    def test_invalid_pixels_excluded_from_windows(self):
        base = np.full((6, 10), 4.0)
        base[3, 5] = 0.0
        out = smooth_range_image(base)
        # neighbors keep their value; the hole itself stays 0
        np.testing.assert_array_equal(out > 0, base > 0)
        assert out[3, 4] == pytest.approx(4.0)

    def test_wrap_smooths_across_seam(self):
        base = np.full((6, 10), 4.0)
        base[3, 0] = 9.0
        assert smooth_range_image(base, wrap=True)[3, 0] == pytest.approx(4.0)

    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (5, 7), (8, 16), (16, 40)])
    def test_equals_a_per_pixel_median_of_the_3x3_window(self, shape, wrap):
        """Rows past the image repeat the edge row; columns wrap when
        ``wrap`` and repeat the edge otherwise; an empty cell is +inf, so a
        pixel with 5 or more empty cells of 9 keeps its range."""
        h, w = shape
        rng = np.random.default_rng(h * 100 + w)
        for holes in (0.0, 0.2, 0.5, 0.8):
            D = rng.uniform(0.5, 30.0, shape) * (rng.random(shape) >= holes)
            expected = D.copy()
            for r in range(h):
                for c in range(w):
                    cells = sorted(
                        D[rr, cc] if D[rr, cc] > 0 else np.inf
                        for rr in (max(r - 1, 0), r, min(r + 1, h - 1))
                        for cc in (((c - 1) % w, c, (c + 1) % w) if wrap
                                   else (max(c - 1, 0), c, min(c + 1, w - 1))))
                    if D[r, c] > 0 and np.isfinite(cells[4]):
                        expected[r, c] = cells[4]
            assert np.array_equal(smooth_range_image(D, wrap), expected), holes


def test_importing_the_package_leaves_scipy_ndimage_unloaded():
    src = os.path.dirname(os.path.dirname(splatscan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, splatscan; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


@settings(max_examples=25)
@given(st.integers(3, 40), st.integers(3, 12),
       st.sampled_from([(-2.0, 1.3, -0.7, 0.5), (-1.0, 1.0, -0.7, 0.7),
                        (-np.pi, np.pi, -np.pi / 2, np.pi / 2)]))
def test_sample_grid_covers_bounds(w, h, bounds):
    """The outermost samples sit exactly on the angular bounds."""
    cam = SphericalCamera(w, h, *bounds)
    grid = np.stack(np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float)), axis=-1)
    az, el = np.moveaxis((grid - [cam.cx, cam.cy]) / [cam.fx, cam.fy], -1, 0)
    assert az[0, 0] == pytest.approx(cam.az_max, abs=1e-9)
    assert az[0, -1] == pytest.approx(cam.az_min, abs=1e-9)
    assert el[0, 0] == pytest.approx(cam.el_max, abs=1e-9)
    assert el[-1, 0] == pytest.approx(cam.el_min, abs=1e-9)
    np.testing.assert_allclose(cam.pixel_directions, ray_direction(az, el), atol=1e-12)


@pytest.mark.parametrize("height", [9, 16])
def test_every_pixel_ray_is_the_unit_vector_of_its_angles(height):
    """Each pixel ray is the unit vector of its azimuth and elevation, the
    poles' rays included (height 9 puts rows 0 and 8 on the poles)."""
    cam = SphericalCamera(16, height, -np.pi, np.pi - np.pi / 8, -np.pi / 2, np.pi / 2)
    v = cam.pixel_directions
    assert v.shape == (height, 16, 3) and cam.pixel_directions is v
    np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0, atol=1e-15)
    az = (np.arange(16) - cam.cx) / cam.fx
    el = (np.arange(height)[:, None] - cam.cy) / cam.fy
    np.testing.assert_allclose(v[..., 2], np.broadcast_to(np.sin(el), (height, 16)), atol=1e-15)
    # a ray's angles are its pixel's; the poles' rays are the z axis itself
    ray_az, ray_el = spherical_coords(v)
    np.testing.assert_allclose(ray_el, np.broadcast_to(el, (height, 16)), atol=1e-12)
    np.testing.assert_allclose(ray_az[1:-1], np.broadcast_to(az, (height - 2, 16)), atol=1e-12)
    for row, z in ((0, 1.0), (-1, -1.0)):
        np.testing.assert_allclose(v[row], np.broadcast_to([0.0, 0.0, z], (16, 3)), atol=1e-15)
