"""The synthetic inputs: trajectory shapes and the closed-form plane."""

import numpy as np
import pytest

from splatscan.se3 import so3_exp
from splatscan.synth import Plane, make_trajectory


@pytest.mark.parametrize("steps, tol", [(24, 0.01), (400, 1e-4)])
def test_figure8_is_a_planar_loop_of_the_requested_length(steps, tol):
    """24 steps over 6 m is the relocalization benchmark's path."""
    traj = make_trajectory("figure8", 6.0, steps)
    assert len(traj) == steps
    np.testing.assert_allclose(traj.stamps, 0.1 * np.arange(steps), rtol=0, atol=1e-12)
    p = np.array([pose.translation for pose in traj.poses])
    R = np.array([pose.rotation for pose in traj.poses])
    # in the z = 0 plane, turning about z only
    assert not p[:, 2].any()
    assert np.array_equal(R[:, 2], np.tile([0.0, 0.0, 1.0], (steps, 1)))
    assert np.array_equal(R[:, :, 2], np.tile([0.0, 0.0, 1.0], (steps, 1)))
    # a closed loop: the segments, the one back to the start included, add up
    # to the requested length, short of it only by the chords of the curve
    seg = np.linalg.norm(np.diff(np.vstack([p, p[:1]]), axis=0), axis=1)
    assert 6.0 * (1.0 - tol) < seg.sum() <= 6.0
    # the sensor's forward axis follows the direction of travel
    travel = np.roll(p, -1, axis=0) - np.roll(p, 1, axis=0)
    travel /= np.linalg.norm(travel, axis=1, keepdims=True)
    assert np.einsum("ij,ij->i", R[:, :, 0], travel).min() > 0.99


@pytest.fixture
def plane():
    axes = so3_exp([0.4, -0.7, 0.2])
    return Plane([1.0, -2.0, 0.5], axes[:, 0], axes[:, 1], 2.0, 0.5)


def _on_plane(plane, lu, lv):
    return plane.origin + np.outer(lu, plane.e_u) + np.outer(lv, plane.e_v)


def test_plane_raycast_hits_at_the_analytic_distance(plane, rng):
    n = 500
    targets = _on_plane(plane, rng.uniform(-1.99, 1.99, n), rng.uniform(-0.49, 0.49, n))
    # from either side of the plane, head on or oblique
    side = rng.choice([-1.0, 1.0], n)
    origins = targets + side[:, None] * (rng.uniform(0.5, 5.0, (n, 1)) * plane.normal
                                         + rng.normal(size=(n, 3)) * 0.5)
    offset = targets - origins
    dist = np.linalg.norm(offset, axis=1)
    t = plane.raycast(origins, offset / dist[:, None])
    np.testing.assert_allclose(t, dist, rtol=1e-12)


def test_plane_raycast_misses(plane):
    n = plane.normal
    inside = _on_plane(plane, [0.3], [0.1])[0]
    outside = [_on_plane(plane, [2.1], [0.0])[0], _on_plane(plane, [0.0], [-0.6])[0]]
    origins = np.array([
        outside[0] + 2.0 * n,  # toward a point past the rectangle's edge
        outside[1] + 2.0 * n,
        inside + 2.0 * n,      # parallel to the plane
        inside,                # parallel, inside the plane itself
        inside + 2.0 * n,      # the plane is behind the ray
    ])
    dirs = np.array([-n, -n, plane.e_u, plane.e_v, n])
    assert np.isinf(plane.raycast(origins, dirs)).all()


def test_plane_surface_points_lie_on_the_rectangle(plane, rng):
    pts, normals = plane.surface_points(1000, rng)
    assert pts.shape == normals.shape == (1000, 3)
    local = pts - plane.origin
    np.testing.assert_allclose(local @ plane.normal, 0.0, atol=1e-12)
    assert np.abs(local @ plane.e_u).max() <= 2.0 + 1e-12
    assert np.abs(local @ plane.e_v).max() <= 0.5 + 1e-12
    assert np.array_equal(normals, np.tile(plane.normal, (1000, 1)))
    # every sample is a hit of the ray that comes at it along the normal
    t = plane.raycast(pts + plane.normal, np.tile(-plane.normal, (1000, 1)))
    np.testing.assert_allclose(t, 1.0, rtol=1e-12)
