"""The neighbour rule of the range-image stencils: rows never wrap; columns
wrap across the azimuth seam on full-circle cameras only.

Each stencil that uses the rule is checked at the seam: keyframe normals,
the range-gradient weights that steer spawning, and the range-jump mask
of registration's model sampling.
"""

import numpy as np
import pytest

from splatscan.geometry import SphericalCamera, range_image_normals
from splatscan.mapping import Keyframe, _range_gradient_weights
from splatscan.registration import _jump_mask
from splatscan.se3 import SE3Pose

W, H = 32, 8
EL = (-np.deg2rad(20.0), np.deg2rad(15.0))
# the ramp climbs 3 m over the columns, so only the seam jumps by 3 m
NEAR, FAR = 5.0, 8.0
STEP = (FAR - NEAR) / (W - 1)
GATE = 0.5


def full_camera():
    cam = SphericalCamera(W, H, -np.pi, np.pi, *EL)
    assert cam.full_circle
    return cam


def partial_camera():
    cam = SphericalCamera(W, H, -np.pi / 2, np.pi / 2, *EL)
    assert not cam.full_circle
    return cam


CAMERAS = [pytest.param(full_camera, True, id="full"),
           pytest.param(partial_camera, False, id="partial")]


def ramp():
    """Every pixel has a range; it rises by STEP per column from NEAR to FAR."""
    return np.tile(NEAR + STEP * np.arange(W), (H, 1))


@pytest.mark.parametrize("make_cam, wraps", CAMERAS)
def test_normals_reach_the_edge_columns_only_across_the_seam(make_cam, wraps):
    cam = make_cam()
    normals = range_image_normals(cam, np.full((H, W), NEAR))
    has = normals.any(axis=-1)
    inner = slice(1, H - 1)
    assert has[inner, 1:-1].all()
    # rows never wrap
    assert not has[0].any() and not has[-1].any()
    assert has[inner, 0].all() == wraps
    assert has[inner, -1].all() == wraps
    assert has[inner, 0].any() == wraps
    assert has[inner, -1].any() == wraps
    norms = np.linalg.norm(normals[has], axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


@pytest.mark.parametrize("make_cam, wraps", CAMERAS)
def test_jump_mask_flags_the_seam_only_when_it_wraps(make_cam, wraps):
    cam = make_cam()
    bad = _jump_mask(ramp(), GATE, cam.full_circle)
    assert bad[:, 1:-1].sum() == 0
    assert bad[:, 0].all() == wraps and bad[:, -1].all() == wraps
    assert bad[:, 0].any() == wraps and bad[:, -1].any() == wraps


@pytest.mark.parametrize("make_cam, wraps", CAMERAS)
def test_jump_mask_skips_pixels_without_a_range(make_cam, wraps):
    """A 0 pixel is no range, not a jump: it is never flagged and flags none
    of its neighbors, inside the image or on the seam."""
    cam = make_cam()
    D = ramp()
    D[3, 10] = 0.0
    D[5, 0] = 0.0
    bad = _jump_mask(D, GATE, cam.full_circle)
    expected = np.zeros((H, W), dtype=bool)
    expected[:, [0, -1]] = wraps
    expected[5, [0, -1]] = False
    np.testing.assert_array_equal(bad, expected)


@pytest.mark.parametrize("make_cam, wraps", CAMERAS)
def test_range_gradient_sees_the_seam_only_when_it_wraps(make_cam, wraps):
    cam = make_cam()
    D = ramp()
    kf = Keyframe(0, SE3Pose.identity(), cam, D, range_image_normals(cam, D))
    mag = _range_gradient_weights(kf)
    # away from the seam the gradient is the ramp's step
    np.testing.assert_allclose(mag[:, 1:-1], STEP, rtol=1e-12)
    # at the seam a wrapping camera sees the 3 m jump in a central difference
    expected = 0.5 * (FAR - NEAR - STEP) if wraps else STEP
    np.testing.assert_allclose(mag[:, 0], expected, rtol=1e-12)
    np.testing.assert_allclose(mag[:, -1], expected, rtol=1e-12)
