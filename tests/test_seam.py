"""The neighbour rule of the range-image stencils: rows never wrap; columns
wrap across the azimuth seam on full-circle cameras only.

Each stencil that uses the rule is checked at the seam: keyframe normals,
the range-gradient weights that steer spawning, and the range-jump mask
of registration's model sampling.
"""

import numpy as np
import pytest

from splatscan.geometry import RangeImage, SphericalCamera, range_image_normals
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
    """Every pixel valid; range rises by STEP per column from NEAR to FAR."""
    D = np.tile(NEAR + STEP * np.arange(W), (H, 1))
    return RangeImage(D, np.ones((H, W), dtype=bool))


@pytest.mark.parametrize("make_cam, wraps", CAMERAS)
def test_normals_reach_the_edge_columns_only_across_the_seam(make_cam, wraps):
    cam = make_cam()
    normals = range_image_normals(cam, RangeImage(np.full((H, W), NEAR), np.ones((H, W), bool)))
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
    rimg = ramp()
    bad = _jump_mask(rimg.range, rimg.valid, GATE, cam.full_circle)
    assert bad[:, 1:-1].sum() == 0
    assert bad[:, 0].all() == wraps and bad[:, -1].all() == wraps
    assert bad[:, 0].any() == wraps and bad[:, -1].any() == wraps


@pytest.mark.parametrize("make_cam, wraps", CAMERAS)
def test_range_gradient_sees_the_seam_only_when_it_wraps(make_cam, wraps):
    cam = make_cam()
    rimg = ramp()
    kf = Keyframe(0, SE3Pose.identity(), cam, rimg, range_image_normals(cam, rimg))
    mag = _range_gradient_weights(kf)
    # away from the seam the gradient is the ramp's step
    np.testing.assert_allclose(mag[:, 1:-1], STEP, rtol=1e-12)
    # at the seam a wrapping camera sees the 3 m jump in a central difference
    expected = 0.5 * (FAR - NEAR - STEP) if wraps else STEP
    np.testing.assert_allclose(mag[:, 0], expected, rtol=1e-12)
    np.testing.assert_allclose(mag[:, -1], expected, rtol=1e-12)
