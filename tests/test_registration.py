import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from conftest import surface_model
from splatscan.geometry import estimate_camera
from splatscan.registration import register
from splatscan.se3 import SE3Pose, so3_exp
from splatscan.synth import ScanSpec, raycast_scan, room_with_boxes

# +-40 deg of elevation: floor and ceiling are in view, so all six degrees of
# freedom are observable
SPEC = ScanSpec(128, 32, el_min=-0.7, el_max=0.7, noise_sigma=0.01)
TRUE = SE3Pose(so3_exp([0.0, 0.0, 0.4]), [0.5, -0.5, 0.1])
OFFSET_M = 0.15
OFFSET_DEG = 3.0
N_MAPS = 4


@pytest.fixture(scope="module")
def errors():
    """Per map: sensor-frame translation error (m) and rotation error (deg).

    Each map is a fresh ``surface_model`` of the room and a fresh scan;
    ``register`` starts 15 cm and 3 deg off the true pose in a random
    direction and runs with the default config.
    """
    rng = np.random.default_rng(12345)
    scene = room_with_boxes(seed=0)
    out = []
    for _ in range(N_MAPS):
        model = surface_model(scene, TRUE.translation, 6000, rng, scale=0.12)
        scan = raycast_scan(scene, TRUE, SPEC, rng).cloud
        axis, direction = rng.normal(size=3), rng.normal(size=3)
        offset = SE3Pose(so3_exp(np.deg2rad(OFFSET_DEG) * axis / np.linalg.norm(axis)),
                         OFFSET_M * direction / np.linalg.norm(direction))
        cam = estimate_camera(scan, SPEC.width, SPEC.height)
        err = TRUE.inverse().compose(register(model, scan, cam, TRUE.compose(offset)).pose)
        angle = Rotation.from_matrix(err.rotation).magnitude()
        out.append((err.translation, np.rad2deg(angle)))
    return out


def test_register_recovers_rotation_and_horizontal_offset(errors):
    # measured over ten maps of this fixture: at most 1.3 mm horizontally and
    # 0.021 deg, against 15 cm / 3 deg
    for t, r in errors:
        assert np.linalg.norm(t[:2]) < 0.01
        assert r < 0.3


def test_register_recovers_vertical_offset(errors):
    # measured over ten maps of this fixture: at most 0.23 mm
    for t, _ in errors:
        assert abs(t[2]) < 0.01
