import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from conftest import surface_model
from splatscan import registration
from splatscan.geometry import estimate_camera
from splatscan.registration import REGISTRATION_CONFIG, LeafTree, _geo_system, register
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


@pytest.mark.parametrize("n_leaves", [1, 2])
def test_geo_system_on_fewer_leaves_than_candidates(n_leaves):
    # planes z = 0 and x = 1; each point keeps the closest plane among the
    # leaves within the association gate, and the far point has none
    centroids = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.5]])[:n_leaves]
    normals = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])[:n_leaves]
    tree = LeafTree(centroids, normals, cKDTree(centroids))
    assert tree.kdtree.n < REGISTRATION_CONFIG.assoc_k
    T = SE3Pose(so3_exp([0.01, -0.02, 0.03]), [0.02, -0.01, 0.01])
    scan = np.array([[0.1, 0.2, 0.03], [-0.2, 0.1, -0.05], [0.9, 0.0, 0.4],
                     [0.6, -0.1, 0.35], [5.0, 5.0, 5.0]])
    r, J = _geo_system(tree, scan, T, trim_floor=1.0)

    p_w = T.apply(scan)
    d = np.linalg.norm(p_w[:, None] - centroids, axis=2)
    pd = np.where(d <= REGISTRATION_CONFIG.assoc_gate,
                  np.abs(np.einsum("lj,plj->pl", normals, p_w[:, None] - centroids)), np.inf)
    ok = np.isfinite(pd).any(axis=1)
    assert ok.tolist() == [True, True, n_leaves == 2, True, False]
    leaf = pd.argmin(axis=1)[ok]
    n = normals[leaf]
    np.testing.assert_allclose(r, np.sum(n * (p_w[ok] - centroids[leaf]), axis=1), atol=1e-15)
    nR = n @ T.rotation
    np.testing.assert_allclose(J, np.concatenate([nR, np.cross(scan[ok], nR)], axis=1),
                               atol=1e-15)


def test_each_pose_and_floor_is_evaluated_once(monkeypatch):
    """An accepted trial is the next linearisation point: no residual family
    is evaluated twice at one pose and trim floor, and the reported counts
    and RMS are those of the last evaluation at the returned pose."""
    rng = np.random.default_rng(7)
    scene = room_with_boxes(seed=0)
    model = surface_model(scene, TRUE.translation, 6000, rng, scale=0.12)
    scan = raycast_scan(scene, TRUE, SPEC, rng).cloud
    cam = estimate_camera(scan, SPEC.width, SPEC.height)
    calls = {"geo": [], "photo": []}

    def recorded(name, system):
        def wrapped(*args):
            found = system(*args)
            T, floor = args[-2:]
            calls[name].append((T.matrix(), floor, found))
            return found
        return wrapped

    monkeypatch.setattr(registration, "_geo_system", recorded("geo", _geo_system))
    monkeypatch.setattr(registration, "_photo_system",
                        recorded("photo", registration._photo_system))
    start = TRUE.compose(SE3Pose(so3_exp([0.0, 0.0, np.deg2rad(OFFSET_DEG)]),
                                 [OFFSET_M, 0.0, 0.0]))
    result = register(model, scan, cam, start)

    for name, seen in calls.items():
        keys = [(M.tobytes(), floor) for M, floor, _ in seen]
        assert len(set(keys)) == len(keys), f"{name}: {len(keys) - len(set(keys))} repeats"
    at_pose = lambda name: [found for M, _, found in calls[name]
                            if np.allclose(M, result.pose.matrix(), rtol=0, atol=1e-12)]
    for name, n, rms in (("geo", result.n_geo, result.geo_rms),
                         ("photo", result.n_photo, result.photo_rms)):
        r, _ = at_pose(name)[-1]
        assert n == r.size > 0
        assert rms == float(np.sqrt(np.mean(r * r)))
