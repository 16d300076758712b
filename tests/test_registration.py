import dataclasses

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from conftest import surface_model
from splatscan import registration
from splatscan.errors import GeometryError, RegistrationError
from splatscan.geometry import build_range_image, estimate_camera
from splatscan.registration import (REGISTRATION_CONFIG, LeafTree, _bilinear_range, _geo_system,
                                    _push_leaf, _trim, build_leaf_tree, register)
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


def _assert_brute_force_association(tree, scan, T, atol):
    """``_geo_system`` keeps, among the ``assoc_k`` nearest leaves within the
    gate, the one whose plane is closest; returns which points have one."""
    centroids, normals = tree.centroids, tree.normals
    r, jacobian = _geo_system(tree, scan, T)
    keep = _trim(r, floor=1.0)
    r, J = r[keep], jacobian(keep)
    p_w = T.apply(scan)
    diff = p_w[:, None] - centroids
    d = np.linalg.norm(diff, axis=2)
    rank = np.argsort(np.argsort(d, axis=1, kind="stable"), axis=1)
    candidate = (d <= REGISTRATION_CONFIG.assoc_gate) & (rank < REGISTRATION_CONFIG.assoc_k)
    pd = np.where(candidate, np.abs(np.einsum("lj,plj->pl", normals, diff)), np.inf)
    ok = np.isfinite(pd).any(axis=1)
    leaf = pd.argmin(axis=1)[ok]
    n = normals[leaf]
    np.testing.assert_allclose(r, np.sum(n * (p_w[ok] - centroids[leaf]), axis=1), atol=atol)
    nR = n @ T.rotation
    np.testing.assert_allclose(J, np.concatenate([nR, np.cross(scan[ok], nR)], axis=1),
                               atol=atol)
    return ok


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
    ok = _assert_brute_force_association(tree, scan, T, atol=1e-15)
    assert ok.tolist() == [True, True, n_leaves == 2, True, False]


def test_geo_system_on_a_tree_without_leaves():
    # two points make no plane: the tree indexes no leaf and nothing associates
    tree = build_leaf_tree(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), np.zeros(3))
    assert tree.kdtree.n == 0 and tree.centroids.shape == tree.normals.shape == (0, 3)
    assert _geo_system(tree, np.zeros((4, 3)), SE3Pose.identity()) is None


def test_geo_system_on_more_leaves_than_candidates():
    """Eight tilted planes around the origin, so a point's nearest leaves
    are not all on its own plane and the candidates beyond ``assoc_k`` are
    left out."""
    rng = np.random.default_rng(3)
    az = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    centroids = np.stack([0.8 * np.cos(az), 0.8 * np.sin(az), 0.1 * np.sin(3 * az)], axis=1)
    normals = centroids + rng.normal(scale=0.3, size=(8, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    tree = LeafTree(centroids, normals, cKDTree(centroids))
    assert tree.kdtree.n > REGISTRATION_CONFIG.assoc_k
    T = SE3Pose(so3_exp([0.01, -0.02, 0.03]), [0.02, -0.01, 0.01])
    scan = rng.uniform(-1.5, 1.5, (400, 3))
    ok = _assert_brute_force_association(tree, scan, T, atol=1e-12)
    assert 0 < ok.sum() < ok.size


# a range image that is linear in the image coordinates: D = 5 + 0.03 u + 0.02 v
RAMP_H, RAMP_W = 6, 10
RAMP = 5.0 + 0.03 * np.arange(RAMP_W) + 0.02 * np.arange(RAMP_H)[:, None]


def test_bilinear_range_is_exact_on_a_ramp(rng):
    uv = rng.uniform([0.0, 0.0], [RAMP_W - 1.0, RAMP_H - 1.0], (200, 2))
    uv = uv[(uv[:, 0] < RAMP_W - 1) & (uv[:, 1] < RAMP_H - 1)]
    val, du, dv, ok = _bilinear_range(RAMP, uv)
    assert ok.all()
    np.testing.assert_allclose(val, 5.0 + 0.03 * uv[:, 0] + 0.02 * uv[:, 1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(du, 0.03, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dv, 0.02, rtol=0, atol=1e-12)


def test_bilinear_range_refuses_cells_it_cannot_interpolate():
    gate = REGISTRATION_CONFIG.spread_gate
    # the four cells around a pixel without a range, and one clear of it; the
    # ranges, 0.25 to 0.3 m, are closer than the gate, so only the 0 refuses
    hole = 0.05 * RAMP
    assert hole.max() < gate
    hole[2, 3] = 0.0
    uv = np.array([[2.5, 1.5], [3.5, 1.5], [2.5, 2.5], [3.5, 2.5], [6.5, 4.5]])
    np.testing.assert_array_equal(_bilinear_range(hole, uv)[3], [False] * 4 + [True])
    # cells reaching off the image
    uv = np.array([[-0.5, 2.0], [RAMP_W - 0.5, 2.0], [3.0, -0.5], [3.0, RAMP_H - 0.5]])
    assert not _bilinear_range(RAMP, uv)[3].any()
    # a step between columns 4 and 5: cells across it spread by the step plus
    # the ramp's 0.05, refused once that passes the gate
    uv = np.array([[3.5, 2.5], [4.5, 2.5], [5.5, 2.5]])
    for step, across in ((gate + 0.1, False), (gate - 0.1, True)):
        D = RAMP.copy()
        D[:, 5:] += step
        np.testing.assert_array_equal(_bilinear_range(D, uv)[3], [True, across, True])


def _reference_leaf_tree(points, viewpoint):
    """:func:`build_leaf_tree` with ``np.cov`` and ``np.median`` at each node."""
    cfg = REGISTRATION_CONFIG
    cents, norms = [], []
    stack = [np.arange(points.shape[0])]
    while stack:
        idx = stack.pop()
        if idx.size < 3:
            continue
        sub = points[idx]
        c = sub.mean(axis=0)
        evals, evecs = np.linalg.eigh(np.cov(sub.T, bias=True))
        flat = evals[1] <= 1e-12 or evals[0] / evals[1] <= cfg.flatness_tau
        if flat or idx.size <= cfg.leaf_size:
            if evals[1] > 1e-12:
                _push_leaf(cents, norms, c, evecs[:, 0], viewpoint)
            continue
        proj = (sub - c) @ evecs[:, 2]
        left = proj <= np.median(proj)
        if left.all() or not left.any():
            _push_leaf(cents, norms, c, evecs[:, 0], viewpoint)
            continue
        stack.append(idx[left])
        stack.append(idx[~left])
    return np.array(cents), np.array(norms)


def _grid_box():
    """The faces of a box sampled on a 24 x 24 grid each: even-sized nodes
    have exact ties at the median."""
    a = np.arange(24.0) * 0.1
    grid = np.stack(np.meshgrid(a, a, indexing="ij"), axis=-1).reshape(-1, 2)
    faces = [np.insert(grid, axis, v, axis=1) for axis in range(3) for v in (0.0, 2.3)]
    return np.unique(np.vstack(faces), axis=0), np.array([1.1, 1.2, 1.3])


def _room_sample():
    scene = room_with_boxes(seed=0)
    viewpoint = np.array([0.5, -0.5, 0.0])
    pts, _ = scene.visible_surface_points(5000, viewpoint[None], np.random.default_rng(0))
    return pts, viewpoint


@pytest.mark.parametrize("cloud", [_grid_box, _room_sample])
def test_leaf_tree_splits_as_the_covariance_and_median_reference(cloud):
    points, viewpoint = cloud()
    centroids, normals = _reference_leaf_tree(points, viewpoint)
    tree = build_leaf_tree(points, viewpoint)
    assert len(centroids) > 20
    assert tree.centroids.shape == centroids.shape
    assert np.array_equal(tree.centroids, centroids)
    np.testing.assert_allclose(tree.normals, normals, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def offset_problem():
    """A map, a scan and a start 15 cm and 3 deg off the true pose."""
    rng = np.random.default_rng(7)
    scene = room_with_boxes(seed=0)
    model = surface_model(scene, TRUE.translation, 6000, rng, scale=0.12)
    scan = raycast_scan(scene, TRUE, SPEC, rng).cloud
    cam = estimate_camera(scan, SPEC.width, SPEC.height)
    start = TRUE.compose(SE3Pose(so3_exp([0.0, 0.0, np.deg2rad(OFFSET_DEG)]),
                                 [OFFSET_M, 0.0, 0.0]))
    return model, scan, cam, start


def test_one_jacobian_per_iteration_at_its_linearisation_pose(offset_problem, monkeypatch):
    """Each iteration builds each family's Jacobian once, at the pose its
    trials start from, before any trial; a trial, accepted or refused, builds
    none.  No family is associated twice at one pose, and the reported counts
    and RMS are those of the residuals associated at the returned pose,
    trimmed at the last iteration's floor."""
    events = []  # ("jacobian", name, pose) and ("trial", base pose, trial pose), in order
    associated = []  # (name, pose, untrimmed residuals) of every association

    def recorded(name, system):
        def wrapped(*args):
            found = system(*args)
            M = args[-1].matrix()
            associated.append((name, M, found))
            if found is None:
                return None
            r, jacobian = found

            def built(keep):
                events.append(("jacobian", name, M))
                return jacobian(keep)
            return r, built
        return wrapped

    retract = SE3Pose.retract

    def tried(self, delta):
        T_try = retract(self, delta)
        events.append(("trial", self.matrix(), T_try.matrix()))
        return T_try

    monkeypatch.setattr(registration, "_geo_system", recorded("geo", _geo_system))
    monkeypatch.setattr(registration, "_photo_system",
                        recorded("photo", registration._photo_system))
    monkeypatch.setattr(SE3Pose, "retract", tried)
    result = register(*offset_problem)

    iterations = []  # per iteration: its Jacobian builds, then its trials
    for kind, *event in events:
        if kind == "jacobian" and (not iterations or iterations[-1][1]):
            iterations.append(([], []))
        iterations[-1][kind == "trial"].append(event)
    assert len(iterations) == result.iterations
    for builds, trials in iterations:
        names = [name for name, _ in builds]
        assert "geo" in names and len(set(names)) == len(names)
        assert trials
        for _, M in builds:
            assert all(np.array_equal(M, base) for base, _ in trials)

    keys = [(name, M.tobytes()) for name, M, _ in associated]
    assert len(set(keys)) == len(keys), f"{len(keys) - len(set(keys))} repeated associations"
    cfg = REGISTRATION_CONFIG
    floor = max(cfg.trim_floor, cfg.assoc_gate * 0.5 ** result.iterations)
    for family, n, rms in (("geo", result.n_geo, result.geo_rms),
                           ("photo", result.n_photo, result.photo_rms)):
        (r, _), = [found for name, M, found in associated if name == family
                   and np.allclose(M, result.pose.matrix(), rtol=0, atol=1e-12)]
        r = r[_trim(r, floor)]
        assert n == r.size > 0
        assert rms == float(np.sqrt(np.mean(r * r)))


class _CountingTree:
    """A kd-tree that counts its queries."""

    def __init__(self, tree):
        self.tree, self.n, self.queries = tree, tree.n, 0

    def query(self, *args, **kwargs):
        self.queries += 1
        return self.tree.query(*args, **kwargs)


def test_each_pose_is_associated_once(offset_problem, monkeypatch):
    """Moving an annealed trim floor re-trims the residuals at the current
    pose; only a pose not seen before queries the leaf tree."""
    trees, poses = [], []

    def counted_tree(*args):
        tree = build_leaf_tree(*args)
        tree.kdtree = _CountingTree(tree.kdtree)
        trees.append(tree.kdtree)
        return tree

    def recorded(tree, scan, T):
        poses.append(T.matrix().tobytes())
        return _geo_system(tree, scan, T)

    monkeypatch.setattr(registration, "build_leaf_tree", counted_tree)
    monkeypatch.setattr(registration, "_geo_system", recorded)
    register(*offset_problem)
    (tree,) = trees
    assert tree.queries == len(set(poses)) > 1


def test_no_trial_repeats_the_step_refused_before_it(offset_problem, monkeypatch):
    """After a refusal the damping rises until the step moves by more than
    ``retry_change`` of its length; only then is a trial evaluated."""
    trials = []  # (linearisation pose, step) of every evaluated trial
    retract = SE3Pose.retract

    def recorded(self, delta):
        trials.append((self, np.array(delta)))
        return retract(self, delta)

    monkeypatch.setattr(SE3Pose, "retract", recorded)
    register(*offset_problem)
    # a trial from the same linearisation as the one before it follows a refusal
    retries = [(prev, step) for (base0, prev), (base1, step) in zip(trials, trials[1:])
               if base1 is base0]
    assert retries
    for prev, step in retries:
        change = np.linalg.norm(step - prev)
        assert change > REGISTRATION_CONFIG.retry_change * np.linalg.norm(prev)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_scan_rows_are_dropped(offset_problem, bad):
    model, scan, cam, start = offset_problem
    dirty = np.insert(scan, 5, [1.0, bad, 0.5], axis=0)
    clean = register(model, scan, cam, start).pose.matrix()
    assert np.array_equal(register(model, dirty, cam, start).pose.matrix(), clean)


def test_a_subsampled_scan_still_recovers_the_pose(offset_problem, monkeypatch):
    """Above ``max_geo_points`` the geometric family uses a subsample of the
    scan; without an ``rng`` it is the draw of ``default_rng(0)``."""
    model, scan, cam, start = offset_problem
    monkeypatch.setattr(registration, "REGISTRATION_CONFIG",
                        dataclasses.replace(REGISTRATION_CONFIG, max_geo_points=1000))
    sizes = set()

    def recorded(tree, geo_scan, T):
        sizes.add(geo_scan.shape[0])
        return _geo_system(tree, geo_scan, T)

    monkeypatch.setattr(registration, "_geo_system", recorded)
    assert scan.shape[0] > 1000
    result = register(model, scan, cam, start)
    assert sizes == {1000}
    # within the bounds of the test_register_recovers_* tests
    err = TRUE.inverse().compose(result.pose)
    assert np.linalg.norm(err.translation[:2]) < 0.01 and abs(err.translation[2]) < 0.01
    assert np.rad2deg(Rotation.from_matrix(err.rotation).magnitude()) < 0.3
    seeded = register(model, scan, cam, start, rng=np.random.default_rng(0))
    assert np.array_equal(seeded.pose.matrix(), result.pose.matrix())


def test_register_keeps_its_start_when_every_trial_is_worse(offset_problem, monkeypatch):
    """Every trial lands 10 m above the room, so damping runs out in both
    phases and the start pose comes back, not converged."""
    model, scan, cam, start = offset_problem
    retract = SE3Pose.retract

    def lifted(self, delta):
        T = retract(self, delta)
        return SE3Pose(T.rotation, T.translation + [0.0, 0.0, 10.0])

    monkeypatch.setattr(SE3Pose, "retract", lifted)
    result = register(model, scan, cam, start)
    assert not result.converged
    assert result.iterations == 2  # one refused iteration per phase
    assert np.array_equal(result.pose.matrix(), start.orthonormalized().matrix())


def test_a_step_short_only_by_its_damping_has_not_converged(offset_problem, monkeypatch):
    """Every trial step of ``tol`` or longer lands 10 m above the room, so
    damping rises until a step is short, and each phase stops on it.  From
    15 cm off the undamped step is long: the result has not converged.
    From the true pose the undamped step is short too."""
    model, scan, cam, start = offset_problem
    assert register(model, scan, cam, TRUE).converged
    retract = SE3Pose.retract

    def damped(self, delta):
        T = retract(self, delta)
        if np.linalg.norm(delta) < REGISTRATION_CONFIG.tol:
            return T
        return SE3Pose(T.rotation, T.translation + [0.0, 0.0, 10.0])

    monkeypatch.setattr(SE3Pose, "retract", damped)
    result = register(model, scan, cam, start)
    assert result.iterations == 2  # each phase stops on its first accepted step
    assert not result.converged


def test_a_scan_that_is_not_n_by_3_is_refused(offset_problem):
    """An intensity column is not read as more points, even where the
    values would fill whole rows of three."""
    model, scan, cam, start = offset_problem
    with_intensity = np.column_stack([scan[:999], np.ones(999)])
    with pytest.raises(RegistrationError, match=r"\(N, 3\)"):
        register(model, with_intensity, cam, start)
    with pytest.raises(GeometryError, match=r"\(N, 3\)"):
        estimate_camera(with_intensity, SPEC.width, SPEC.height)
    with pytest.raises(GeometryError, match=r"\(N, 3\)"):
        build_range_image(cam, with_intensity)
