import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from splatscan.errors import GeometryError
from splatscan.se3 import SE3Pose, se3_exp, skew, so3_exp


def almost_equal(a: SE3Pose, b: SE3Pose, atol: float = 1e-9) -> bool:
    return bool(np.allclose(a.rotation, b.rotation, atol=atol)
                and np.allclose(a.translation, b.translation, atol=atol))


def so3_log(R):
    """Rotation vector of ``R``, computed by scipy as an independent reference."""
    return Rotation.from_matrix(R).as_rotvec()


def random_pose(rng, t_scale=5.0):
    phi = rng.normal(size=3)
    phi *= rng.uniform(0, 3.0) / np.linalg.norm(phi)
    return SE3Pose(so3_exp(phi), rng.normal(size=3) * t_scale)


def test_skew_matches_cross(rng):
    a, b = rng.normal(size=3), rng.normal(size=3)
    np.testing.assert_allclose(skew(a) @ b, np.cross(a, b))


class TestSO3:
    @given(st.tuples(*[st.floats(-2.9, 2.9) for _ in range(3)]))
    def test_exp_log_round_trip(self, phi):
        phi = np.asarray(phi)
        if np.linalg.norm(phi) > np.pi - 1e-3:
            return
        np.testing.assert_allclose(so3_log(so3_exp(phi)), phi, atol=1e-7)

    @given(st.tuples(*[st.floats(-10.0, 10.0) for _ in range(3)]))
    def test_exp_is_rotation(self, phi):
        R = so3_exp(np.asarray(phi))
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-9)
        assert np.linalg.det(R) == pytest.approx(1.0)

    def test_small_angle_stable(self):
        phi = np.array([1e-11, -2e-11, 1e-11])
        np.testing.assert_allclose(so3_log(so3_exp(phi)), phi, atol=1e-15)

    def test_angle_near_pi(self):
        axis = np.array([1.0, 2.0, -0.5])
        axis /= np.linalg.norm(axis)
        phi = (np.pi - 1e-8) * axis
        back = so3_log(so3_exp(phi))
        np.testing.assert_allclose(back, phi, atol=1e-5)


class TestSE3Pose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(GeometryError):
            SE3Pose(np.eye(3) * 2.0, np.zeros(3))

    def test_compose_inverse_is_identity(self, rng):
        T = random_pose(rng)
        assert almost_equal(T.compose(T.inverse()), SE3Pose.identity(), atol=1e-9)
        assert almost_equal(T.inverse().compose(T), SE3Pose.identity(), atol=1e-9)

    def test_apply_matches_matrix(self, rng):
        T = random_pose(rng)
        pts = rng.normal(size=(50, 3))
        hom = np.concatenate([pts, np.ones((50, 1))], axis=1)
        np.testing.assert_allclose(T.apply(pts), (T.matrix() @ hom.T).T[:, :3])

    def test_apply_single_point(self, rng):
        T = random_pose(rng)
        p = rng.normal(size=3)
        np.testing.assert_allclose(T.apply(p), T.rotation @ p + T.translation)

    def test_compose_associative(self, rng):
        A, B, C = (random_pose(rng) for _ in range(3))
        left = A.compose(B).compose(C)
        right = A.compose(B.compose(C))
        assert almost_equal(left, right, atol=1e-9)

    def test_inverse_distributes(self, rng):
        A, B = random_pose(rng), random_pose(rng)
        assert almost_equal(A.compose(B).inverse(), B.inverse().compose(A.inverse()),
                            atol=1e-9)

    def test_matrix_round_trip(self, rng):
        T = random_pose(rng)
        M = T.matrix()
        np.testing.assert_array_equal(M[3], [0.0, 0.0, 0.0, 1.0])
        assert almost_equal(SE3Pose(M[:3, :3], M[:3, 3]), T)

    def test_orthonormalized_fixes_drift(self, rng):
        T = random_pose(rng)
        drifted = T.rotation + rng.normal(size=(3, 3)) * 1e-7
        fixed = SE3Pose(drifted, T.translation).orthonormalized()
        np.testing.assert_allclose(fixed.rotation.T @ fixed.rotation,
                                   np.eye(3), atol=1e-12)

    def test_retract_zero_is_identity(self, rng):
        T = random_pose(rng)
        assert almost_equal(T.retract(np.zeros(6)), T, atol=1e-12)


class TestSE3ExpLog:
    def test_pure_translation(self):
        T = se3_exp(np.array([1.0, -2.0, 3.0, 0, 0, 0]))
        np.testing.assert_allclose(T.rotation, np.eye(3))
        np.testing.assert_allclose(T.translation, [1.0, -2.0, 3.0])

    def test_exp_additive_for_small_deltas(self, rng):
        # first-order: exp(a)exp(b) ~ exp(a+b)
        a, b = rng.normal(size=6) * 1e-4, rng.normal(size=6) * 1e-4
        lhs = se3_exp(a).compose(se3_exp(b))
        rhs = se3_exp(a + b)
        assert almost_equal(lhs, rhs, atol=1e-7)

    def test_retract_matches_compose_exp(self, rng):
        T = random_pose(rng)
        d = rng.normal(size=6) * 0.3
        assert almost_equal(T.retract(d), T.compose(se3_exp(d)), atol=1e-12)
