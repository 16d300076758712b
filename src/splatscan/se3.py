"""Rigid transforms in 3D and the exp/log maps used by the solvers.

Conventions:
  * A pose ``T = (R, t)`` maps sensor-frame points into the world,
    ``p_w = R @ p_s + t``.
  * Twist vectors are ordered translation-first, ``delta = (rho, phi)``,
    and solver updates are applied on the right: ``T <- T * exp(delta)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError

__all__ = ["SE3Pose", "se3_exp", "se3_log", "so3_exp", "so3_log", "skew"]

_EPS = 1e-12


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: ``skew(a) @ b == np.cross(a, b)``."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rodrigues' formula for a rotation vector ``phi`` (radians)."""
    phi = np.asarray(phi, dtype=float)
    angle = float(np.linalg.norm(phi))
    K = skew(phi)
    if angle < 1e-8:
        # second-order Taylor keeps the result orthonormal to machine precision
        return np.eye(3) + K + 0.5 * (K @ K)
    s = np.sin(angle) / angle
    c = (1.0 - np.cos(angle)) / (angle * angle)
    return np.eye(3) + s * K + c * (K @ K)


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector of ``R``; inverse of :func:`so3_exp` for angle < pi."""
    cos_angle = np.clip((np.trace(R) - 1.0) * 0.5, -1.0, 1.0)
    angle = float(np.arccos(cos_angle))
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if angle < 1e-8:
        return 0.5 * w
    if angle > np.pi - 1e-6:
        # near pi the antisymmetric part vanishes; recover axis from R + I
        A = R + np.eye(3)
        axis = A[:, int(np.argmax(np.diag(A)))]
        n = np.linalg.norm(axis)
        if n < _EPS:
            raise GeometryError("cannot recover rotation axis near angle pi")
        axis = axis / n
        if np.dot(w, axis) < 0:
            axis = -axis
        return angle * axis
    return 0.5 * angle / np.sin(angle) * w


def _left_jacobian(phi: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(phi))
    K = skew(phi)
    if angle < 1e-8:
        return np.eye(3) + 0.5 * K + (K @ K) / 6.0
    a2 = angle * angle
    b = (1.0 - np.cos(angle)) / a2
    c = (angle - np.sin(angle)) / (a2 * angle)
    return np.eye(3) + b * K + c * (K @ K)


@dataclass
class SE3Pose:
    """Rotation + translation; ``apply`` maps local points to the parent frame."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        RtR = self.rotation.T @ self.rotation
        if not np.allclose(RtR, np.eye(3), atol=1e-6):
            raise GeometryError("rotation is not orthonormal")

    @classmethod
    def identity(cls) -> "SE3Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, M: np.ndarray) -> "SE3Pose":
        M = np.asarray(M, dtype=float)
        return cls(M[:3, :3].copy(), M[:3, 3].copy())

    def matrix(self) -> np.ndarray:
        M = np.eye(4)
        M[:3, :3] = self.rotation
        M[:3, 3] = self.translation
        return M

    def compose(self, other: "SE3Pose") -> "SE3Pose":
        return SE3Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "SE3Pose":
        Rt = self.rotation.T
        return SE3Pose(Rt, -Rt @ self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point or an (..., 3) array of points."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation

    def retract(self, delta: np.ndarray) -> "SE3Pose":
        """Right-multiplicative update ``T * exp(delta)``."""
        return self.compose(se3_exp(delta))

    def orthonormalized(self) -> "SE3Pose":
        """Snap the rotation back onto SO(3) via SVD (drift control)."""
        U, _, Vt = np.linalg.svd(self.rotation)
        R = U @ Vt
        if np.linalg.det(R) < 0:
            U[:, -1] = -U[:, -1]
            R = U @ Vt
        return SE3Pose(R, self.translation.copy())

    def copy(self) -> "SE3Pose":
        return SE3Pose(self.rotation.copy(), self.translation.copy())


def se3_exp(delta: np.ndarray) -> SE3Pose:
    """Exponential of a twist ``(rho, phi)``: translation part first."""
    delta = np.asarray(delta, dtype=float).reshape(6)
    rho, phi = delta[:3], delta[3:]
    R = so3_exp(phi)
    t = _left_jacobian(phi) @ rho
    return SE3Pose(R, t)


def se3_log(T: SE3Pose) -> np.ndarray:
    """Twist ``(rho, phi)`` with ``se3_exp(se3_log(T)) == T``."""
    phi = so3_log(T.rotation)
    rho = np.linalg.solve(_left_jacobian(phi), T.translation)
    return np.concatenate([rho, phi])
