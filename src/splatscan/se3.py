"""Rigid transforms in 3D and the exponential map used by the solvers.

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

__all__ = ["SE3Pose", "se3_exp", "so3_exp", "skew"]


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
    """Rotation + translation; ``apply`` maps local points to the parent frame.

    A pose is a value: nothing writes into its arrays, so poses share them.
    """

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
        return SE3Pose(R, self.translation)


def se3_exp(delta: np.ndarray) -> SE3Pose:
    """Exponential of a twist ``(rho, phi)``: translation part first."""
    delta = np.asarray(delta, dtype=float).reshape(6)
    rho, phi = delta[:3], delta[3:]
    R = so3_exp(phi)
    t = _left_jacobian(phi) @ rho
    return SE3Pose(R, t)

