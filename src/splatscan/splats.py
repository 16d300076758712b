"""2D Gaussian surface splats and their structure-of-arrays container.

A splat is a Gaussian patch on a plane: centroid ``mu``, orthonormal
in-plane tangents ``t_alpha``/``t_beta``, per-axis standard deviations
``scales`` and an ``opacity`` in (0, 1).  The patch normal is
``t_alpha x t_beta``.  Local splat coordinates (a, b) are measured in
units of one standard deviation, so the density kernel is

    G(a, b) = exp(-(a^2 + b^2) / 2)

and the world point of (a, b) is ``mu + a*s_a*t_alpha + b*s_b*t_beta``.

For optimization the model stores scales in log space, opacity in logit
space and the tangent frame as two unconstrained vectors that are
orthonormalized by Gram-Schmidt on read.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError

__all__ = [
    "SplatModel",
    "orthonormal_tangents",
    "tangent_raw_gradients",
]


def _sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


def orthonormal_tangents(
    raw_a: np.ndarray, raw_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt: unit first tangent, second made orthonormal to it.

    Accepts (..., 3) arrays.  Raises when a vector vanishes or the pair is
    parallel.
    """
    a = np.asarray(raw_a, dtype=float)
    b = np.asarray(raw_b, dtype=float)
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    if np.any(na < 1e-12):
        raise GeometryError("first tangent has zero norm")
    u = a / na
    w = b - np.sum(u * b, axis=-1, keepdims=True) * u
    nw = np.linalg.norm(w, axis=-1, keepdims=True)
    if np.any(nw < 1e-12):
        raise GeometryError("tangents are parallel")
    return u, w / nw


def tangent_raw_gradients(
    raw_a: np.ndarray,
    raw_b: np.ndarray,
    grad_u: np.ndarray,
    grad_v: np.ndarray,
    grad_n: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate frame gradients through the Gram-Schmidt map.

    ``grad_u``/``grad_v``/``grad_n`` are d(loss)/d(column) for the frame
    (u, v, u x v).  Returns gradients w.r.t. the raw tangent vectors.
    """
    a = np.asarray(raw_a, dtype=float)
    b = np.asarray(raw_b, dtype=float)
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    u = a / na
    ub = np.sum(u * b, axis=-1, keepdims=True)
    w = b - ub * u
    nw = np.linalg.norm(w, axis=-1, keepdims=True)
    v = w / nw

    # fold the normal's gradient into the frame columns: n = u x v
    gu = grad_u + np.cross(v, grad_n)
    gv = grad_v + np.cross(grad_n, u)

    # v = w/|w|: project out the radial part, then w = b - (u.b) u
    q = (gv - np.sum(v * gv, axis=-1, keepdims=True) * v) / nw
    gb = q - np.sum(q * u, axis=-1, keepdims=True) * u
    inner = gu - ub * q - np.sum(q * u, axis=-1, keepdims=True) * b
    ga = (inner - np.sum(u * inner, axis=-1, keepdims=True) * u) / na
    return ga, gb


class SplatModel:
    """Structure-of-arrays splat set used by the renderer and optimizer.

    Raw optimization storage: ``raw_t_alpha``/``raw_t_beta`` are free
    vectors, ``log_scales`` and ``logit_opacity`` keep scales positive and
    opacity in (0, 1).  ``epochs`` tags each splat with the keyframe index
    that created it.  ``version`` increments on every mutation so cached
    render records can detect staleness.
    """

    def __init__(self):
        self.centers = np.zeros((0, 3))
        self.raw_t_alpha = np.zeros((0, 3))
        self.raw_t_beta = np.zeros((0, 3))
        self.log_scales = np.zeros((0, 2))
        self.logit_opacity = np.zeros(0)
        self.epochs = np.zeros(0, dtype=int)
        self.version = 0

    def __len__(self) -> int:
        return self.centers.shape[0]

    @property
    def scales(self) -> np.ndarray:
        return np.exp(self.log_scales)

    @property
    def opacities(self) -> np.ndarray:
        return _sigmoid(self.logit_opacity)

    def tangent_frames(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Orthonormalized (t_alpha, t_beta, normal) arrays, each (N, 3)."""
        if len(self) == 0:
            z = np.zeros((0, 3))
            return z, z.copy(), z.copy()
        ta, tb = orthonormal_tangents(self.raw_t_alpha, self.raw_t_beta)
        return ta, tb, np.cross(ta, tb)

    def touch(self):
        self.version += 1

    def append(
        self,
        centers: np.ndarray,
        t_alpha: np.ndarray,
        t_beta: np.ndarray,
        scales: np.ndarray,
        opacities: np.ndarray,
        epoch: int,
    ) -> None:
        """Add splats given plain-space parameters."""
        centers = np.asarray(centers, dtype=float).reshape(-1, 3)
        m = centers.shape[0]
        if m == 0:
            return
        scales = np.asarray(scales, dtype=float).reshape(m, 2)
        opac = np.asarray(opacities, dtype=float).reshape(m)
        if np.any(scales <= 0) or np.any((opac <= 0) | (opac >= 1)):
            raise GeometryError("new splats need positive scales and opacity in (0,1)")
        self.centers = np.concatenate([self.centers, centers])
        self.raw_t_alpha = np.concatenate(
            [self.raw_t_alpha, np.asarray(t_alpha, dtype=float).reshape(m, 3)]
        )
        self.raw_t_beta = np.concatenate(
            [self.raw_t_beta, np.asarray(t_beta, dtype=float).reshape(m, 3)]
        )
        self.log_scales = np.concatenate([self.log_scales, np.log(scales)])
        self.logit_opacity = np.concatenate([self.logit_opacity, _logit(opac)])
        self.epochs = np.concatenate([self.epochs, np.full(m, epoch, dtype=int)])
        self.touch()

    def prune(self, keep: np.ndarray) -> int:
        """Keep the masked splats; returns how many were removed."""
        keep = np.asarray(keep, dtype=bool).reshape(-1)
        removed = int(len(self) - keep.sum())
        if removed == 0:
            return 0
        self.centers = self.centers[keep]
        self.raw_t_alpha = self.raw_t_alpha[keep]
        self.raw_t_beta = self.raw_t_beta[keep]
        self.log_scales = self.log_scales[keep]
        self.logit_opacity = self.logit_opacity[keep]
        self.epochs = self.epochs[keep]
        self.touch()
        return removed

    def memory_bytes(self) -> int:
        return sum(
            a.nbytes
            for a in (
                self.centers,
                self.raw_t_alpha,
                self.raw_t_beta,
                self.log_scales,
                self.logit_opacity,
                self.epochs,
            )
        )
