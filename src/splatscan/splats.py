"""2D Gaussian surface splats and the parameter matrix that holds a set of them.

A splat is a Gaussian patch on a plane: centroid ``mu``, orthonormal
in-plane tangents ``t_alpha``/``t_beta``, per-axis standard deviations
``scales`` and an ``opacity`` in (0, 1).  The patch normal is
``t_alpha x t_beta``.  Local splat coordinates (a, b) are measured in
units of one standard deviation, so the density kernel is

    G(a, b) = exp(-(a^2 + b^2) / 2)

and the world point of (a, b) is ``mu + a*s_a*t_alpha + b*s_b*t_beta``.

For optimization the model stores scales in log space, opacity in logit
space and the tangent frame as two unconstrained vectors that are
orthonormalized by Gram-Schmidt on read.  A splat is one row of 12
float64 values, in this order:

    center (3), raw t_alpha (3), raw t_beta (3), log scales (2), logit opacity (1)

The model, its Adam moments and the ``.splm`` model file all use that
row, and so does a loss gradient: :meth:`SplatModel.param_gradients`
chains gradients w.r.t. the plain-space values the model reads out into
it.  This module is the only one that knows the row's columns.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError

__all__ = [
    "PARAMS_PER_SPLAT",
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


# Vector helpers on component-first arrays: x[0], x[1], x[2] are the x, y
# and z rows.  Row arithmetic on contiguous rows is several times faster
# than numpy's reductions and cross products over a last axis of length 3,
# and it adds in np.sum's order, so results equal np.sum, np.linalg.norm and
# np.cross on (..., 3) arrays bit for bit.


def _rows(x) -> np.ndarray:
    """A (..., 3) array as a contiguous component-first (3, ...) array."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=float), -1, 0))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.stack([x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
                     x[0] * y[1] - x[1] * y[0]])


def _gram_schmidt(a: np.ndarray, b: np.ndarray):
    """(u, v, |a|, u.b, |w|) of component-first raw tangents, w = b - (u.b) u.

    Raises when a vector vanishes or the pair is parallel.
    """
    na = np.sqrt(_dot(a, a))
    if np.any(na < 1e-12):
        raise GeometryError("first tangent has zero norm")
    u = a / na
    ub = _dot(u, b)
    w = b - ub * u
    nw = np.sqrt(_dot(w, w))
    if np.any(nw < 1e-12):
        raise GeometryError("tangents are parallel")
    return u, w / nw, na, ub, nw


def orthonormal_tangents(
    raw_a: np.ndarray, raw_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt: unit first tangent, second made orthonormal to it.

    Accepts (..., 3) arrays and returns C-contiguous ones.  Raises when a
    vector vanishes or the pair is parallel.
    """
    u, v, *_ = _gram_schmidt(_rows(raw_a), _rows(raw_b))
    return np.moveaxis(u, 0, -1).copy(), np.moveaxis(v, 0, -1).copy()


def tangent_raw_gradients(
    raw_a: np.ndarray,
    raw_b: np.ndarray,
    grad_u: np.ndarray,
    grad_v: np.ndarray,
    grad_n: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate frame gradients through the Gram-Schmidt map.

    ``grad_u``/``grad_v``/``grad_n`` are d(loss)/d(column) for the frame
    (u, v, u x v).  Returns gradients w.r.t. the raw tangent vectors, as
    (..., 3) views of component-first arrays.  Raises like
    :func:`orthonormal_tangents`.
    """
    b = _rows(raw_b)
    u, v, na, ub, nw = _gram_schmidt(_rows(raw_a), b)
    gn = _rows(grad_n)

    # fold the normal's gradient into the frame columns: n = u x v
    gu = _rows(grad_u) + _cross(v, gn)
    gv = _rows(grad_v) + _cross(gn, u)

    # v = w/|w|: project out the radial part, then w = b - (u.b) u
    q = (gv - _dot(v, gv) * v) / nw
    qu = _dot(q, u)
    gb = q - qu * u
    inner = gu - ub * q - qu * b
    ga = (inner - _dot(u, inner) * u) / na
    return np.moveaxis(ga, 0, -1), np.moveaxis(gb, 0, -1)


# Columns of each name in a row of SplatModel.params (and of a .splm record).
_COLUMNS = {
    "centers": slice(0, 3),
    "raw_t_alpha": slice(3, 6),
    "raw_t_beta": slice(6, 9),
    "log_scales": slice(9, 11),
    "logit_opacity": 11,
}
PARAMS_PER_SPLAT = 12


def _view(name: str) -> property:
    cols = _COLUMNS[name]
    return property(lambda self: self.params[:, cols])


class SplatModel:
    """A splat set as one ``(N, 12)`` float64 matrix, ``params``, one row per splat.

    Row layout, which is also the record of a ``.splm`` model file::

        0:3 centers  3:6 raw_t_alpha  6:9 raw_t_beta  9:11 log_scales  11 logit_opacity

    The tangents are free vectors, orthonormalized on read; scales are
    stored as logs and opacity as a logit, which keeps them positive and
    in (0, 1).  ``SplatModel(rows)`` copies an ``(N, 12)`` array of such
    rows.  Each name above is a property returning a view into ``params``:
    writing to it writes the matrix.  The views are not kept, because
    :meth:`append` and :meth:`prune` replace the matrix.  ``epochs`` tags
    each splat with the keyframe index that created it.  ``version``
    increments on every mutation so cached render records can detect
    staleness.
    """

    def __init__(self, params=()):
        self.params = np.array(params, dtype=float).reshape(-1, PARAMS_PER_SPLAT)
        self.epochs = np.zeros(len(self.params), dtype=int)
        self.version = 0

    centers = _view("centers")
    raw_t_alpha = _view("raw_t_alpha")
    raw_t_beta = _view("raw_t_beta")
    log_scales = _view("log_scales")
    logit_opacity = _view("logit_opacity")

    @staticmethod
    def param_rows(n: int, **columns) -> np.ndarray:
        """An ``(n, 12)`` matrix laid out like ``params``, filled by column name.

        Every name of the row layout must be given; each value is
        broadcast into its columns.
        """
        if columns.keys() != _COLUMNS.keys():
            raise TypeError(f"param_rows needs exactly the columns {list(_COLUMNS)}")
        rows = np.empty((n, PARAMS_PER_SPLAT))
        for name, value in columns.items():
            rows[:, _COLUMNS[name]] = value
        return rows

    def __len__(self) -> int:
        return self.params.shape[0]

    @property
    def scales(self) -> np.ndarray:
        return np.exp(self.log_scales)

    @property
    def opacities(self) -> np.ndarray:
        return _sigmoid(self.logit_opacity)

    def tangent_frames(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Orthonormalized (t_alpha, t_beta, normal) arrays, each (N, 3)."""
        ta, tb = orthonormal_tangents(self.raw_t_alpha, self.raw_t_beta)
        return ta, tb, np.cross(ta, tb)

    def param_gradients(self, *, centers=0.0, t_alpha=0.0, t_beta=0.0, normal=0.0,
                        scales=0.0, opacities=0.0) -> np.ndarray:
        """An ``(N, 12)`` gradient laid out like ``params``.

        The arguments are a loss's gradients w.r.t. what the model reads
        out: ``centers``, the frame of :meth:`tangent_frames`, ``scales``
        and ``opacities``.  Each broadcasts to its array's shape; an omitted
        one is zero.  The chain rule runs back through the storage maps:
        Gram-Schmidt for the raw tangents, ``exp`` for the log scales and the
        sigmoid for the logit opacity.  The chain is linear, so without a
        frame gradient the raw-tangent columns are 0 and Gram-Schmidt is skipped.
        """
        n = len(self)
        frame = [np.broadcast_to(g, (n, 3)) for g in (t_alpha, t_beta, normal)]
        ga, gb = (tangent_raw_gradients(self.raw_t_alpha, self.raw_t_beta, *frame)
                  if any(g.any() for g in frame) else (0.0, 0.0))
        o = self.opacities
        return self.param_rows(n, centers=centers, raw_t_alpha=ga, raw_t_beta=gb,
                               log_scales=scales * self.scales,
                               logit_opacity=opacities * o * (1.0 - o))

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
        rows = self.param_rows(
            m,
            centers=centers,
            raw_t_alpha=np.reshape(t_alpha, (m, 3)),
            raw_t_beta=np.reshape(t_beta, (m, 3)),
            log_scales=np.log(scales),
            logit_opacity=_logit(opac),
        )
        self.params = np.concatenate([self.params, rows])
        self.epochs = np.concatenate([self.epochs, np.full(m, epoch, dtype=int)])
        self.touch()

    def prune(self, keep: np.ndarray) -> int:
        """Keep the masked splats; returns how many were removed."""
        keep = np.asarray(keep, dtype=bool).reshape(-1)
        removed = int(len(self) - keep.sum())
        if removed == 0:
            return 0
        self.params = self.params[keep]
        self.epochs = self.epochs[keep]
        self.touch()
        return removed

    def memory_bytes(self) -> int:
        return self.params.nbytes + self.epochs.nbytes
