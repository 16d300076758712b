"""Differentiable tiled rasterizer for splats on a spherical image.

Forward model, per pixel ray ``v`` (the camera's ``pixel_directions``):

  * A splat maps splat coordinates ``(s_a, s_b)`` to the camera-frame
    point ``s_a*B_a + s_b*B_b + B_c``, where ``B_a = s_alpha*R_wc
    t_alpha``, ``B_b = s_beta*R_wc t_beta`` and ``B_c`` is the
    camera-frame centroid.  The ray meets it at ``nu = d v`` where ``d v -
    s_a B_a - s_b B_b = B_c``.  With the splat's own cross products ``C_a =
    B_b x B_c``, ``C_b = B_c x B_a``, ``C_n = B_a x B_b`` and ``tau = C_n .
    B_c``, Cramer's rule gives ``den = v . C_n``, ``s_a = v . C_a / den``,
    ``s_b = v . C_b / den`` and the range ``d = tau / den``: four dot
    products per pixel-splat pair, of the ray with vectors computed once
    per splat.
  * This is the homogeneous intersection of 2DGS (Huang et al., SIGGRAPH
    2024), which pulls two planes through the ray, ``h_x`` and ``h_y``
    with ``h_x x h_y = -v``, back to splat coordinates and takes products
    ``a_j = h_x . B_j`` and ``b_j = h_y . B_j``.  Those appear only as
    ``a_i b_j - a_j b_i``, which by the Binet-Cauchy identity is ``(h_x x
    h_y) . (B_i x B_j) = -v . (B_i x B_j)``: so ``|den|`` is that
    formulation's ``|a_1 b_2 - a_2 b_1|`` and ``denom_eps`` bounds the same
    quantity, and no pixel needs planes.
  * The hit contributes ``alpha = opacity * exp(-(s_a^2 + s_b^2)/2)``,
    range ``d`` and the splat normal, alpha-blended front to back in
    order of increasing centroid range.

Intersections behind the pixel (``d <= 0``) belong to the antipodal
ray and are discarded.  Hits with ``alpha < 1/255`` are skipped, alpha is
clamped to 0.99, and a pair adds nothing once the transmittance in front
of it is below 1e-4.

Tiling: splats are binned to square pixel tiles (``RASTER_CONFIG.tile_size``
pixels on a side) by their cutoff ellipse: alpha reaches 1/255 only where
``|s| <= c = sqrt(2 ln(255 o))``, so a splat with ``o < 1/255`` gets no
tile.  The ellipse's extents along the centroid's horizontal radial,
lateral and vertical directions give it one azimuth and one elevation
interval (:func:`_bin_splats`), which become pixel-centre columns and rows
and then tile ranges.  On cameras whose columns cross the azimuth seam the
interval also gets copies one turn away, clipped to the image.

A render has two stages.  Screening (:func:`_near_pairs`) is dense and
cheap: per tile, the four products of every listed pixel-splat pair come
from one stacked BLAS matmul per block, and a pair is kept only if its
ray passes within ``c * max(scale)`` of the centroid.  Blending
(:func:`_blend`) works on batches of those near pairs, pixel-major and in
blend order within a pixel, as 1-D passes: the hit point, alpha, the hit
range, exclusive transmittance by a cumprod along each pixel's run,
weights, and per-pixel sums.  One bound, ``_BLOCK_PAIRS`` screened pairs,
sizes a block and a batch of whole blocks, of one tile or several; a
batch's near pairs are some of its screened pairs, so no block is cut.  A
batch carries each pixel's pair count from screening, which gives the
pixels' runs.  Range and opacity are always blended, the normal only for
callers that read it (``normals=True``, the default, and every render that
takes gradients); leaving it out changes no bit of the other two.  The
forward pass and the reference renderer share both stages; the reference
feeds them one list of every pixel against every splat in range order.

A render limited to a boolean pixel ``mask`` is an ordinary render of
fewer pixels: :func:`_binned_tiles` lists each tile's masked pixels, and
no stage sees the mask.  Masked pixels get the bits of the full render
(see :func:`_near_pairs`); the others read 0 in every channel, like
uncovered pixels, so a caller must read only the masked ones.  Binning
does not look at the mask.

A render asked for gradients takes them in the same pass and keeps
nothing for a later one.  The caller's ``pixel_grads`` rule gives the
gradient of a scalar loss on the rendered range/opacity/normal images at
each blend batch's pixels, from their blended values.  Every pixel's pairs
lie in one batch, so the batch then has all it needs: from the terms it
blended with (hit point, alpha, weights, range and splat rows) and its
pixels' rays, it takes the analytic gradients w.r.t. each splat's
``C_a``, ``C_b``, ``C_n``, ``tau``, normal and opacity over its pairs
with ``w > 0``, as 1-D arrays: a pair's gradient w.r.t. a ``C`` is a
factor times its ray.  Those are summed per entry of the tiles' splat
lists (a batch's tiles are consecutive, so it touches one short range of
entries), then per splat, where one cross-product chain
(:func:`_splat_grads`) takes them to ``B_a``, ``B_b`` and ``B_c`` in one
``(13, N)`` array.  :func:`rasterize_backward` chains that through
:meth:`SplatModel.param_gradients` into one ``(N, 12)`` matrix in the
layout of ``SplatModel.params``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import SphericalCamera
from .se3 import SE3Pose
from .splats import SplatModel

__all__ = [
    "RasterConfig",
    "RASTER_CONFIG",
    "RenderOutput",
    "BlendRecords",
    "rasterize_forward",
    "rasterize_backward",
    "reference_rasterize",
]

@dataclass(frozen=True)
class RasterConfig:
    tile_size: int = 8
    alpha_cutoff: float = 1.0 / 255.0
    alpha_clamp: float = 0.99
    min_transmittance: float = 1e-4
    denom_eps: float = 1e-12


# the settings of every render
RASTER_CONFIG = RasterConfig()


@dataclass
class RenderOutput:
    """Blended range, camera-frame normal and opacity images.

    ``normal`` is None for a render made with ``normals=False``.  A render
    made with a ``mask`` holds 0 in every channel off the mask, so only its
    masked pixels mean anything, :meth:`surface` included.
    """

    range: np.ndarray
    normal: np.ndarray | None
    opacity: np.ndarray

    def surface(self) -> np.ndarray:
        """The range image of the surface: the range at pixels that show one
        (opacity above 0.5), 0 elsewhere.

        The range channel blends by opacity mass, so it understates the range
        where coverage is partial; dividing by opacity removes that bias.
        The blended range is positive wherever opacity is, so ``surface() >
        0`` is exactly ``opacity > 0.5``.
        """
        return np.divide(self.range, self.opacity, out=np.zeros_like(self.range),
                         where=self.opacity > 0.5)


@dataclass
class BlendRecords:
    """Binning and identity snapshot of a render, and its loss's splat sums.

    ``splat_grads`` is ``None`` unless the render was given ``pixel_grads``.
    Then it holds, one column per splat, the gradient of that loss w.r.t.
    the splat's camera-frame terms: rows ``3j..3j+2`` are ``d/dB_j`` for
    ``B_a``, ``B_b`` and ``B_c``, rows 9-11 ``d/dnormal`` and row 12
    ``d/dopacity``.
    """

    cam: SphericalCamera
    pose: SE3Pose
    config: RasterConfig
    n_splats: int
    model_version: int
    tile_ptr: np.ndarray
    pair_splats: np.ndarray
    tiles_x: int
    splat_grads: np.ndarray | None = None


# --- splat preparation and tile binning ------------------------------------


def _splat_camera_arrays(model: SplatModel, pose: SE3Pose) -> dict:
    """Per-splat camera-frame quantities for a render from ``pose``.

    Besides ``B_a``, ``B_b`` and ``B_c``, a splat carries the cross products
    ``C_a = B_b x B_c``, ``C_b = B_c x B_a`` and ``C_n = B_a x B_b`` and the
    triple product ``tau = C_n . B_c``, which intersect it with any ray.
    """
    R = pose.rotation
    ta, tb, tn = model.tangent_frames()
    s = model.scales
    # each array is built C-contiguous: np.take, which gathers the rows of
    # a pair's splat, copies a whole array that is not, and a gathered term
    # is then one contiguous row
    B = np.concatenate([(s[:, :1] * (ta @ R)).T, (s[:, 1:] * (tb @ R)).T,
                        ((model.centers - pose.translation) @ R).T], out=np.empty((9, len(model))))
    Ba, Bb, Bc = B[0:3], B[3:6], B[6:9]
    Cn = _cross3(Ba, Bb)
    return {
        # what a pair reads of its splat: opacity, tau, normal
        "terms": np.concatenate([model.opacities[None], _dot3(Cn, Bc)[None], (tn @ R).T],
                                out=np.empty((5, len(model)))),
        "B": B,
        # what screening multiplies a pixel's ray by: C_a, C_b, C_n, B_c
        "crosses": np.concatenate([_cross3(Bb, Bc), _cross3(Bc, Ba), Cn, Bc],
                                  out=np.empty((12, len(model)))),
        "scales": s,
        "ranges": np.linalg.norm(Bc, axis=0),
    }


def _kernel_cutoff(opacity: np.ndarray) -> np.ndarray:
    """Per-splat kernel radius ``c``: ``o exp(-|s|^2 / 2) >= alpha_cutoff``
    exactly when ``|s| <= c = sqrt(2 ln(o / alpha_cutoff))``.  A splat with
    ``o < alpha_cutoff`` gets ``c = 0`` here and no tile in :func:`_bin_splats`."""
    return np.sqrt(2.0 * np.log(np.maximum(opacity / RASTER_CONFIG.alpha_cutoff, 1.0)))


def _dot3(x, y) -> np.ndarray:
    """Per-pair dot product of two 3-vectors given as three rows each."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _cross3(x, y) -> np.ndarray:
    """Per-pair cross product of two 3-vectors given as three rows each, as three rows."""
    return np.stack([x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
                     x[0] * y[1] - x[1] * y[0]])


def _ragged_arange(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For counts [2,3] returns (owner [0,0,1,1,1], within [0,1,0,1,2])."""
    total = int(counts.sum())
    owner = np.repeat(np.arange(counts.shape[0]), counts)
    starts = np.cumsum(counts) - counts
    within = np.arange(total) - np.repeat(starts, counts)
    return owner, within


def _tile_span(lo, hi, size: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last tile of the pixel centres in ``[lo, hi]`` (image
    coordinates, 1e-9 px of slack) among ``size`` pixels; an empty span
    ends at tile -1."""
    T = RASTER_CONFIG.tile_size
    first = np.maximum(np.ceil(lo - 1e-9), 0.0)
    last = np.minimum(np.floor(hi + 1e-9), size - 1.0)
    empty = ~(first <= last)  # also where a bound is NaN
    return ((np.where(empty, 0.0, first) // T).astype(np.int64),
            np.where(empty, -1.0, last // T).astype(np.int64))


def _bin_splats(cam: SphericalCamera, arrays: dict):
    """Assign splats to tiles; per tile the list is sorted by centroid range.

    Alpha reaches the cutoff only inside the splat's cutoff ellipse,
    ``B_c + a B_a + b B_b`` with ``a^2 + b^2 <= c^2`` (:func:`_kernel_cutoff`),
    which reaches ``c hypot(B_a.u, B_b.u)`` from the centroid along a unit
    ``u``.  Those extents along the centroid's horizontal radial and lateral
    directions and the vertical bound the azimuth to within ``atan2(e_lat,
    h_c - e_rad)`` of the centroid's (pi where ``h_c - e_rad <= 0``: around
    the sensor or over a pole), and the elevation by the corners of the
    height and horizontal-distance ranges.  Each extent has 1e-9 of the
    centroid's range as slack against rounding.  The azimuth interval also
    has copies one turn (``2 pi |fx|`` columns) away, for cameras whose
    columns cross the seam; a piece's tiles start after those of the pieces
    left of it, so no tile is binned twice.
    """
    T = RASTER_CONFIG.tile_size
    tiles_x = (cam.width + T - 1) // T
    tiles_y = (cam.height + T - 1) // T

    opacity = arrays["terms"][0]
    B = arrays["B"]
    Ba, Bb, (x, y, z) = B[0:3], B[3:6], B[6:9]
    c = _kernel_cutoff(opacity)
    slack = 1e-9 * (arrays["ranges"] + c * arrays["scales"].max(axis=1))

    def extent(u):
        return c * np.hypot(_dot3(Ba, u), _dot3(Bb, u)) + slack

    h_c = np.hypot(x, y)
    # the horizontal radial unit vector; zero on the z axis, where h_c -
    # e_rad < 0 anyway
    rx, ry = (v / np.where(h_c > 0.0, h_c, 1.0) for v in (x, y))
    e_rad = extent((rx, ry, 0.0))
    e_lat = extent((-ry, rx, 0.0))
    e_z = extent((0.0, 0.0, 1.0))
    h_lo = h_c - e_rad
    half_az = np.where(h_lo > 0.0, np.arctan2(e_lat, h_lo), np.pi)
    h_lo = np.maximum(h_lo, 0.0)
    h_hi = np.hypot(h_c + e_rad, e_lat)
    z_lo, z_hi = z - e_z, z + e_z
    el_lo = np.arctan2(z_lo, np.where(z_lo > 0.0, h_hi, h_lo))
    el_hi = np.arctan2(z_hi, np.where(z_hi > 0.0, h_lo, h_hi))

    # fx and fy are negative: the top row and the left column hold the
    # largest angles
    row_first, row_last = _tile_span(cam.fy * el_hi + cam.cy, cam.fy * el_lo + cam.cy,
                                     cam.height)
    # a splat fainter than the cutoff gets no row
    row_last[~(opacity >= RASTER_CONFIG.alpha_cutoff)] = -1
    n_rows = np.maximum(row_last - row_first + 1, 0)

    u_c = cam.fx * np.arctan2(y, x) + cam.cx
    half = (abs(cam.fx) * half_az)[:, None]
    shift = 2.0 * np.pi * abs(cam.fx) * np.array([-1.0, 0.0, 1.0])
    col_first, col_last = _tile_span(u_c[:, None] + shift - half, u_c[:, None] + shift + half,
                                     cam.width)
    col_first[:, 1:] = np.maximum(col_first[:, 1:],
                                  np.maximum.accumulate(col_last, axis=1)[:, :-1] + 1)
    n_cols = np.maximum(col_last - col_first + 1, 0)

    # one entry per (splat, piece, row, column): piece-major, then row-major
    piece, within = _ragged_arange((n_cols * n_rows[:, None]).ravel())
    spl = piece // 3
    width = n_cols.ravel()[piece]
    tile_id = ((row_first[spl] + within // width) * tiles_x
               + col_first.ravel()[piece] + within % width)
    order = np.lexsort((spl, arrays["ranges"][spl], tile_id))
    counts = np.bincount(tile_id, minlength=tiles_x * tiles_y)
    return np.concatenate([[0], np.cumsum(counts)]), spl[order], tiles_x


# --- screening --------------------------------------------------------------

# the most screened pixel-splat pairs of a block and of a batch, unless one
# pixel has more splats; a batch's near pairs, a subset, never exceed it.
# A block's screening buffer holds five rows of its pairs, and a batch's
# 1-D temporaries, about forty arrays, weigh on a render's peak memory
_BLOCK_PAIRS = 16384


def _binned_tiles(cam: SphericalCamera, tile_ptr, pair_splats, tiles_x: int, mask):
    """(flat indices of the masked pixels in row-major order, splat ids,
    index of the first id in ``pair_splats``) of every tile that holds a
    splat and a pixel of the boolean ``(H, W)`` ``mask``."""
    T = RASTER_CONFIG.tile_size
    pix = np.flatnonzero(mask)
    tile = (pix // cam.width // T) * tiles_x + pix % cam.width // T
    # a stable sort keeps each tile's pixels in row-major order
    pix = pix[np.argsort(tile, kind="stable")]
    pix_ptr = np.concatenate([[0], np.cumsum(np.bincount(tile, minlength=tile_ptr.shape[0] - 1))])
    for t in np.flatnonzero((np.diff(tile_ptr) > 0) & (np.diff(pix_ptr) > 0)):
        yield (pix[pix_ptr[t] : pix_ptr[t + 1]], pair_splats[tile_ptr[t] : tile_ptr[t + 1]],
               tile_ptr[t])


def _near_pairs(cam: SphericalCamera, arrays: dict, tiles):
    """Screen each tile's pixel-splat pairs; yield the near ones in batches.

    ``tiles`` yields (flat pixel indices, splat ids in blend order, index of
    the first id in the list the ids come from), as :func:`_binned_tiles`
    does; every listed pixel is screened against every listed splat.
    A pair is near when the pixel's unit ray ``v`` passes within ``c *
    max(scale)`` of the centroid, with ``c`` the splat's kernel radius
    (:func:`_kernel_cutoff`): ``|B_c|^2 - (v . B_c)^2`` is that squared
    distance.  A hit at ``|s| <= c`` lies within ``c * max(scale)`` of the
    centroid, so every pair whose alpha can reach the cutoff is near, and a
    faint splat screens fewer pairs than an opaque one of the same shape.
    The test has two slacks against rounding: a relative one on the squared
    reach, and an absolute one of 16 ulps of ``|B_c|^2``, which the
    cancellation in the difference of two squares near ``|B_c|^2`` needs
    where the reach is small beside the range.

    The products come from one stacked matmul per block of a tile's
    pixels against all its splats, ``(1, P, 3) @ (4, 3, n)``: the pixels'
    rays against each splat's ``C_a``, ``C_b``, ``C_n`` and ``B_c`` (see
    :func:`_splat_camera_arrays`), four products per pair.  A near pair
    keeps the first three, the ones :func:`_blend` reads.  A tile's pixels
    are split into blocks of about equal pixel counts, of at most
    ``_BLOCK_PAIRS`` screened pairs unless a block is one pixel.

    A masked render keeps the full render's bits because a pixel's products
    do not depend on the other pixels of its block: BLAS rounds each row of
    a product of two rows or more the same whatever the row count (checked
    bit for bit on OpenBLAS's Haswell kernel), and a block of one pixel,
    which numpy would take as a vector-matrix product and round
    differently, is multiplied as two equal rows.

    Yields batches ``(pix, spl, products, at, counts)``: the near pairs' flat
    pixel index, splat id, (3, pairs) products ``v . C_a``, ``v . C_b`` and
    ``v . C_n`` and the index of the splat id in the list, pixel-major and
    in blend order within a pixel, and the number of pairs of each pixel
    that has any, in order.  A batch holds whole blocks with a near pair,
    of one tile or several, up to ``_BLOCK_PAIRS`` screened pairs, so it
    holds at most that many near pairs; only a one-pixel block with more
    splats makes a larger batch.
    """
    rays = cam.pixel_directions.reshape(-1, 3)
    reach = _kernel_cutoff(arrays["terms"][0]) * arrays["scales"].max(axis=1)
    Bc = arrays["B"][6:9]
    Bc2 = _dot3(Bc, Bc)
    # a pair is near when (v . B_c)^2 reaches this
    least = Bc2 - reach * reach * (1.0 + 1e-6) - 16.0 * np.finfo(float).eps * Bc2
    # one buffer for every block (four products and a work row): a fresh
    # one per block costs page faults
    buf = np.empty(0)
    # whole blocks waiting for the batch to fill, and their screened pairs
    held, n_held = [], 0
    for pix, ids, first in tiles:
        # the pixels' rays as (1, pixels, 3); np.take keeps them
        # C-contiguous, which the matmul's bits depend on
        v = np.take(rays, pix, axis=0)[None]
        n = ids.shape[0]
        # C_a, C_b, C_n and B_c of the tile's splats, as (4, 3, splats)
        C = np.take(arrays["crosses"], ids, axis=1).reshape(4, 3, n)
        least_ids = np.take(least, ids)
        # blocks of about equal pixel counts, each within the bound
        n_blocks = -(-pix.shape[0] // max(_BLOCK_PAIRS // n, 1))
        step = -(-pix.shape[0] // n_blocks)
        for p0 in range(0, pix.shape[0], step):
            P = min(step, pix.shape[0] - p0)
            rows = max(P, 2)
            if buf.shape[0] < 5 * rows * n:
                buf = np.empty(5 * rows * n)
            products = buf[: 5 * rows * n].reshape(5, rows, n)
            np.matmul(v[:, p0 : p0 + P] if P > 1 else v[:, [p0, p0]], C, out=products[:4])
            products = products[:, :P]
            near = np.multiply(products[3], products[3], out=products[4])
            k = np.flatnonzero(near >= least_ids)
            if k.shape[0] == 0:
                continue
            if n_held + P * n > _BLOCK_PAIRS and held:
                yield _joined(held)
                held, n_held = [], 0
            p = k // n
            counts = np.bincount(p)
            col = k - p * n
            held.append((np.take(pix[p0 : p0 + P], p), np.take(ids, col),
                         np.take(products[:3].reshape(3, -1), k, axis=1), col + first,
                         counts[counts > 0]))
            n_held += P * n
    if held:
        yield _joined(held)


def _joined(batches: list) -> tuple:
    """One batch of :func:`_near_pairs` from consecutive ones."""
    if len(batches) == 1:
        return batches[0]
    return tuple(np.concatenate(x, axis=-1) for x in zip(*batches))


# --- blending ---------------------------------------------------------------


def _blend(splat_rows: np.ndarray, pix, spl, products, counts) -> dict:
    """Blend weights of one batch of :func:`_near_pairs`, as 1-D passes.

    ``splat_rows`` holds the leading rows of the splat terms of
    :func:`_splat_camera_arrays` that a pair reads: opacity and ``tau``,
    and then the normal where it is blended.  ``products`` holds ``v . C_a``,
    ``v . C_b`` and ``den = v . C_n``.  By Cramer's rule the hit point ``nu
    = d v = sa*B_a + sb*B_b + B_c`` has ``sa = v . C_a / den``, ``sb = v .
    C_b / den`` and ``d = tau / den``, its range along the pixel's ray, so
    a hit with ``d <= 0`` lies behind the pixel.  Where ``|den|``
    is below ``denom_eps`` (a ray in the splat's plane, or nearly) the pair
    does not count and ``den`` is replaced by 1.  The pixels' runs come
    from the batch's ``counts``.  Returns per pair ``sa``, ``sb``, ``den``,
    ``G``, ``alpha`` (zero where the pair does not count), the exclusive
    transmittance ``t``, the weight ``w``, the range ``d`` and the
    ``splat_rows`` of its splat (``sp``), with the ``starts`` of the
    pixels' runs.
    """
    cfg = RASTER_CONFIG
    usable = np.abs(products[2]) >= cfg.denom_eps
    den = np.where(usable, products[2], 1.0)
    sa = products[0] / den
    sb = products[1] / den
    sp = np.take(splat_rows, spl, axis=1)
    d = sp[1] / den
    G = np.exp(-0.5 * (sa * sa + sb * sb))
    alpha = np.minimum(sp[0] * G, cfg.alpha_clamp)
    alpha *= usable & (alpha >= cfg.alpha_cutoff) & (d > 0.0)
    # exclusive transmittance: a cumprod along ones-padded rows, one per
    # pixel, with the pixel's factors from its second column on
    n_runs = counts.shape[0]
    starts = np.cumsum(counts) - counts
    width = int(counts.max()) + 1
    at = np.arange(pix.shape[0]) + np.repeat(np.arange(n_runs) * width - starts, counts)
    rows = np.ones(n_runs * width)
    rows[at + 1] = 1.0 - alpha
    t = np.take(np.cumprod(rows.reshape(n_runs, width), axis=1), at)
    w = alpha * t * (t >= cfg.min_transmittance)
    return {"sa": sa, "sb": sb, "den": den, "G": G, "alpha": alpha, "t": t, "w": w, "d": d,
            "sp": sp, "starts": starts}


def _add_splat_grads(acc: np.ndarray, rays: np.ndarray, b: dict, pix, at,
                     sums: np.ndarray, grads: np.ndarray) -> None:
    """Add one blend batch's share of a loss's splat sums to ``acc``, one
    column per entry of the tiles' splat lists (``at``).

    ``b`` is the batch's :func:`_blend` terms, ``sums`` its per-pair blended
    channels (``w`` times range, one, normal) and ``grads`` the loss's
    gradient at its pixels, one column per run.  ``rays`` holds every
    pixel's unit ray as (pixels, 3).  The rows of ``acc`` are the loss's
    gradient w.r.t. ``C_a``, ``C_b``, ``C_n`` (rows 0-8), ``tau`` (9), the
    normal (10-12) and the opacity (13); :func:`_splat_grads` takes them to
    ``B_a``, ``B_b`` and ``B_c``.  Only pairs with ``w > 0`` add anything,
    so only those are read.
    """
    k = np.flatnonzero(b["w"])
    if k.shape[0] == 0:
        return
    sa, sb, den, d, G, alpha, w = (np.take(b[x], k)
                                   for x in ("sa", "sb", "den", "d", "G", "alpha", "w"))
    opac = np.take(b["sp"][0], k)
    # each run's bounds among the taken pairs, and its pixel's gradient per pair
    bounds = np.searchsorted(k, np.append(b["starts"], pix.shape[0]))
    n = bounds[1:] - bounds[:-1]
    g = np.repeat(grads, n, axis=1)
    # w * c, with c every channel of the pair projected on its pixel gradient
    wc = np.einsum("ij,ij->j", g, np.take(sums, k, axis=1))
    # the sum of w*c behind a pair is the cumsum at its run's last pair minus its own
    cs = np.cumsum(wc)
    later = np.repeat(np.take(cs, bounds[1:] - 1), n) - cs
    # d(loss)/d(alpha) is t*c - later/(1 - alpha); times -alpha it is the
    # kernel route's factor (dead where clamped)
    k_alpha = np.where(opac * G <= RASTER_CONFIG.alpha_clamp,
                       alpha * later / (1.0 - alpha) - wc, 0.0)

    # sa, sb and d are v . C_a, v . C_b and tau over den = v . C_n: the
    # kernel route reaches sa and sb, the range route d, and each v . C
    # adds its factor times v to d(loss)/dC
    terms = np.empty((14, k.shape[0]))
    g_vc = np.empty((3, k.shape[0]))
    np.divide(k_alpha * sa, den, out=g_vc[0])
    np.divide(k_alpha * sb, den, out=g_vc[1])
    np.divide(g[0] * w, den, out=terms[9])
    g_vc[2] = -(sa * g_vc[0] + sb * g_vc[1] + d * terms[9])
    v = np.take(rays, np.take(pix, k), axis=0).T
    np.multiply(g_vc[:, None], v, out=terms[:9].reshape(3, 3, -1))
    np.multiply(g[2:5], w, out=terms[10:13])
    # d(loss)/d(opacity) is d(loss)/d(alpha) * G, and G = alpha / opacity where free
    np.divide(k_alpha, -opac, out=terms[13])
    # a batch's tiles are consecutive, so their list entries are one short range
    at = np.take(at, k)
    lo = at.min()
    span = int(at.max()) + 1 - lo
    cells = (at - lo) + span * np.arange(14)[:, None]
    acc[:, lo : lo + span] += np.bincount(cells.ravel(), terms.ravel(),
                                          minlength=14 * span).reshape(14, span)


def _splat_grads(sums: np.ndarray, arrays: dict) -> np.ndarray:
    """The rows of :attr:`BlendRecords.splat_grads` from a render's per-splat
    sums of the rows of :func:`_add_splat_grads`.

    ``tau = C_n . B_c``, and each ``C = X x Y`` of two of ``B_a``, ``B_b``
    and ``B_c`` gives ``d/dX = Y x g_C`` and ``d/dY = g_C x X``.
    """
    B = arrays["B"]
    Ba, Bb, Bc = B[0:3], B[3:6], B[6:9]
    g_ca, g_cb, g_tau = sums[0:3], sums[3:6], sums[9]
    g_cn = sums[6:9] + g_tau * Bc
    return np.concatenate([_cross3(g_cb, Bc) + _cross3(Bb, g_cn),
                           _cross3(Bc, g_ca) + _cross3(g_cn, Ba),
                           _cross3(g_ca, Bb) + _cross3(Ba, g_cb) + g_tau * arrays["crosses"][6:9],
                           sums[10:]])


# --- forward ---------------------------------------------------------------


def _render(cam: SphericalCamera, arrays: dict, tiles, normals: bool = True,
            pixel_grads=None, acc: np.ndarray | None = None) -> RenderOutput:
    """Blend range and opacity, and the normal if ``normals``, at the pixels
    that ``tiles`` lists (see :func:`_near_pairs`); unlisted pixels stay 0.

    With ``pixel_grads``, also adds the loss's gradient w.r.t. each splat's
    camera-frame terms (the rows of :func:`_add_splat_grads`) into ``acc``,
    one column per entry of the tiles' splat lists.
    """
    H, W = cam.height, cam.width
    out = np.zeros((5 if normals else 2, H * W))  # range, opacity, normal
    terms = arrays["terms"]
    # what a pair reads of its splat: opacity and tau, then the normal
    splat_rows = terms[: 5 if normals else 2]
    rays = cam.pixel_directions.reshape(-1, 3)
    for pix, spl, products, at, counts in _near_pairs(cam, arrays, tiles):
        b = _blend(splat_rows, pix, spl, products, counts)
        w, starts = b["w"], b["starts"]
        sums = np.empty((out.shape[0], pix.shape[0]))
        np.multiply(w, b["d"], out=sums[0])
        sums[1] = w
        if normals:
            np.multiply(w, b["sp"][2:5], out=sums[2:])
        # a pixel's pairs are contiguous: reduceat sums them in blend order
        first = np.take(pix, starts)
        blended = np.add.reduceat(sums, starts, axis=1)
        out[:, first] = blended
        if pixel_grads is not None:
            _add_splat_grads(acc, rays, b, pix, at, sums, pixel_grads(first, blended))
    normal = np.moveaxis(out[2:], 0, -1).reshape(H, W, 3) if normals else None
    return RenderOutput(out[0].reshape(H, W), normal, out[1].reshape(H, W))


def rasterize_forward(
    cam: SphericalCamera, pose: SE3Pose, model: SplatModel, *, normals: bool = True,
    pixel_grads=None, mask: np.ndarray | None = None,
) -> tuple[RenderOutput, BlendRecords]:
    """Render the model from ``pose`` (sensor-in-world) onto the camera grid.

    ``normals=False`` blends range and opacity only and leaves ``normal``
    None, for callers that read no normals; range and opacity keep the bits
    of the full render.  ``pixel_grads`` is a loss's rule for its gradient
    w.r.t. the images: called with a blend batch's flat pixel indices and
    their blended values, as (5, pixels) rows of range, opacity and then
    the normal, it returns their gradients in the same layout.  The render
    then leaves the loss's splat sums in ``records.splat_grads`` for
    :func:`rasterize_backward`; the images are the same bits either way.
    ``pixel_grads`` with ``normals=False`` raises ``GeometryError``.

    ``mask``, a boolean ``(height, width)`` image, renders only its pixels:
    they get the bits of the full render, every other pixel reads 0 in
    every channel, as an uncovered one does, and ``pixel_grads`` is called
    for masked pixels only.  A caller must read only the masked pixels.
    Binning and the records do not depend on the mask.
    """
    if pixel_grads is not None and not normals:
        raise GeometryError("a render that takes gradients blends the normal: "
                            "pixel_grads needs normals=True")
    if mask is not None and np.shape(mask) != (cam.height, cam.width):
        raise GeometryError(f"render mask of shape {np.shape(mask)} does not fit a "
                            f"{cam.height}x{cam.width} camera")
    mask = np.ones((cam.height, cam.width), dtype=bool) if mask is None else mask
    arrays = _splat_camera_arrays(model, pose)
    tile_ptr, pair_splats, tiles_x = _bin_splats(cam, arrays)
    acc = None if pixel_grads is None else np.zeros((14, pair_splats.shape[0]))
    out = _render(cam, arrays, _binned_tiles(cam, tile_ptr, pair_splats, tiles_x, mask),
                  normals, pixel_grads, acc)
    splat_grads = None if acc is None else _splat_grads(np.stack(
        [np.bincount(pair_splats, row, minlength=len(model)) for row in acc]), arrays)
    records = BlendRecords(cam, pose, RASTER_CONFIG, len(model), model.version,
                           tile_ptr, pair_splats, tiles_x, splat_grads)
    return out, records


def reference_rasterize(cam: SphericalCamera, pose: SE3Pose, model: SplatModel) -> RenderOutput:
    """Brute-force renderer: every splat against every pixel, no tiling.

    Same intersection math, cutoffs and blend order as the tiled path, which
    it shares: one pixel list of the whole image against every splat in
    range order.  Used as the correctness oracle.
    """
    arrays = _splat_camera_arrays(model, pose)
    order = np.lexsort((np.arange(len(model)), arrays["ranges"]))
    return _render(cam, arrays, [(np.arange(cam.height * cam.width), order, 0)])


# --- backward ---------------------------------------------------------------


def rasterize_backward(model: SplatModel, records: BlendRecords) -> np.ndarray:
    """Gradients of a pixel-space loss w.r.t. ``model.params``, as an ``(N, 12)`` matrix.

    The matrix has the layout of ``model.params``, so it feeds the
    optimizer as it is.  ``records`` must come from ``rasterize_forward``
    with the loss's ``pixel_grads``, on the same (unmodified) model; other
    records raise ``GeometryError``.  This chains their camera-frame splat
    sums to world-frame gradients of what the model reads out, and then
    through its storage maps.  Splats touching no pixel get zero rows.
    """
    if records.splat_grads is None:
        raise GeometryError("blend records hold no gradients: render with pixel_grads")
    if records.n_splats != len(model) or records.model_version != model.version:
        raise GeometryError("blend records are stale for this model")
    # world frame: rows B_a, B_b, B_c, normal
    R = records.pose.rotation
    g_ba, g_bb, g_bc, g_n = ((R @ records.splat_grads[r : r + 3]).T for r in (0, 3, 6, 9))
    ta, tb, _ = model.tangent_frames()
    s = model.scales
    return model.param_gradients(
        centers=g_bc,
        t_alpha=s[:, :1] * g_ba,
        t_beta=s[:, 1:] * g_bb,
        normal=g_n,
        scales=np.stack([np.einsum("nc,nc->n", g_ba, ta), np.einsum("nc,nc->n", g_bb, tb)],
                        axis=1),
        opacities=records.splat_grads[12],
    )
