"""Differentiable tiled rasterizer for splats on a spherical image.

Forward model, per pixel ray ``v``:

  * Each pixel owns two planes through the sensor origin,
    ``h_x = (sin az, -cos az, 0)`` (the ray's vertical plane, defined at
    the poles too) and ``h_y = h_x x v``; their intersection is the ray
    itself.  Both stages read them from the camera's ``pixel_rays``.
  * A splat defines the map ``H`` from splat coordinates (a, b, 0, 1) to
    world points.  Pulling both pixel planes back through the camera pose
    and ``H`` gives two lines in splat coordinates; their intersection
    (via the homogeneous cross product) is the ray/splat hit point
    ``(s_a, s_b)``, with camera-frame location
    ``nu = s_a*B_a + s_b*B_b + B_c`` where ``B_a = s_alpha*R_wc t_alpha``,
    ``B_b = s_beta*R_wc t_beta`` and ``B_c`` is the camera-frame centroid.
  * The hit contributes ``alpha = opacity * exp(-(s_a^2 + s_b^2)/2)``,
    range ``|nu|`` and the splat normal, alpha-blended front to back in
    order of increasing centroid range.

Intersections behind the pixel (``nu . v <= 0``) belong to the antipodal
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
cheap: per tile, the plane products of every listed pixel-splat pair come
from one stacked BLAS matmul per block, and a pair is kept only if its
ray passes within ``c * max(scale)`` of the centroid.  Blending
(:func:`_blend`) works on batches of those near pairs, pixel-major and in
blend order within a pixel, as 1-D passes: kernel terms, alpha, the hit
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
blended with (kernel coordinates, alpha, weights, range, plane products
and splat rows) and its pixels' planes, it takes the analytic gradients
w.r.t. each splat's camera-frame ``B_a``, ``B_b``, ``B_c``, normal and
opacity over its pairs with ``w > 0``, as 1-D arrays.  Those are summed
per entry of the tiles' splat lists (a batch's tiles are consecutive, so
it touches one short range of entries), then per splat into one
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

    def surface(self) -> tuple[np.ndarray, np.ndarray]:
        """Pixels that show a surface (opacity above 0.5), and its range there.

        The range channel blends by opacity mass, so it understates the range
        where coverage is partial; dividing by opacity removes that bias.
        ``depth`` is 0 off the surface.
        """
        mask = self.opacity > 0.5
        depth = np.divide(self.range, self.opacity, out=np.zeros_like(self.range), where=mask)
        return mask, depth


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
    """Per-splat camera-frame quantities for a render from ``pose``."""
    R = pose.rotation
    ta, tb, tn = model.tangent_frames()
    s = model.scales
    Ba = s[:, :1] * (ta @ R)
    Bb = s[:, 1:] * (tb @ R)
    Bc = (model.centers - pose.translation) @ R
    return {
        # what a pair reads of its splat, one row per term: opacity, normal,
        # B_a, B_b, B_c (a gathered term is then one contiguous row).  C
        # order matters: np.take copies a whole array that is not C-contiguous
        "terms": np.concatenate([model.opacities[None], (tn @ R).T, Ba.T, Bb.T, Bc.T],
                                out=np.empty((13, len(model)))),
        "scales": s,
        "ranges": np.linalg.norm(Bc, axis=1),
    }


def _kernel_cutoff(opacity: np.ndarray) -> np.ndarray:
    """Per-splat kernel radius ``c``: ``o exp(-|s|^2 / 2) >= alpha_cutoff``
    exactly when ``|s| <= c = sqrt(2 ln(o / alpha_cutoff))``.  A splat with
    ``o < alpha_cutoff`` gets ``c = 0`` here and no tile in :func:`_bin_splats`."""
    return np.sqrt(2.0 * np.log(np.maximum(opacity / RASTER_CONFIG.alpha_cutoff, 1.0)))


def _dot3(x, y) -> np.ndarray:
    """Per-pair dot product of two 3-vectors given as three rows each."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


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

    terms = arrays["terms"]
    Ba, Bb, (x, y, z) = terms[4:7], terms[7:10], terms[10:13]
    c = _kernel_cutoff(terms[0])
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
    row_last[~(terms[0] >= RASTER_CONFIG.alpha_cutoff)] = -1
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
# Their 1-D temporaries, about forty arrays, weigh on a render's peak memory
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
    A pair is near when the pixel's ray passes within ``c * max(scale)`` of
    the centroid, with ``c`` the splat's kernel radius
    (:func:`_kernel_cutoff`): ``a4^2 + b4^2``, with ``a4 = h_x . B_c`` and
    ``b4 = h_y . B_c``, is that squared distance.  A hit at ``|s| <= c``
    lies within ``c * max(scale)`` of the centroid, so every pair whose
    alpha can reach the cutoff is near, and a faint splat screens fewer
    pairs than an opaque one of the same shape.  The plane products come
    from one stacked matmul per block of a tile's pixels against all its
    splats: the pixels' rows of the camera's ``pixel_rays``, ``h_x``,
    ``h_y`` and ``v``, against ``B_a``, ``B_b`` and ``B_c``, in the order
    ``a1, a2, a4, b1, b2, b4, v.B_a, v.B_b, v.B_c``.  A tile's pixels are
    split into blocks of about equal pixel counts, of at most
    ``_BLOCK_PAIRS`` screened pairs unless a block is one pixel.

    A masked render keeps the full render's bits because a pixel's products
    do not depend on the other pixels of its block: BLAS rounds each row of
    a product of two rows or more the same whatever the row count (checked
    bit for bit on OpenBLAS's Haswell kernel), and a block of one pixel,
    which numpy would take as a matrix-vector product and round
    differently, is multiplied as two equal rows.

    Yields batches ``(pix, spl, planes, at, counts)``: the near pairs' flat
    pixel index, splat id, (9, pairs) plane products and the index of the
    splat id in the list, pixel-major and in blend order within a pixel,
    and the number of pairs of each pixel that has any, in order.  A batch
    holds whole blocks with a near pair, of one tile or several, up to
    ``_BLOCK_PAIRS`` screened pairs, so it holds at most that many near
    pairs; only a one-pixel block with more splats makes a larger batch.
    """
    rays = cam.pixel_rays.reshape(3, -1, 3)
    reach = _kernel_cutoff(arrays["terms"][0]) * arrays["scales"].max(axis=1)
    # slack against rounding in the plane products
    reach2 = reach * reach * (1.0 + 1e-6)
    # one buffer for every block (nine products and two work rows): a
    # fresh one per block costs page faults
    buf = np.empty(0)
    # whole blocks waiting for the batch to fill, and their screened pairs
    held, n_held = [], 0
    for pix, ids, first in tiles:
        # h_x, h_y and v of the pixels, as (3, 1, pixels, 3); np.take keeps
        # it C-contiguous, which the matmul's bits depend on
        pixel_vectors = np.take(rays, pix, axis=1)[:, None]
        n = ids.shape[0]
        # B_a, B_b and B_c of the tile's splats, as (1, 3, 3, splats)
        B = np.take(arrays["terms"][4:13], ids, axis=1).reshape(1, 3, 3, n)
        # blocks of about equal pixel counts, each within the bound
        n_blocks = -(-pix.shape[0] // max(_BLOCK_PAIRS // n, 1))
        step = -(-pix.shape[0] // n_blocks)
        for p0 in range(0, pix.shape[0], step):
            P = min(step, pix.shape[0] - p0)
            rows = max(P, 2)
            if buf.shape[0] < 11 * rows * n:
                buf = np.empty(11 * rows * n)
            planes = buf[: 11 * rows * n].reshape(11, rows, n)
            lhs = pixel_vectors[:, :, p0 : p0 + P] if P > 1 else pixel_vectors[:, :, [p0, p0]]
            np.matmul(lhs, B, out=planes[:9].reshape(3, 3, rows, n))
            planes = planes[:, :P]
            near = np.multiply(planes[2], planes[2], out=planes[9])
            near += np.multiply(planes[5], planes[5], out=planes[10])
            k = np.flatnonzero(near <= reach2[ids])
            if k.shape[0] == 0:
                continue
            if n_held + P * n > _BLOCK_PAIRS and held:
                yield _joined(held)
                held, n_held = [], 0
            p = k // n
            counts = np.bincount(p)
            col = k - p * n
            held.append((np.take(pix[p0 : p0 + P], p), np.take(ids, col),
                         np.take(planes[:9].reshape(9, -1), k, axis=1), col + first,
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


def _kernel_coordinates(a1, a2, a4, b1, b2, b4):
    """``(sa, sb, den, usable)``: the hit point in splat coordinates.

    ``den`` is the homogeneous denominator, replaced by 1 where it is too
    small to be ``usable``.
    """
    den = a1 * b2 - a2 * b1
    usable = np.abs(den) >= RASTER_CONFIG.denom_eps
    den = np.where(usable, den, 1.0)
    return (a2 * b4 - a4 * b2) / den, (a4 * b1 - a1 * b4) / den, den, usable


def _blend(splat_rows: np.ndarray, pix, spl, planes, counts) -> dict:
    """Blend weights of one batch of :func:`_near_pairs`, as 1-D passes.

    ``splat_rows`` holds the leading rows of the splat terms of
    :func:`_splat_camera_arrays` that a pair reads: opacity, and then the
    normal where it is blended.  The hit point ``nu = sa*B_a + sb*B_b +
    B_c`` lies on the pixel's ray, so ``nu . v`` is its range, and a hit
    with ``nu . v <= 0`` lies behind the pixel.  The pixels' runs come from
    the batch's ``counts``.  Returns per pair the kernel coordinates ``sa``,
    ``sb`` and denominator ``den`` (see :func:`_kernel_coordinates`), ``G``,
    ``alpha`` (zero where the pair does not count), the exclusive
    transmittance ``t``, the weight ``w``, the range ``d`` and the
    ``splat_rows`` of its splat (``sp``), with the ``starts`` of the
    pixels' runs.
    """
    cfg = RASTER_CONFIG
    sa, sb, den, usable = _kernel_coordinates(*planes[:6])
    d = sa * planes[6] + sb * planes[7] + planes[8]
    G = np.exp(-0.5 * (sa * sa + sb * sb))
    sp = np.take(splat_rows, spl, axis=1)
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


def _add_splat_grads(acc: np.ndarray, rays: np.ndarray, b: dict, pix, planes, at,
                     sums: np.ndarray, grads: np.ndarray) -> None:
    """Add one blend batch's share of a loss's splat sums to ``acc``, one
    column per entry of the tiles' splat lists (``at``).

    ``b`` is the batch's :func:`_blend` terms, ``sums`` its per-pair blended
    channels (``w`` times range, one, normal) and ``grads`` the loss's
    gradient at its pixels, one column per run.  ``rays`` holds every
    pixel's ``h_x``, ``h_y`` and ``v`` as (3, pixels, 3).  Only pairs with
    ``w > 0`` add anything, so only those are read.
    """
    k = np.flatnonzero(b["w"])
    if k.shape[0] == 0:
        return
    sa, sb, den, G, alpha, w = (np.take(b[x], k) for x in ("sa", "sb", "den", "G", "alpha", "w"))
    opac = np.take(b["sp"][0], k)
    a1, a2, a4, b1, b2, b4, vBa, vBb = np.take(planes[:8], k, axis=1)
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
    # range route: the hit point is range * v, so d(range)/d(nu) = v
    dd = g[0] * w
    dsa = k_alpha * sa + dd * vBa
    dsb = k_alpha * sb + dd * vBb

    # homogeneous intersection point route: with gp = d(loss)/d(sa*den,
    # sb*den, den), per pair d(loss)/dB_j sums, over h_x, h_y and v, the
    # plane times coef[plane, j]: (b1, b2, b4) x gp, gp x (a1, a2, a4) and
    # dd * (sa, sb, 1)
    gp1 = dsa / den
    gp2 = dsb / den
    gp3 = -(sa * gp1 + sb * gp2)
    coef = np.empty((3, 3, k.shape[0]))
    coef[0] = b2 * gp3 - b4 * gp2, b4 * gp1 - b1 * gp3, b1 * gp2 - b2 * gp1
    coef[1] = gp2 * a4 - gp3 * a2, gp3 * a1 - gp1 * a4, gp1 * a2 - gp2 * a1
    coef[2] = dd * sa, dd * sb, dd
    # the per-pair terms of each row of acc
    terms = np.empty((13, k.shape[0]))
    px = np.take(rays, np.take(pix, k), axis=1)
    np.einsum("ijp,ipk->jkp", coef, px, out=terms[:9].reshape(3, 3, -1))
    np.multiply(g[2:5], w, out=terms[9:12])
    # d(loss)/d(opacity) is d(loss)/d(alpha) * G, and G = alpha / opacity where free
    np.divide(k_alpha, -opac, out=terms[12])
    # a batch's tiles are consecutive, so their list entries are one short range
    at = np.take(at, k)
    lo = at.min()
    span = int(at.max()) + 1 - lo
    cells = (at - lo) + span * np.arange(13)[:, None]
    acc[:, lo : lo + span] += np.bincount(cells.ravel(), terms.ravel(),
                                          minlength=13 * span).reshape(13, span)


# --- forward ---------------------------------------------------------------


def _render(cam: SphericalCamera, arrays: dict, tiles, normals: bool = True,
            pixel_grads=None, acc: np.ndarray | None = None) -> RenderOutput:
    """Blend range and opacity, and the normal if ``normals``, at the pixels
    that ``tiles`` lists (see :func:`_near_pairs`); unlisted pixels stay 0.

    With ``pixel_grads``, also adds the loss's gradient w.r.t. each splat's
    camera-frame terms (the rows of :class:`BlendRecords`) into ``acc``, one
    column per entry of the tiles' splat lists.
    """
    H, W = cam.height, cam.width
    out = np.zeros((5 if normals else 2, H * W))  # range, opacity, normal
    terms = arrays["terms"]
    # what a pair reads of its splat: opacity, then the normal
    splat_rows = terms[: 4 if normals else 1]
    rays = cam.pixel_rays.reshape(3, -1, 3)
    for pix, spl, planes, at, counts in _near_pairs(cam, arrays, tiles):
        b = _blend(splat_rows, pix, spl, planes, counts)
        w, starts = b["w"], b["starts"]
        sums = np.empty((out.shape[0], pix.shape[0]))
        np.multiply(w, b["d"], out=sums[0])
        sums[1] = w
        if normals:
            np.multiply(w, b["sp"][1:4], out=sums[2:])
        # a pixel's pairs are contiguous: reduceat sums them in blend order
        first = np.take(pix, starts)
        blended = np.add.reduceat(sums, starts, axis=1)
        out[:, first] = blended
        if pixel_grads is not None:
            _add_splat_grads(acc, rays, b, pix, planes, at, sums, pixel_grads(first, blended))
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
    acc = None if pixel_grads is None else np.zeros((13, pair_splats.shape[0]))
    out = _render(cam, arrays, _binned_tiles(cam, tile_ptr, pair_splats, tiles_x, mask),
                  normals, pixel_grads, acc)
    splat_grads = None if acc is None else np.stack(
        [np.bincount(pair_splats, row, minlength=len(model)) for row in acc])
    records = BlendRecords(cam, pose.copy(), RASTER_CONFIG, len(model), model.version,
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
