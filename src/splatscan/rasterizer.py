"""Differentiable tiled rasterizer for splats on a spherical image.

Forward model, per pixel ray ``v``:

  * Each pixel owns two planes through the sensor origin,
    ``h_x = (sin az, -cos az, 0)`` (the ray's vertical plane, defined at
    the poles too) and ``h_y = h_x x v``; their intersection is the ray
    itself.
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
cheap: per tile, the plane products of every pixel-splat pair come from
BLAS matmuls over bounded blocks, and a pair is kept only if its ray
passes within ``c * max(scale)`` of the centroid.  Blending
(:func:`_blend`) works on batches of those near pairs, pixel-major and in
blend order within a pixel, as 1-D passes: kernel terms, alpha, the hit
range, exclusive transmittance by a cumprod along each pixel's run,
weights, and per-pixel sums.  The forward pass and the reference renderer share both stages;
the reference feeds them full-width pixel bands with every splat in range
order.

The backward pass never walks the tiles again.  A forward pass asked to
``keep_pairs`` keeps the pairs with non-zero blend weight: each pair's
pixel and splat, its transmittance and its six plane products, and the
render's per-splat arrays.  From those the backward pass recomputes the
kernel terms and alpha with the forward pass's own expressions and the
hit range from the pixel's ray, and accumulates analytic gradients of
any scalar loss on the rendered range/normal/opacity images w.r.t. splat
centroids, tangent frames, scales and opacities, on 1-D arrays over the
kept pairs.  :meth:`SplatModel.param_gradients` chains those into one
``(N, 12)`` matrix in the layout of ``SplatModel.params``, which is what
the backward pass returns.
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
    "PixelGradients",
    "rasterize_forward",
    "rasterize_backward",
    "reference_rasterize",
]

@dataclass(frozen=True)
class RasterConfig:
    tile_size: int = 8
    # bounds the screening block: at most tile_size**2 * chunk_size pairs,
    # a full tile against chunk_size splats
    chunk_size: int = 256
    alpha_cutoff: float = 1.0 / 255.0
    alpha_clamp: float = 0.99
    min_transmittance: float = 1e-4
    denom_eps: float = 1e-12


# the settings of every render
RASTER_CONFIG = RasterConfig()


@dataclass
class RenderOutput:
    """Blended range, camera-frame normal and opacity images."""

    range: np.ndarray
    normal: np.ndarray
    opacity: np.ndarray


@dataclass
class PixelGradients:
    """d(loss)/d(rendered image) for each channel; zeros where unused."""

    d_range: np.ndarray
    d_normal: np.ndarray
    d_opacity: np.ndarray


@dataclass
class BlendRecords:
    """Binning and identity snapshot of a render, and its contributing pairs.

    ``pairs`` and ``arrays`` are ``None`` unless the render was asked to
    ``keep_pairs``.  Then ``pairs`` holds the pairs with ``w > 0`` as
    ``(pix, spl, values)`` entries, each ending at the first pixel end at
    or past ``_BATCH_PAIRS`` pairs (the last may be short): the pairs'
    flat pixel index and splat id, each as the smallest unsigned int that
    holds it, and their (7, pairs) float64 values, one row per term: the
    transmittance in front of the pair and the six plane products ``a1,
    a2, a4, b1, b2, b4`` (see :func:`_near_pairs`).  The pairs are
    pixel-major and in blend order within a pixel, and a pixel's pairs all
    lie in one entry.  ``arrays`` holds the render's per-splat camera-frame
    arrays.  :func:`rasterize_backward` takes both out and leaves ``None``,
    so a record serves one backward pass.
    """

    cam: SphericalCamera
    pose: SE3Pose
    config: RasterConfig
    n_splats: int
    model_version: int
    tile_ptr: np.ndarray
    pair_splats: np.ndarray
    tiles_x: int
    pairs: list | None = None
    arrays: dict | None = None


# --- splat preparation and tile binning ------------------------------------


def _splat_camera_arrays(model: SplatModel, pose: SE3Pose) -> dict:
    """Per-splat camera-frame quantities for a render from ``pose``."""
    R = pose.rotation
    ta, tb, tn = model.tangent_frames()
    s = model.scales
    ta_c = ta @ R
    tb_c = tb @ R
    Ba = s[:, :1] * ta_c
    Bb = s[:, 1:] * tb_c
    Bc = (model.centers - pose.translation) @ R
    return {
        # what a pair reads of its splat, one row per term: opacity, normal,
        # B_a, B_b, B_c (a gathered term is then one contiguous row).  C
        # order matters: np.take copies a whole array that is not C-contiguous
        "terms": np.concatenate([model.opacities[None], (tn @ R).T, Ba.T, Bb.T, Bc.T],
                                out=np.empty((13, len(model)))),
        "ta_cam": ta_c,
        "tb_cam": tb_c,
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

# the most near pairs a blend batch holds (unless one pixel has more); the
# batches' 1-D temporaries, about forty arrays over their pairs, weigh on a
# render's peak memory, so keep it small
_BATCH_PAIRS = 4096


def _binned_tiles(tile_ptr, pair_splats, tiles_x: int):
    """(row slice, column slice, splat ids) of every tile that holds a splat."""
    T = RASTER_CONFIG.tile_size
    for t in np.flatnonzero(np.diff(tile_ptr)):
        r0 = (t // tiles_x) * T
        c0 = (t % tiles_x) * T
        yield slice(r0, r0 + T), slice(c0, c0 + T), pair_splats[tile_ptr[t] : tile_ptr[t + 1]]


def _near_pairs(cam: SphericalCamera, arrays: dict, tiles):
    """Screen each tile's pixel-splat pairs; yield the near ones in batches.

    ``tiles`` yields (row slice, column slice, splat ids in blend order).
    A pair is near when the pixel's ray passes within ``c * max(scale)`` of
    the centroid, with ``c`` the splat's kernel radius
    (:func:`_kernel_cutoff`): ``a4^2 + b4^2``, with ``a4 = h_x . B_c`` and
    ``b4 = h_y . B_c``, is that squared distance.  A hit at ``|s| <= c``
    lies within ``c * max(scale)`` of the centroid, so every pair whose
    alpha can reach the cutoff is near, and a faint splat screens fewer
    pairs than an opaque one of the same shape.  The plane products are
    dense matmuls over blocks of a tile's pixels against all its splats, at
    most ``tile_size**2 * chunk_size`` pairs a block: ``h_x``, ``h_y`` and
    the ray ``v`` against ``B_a``, ``B_b`` and ``B_c``, in the order ``a1,
    a2, a4, b1, b2, b4, v.B_a, v.B_b, v.B_c``.

    Yields batches ``(pix, spl, planes)``: the near pairs' flat pixel
    index, splat id and (9, pairs) plane products, pixel-major and in blend
    order within a pixel.  A batch holds whole pixels of one block and at
    most ``_BATCH_PAIRS`` pairs, unless one pixel has more.
    """
    cfg = RASTER_CONFIG
    hx, hy = cam.pixel_ray_planes
    dirs = cam.pixel_directions
    flat = np.arange(cam.height * cam.width).reshape(cam.height, cam.width)
    reach = _kernel_cutoff(arrays["terms"][0]) * arrays["scales"].max(axis=1)
    # slack against rounding in the plane products
    reach2 = reach * reach * (1.0 + 1e-6)
    block_pairs = cfg.tile_size**2 * cfg.chunk_size
    # one buffer for every block (nine products and two work rows): a
    # fresh one per block costs page faults
    buf = np.empty(0)
    for rows, cols, ids in tiles:
        pix = flat[rows, cols].ravel()
        pixel_vectors = (hx[rows, cols].reshape(-1, 3), hy[rows, cols].reshape(-1, 3),
                         dirs[rows, cols].reshape(-1, 3))
        # B_a, B_b and B_c of the tile's splats, one row per component
        B = np.take(arrays["terms"][4:13], ids, axis=1)
        n = ids.shape[0]
        # blocks of about equal pixel counts
        n_blocks = -(-pix.shape[0] * n // block_pairs)
        step = max(-(-pix.shape[0] // max(n_blocks, 1)), 1)
        for p0 in range(0, pix.shape[0], step):
            P = min(step, pix.shape[0] - p0)
            if buf.shape[0] < 11 * P * n:
                buf = np.empty(11 * P * n)
            planes = buf[: 11 * P * n].reshape(11, P, n)
            for i in range(9):
                np.matmul(pixel_vectors[i // 3][p0 : p0 + P], B[3 * (i % 3) : 3 * (i % 3) + 3],
                          out=planes[i])
            near = np.multiply(planes[2], planes[2], out=planes[9])
            near += np.multiply(planes[5], planes[5], out=planes[10])
            k = np.flatnonzero(near <= reach2[ids])
            p = k // n
            block = (np.take(pix[p0 : p0 + P], p), np.take(ids, k - p * n),
                     np.take(planes[:9].reshape(9, -1), k, axis=1))
            # cut at pixel ends: the last one within the batch size, or else
            # the end of the first pixel
            ends = np.concatenate(([0], np.cumsum(np.bincount(p, minlength=P))))
            lo = 0
            while lo < k.shape[0]:
                hi = ends[np.searchsorted(ends, lo + _BATCH_PAIRS, "right") - 1]
                if hi <= lo:
                    hi = ends[np.searchsorted(ends, lo, "right")]
                yield block[0][lo:hi], block[1][lo:hi], block[2][:, lo:hi]
                lo = hi


# --- blending ---------------------------------------------------------------


def _runs(pix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs of one pixel in pixel-major pairs: (first pair of each run, run of each pair)."""
    new = np.empty(pix.shape[0], dtype=bool)
    new[:1] = True
    np.not_equal(pix[1:], pix[:-1], out=new[1:])
    return np.flatnonzero(new), np.cumsum(new) - 1


def _kernel_coordinates(a1, a2, a4, b1, b2, b4):
    """``(sa, sb, den, usable)``: the hit point in splat coordinates.

    ``den`` is the homogeneous denominator, replaced by 1 where it is too
    small to be ``usable``.
    """
    den = a1 * b2 - a2 * b1
    usable = np.abs(den) >= RASTER_CONFIG.denom_eps
    den = np.where(usable, den, 1.0)
    return (a2 * b4 - a4 * b2) / den, (a4 * b1 - a1 * b4) / den, den, usable


def _blend(terms: np.ndarray, pix, spl, planes) -> dict:
    """Blend weights of one batch of :func:`_near_pairs`, as 1-D passes.

    ``terms`` holds the splat terms of :func:`_splat_camera_arrays`.  The
    hit point ``nu = sa*B_a + sb*B_b + B_c`` lies on the pixel's ray, so
    ``nu . v`` is its range, and a hit with ``nu . v <= 0`` lies behind
    the pixel.  Returns per pair ``G``, ``alpha`` (zero where the pair does
    not count), the exclusive transmittance ``t``, the weight ``w``, the
    range ``d`` and the opacity and normal of its splat (``sp``), with the
    ``starts`` of the pixels' runs and the ``run`` of each pair.
    """
    cfg = RASTER_CONFIG
    sa, sb, _, usable = _kernel_coordinates(*planes[:6])
    d = sa * planes[6] + sb * planes[7] + planes[8]
    G = np.exp(-0.5 * (sa * sa + sb * sb))
    sp = np.take(terms[:4], spl, axis=1)
    alpha = np.minimum(sp[0] * G, cfg.alpha_clamp)
    alpha *= usable & (alpha >= cfg.alpha_cutoff) & (d > 0.0)
    # exclusive transmittance: a cumprod along ones-padded rows, one per
    # pixel, with the pixel's factors from its second column on
    starts, run = _runs(pix)
    n_runs = starts.shape[0]
    width = int(np.bincount(run).max()) + 1
    at = np.arange(pix.shape[0]) + np.take(np.arange(n_runs) * width - starts, run)
    rows = np.ones(n_runs * width)
    rows[at + 1] = 1.0 - alpha
    t = np.take(np.cumprod(rows.reshape(n_runs, width), axis=1), at)
    w = alpha * t * (t >= cfg.min_transmittance)
    return {"G": G, "alpha": alpha, "t": t, "w": w, "d": d, "sp": sp,
            "starts": starts, "run": run}


# --- forward ---------------------------------------------------------------


def _render(cam: SphericalCamera, arrays: dict, tiles, kept: list | None = None) -> RenderOutput:
    """Blend range, normal and opacity over ``tiles``; untouched pixels stay 0.

    With a ``kept`` list, appends the pairs with ``w > 0`` to it as
    ``(pix, spl, values)`` entries, each cut at the first pixel end at or
    past ``_BATCH_PAIRS`` pairs (see :class:`BlendRecords`).
    """
    H, W = cam.height, cam.width
    out = np.zeros((5, H * W))  # range, opacity, normal
    terms = arrays["terms"]
    held = []
    pix_type = np.min_scalar_type(H * W - 1)
    spl_type = np.min_scalar_type(max(terms.shape[1] - 1, 0))

    def keep():
        pix, spl, values = (np.concatenate(x, axis=-1) for x in zip(*held))
        kept.append((pix.astype(pix_type), spl.astype(spl_type), values))
        held.clear()

    for pix, spl, planes in _near_pairs(cam, arrays, tiles):
        b = _blend(terms, pix, spl, planes)
        w, starts = b["w"], b["starts"]
        sums = np.empty((5, pix.shape[0]))
        np.multiply(w, b["d"], out=sums[0])
        sums[1] = w
        np.multiply(w, b["sp"][1:4], out=sums[2:])
        # a pixel's pairs are contiguous: reduceat sums them in blend order
        out[:, np.take(pix, starts)] = np.add.reduceat(sums, starts, axis=1)
        if kept is not None and w.any():
            k = np.flatnonzero(w)
            values = np.empty((7, k.shape[0]))
            values[0] = np.take(b["t"], k)
            values[1:] = np.take(planes[:6], k, axis=1)
            part = (np.take(pix, k), np.take(spl, k), values)
            # an entry ends at the first pixel end at or past _BATCH_PAIRS pairs
            ends = np.append(np.flatnonzero(np.diff(part[0])) + 1, k.shape[0])
            i = np.searchsorted(ends, _BATCH_PAIRS - sum(x[0].shape[0] for x in held))
            if i < ends.shape[0]:
                held.append(tuple(x[..., : ends[i]] for x in part))
                keep()
                part = tuple(x[..., ends[i] :] for x in part)
            if part[0].shape[0]:
                held.append(part)
    if held:
        keep()
    return RenderOutput(
        out[0].reshape(H, W), np.moveaxis(out[2:], 0, -1).reshape(H, W, 3), out[1].reshape(H, W))


def rasterize_forward(
    cam: SphericalCamera, pose: SE3Pose, model: SplatModel, *, keep_pairs: bool = False
) -> tuple[RenderOutput, BlendRecords]:
    """Render the model from ``pose`` (sensor-in-world) onto the camera grid.

    ``keep_pairs`` keeps the contributing pixel-splat pairs in the records
    for one :func:`rasterize_backward`, with the splat arrays it reads; the
    pairs take about 5 MB per 85k, so renders that no backward pass reads
    leave it off.
    """
    arrays = _splat_camera_arrays(model, pose)
    tile_ptr, pair_splats, tiles_x = _bin_splats(cam, arrays)
    kept = [] if keep_pairs else None
    out = _render(cam, arrays, _binned_tiles(tile_ptr, pair_splats, tiles_x), kept)
    records = BlendRecords(
        cam, pose.copy(), RASTER_CONFIG, len(model), model.version,
        tile_ptr, pair_splats, tiles_x, kept, arrays if keep_pairs else None,
    )
    return out, records


def reference_rasterize(cam: SphericalCamera, pose: SE3Pose, model: SplatModel) -> RenderOutput:
    """Brute-force renderer: every splat against every pixel, no tiling.

    Same intersection math, cutoffs and blend order as the tiled path;
    used as the correctness oracle.
    """
    arrays = _splat_camera_arrays(model, pose)
    order = np.lexsort((np.arange(len(model)), arrays["ranges"]))
    T = RASTER_CONFIG.tile_size
    bands = ((slice(r0, r0 + T), slice(0, cam.width), order) for r0 in range(0, cam.height, T))
    return _render(cam, arrays, bands)


# --- backward ---------------------------------------------------------------


def rasterize_backward(
    model: SplatModel,
    records: BlendRecords,
    render: RenderOutput,
    pixel_grads: PixelGradients,
) -> np.ndarray:
    """Gradients of a pixel-space loss w.r.t. ``model.params``, as an ``(N, 12)`` matrix.

    The matrix has the layout of ``model.params``, so it feeds the
    optimizer as it is.

    ``records`` and ``render`` must come from one
    ``rasterize_forward(..., keep_pairs=True)`` on the same (unmodified)
    model.  The records' pairs and splat arrays are consumed: this sets
    ``records.pairs`` and ``records.arrays`` to ``None``, and records
    without pairs (never kept, or already used) raise ``GeometryError``, as
    does a changed model.  Splats touching no pixel get zero rows.

    Each kept batch is handled as 1-D arrays over its pairs, which are
    pixel-major and in blend order within a pixel (see
    :class:`BlendRecords`).  Per pair the kernel terms, alpha and blend
    weight are recomputed from the kept values with the forward pass's
    expressions, and the range from the pixel's ray.  The sum of later contributions behind a pair is the
    pixel's total minus a segmented cumsum over the pixel's run, and
    per-splat sums use ``np.bincount`` over the pairs' splat ids.
    """
    pairs, records.pairs = records.pairs, None
    arrays, records.arrays = records.arrays, None
    if pairs is None:
        raise GeometryError(
            "blend records hold no pairs: render with keep_pairs=True, once per backward pass")
    if records.n_splats != len(model) or records.model_version != model.version:
        raise GeometryError("blend records are stale for this model")
    cam, pose = records.cam, records.pose
    N = len(model)
    if not pairs:
        return np.zeros_like(model.params)

    cfg = RASTER_CONFIG
    hx, hy = cam.pixel_ray_planes
    # the per-pixel terms a pair reads, one row per term (each gathered
    # term is then one contiguous row over a batch's pairs)
    pixel_terms = np.concatenate(
        [
            pixel_grads.d_range[None],
            pixel_grads.d_opacity[None],
            np.moveaxis(pixel_grads.d_normal, -1, 0),
            np.moveaxis(hx, -1, 0),
            np.moveaxis(hy, -1, 0),
            np.moveaxis(cam.pixel_directions, -1, 0),
            # every channel projected on its pixel gradient, so that the sums
            # of later contributions take one cumsum for all channels
            (
                pixel_grads.d_range * render.range
                + pixel_grads.d_opacity * render.opacity
                + np.einsum("hwc,hwc->hw", pixel_grads.d_normal, render.normal)
            )[None],
        ]
    ).reshape(15, -1)

    # camera-frame accumulators, one column per splat, reduced to
    # parameters at the end: rows 3j..3j+2 are d/dB_j for B_a, B_b, B_c,
    # then d/dnormal (3 rows) and d/dopacity
    acc = np.zeros((13, N))
    # a batch's per-pair terms of those rows, in one buffer for every batch
    rows_buf = np.empty((13, max(pix.shape[0] for pix, _, _ in pairs)))
    for i, (pix, spl, values) in enumerate(pairs):
        pairs[i] = None  # free each batch's pairs once read
        spl = spl.astype(np.intp)  # once, not in each bincount
        sp = np.take(arrays["terms"], spl, axis=1)
        opac, ncam, Ba, Bb, Bc = sp[0], sp[1:4], sp[4:7], sp[7:10], sp[10:13]
        px = np.take(pixel_terms, pix, axis=1)
        gD, gO, gN, h_x, h_y, V, S_tot = (
            px[0], px[1], px[2:5], px[5:8], px[8:11], px[11:14], px[14])

        t_pair, a1, a2, a4, b1, b2, b4 = values
        # the forward pass's expressions, so the kernel terms, alpha and w
        # are its own bit for bit; kept pairs have a usable denominator.
        # The ray products come from 3-term dots, not the forward's matmuls,
        # so the range may differ from the forward's in the last bit.
        sa, sb, den, _ = _kernel_coordinates(a1, a2, a4, b1, b2, b4)
        vBa, vBb = _dot3(V, Ba), _dot3(V, Bb)
        d = sa * vBa + sb * vBb + _dot3(V, Bc)
        G = np.exp(-0.5 * (sa * sa + sb * sb))
        a_raw = opac * G
        alpha = np.minimum(a_raw, cfg.alpha_clamp)
        w = alpha * t_pair

        c = gD * d + gO + _dot3(gN, ncam)
        wc = w * c
        # the pixel's total minus its sum of wc up to and including the pair
        starts, run = _runs(pix)
        cs = np.cumsum(wc)
        later = S_tot - (cs - np.take(np.take(cs - wc, starts), run))
        d_alpha = t_pair * c - later / (1.0 - alpha)

        # alpha routes: kernel coordinates and opacity (dead where clamped)
        free = a_raw <= cfg.alpha_clamp
        k_alpha = np.where(free, -d_alpha * alpha, 0.0)
        # range route: the hit point is range * v, so d(range)/d(nu) = v
        dd = gD * w
        dsa = k_alpha * sa + dd * vBa
        dsb = k_alpha * sb + dd * vBb

        # homogeneous intersection point route: rho_a = gp x (a1, a2, a4),
        # rho_b = gp x (b1, b2, b4); per pair d(loss)/dB_j is
        # -rho_b[j] h_x + rho_a[j] h_y + dd s_j v with s = (sa, sb, 1)
        gp1 = dsa / den
        gp2 = dsb / den
        gp3 = -(sa * dsa + sb * dsb) / den
        coef = (
            (gp3 * b2 - gp2 * b4, gp1 * b4 - gp3 * b1, gp2 * b1 - gp1 * b2),
            (gp2 * a4 - gp3 * a2, gp3 * a1 - gp1 * a4, gp1 * a2 - gp2 * a1),
            (dd * sa, dd * sb, dd),
        )
        # the per-pair terms of each accumulator row: d/dB_j sums, over h_x,
        # h_y and v, the coefficient times the plane
        terms = rows_buf[:, : pix.shape[0]]
        for j in range(3):
            d_B = np.multiply(h_x, coef[0][j], out=terms[3 * j : 3 * j + 3])
            d_B += h_y * coef[1][j]
            d_B += V * coef[2][j]
        np.multiply(gN, w, out=terms[9:12])
        np.multiply(np.where(free, d_alpha, 0.0), G, out=terms[12])
        for row, x in zip(acc, terms):
            row += np.bincount(spl, x, minlength=N)

    acc_ba, acc_bb, acc_bc, acc_n = (acc[r : r + 3].T for r in (0, 3, 6, 9))

    # camera-frame accumulators to world-frame gradients of what the model
    # reads out, then through its storage maps to the parameter layout
    R = pose.rotation
    s = arrays["scales"]
    return model.param_gradients(
        centers=acc_bc @ R.T,
        t_alpha=s[:, :1] * (acc_ba @ R.T),
        t_beta=s[:, 1:] * (acc_bb @ R.T),
        normal=acc_n @ R.T,
        scales=np.stack([np.einsum("nc,nc->n", acc_ba, arrays["ta_cam"]),
                         np.einsum("nc,nc->n", acc_bb, arrays["tb_cam"])], axis=1),
        opacities=acc[12],
    )
