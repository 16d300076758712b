"""Differentiable tiled rasterizer for splats on a spherical image.

Forward model, per pixel ray ``v``:

  * Each pixel owns two planes through the sensor origin,
    ``h_x = (v x z)/|v x z|`` and ``h_y = h_x x v``; their intersection is
    the ray itself.
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
clamped to 0.99, and blending along a pixel stops once transmittance
drops below 1e-4.

Tiling: splats are binned to square pixel tiles (``RASTER_CONFIG.tile_size``
pixels on a side) using a conservative angular bound: every point of the
splat with non-negligible density lies inside a ball of radius
``3.33 * max(scale)`` around the centroid (3.33 sigma is where a fully
opaque splat falls to alpha = 1/255), and the image footprint of that
ball is a closed-form box in azimuth/elevation.  Tiles are matched
against that box by circular interval overlap in azimuth, which handles
the seam of full-circle cameras for free.

One loop, :func:`_blend_tiles`, walks the pixels of each tile through its
splats front to back, ``chunk_size`` splats at a time, and stops once
the tile is opaque.  The forward pass and the reference renderer share it
and sum the blended channels; the reference feeds it full-width pixel
bands with every splat in range order.

Most pixel-splat pairs of a chunk add nothing: their alpha is under the
cutoff, they lie behind the pixel, or the pixel is already opaque.  So
only the terms that decide whether a pair counts (plane products, kernel
coordinates, ``G``, ``alpha``) are computed for every pair of the chunk,
and the hit point and its range only for the candidate pairs that pass
the alpha cutoff.

The backward pass never walks the tiles again.  A forward pass asked to
``keep_pairs`` keeps, per chunk, only the pairs with non-zero blend weight
(about a tenth of them): each pair's pixel and splat index, its
transmittance and its six plane products.  From those the backward pass
recomputes the kernel terms, the hit point and its range with the
forward pass's own expressions, and accumulates analytic gradients of
any scalar loss on the rendered range/normal/opacity images w.r.t. splat
centroids, tangent frames, scales and opacities, on 1-D arrays over the
kept pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
    "SplatGradients",
    "rasterize_forward",
    "rasterize_backward",
    "reference_rasterize",
]

# alpha = 1/255 is reached at |s| = sqrt(2 ln 255) sigma for opacity 1
_CUTOFF_SIGMA = float(np.sqrt(2.0 * np.log(255.0)))


@dataclass(frozen=True)
class RasterConfig:
    tile_size: int = 8
    chunk_size: int = 256
    alpha_cutoff: float = 1.0 / 255.0
    alpha_clamp: float = 0.99
    min_transmittance: float = 1e-4
    denom_eps: float = 1e-12
    cutoff_sigma: float = _CUTOFF_SIGMA
    bbox_pad_px: float = 0.5


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
class SplatGradients:
    """Per-splat loss gradients in plain parameter space.

    Tangent-frame gradients are w.r.t. the orthonormal world-frame columns
    (t_alpha, t_beta, normal); chain through the Gram-Schmidt retraction to
    reach raw storage vectors.
    """

    d_centers: np.ndarray
    d_t_alpha: np.ndarray
    d_t_beta: np.ndarray
    d_normal: np.ndarray
    d_scales: np.ndarray
    d_opacity: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "SplatGradients":
        return cls(
            np.zeros((n, 3)),
            np.zeros((n, 3)),
            np.zeros((n, 3)),
            np.zeros((n, 3)),
            np.zeros((n, 2)),
            np.zeros(n),
        )


class ChunkPairs(NamedTuple):
    """The pairs of one chunk that add to the image, pixel-major.

    ``pixel`` is the pair's pixel within its tile and ``splat`` its index
    into ``ids``, the chunk's splat ids, both as the smallest unsigned int
    that holds them.  ``values`` is (7, pairs) float64, one row per term:
    the transmittance in front of the pair and the six plane products
    ``a1, a2, a4, b1, b2, b4`` (see :func:`_pair_geometry`).
    """

    ids: np.ndarray
    pixel: np.ndarray
    splat: np.ndarray
    values: np.ndarray


@dataclass
class BlendRecords:
    """Binning and identity snapshot of a render, and its contributing pairs.

    ``pairs`` is ``None`` unless the render was asked to ``keep_pairs``;
    then it holds one ``(rows, cols, chunks)`` entry per tile with a
    contributing pair, ``chunks`` being that tile's :class:`ChunkPairs` in
    blend order (a chunk without a contributing pair is left out).
    :func:`rasterize_backward` takes the pairs out and leaves ``None``, so
    a record serves one backward pass.
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


# --- splat preparation and tile binning ------------------------------------


def _splat_camera_arrays(model: SplatModel, pose: SE3Pose) -> dict:
    """Per-splat camera-frame quantities for a render from ``pose``."""
    R = pose.rotation
    ta, tb, tn = model.tangent_frames()
    s = model.scales
    ta_c = ta @ R
    tb_c = tb @ R
    Bc = (model.centers - pose.translation) @ R
    return {
        "Ba": s[:, :1] * ta_c,
        "Bb": s[:, 1:] * tb_c,
        "Bc": Bc,
        "ncam": tn @ R,
        "ta_cam": ta_c,
        "tb_cam": tb_c,
        "opac": model.opacities,
        "scales": s,
        "ranges": np.linalg.norm(Bc, axis=1),
    }


def _tile_hits(cam: SphericalCamera, arrays: dict):
    """Boolean splat/tile-row and splat/tile-column incidence matrices.

    A splat's support is bounded by the cone subtending its cutoff ball
    (radius ``cutoff_sigma * max(scale)`` around the centroid); a tile is
    hit when the cone's azimuth interval overlaps the tile's azimuth
    interval (circularly) and likewise in elevation.
    """
    cfg = RASTER_CONFIG
    T = cfg.tile_size
    tiles_x = (cam.width + T - 1) // T
    tiles_y = (cam.height + T - 1) // T

    Bc = arrays["Bc"]
    r = arrays["ranges"]
    reach = cfg.cutoff_sigma * arrays["scales"].max(axis=1)
    near = r <= reach + 1e-12  # ball contains the sensor: whole image
    sin_om = np.clip(reach / np.maximum(r, 1e-12), 0.0, 1.0)
    omega = np.arcsin(sin_om)

    az_c = np.arctan2(Bc[:, 1], Bc[:, 0])
    el_c = np.arctan2(Bc[:, 2], np.hypot(Bc[:, 0], Bc[:, 1]))

    # azimuth half-extent of the cone; saturates past the poles
    pole = np.abs(el_c) + omega >= np.pi / 2 - 1e-9
    cos_el = np.maximum(np.cos(el_c), 1e-12)
    dgam = np.arcsin(np.clip(sin_om / cos_el, 0.0, 1.0))
    dgam = np.where(near | pole, np.pi, dgam)
    omega = np.where(near, np.pi, omega)

    pitch_az = 1.0 / abs(cam.fx)
    pitch_el = 1.0 / abs(cam.fy)
    pad_az = cfg.bbox_pad_px * pitch_az
    pad_el = cfg.bbox_pad_px * pitch_el

    # angular interval of each tile column / row (sample locations)
    off_u, off_v = cam.grid_offset
    tc_idx = np.arange(tiles_x)
    c_first = tc_idx * T
    c_last = np.minimum(c_first + T, cam.width) - 1
    az_first = (c_first + off_u - cam.cx) / cam.fx
    az_last = (c_last + off_u - cam.cx) / cam.fx
    col_center = 0.5 * (az_first + az_last)
    col_hw = 0.5 * np.abs(az_first - az_last)

    tr_idx = np.arange(tiles_y)
    r_first = tr_idx * T
    r_last = np.minimum(r_first + T, cam.height) - 1
    el_first = (r_first + off_v - cam.cy) / cam.fy
    el_last = (r_last + off_v - cam.cy) / cam.fy
    row_center = 0.5 * (el_first + el_last)
    row_hw = 0.5 * np.abs(el_first - el_last)

    # (N, tiles_x) arrays set a render's peak memory: update them in place
    dc = az_c[:, None] - col_center[None, :]
    dc += np.pi
    np.mod(dc, 2.0 * np.pi, out=dc)
    dc -= np.pi
    np.abs(dc, out=dc)
    reach_az = dgam[:, None] + col_hw[None, :]
    reach_az += pad_az
    col_hit = dc <= reach_az

    dr = np.abs(el_c[:, None] - row_center[None, :])
    row_hit = dr <= omega[:, None] + row_hw[None, :] + pad_el

    alive = r > 1e-9
    col_hit &= alive[:, None]
    row_hit &= alive[:, None]
    return row_hit, col_hit, tiles_x, tiles_y


def _ragged_arange(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For counts [2,3] returns (owner [0,0,1,1,1], within [0,1,0,1,2])."""
    total = int(counts.sum())
    owner = np.repeat(np.arange(counts.shape[0]), counts)
    starts = np.cumsum(counts) - counts
    within = np.arange(total) - np.repeat(starts, counts)
    return owner, within


def _bin_splats(cam: SphericalCamera, arrays: dict):
    """Assign splats to tiles; per tile the list is sorted by centroid range."""
    row_hit, col_hit, tiles_x, tiles_y = _tile_hits(cam, arrays)
    n = row_hit.shape[0]
    nr = row_hit.sum(axis=1)
    nc = col_hit.sum(axis=1)
    rows_owner, rows_tile = np.nonzero(row_hit)
    cols_owner, cols_tile = np.nonzero(col_hit)
    rstart = np.searchsorted(rows_owner, np.arange(n))
    cstart = np.searchsorted(cols_owner, np.arange(n))

    owner, within = _ragged_arange(nr * nc)
    tr = rows_tile[rstart[owner] + within // nc[owner]]
    tc = cols_tile[cstart[owner] + within % nc[owner]]
    tile_id = tr * tiles_x + tc
    order = np.lexsort((owner, arrays["ranges"][owner], tile_id))
    tile_id = tile_id[order]
    pair_splats = owner[order]
    tile_ptr = np.concatenate(
        [[0], np.cumsum(np.bincount(tile_id, minlength=tiles_x * tiles_y))]
    )
    return tile_ptr.astype(np.int64), pair_splats.astype(np.int64), tiles_x


# --- pair geometry ----------------------------------------------------------


def _pair_geometry(Hx, Hy, V, ray_ok, Ba, Bb, Bc, opac):
    """Intersection quantities for P pixels x T splats.

    Only the terms that decide whether a pair counts are dense (P, T): the
    six plane products, the kernel coordinates ``sa``/``sb``, ``G`` and
    ``alpha``.  The hit point ``nu``, its front-facing test and its range
    ``|nu|`` are evaluated only at candidate pairs (usable denominator and
    alpha above the cutoff), and the range is scattered into the dense
    ``d``.  ``alpha`` and ``d`` are zero wherever the pair does not count.
    The candidates' flat index, pixel, splat and front-facing test are
    returned too.
    """
    cfg = RASTER_CONFIG
    # one block, so that a kept pair's six products are one gather
    planes = np.empty((6, Hx.shape[0], Ba.shape[0]))
    a1, a2, a4, b1, b2, b4 = planes
    for out, H, B in zip(planes, (Hx, Hx, Hx, Hy, Hy, Hy), (Ba, Bb, Bc) * 2):
        np.matmul(H, B.T, out=out)
    denom = a1 * b2 - a2 * b1
    usable = np.abs(denom) >= cfg.denom_eps
    safe = np.where(usable, denom, 1.0)
    sa = (a2 * b4 - a4 * b2) / safe
    sb = (a4 * b1 - a1 * b4) / safe
    G = np.exp(-0.5 * (sa * sa + sb * sb))
    alpha = np.minimum(opac[None, :] * G, cfg.alpha_clamp)
    alpha *= usable & ray_ok[:, None] & (alpha >= cfg.alpha_cutoff)
    # hit point, front-facing test and range at the candidate pairs only
    k = np.flatnonzero(alpha != 0.0)
    p = k // alpha.shape[1]
    t = k - p * alpha.shape[1]
    # (np.take gathers rows several times faster than fancy indexing)
    nu = (
        np.take(sa, k)[:, None] * np.take(Ba, t, axis=0)
        + np.take(sb, k)[:, None] * np.take(Bb, t, axis=0)
        + np.take(Bc, t, axis=0)
    )
    front = np.einsum("kc,kc->k", nu, np.take(V, p, axis=0)) > 0
    np.put(alpha, k[~front], 0.0)
    d = np.zeros_like(alpha)
    np.put(d, k, np.linalg.norm(nu, axis=1) * front)
    return {
        "planes": planes,
        "d": d,
        "G": G,
        "alpha": alpha,
        # the candidate pairs: flat index, pixel, splat and front-facing test
        "k": k, "p": p, "t": t, "front": front,
    }


# --- the tile loop ----------------------------------------------------------


def _binned_tiles(tile_ptr, pair_splats, tiles_x: int):
    """(row slice, column slice, splat ids) of every tile that holds a splat."""
    T = RASTER_CONFIG.tile_size
    for t in np.flatnonzero(np.diff(tile_ptr)):
        r0 = (t // tiles_x) * T
        c0 = (t % tiles_x) * T
        yield slice(r0, r0 + T), slice(c0, c0 + T), pair_splats[tile_ptr[t] : tile_ptr[t + 1]]


def _blend_tiles(cam: SphericalCamera, arrays: dict, tiles):
    """The one tile-and-chunk loop behind the forward and reference renders.

    ``tiles`` yields (row slice, column slice, splat ids in blend order).
    For each tile this yields ``(rows, cols, chunks)``; iterating ``chunks``
    walks the splats ``chunk_size`` at a time over the tile's flattened
    pixels, yielding ``(ids, g, w, t_pair)``: the chunk's splat ids, its
    :func:`_pair_geometry` terms, blend weights and the transmittance in
    front of each pair.  A tile's chunks stop once every pixel is opaque.
    """
    dirs = cam.pixel_directions
    hx, hy, ray_ok = cam.pixel_ray_planes
    stop = RASTER_CONFIG.min_transmittance
    step = RASTER_CONFIG.chunk_size

    def chunks(ids, V, PHx, PHy, Pok):
        t_carry = np.ones(V.shape[0])
        for k0 in range(0, ids.shape[0], step):
            sub = ids[k0 : k0 + step]
            g = _pair_geometry(
                PHx, PHy, V, Pok,
                arrays["Ba"][sub], arrays["Bb"][sub], arrays["Bc"][sub],
                arrays["opac"][sub],
            )
            alpha = g["alpha"]
            prod = np.cumprod(1.0 - alpha, axis=1)
            excl = np.empty_like(prod)
            excl[:, 0] = 1.0
            excl[:, 1:] = prod[:, :-1]
            t_pair = t_carry[:, None] * excl
            w = alpha * t_pair * (t_pair >= stop)
            yield sub, g, w, t_pair
            t_carry = t_carry * prod[:, -1]
            if t_carry.max() < stop:
                return

    for rows, cols, ids in tiles:
        V = dirs[rows, cols].reshape(-1, 3)
        PHx = hx[rows, cols].reshape(-1, 3)
        PHy = hy[rows, cols].reshape(-1, 3)
        Pok = ray_ok[rows, cols].reshape(-1)
        yield rows, cols, chunks(ids, V, PHx, PHy, Pok)


# --- forward ---------------------------------------------------------------


def _render(cam: SphericalCamera, arrays: dict, tiles, kept: list | None = None) -> RenderOutput:
    """Blend range, normal and opacity over ``tiles``; untouched pixels stay 0.

    With a ``kept`` list, appends each tile's ``(rows, cols, chunks)``
    entry of :class:`ChunkPairs` to it.
    """
    H, W = cam.height, cam.width
    D = np.zeros((H, W))
    O = np.zeros((H, W))
    Nimg = np.zeros((H, W, 3))
    for rows, cols, chunks in _blend_tiles(cam, arrays, tiles):
        shape = D[rows, cols].shape
        P = shape[0] * shape[1]
        d_acc = np.zeros(P)
        o_acc = np.zeros(P)
        n_acc = np.zeros((P, 3))
        tile_pairs = []
        for sub, g, w, t_pair in chunks:
            d_acc += np.sum(w * g["d"], axis=1)
            o_acc += np.sum(w, axis=1)
            n_acc += w @ arrays["ncam"][sub]
            if kept is not None:
                chunk = _keep_pairs(sub, g, t_pair)
                if chunk.pixel.size:
                    tile_pairs.append(chunk)
        if tile_pairs:
            kept.append((rows, cols, tile_pairs))
        D[rows, cols] = d_acc.reshape(shape)
        O[rows, cols] = o_acc.reshape(shape)
        Nimg[rows, cols] = n_acc.reshape(shape + (3,))
    return RenderOutput(D, Nimg, O)


def _keep_pairs(ids, g, t_pair) -> ChunkPairs:
    """The pairs of a chunk with ``w > 0`` and the terms the backward pass reads.

    A pair blends (``w > 0``) when it is a front-facing candidate with
    transmittance at or above the early-stop threshold.
    """
    _, P, T = g["planes"].shape
    t_k = np.take(t_pair, g["k"])
    blends = g["front"] & (t_k >= RASTER_CONFIG.min_transmittance)
    k = g["k"][blends]
    values = np.empty((7, k.size))
    values[0] = t_k[blends]
    values[1:] = g["planes"].reshape(6, -1)[:, k]
    return ChunkPairs(
        ids,
        g["p"][blends].astype(np.min_scalar_type(P - 1)),
        g["t"][blends].astype(np.min_scalar_type(T - 1)),
        values,
    )


def rasterize_forward(
    cam: SphericalCamera, pose: SE3Pose, model: SplatModel, *, keep_pairs: bool = False
) -> tuple[RenderOutput, BlendRecords]:
    """Render the model from ``pose`` (sensor-in-world) onto the camera grid.

    ``keep_pairs`` keeps the contributing pixel-splat pairs in the records
    for one :func:`rasterize_backward`; they take about 5 MB per 85k pairs,
    so renders that no backward pass reads leave it off.
    """
    arrays = _splat_camera_arrays(model, pose)
    tile_ptr, pair_splats, tiles_x = _bin_splats(cam, arrays)
    kept = [] if keep_pairs else None
    out = _render(cam, arrays, _binned_tiles(tile_ptr, pair_splats, tiles_x), kept)
    records = BlendRecords(
        cam, pose.copy(), RASTER_CONFIG, len(model), model.version,
        tile_ptr, pair_splats, tiles_x, kept,
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


def _dot3(x, y) -> np.ndarray:
    """Per-pair dot product of two 3-vectors given as three rows each."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def rasterize_backward(
    model: SplatModel,
    records: BlendRecords,
    render: RenderOutput,
    pixel_grads: PixelGradients,
) -> SplatGradients:
    """Gradients of a pixel-space loss w.r.t. splat parameters.

    ``records`` and ``render`` must come from one
    ``rasterize_forward(..., keep_pairs=True)`` on the same (unmodified)
    model.  The records' pairs are consumed: this sets ``records.pairs`` to
    ``None``, and records without pairs (never kept, or already used)
    raise ``GeometryError``, as does a changed model.  Splats touching no
    pixel get zero gradients.

    Each tile's kept pairs are handled in one pass of 1-D arrays over the
    pairs.  Per pair the kernel terms, alpha, blend weight and range are
    recomputed from the kept values with the forward pass's expressions.
    The sum of later contributions behind a pair is a segmented cumsum over
    its pixel's pairs in its chunk, where they are contiguous, plus
    ``pre``, the pixel's sums over the tile's earlier chunks.  Per-splat
    sums use ``np.bincount`` over the pairs' splat indices.
    """
    pairs, records.pairs = records.pairs, None
    if pairs is None:
        raise GeometryError(
            "blend records hold no pairs: render with keep_pairs=True, once per backward pass")
    if records.n_splats != len(model) or records.model_version != model.version:
        raise GeometryError("blend records are stale for this model")
    cam, pose = records.cam, records.pose
    N = len(model)
    out = SplatGradients.zeros(N)
    if not pairs:
        return out

    cfg = RASTER_CONFIG
    arrays = _splat_camera_arrays(model, pose)
    # the per-splat terms a pair reads, one row per splat, and the
    # per-pixel ones, one row per term (each gathered term is then one
    # contiguous row over a tile's pairs)
    splat_terms = np.column_stack(
        [arrays["opac"], arrays["ncam"], arrays["Ba"], arrays["Bb"], arrays["Bc"]])
    hx, hy, _ = cam.pixel_ray_planes
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
    )

    # camera-frame accumulators, one column per splat, reduced to
    # parameters at the end: rows 3j..3j+2 are d/dB_j for B_a, B_b, B_c,
    # then d/dnormal (3 rows) and d/dopacity
    acc = np.zeros((13, N))
    for i, (rows, cols, chunks) in enumerate(pairs):
        pairs[i] = None  # free each tile's pairs once read
        tile_terms = pixel_terms[:, rows, cols].reshape(pixel_terms.shape[0], -1)
        P = tile_terms.shape[1]
        # the tile's pairs in blend order: chunk by chunk, pixel-major in each;
        # ``u`` indexes ``ids``, the splats of the tile's kept chunks
        ids = np.concatenate([c.ids for c in chunks])
        first = np.cumsum([0] + [c.ids.shape[0] for c in chunks[:-1]])
        u = np.concatenate([c.splat.astype(np.intp) + f for c, f in zip(chunks, first)])
        values = np.concatenate([c.values for c in chunks], axis=1)
        # runs of one pixel within one chunk, numbered in blend order; each
        # run's pairs are contiguous, so per-run terms reach them by repeat
        n_chunks = len(chunks)
        run = np.concatenate([c.pixel.astype(np.intp) + P * n for n, c in enumerate(chunks)])
        per_run = np.bincount(run, minlength=n_chunks * P)
        del chunks  # the last reference to the tile's records

        sp = np.take(splat_terms, np.take(ids, u), axis=0).T
        opac, ncam, Ba, Bb, Bc = sp[0], sp[1:4], sp[4:7], sp[7:10], sp[10:13]
        px = np.repeat(np.tile(tile_terms, n_chunks), per_run, axis=1)
        gD, gO, gN, h_x, h_y, V, S_tot = (
            px[0], px[1], px[2:5], px[5:8], px[8:11], px[11:14], px[14])

        t_pair, a1, a2, a4, b1, b2, b4 = values
        # the forward pass's expressions, so the values are its own bit for
        # bit; kept pairs have a usable denominator
        den = a1 * b2 - a2 * b1
        sa = (a2 * b4 - a4 * b2) / den
        sb = (a4 * b1 - a1 * b4) / den
        G = np.exp(-0.5 * (sa * sa + sb * sb))
        a_raw = opac * G
        alpha = np.minimum(a_raw, cfg.alpha_clamp)
        w = alpha * t_pair
        nu = sa * Ba + sb * Bb + Bc
        d = np.sqrt(nu[0] * nu[0] + nu[1] * nu[1] + nu[2] * nu[2])

        c = gD * d + gO + _dot3(gN, ncam)
        wc = w * c
        # sum of wc up to each pair over its run, plus ``pre``, the sums of
        # the pixel's runs in the tile's earlier chunks
        cs = np.cumsum(wc)
        before = np.take(cs - wc, np.cumsum(per_run) - per_run, mode="clip")
        pre = np.zeros((n_chunks, P))
        np.cumsum(np.bincount(run, wc, minlength=n_chunks * P)[:-P].reshape(-1, P), axis=0,
                  out=pre[1:])
        later = S_tot - (np.repeat(pre.reshape(-1), per_run) + (cs - np.repeat(before, per_run)))
        d_alpha = t_pair * c - later / (1.0 - alpha)

        # alpha routes: kernel coordinates and opacity (dead where clamped)
        free = a_raw <= cfg.alpha_clamp
        k_alpha = np.where(free, -d_alpha * alpha, 0.0)
        # range route: the hit point is range * v, so d(range)/d(nu) = v
        dd = gD * w
        dsa = k_alpha * sa + dd * _dot3(V, Ba)
        dsb = k_alpha * sb + dd * _dot3(V, Bb)

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
        terms = [
            coef[0][j] * h_x[x] + coef[1][j] * h_y[x] + coef[2][j] * V[x]
            for j in range(3)
            for x in range(3)
        ]
        terms += [w * gN[0], w * gN[1], w * gN[2], np.where(free, d_alpha * G, 0.0)]
        # bincount sums each splat's pairs; ``acc[:, ids] +=`` per pair would
        # keep one term per splat
        acc[:, ids] += np.stack([np.bincount(u, x, minlength=ids.shape[0]) for x in terms])

    acc_ba, acc_bb, acc_bc, acc_n = (acc[r : r + 3].T for r in (0, 3, 6, 9))
    acc_o = acc[12]

    # camera-frame accumulators to world-frame parameter gradients
    R = pose.rotation
    s = arrays["scales"]
    out.d_centers = acc_bc @ R.T
    out.d_t_alpha = s[:, :1] * (acc_ba @ R.T)
    out.d_t_beta = s[:, 1:] * (acc_bb @ R.T)
    out.d_normal = acc_n @ R.T
    out.d_scales = np.stack(
        [
            np.einsum("nc,nc->n", acc_ba, arrays["ta_cam"]),
            np.einsum("nc,nc->n", acc_bb, arrays["tb_cam"]),
        ],
        axis=1,
    )
    out.d_opacity = acc_o
    return out
