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
the tile is opaque.  All three passes share it and keep only their own
accumulation: the forward pass sums the blended channels, the reference
renderer feeds it full-width pixel bands with every splat in range order,
and the backward pass replays each tile's blend from the stored binning
and accumulates analytic gradients of any scalar loss on the rendered
range/normal/opacity images w.r.t. splat centroids, tangent frames,
scales and opacities.

Most pixel-splat pairs of a chunk add nothing: their alpha is under the
cutoff, they lie behind the pixel, or the pixel is already opaque.  So
only the terms that decide whether a pair counts (plane products, kernel
coordinates, ``G``, ``alpha``) are computed for every pair of the chunk;
the hit point and its range are computed for the candidate pairs that
pass the alpha cutoff, and the backward pass evaluates its gradient
routes on 1-D arrays over the pairs with non-zero blend weight.
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


@dataclass
class BlendRecords:
    """Binning and identity snapshot that lets the backward pass replay a render."""

    cam: SphericalCamera
    pose: SE3Pose
    config: RasterConfig
    n_splats: int
    model_version: int
    tile_ptr: np.ndarray
    pair_splats: np.ndarray
    tiles_x: int


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
    six plane products, the (safe) denominator, the kernel coordinates
    ``sa``/``sb``, ``G`` and ``alpha``.  The hit point ``nu``, its
    front-facing test and its range ``|nu|`` are evaluated only at
    candidate pairs (usable denominator and alpha above the cutoff), and
    the range is scattered into the dense ``d``.  ``alpha`` and ``d`` are
    zero wherever the pair does not count.
    """
    cfg = RASTER_CONFIG
    a1 = Hx @ Ba.T
    a2 = Hx @ Bb.T
    a4 = Hx @ Bc.T
    b1 = Hy @ Ba.T
    b2 = Hy @ Bb.T
    b4 = Hy @ Bc.T
    denom = a1 * b2 - a2 * b1
    usable = np.abs(denom) >= cfg.denom_eps
    safe = np.where(usable, denom, 1.0)
    sa = (a2 * b4 - a4 * b2) / safe
    sb = (a4 * b1 - a1 * b4) / safe
    G = np.exp(-0.5 * (sa * sa + sb * sb))
    alpha = np.minimum(opac[None, :] * G, cfg.alpha_clamp)
    alpha *= usable & ray_ok[:, None] & (alpha >= cfg.alpha_cutoff)
    # hit point, front-facing test and range at the candidate pairs only
    k = np.flatnonzero(alpha)
    p, t = np.divmod(k, alpha.shape[1])
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
        "a1": a1, "a2": a2, "a4": a4,
        "b1": b1, "b2": b2, "b4": b4,
        "denom": safe,
        "sa": sa, "sb": sb,
        "d": d,
        "G": G,
        "alpha": alpha,
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
    """The one tile-and-chunk loop behind forward, backward and reference.

    ``tiles`` yields (row slice, column slice, splat ids in blend order).
    For each tile this yields ``(rows, cols, v, h_x, h_y, chunks)``, where
    ``v``, ``h_x`` and ``h_y`` are the tile's flattened pixel rays and
    planes and iterating
    ``chunks`` walks the splats ``chunk_size`` at a time, yielding
    ``(ids, g, w, t_pair)``: the chunk's splat ids, its
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
        yield rows, cols, V, PHx, PHy, chunks(ids, V, PHx, PHy, Pok)


# --- forward ---------------------------------------------------------------


def _render(cam: SphericalCamera, arrays: dict, tiles) -> RenderOutput:
    """Blend range, normal and opacity over ``tiles``; untouched pixels stay 0."""
    H, W = cam.height, cam.width
    D = np.zeros((H, W))
    O = np.zeros((H, W))
    Nimg = np.zeros((H, W, 3))
    for rows, cols, V, _, _, chunks in _blend_tiles(cam, arrays, tiles):
        P = V.shape[0]
        d_acc = np.zeros(P)
        o_acc = np.zeros(P)
        n_acc = np.zeros((P, 3))
        for sub, g, w, _ in chunks:
            d_acc += np.sum(w * g["d"], axis=1)
            o_acc += np.sum(w, axis=1)
            n_acc += w @ arrays["ncam"][sub]
        shape = D[rows, cols].shape
        D[rows, cols] = d_acc.reshape(shape)
        O[rows, cols] = o_acc.reshape(shape)
        Nimg[rows, cols] = n_acc.reshape(shape + (3,))
    return RenderOutput(D, Nimg, O)


def rasterize_forward(
    cam: SphericalCamera, pose: SE3Pose, model: SplatModel
) -> tuple[RenderOutput, BlendRecords]:
    """Render the model from ``pose`` (sensor-in-world) onto the camera grid."""
    arrays = _splat_camera_arrays(model, pose)
    tile_ptr, pair_splats, tiles_x = _bin_splats(cam, arrays)
    out = _render(cam, arrays, _binned_tiles(tile_ptr, pair_splats, tiles_x))
    records = BlendRecords(
        cam, pose.copy(), RASTER_CONFIG, len(model), model.version,
        tile_ptr, pair_splats, tiles_x,
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
) -> SplatGradients:
    """Gradients of a pixel-space loss w.r.t. splat parameters.

    ``records`` and ``render`` must come from :func:`rasterize_forward` on
    the same (unmodified) model; a changed model raises ``GeometryError``.
    Splats touching no pixel get zero gradients.

    Per chunk, the suffix sums of later contributions are one dense (P, T)
    cumsum of every channel projected on its pixel gradient.  Everything
    else runs on the K pairs with non-zero blend weight, as 1-D arrays.
    A splat recurs across the pixels of a chunk, so per-splat sums use
    ``np.bincount`` or a matmul over the pixels, never ``acc[ids] +=``,
    which would keep one term per splat.
    """
    if records.n_splats != len(model) or records.model_version != model.version:
        raise GeometryError("blend records are stale for this model")
    cam, pose = records.cam, records.pose
    N = len(model)
    out = SplatGradients.zeros(N)
    if records.pair_splats.shape[0] == 0:
        return out

    arrays = _splat_camera_arrays(model, pose)
    gD_img, gN_img, gO_img = (
        pixel_grads.d_range,
        pixel_grads.d_normal,
        pixel_grads.d_opacity,
    )

    # camera-frame accumulators, reduced to parameters at the end;
    # acc_B[:, j] is the gradient w.r.t. B_a, B_b, B_c for j = 0, 1, 2
    acc_B = np.zeros((N, 3, 3))
    acc_n = np.zeros((N, 3))
    acc_o = np.zeros(N)

    tiles = _binned_tiles(records.tile_ptr, records.pair_splats, records.tiles_x)
    for rows, cols, V, PHx, PHy, chunks in _blend_tiles(cam, arrays, tiles):
        gD = gD_img[rows, cols].reshape(-1)
        gN = gN_img[rows, cols].reshape(-1, 3)
        gO = gO_img[rows, cols].reshape(-1)
        # every channel projected on its pixel gradient, so that the sums
        # of later contributions take one (P, T) cumsum for all channels
        S_tot = (
            gD * render.range[rows, cols].reshape(-1)
            + gO * render.opacity[rows, cols].reshape(-1)
            + np.einsum("pc,pc->p", gN, render.normal[rows, cols].reshape(-1, 3))
        )
        pre = np.zeros(V.shape[0])
        planes = np.concatenate([PHx, PHy, V])

        for sub, g, w, t_pair in chunks:
            P, T = w.shape
            c = gD[:, None] * g["d"] + gO[:, None] + gN @ arrays["ncam"][sub].T
            wc = w * c
            later = S_tot[:, None] - (pre[:, None] + np.cumsum(wc, axis=1))
            pre += wc.sum(axis=1)
            acc_n[sub] += w.T @ gN

            # the rest runs on 1-D arrays over the K contributing pairs
            k = np.flatnonzero(w > 0.0)
            p, t = np.divmod(k, T)
            wk, tk, ck, lk = (np.take(x, k) for x in (w, t_pair, c, later))
            alpha, sa, sb, G, den, a1, a2, a4, b1, b2, b4 = (
                np.take(g[n], k)
                for n in ("alpha", "sa", "sb", "G", "denom", "a1", "a2", "a4", "b1", "b2", "b4")
            )
            d_alpha = tk * ck - lk / (1.0 - alpha)

            # alpha routes: kernel coordinates and opacity (dead where clamped)
            free = arrays["opac"][sub[t]] * G <= RASTER_CONFIG.alpha_clamp
            k_alpha = np.where(free, -d_alpha * alpha, 0.0)
            # bincount, as a splat recurs across the chunk's pixels
            acc_o[sub] += np.bincount(t, np.where(free, d_alpha * G, 0.0), minlength=T)
            # range route: the hit point is range * v, so d(range)/d(nu) = v
            dd = gD[p] * wk
            dsa = k_alpha * sa + dd * np.take(V @ arrays["Ba"][sub].T, k)
            dsb = k_alpha * sb + dd * np.take(V @ arrays["Bb"][sub].T, k)

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
            # scatter to (h_x | h_y | v, pixel-splat pair, j); one matmul then
            # sums each splat's pairs against their pixels' planes and ray
            Z = np.zeros((3, P * T, 3))
            for i, row in enumerate(coef):
                for j, x in enumerate(row):
                    Z[i, k, j] = x
            acc_B[sub] += (Z.reshape(3 * P, 3 * T).T @ planes).reshape(T, 3, 3)

    # camera-frame accumulators to world-frame parameter gradients
    R = pose.rotation
    s = arrays["scales"]
    acc_ba, acc_bb, acc_bc = acc_B[:, 0], acc_B[:, 1], acc_B[:, 2]
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
