"""Scan-to-map alignment against rendered model geometry.

The model is rendered at the predicted pose; visible pixels become an
oriented reference in two forms:

  * a planar leaf tree (recursive PCA splits of the back-projected
    points) for point-to-plane residuals against the scan, and
  * the rendered range image itself for photometric range residuals:
    each rendered surface point is re-projected into the measured scan
    image and its range compared against the bilinear sample there.

Both residual families are robustified with Huber weights and normalized
by residual count, then minimized by Gauss-Newton on the right-update
``T <- T * exp(delta)`` with Levenberg damping when a step fails to
reduce the objective.  A trial pose evaluates the residuals it is scored
by, so an accepted trial is the next linearisation point; the residuals
are evaluated afresh only when a phase adds a family or the trim floor
anneals.

The schedule is fixed: a geometric phase (point-to-plane only) for the
first ``max_iters // 2`` iterations, then a joint phase (both families)
until ``max_iters`` iterations in total have run.

Every setting has one value in use and lives in :data:`REGISTRATION_CONFIG`,
read directly here as renders read ``rasterizer.RASTER_CONFIG``.  A study
that sweeps one of them (the reference's ``geo_supersample``, say) should
bring back only that knob as a parameter, not the whole record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import RegistrationError
from .geometry import RangeImage, SphericalCamera, build_range_image, shift_image
from .rasterizer import rasterize_forward
from .se3 import SE3Pose
from .splats import SplatModel

__all__ = [
    "RegistrationConfig",
    "REGISTRATION_CONFIG",
    "RegistrationResult",
    "LeafTree",
    "build_leaf_tree",
    "sample_model",
    "register",
]


@dataclass(frozen=True)
class RegistrationConfig:
    """Association, robust-loss and solver settings of the fixed schedule."""

    huber_geo: float = 0.1
    huber_photo: float = 0.2
    assoc_gate: float = 1.0
    assoc_k: int = 3              # leaf candidates; closest plane wins
    trim_factor: float = 5.0      # drop residuals beyond this multiple of the median
    trim_floor_geo: float = 0.02  # meters; trim threshold never shrinks below
    trim_floor_photo: float = 0.02
    spread_gate: float = 0.5      # reject warp cells spanning a range discontinuity
    max_iters: int = 30
    tol: float = 1e-6
    visibility_opacity: float = 0.5
    leaf_size: int = 64
    flatness_tau: float = 0.02
    min_residuals: int = 10
    max_geo_points: int = 8000
    geo_supersample: int = 2      # render the reference at this multiple of scan resolution
    damping_init: float = 1e-6
    damping_max: float = 1e6


# the settings of every registration
REGISTRATION_CONFIG = RegistrationConfig()


@dataclass
class RegistrationResult:
    pose: SE3Pose
    converged: bool
    iterations: int
    geo_rms: float
    photo_rms: float
    n_geo: int
    n_photo: int


# --- leaf tree --------------------------------------------------------------


@dataclass
class LeafTree:
    """Planar patches from recursive PCA splits of a point cloud.

    Only leaves with a well-defined plane (at least 3 non-collinear
    points) are kept; ``kdtree`` indexes their centroids, or is None when
    there are none.
    """

    centroids: np.ndarray
    normals: np.ndarray
    kdtree: cKDTree = field(repr=False, default=None)


def build_leaf_tree(points: np.ndarray, viewpoint: np.ndarray) -> LeafTree:
    """Split until patches are flat (lambda_min/lambda_mid <= ``flatness_tau``)
    or hold at most ``leaf_size`` points.

    Leaf normals are the smallest-eigenvalue directions, oriented toward
    ``viewpoint``.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = pts.shape[0]
    if n == 0:
        raise RegistrationError("cannot build a leaf tree from an empty cloud")
    viewpoint = np.asarray(viewpoint, dtype=float).reshape(3)
    cents, norms = [], []

    stack = [np.arange(n)]
    while stack:
        idx = stack.pop()
        if idx.size < 3:
            continue
        sub = pts[idx]
        c = sub.mean(axis=0)
        cov = np.cov(sub.T, bias=True)
        evals, evecs = np.linalg.eigh(cov)  # ascending
        flat = evals[1] <= 1e-12 or evals[0] / evals[1] <= REGISTRATION_CONFIG.flatness_tau
        if flat or idx.size <= REGISTRATION_CONFIG.leaf_size:
            if evals[1] > 1e-12:
                _push_leaf(cents, norms, c, evecs[:, 0], viewpoint)
            continue
        axis = evecs[:, 2]
        proj = (sub - c) @ axis
        med = np.median(proj)
        left = proj <= med
        if left.all() or not left.any():
            # all projections equal: cannot split further
            _push_leaf(cents, norms, c, evecs[:, 0], viewpoint)
            continue
        stack.append(idx[left])
        stack.append(idx[~left])

    centroids = np.array(cents).reshape(-1, 3)
    normals = np.array(norms).reshape(-1, 3)
    tree = cKDTree(centroids) if cents else None
    return LeafTree(centroids, normals, tree)


def _push_leaf(cents, norms, c, normal, viewpoint):
    cents.append(c)
    norms.append(-normal if normal @ (viewpoint - c) < 0 else normal)


# --- model sampling ---------------------------------------------------------


def _jump_mask(depth: np.ndarray, valid: np.ndarray, gate: float, wrap: bool):
    """Pixels whose range jumps by more than ``gate`` to a valid neighbor.

    Rendered silhouettes blend foreground and background into ranges that
    belong to neither surface; they always sit on a range discontinuity.
    """
    bad = np.zeros_like(valid)
    for axis, step in ((0, 1), (0, -1), (1, 1), (1, -1)):
        nd = shift_image(depth, step, axis, wrap)
        nv = shift_image(valid, step, axis, wrap)
        bad |= valid & nv & (np.abs(depth - nd) > gate)
    return bad


def sample_model(model: SplatModel, cam: SphericalCamera, pose: SE3Pose) -> np.ndarray:
    """World points of confidently covered rendered pixels.

    Renders the model at ``pose`` and back-projects every pixel with
    positive range and opacity above the visibility threshold.  The raw
    range channel is a blend weighted by opacity mass, so it understates
    metric range wherever coverage is partial; dividing by accumulated
    opacity removes that bias.  Pixels on a range discontinuity are
    dropped: their blended range lies between the two surfaces.
    """
    cfg = REGISTRATION_CONFIG
    render, _ = rasterize_forward(cam, pose, model)
    m = (render.opacity > cfg.visibility_opacity) & (render.range > 0)
    depth_img = np.where(m, render.range / np.maximum(render.opacity, 1e-12), 0.0)
    m &= ~_jump_mask(depth_img, m, cfg.spread_gate, cam.full_circle)
    uv = cam.pixel_grid[m]
    pts_c = cam.back_project(uv, depth_img[m])
    return pose.apply(pts_c)


# --- residual assembly ------------------------------------------------------


def _huber_weights(r: np.ndarray, delta: float) -> np.ndarray:
    a = np.abs(r)
    return np.where(a <= delta, 1.0, delta / np.maximum(a, 1e-12))


def _huber_value(r: np.ndarray, delta: float) -> float:
    a = np.abs(r)
    quad = 0.5 * r * r
    lin = delta * (a - 0.5 * delta)
    return float(np.sum(np.where(a <= delta, quad, lin)))


def _geo_system(tree: LeafTree, scan: np.ndarray, T: SE3Pose, trim_floor: float):
    """Point-to-plane residuals and Jacobians at the current pose.

    Each point considers its ``assoc_k`` nearest leaf centroids and keeps
    the one whose plane it is closest to; near edges the nearest centroid
    is often on the wrong surface.  Residuals beyond ``trim_factor`` times
    the median are dropped as mis-associations.  ``trim_floor`` keeps the
    threshold from collapsing while part of the pose error is still large;
    the solver anneals it downward across iterations.
    """
    if tree.kdtree is None:
        return None
    cfg = REGISTRATION_CONFIG
    p_w = T.apply(scan)
    # a tree with fewer leaves pads its answers with inf, which ``valid`` drops
    dist, leaf_i = tree.kdtree.query(p_w, k=cfg.assoc_k, distance_upper_bound=cfg.assoc_gate)
    valid = np.isfinite(dist)
    ok = valid[:, 0]
    if not ok.any():
        return None
    leaf_i = np.where(valid, leaf_i, 0)
    diff = p_w[:, None, :] - tree.centroids[leaf_i]
    pd = np.abs(np.einsum("pkj,pkj->pk", tree.normals[leaf_i], diff))
    pd[~valid] = np.inf
    best = pd.argmin(axis=1)
    li = leaf_i[np.arange(p_w.shape[0]), best][ok]
    n = tree.normals[li]
    c = tree.centroids[li]
    q = scan[ok]
    r = np.sum(n * (p_w[ok] - c), axis=1)
    keep = np.abs(r) <= max(cfg.trim_factor * np.median(np.abs(r)), trim_floor)
    if not keep.any():
        return None
    n, c, q, r = n[keep], c[keep], q[keep], r[keep]
    nR = n @ T.rotation  # row i: n_i^T R
    Jt = nR
    Jr = np.cross(q, nR)  # -n^T R [q]x == (q x (R^T n))^T row-wise
    J = np.concatenate([Jt, Jr], axis=1)
    return r, J


def _bilinear_range(rimg: RangeImage, uv: np.ndarray):
    """Bilinear range sample with analytic image-space gradient.

    Interpolates between stored samples, which live at integer image
    coordinates.  Requires all four supporting pixels valid and inside the
    image; cells whose four ranges spread wider than ``spread_gate`` (range
    discontinuities) are rejected.  Returns (value, d/du, d/dv, ok).
    """
    H, W = rimg.shape
    u, v = uv[:, 0], uv[:, 1]
    i0 = np.floor(u).astype(int)
    j0 = np.floor(v).astype(int)
    ok = (i0 >= 0) & (i0 + 1 < W) & (j0 >= 0) & (j0 + 1 < H)
    i0c = np.clip(i0, 0, W - 2)
    j0c = np.clip(j0, 0, H - 2)
    fu = u - i0c
    fv = v - j0c
    V = rimg.valid
    ok &= V[j0c, i0c] & V[j0c, i0c + 1] & V[j0c + 1, i0c] & V[j0c + 1, i0c + 1]
    D = rimg.range
    d00 = D[j0c, i0c]
    d10 = D[j0c, i0c + 1]
    d01 = D[j0c + 1, i0c]
    d11 = D[j0c + 1, i0c + 1]
    cell = np.stack([d00, d10, d01, d11])
    ok &= cell.max(axis=0) - cell.min(axis=0) <= REGISTRATION_CONFIG.spread_gate
    top = d00 * (1 - fu) + d10 * fu
    bot = d01 * (1 - fu) + d11 * fu
    val = top * (1 - fv) + bot * fv
    du = (d10 - d00) * (1 - fv) + (d11 - d01) * fv
    dv = bot - top
    return val, du, dv, ok


def _photo_system(
    X_w: np.ndarray,
    rimg: RangeImage,
    cam: SphericalCamera,
    T: SE3Pose,
    trim_floor: float,
):
    """Range-warp residuals: |q| - D_scan(project(q)), q = T^-1 X_w."""
    cfg = REGISTRATION_CONFIG
    Tin = T.inverse()
    q = Tin.apply(X_w)
    rho2 = q[:, 0] ** 2 + q[:, 1] ** 2
    r2 = rho2 + q[:, 2] ** 2
    good = rho2 > 1e-12
    uv = cam.project(q)
    val, du, dv, ok = _bilinear_range(rimg, uv)
    ok &= good
    if not ok.any():
        return None
    q = q[ok]
    rho2 = rho2[ok]
    r2 = r2[ok]
    rng_q = np.sqrt(r2)
    r = rng_q - val[ok]
    du = du[ok]
    dv = dv[ok]
    keep = np.abs(r) <= max(cfg.trim_factor * np.median(np.abs(r)), trim_floor)
    if not keep.any():
        return None
    q, rho2, r2, rng_q, r, du, dv = (
        a[keep] for a in (q, rho2, r2, rng_q, r, du, dv)
    )

    x, y, z = q[:, 0], q[:, 1], q[:, 2]
    rho = np.sqrt(rho2)
    # image coordinates of the warped point: u = fx*atan2(y,x)+cx, v = fy*el+cy
    du_dq = cam.fx * np.stack([-y / rho2, x / rho2, np.zeros_like(x)], axis=1)
    dv_dq = cam.fy * np.stack(
        [-x * z / (r2 * rho), -y * z / (r2 * rho), rho / r2], axis=1
    )
    dr_dq = q / rng_q[:, None] - du[:, None] * du_dq - dv[:, None] * dv_dq
    # right perturbation: dq/d(rho) = -I, dq/d(phi) = [q]x
    Jt = -dr_dq
    Jr = np.cross(dr_dq, q)  # row: dr_dq^T [q]x
    J = np.concatenate([Jt, Jr], axis=1)
    return r, J


# --- solver -----------------------------------------------------------------


def register(
    model: SplatModel,
    scan: np.ndarray,
    cam: SphericalCamera,
    initial: SE3Pose,
    rng: np.random.Generator | None = None,
) -> RegistrationResult:
    """Align a sensor-frame scan to the model, starting from ``initial``.

    Raises :class:`RegistrationError` when the model renders to nothing
    useful or the normal equations stay singular; callers are expected to
    fall back to their motion model.
    """
    cfg = REGISTRATION_CONFIG
    scan = np.asarray(scan, dtype=float).reshape(-1, 3)
    if scan.shape[0] == 0:
        raise RegistrationError("empty scan")

    s = cfg.geo_supersample
    geo_cam = SphericalCamera(cam.width * s, cam.height * s,
                              cam.az_min, cam.az_max, cam.el_min, cam.el_max)
    model_pts = sample_model(model, geo_cam, initial)
    if model_pts.shape[0] < cfg.min_residuals:
        raise RegistrationError("model renders to too few confident pixels")

    geo_scan = scan
    if scan.shape[0] > cfg.max_geo_points:
        r = rng or np.random.default_rng(0)
        geo_scan = scan[r.choice(scan.shape[0], cfg.max_geo_points, replace=False)]

    tree = build_leaf_tree(model_pts, initial.translation)
    scan_img = build_range_image(cam, scan)

    # photometric anchors: the same surviving surface points, thinned back
    # to roughly scan resolution so the warp term stays cheap
    X_w = model_pts[:: s * s]

    systems = {
        "geo": lambda T, floor: _geo_system(tree, geo_scan, T, floor),
        "photo": lambda T, floor: _photo_system(X_w, scan_img, cam, T, floor),
    }
    huber = {"geo": cfg.huber_geo, "photo": cfg.huber_photo}
    trim_floor = {"geo": cfg.trim_floor_geo, "photo": cfg.trim_floor_photo}

    def evaluate(T, floors):
        """Each family's ``(r, J)`` at ``T``; one without residuals is left out."""
        found = {name: systems[name](T, floor) for name, floor in floors.items()}
        return {name: f for name, f in found.items() if f is not None}

    T = initial.copy()
    lin, floors = {}, {}  # the linearisation at T, and the trim floors it was built at
    it_total = 0

    # geometric phase, then joint phase; budgets count iterations in total
    for active, budget in ((("geo",), cfg.max_iters // 2), (("geo", "photo"), cfg.max_iters)):
        lam = cfg.damping_init
        converged = False
        while it_total < budget:
            it_total += 1
            # early iterations may hold a large error in one direction whose
            # residuals would be trimmed once the rest has converged; keep
            # the trim loose at first and tighten it geometrically
            anneal = cfg.assoc_gate * 0.5 ** it_total
            old, floors = floors, {name: max(trim_floor[name], anneal) for name in active}
            # only a family new to the phase or whose floor moved is evaluated
            # again; the rest of the linearisation is the accepted trial's
            stale = {name: f for name, f in floors.items() if old.get(name) != f}
            lin = {name: rJ for name, rJ in lin.items() if name not in stale} | evaluate(T, stale)
            if sum(r.shape[0] for r, _ in lin.values()) < cfg.min_residuals:
                raise RegistrationError("too few residuals survive association")

            # each family's normal equations, weighted by 1 / residual count
            weight = {name: 1.0 / r.shape[0] for name, (r, _) in lin.items()}
            H, b, obj0 = np.zeros((6, 6)), np.zeros(6), 0.0
            for name, (r, J) in lin.items():
                w = _huber_weights(r, huber[name])
                H += weight[name] * (J.T * w) @ J
                b += weight[name] * (J.T @ (w * r))
                obj0 += weight[name] * _huber_value(r, huber[name])

            accepted = False
            while not accepted and lam <= cfg.damping_max:
                try:
                    delta = np.linalg.solve(H + lam * np.eye(6), -b)
                except np.linalg.LinAlgError:
                    delta = np.full(6, np.nan)
                if np.all(np.isfinite(delta)):
                    T_try = T.retract(delta)
                    trial = evaluate(T_try, floors)
                    # scored like the linearisation: its families, its weights
                    obj = [weight[name] * _huber_value(trial[name][0], huber[name])
                           for name in lin if name in trial]
                    accepted = bool(obj) and sum(obj) <= obj0 + 1e-12
                lam = max(lam * 0.25, cfg.damping_init) if accepted else max(lam, 1e-8) * 10.0
            if not accepted:
                break  # damping exhausted: keep current estimate for this phase
            T, lin = T_try, trial  # the accepted trial is the next linearisation
            if np.linalg.norm(delta) < cfg.tol:
                converged = True
                break

    # residual statistics of the linearisation at the returned pose
    geo_r, photo_r = (lin[name][0] if name in lin else np.zeros(0) for name in systems)
    rms = lambda r: float(np.sqrt(np.mean(r * r))) if r.size else 0.0
    return RegistrationResult(
        T.orthonormalized(), converged, it_total, rms(geo_r), rms(photo_r),
        geo_r.size, photo_r.size,
    )
