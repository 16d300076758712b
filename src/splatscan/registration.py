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
reduce the objective.  Each iteration trims each active family's
untrimmed residuals at the current pose ``T`` at the iteration's annealed
floor (:func:`_trim`) and builds their Jacobian once.  A trial pose is
associated and scored on its trimmed residuals only, with the
linearisation's families and weights; it builds no Jacobian.  An accepted
trial's residuals become those at ``T``, so each pose is associated once:
a family is associated at ``T`` only when a phase adds it, and one that
finds nothing there stays recorded as empty.  After a refused trial the
damping keeps rising, with 6x6 solves only, until the step differs from
the refused one by more than ``retry_change``; a nearly equal step would
be refused again.

The schedule is fixed: a geometric phase (point-to-plane only) for the
first ``max_iters // 2`` iterations, then a joint phase (both families)
until ``max_iters`` iterations in total have run.  A phase ends early once
an accepted step is shorter than ``tol``, converged if the undamped step
is too, or when the damping runs out.

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
from .geometry import SphericalCamera, build_range_image, shift_image
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
    trim_floor: float = 0.02      # meters; the trim threshold never shrinks below
    spread_gate: float = 0.5      # reject warp cells spanning a range discontinuity
    max_iters: int = 30
    # a phase stops once an accepted step's norm is below this, converged if
    # the undamped one is too, and a report row's ``converged`` says the
    # joint phase did; the norm mixes meters and radians: 0.1 mm, or 1e-4
    # rad (1 mm at 10 m), a tenth of the 1 cm range noise
    tol: float = 1e-4
    leaf_size: int = 64
    flatness_tau: float = 0.02
    min_residuals: int = 10
    max_geo_points: int = 8000
    geo_supersample: int = 2      # render the reference at this multiple of scan resolution
    damping_init: float = 1e-6
    damping_max: float = 1e6
    retry_change: float = 0.01    # after a refusal, damp until the step moves by this share


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
    points) are kept; ``kdtree`` indexes their centroids, and is empty
    when there are none.
    """

    centroids: np.ndarray
    normals: np.ndarray
    kdtree: cKDTree = field(repr=False)


def build_leaf_tree(points: np.ndarray, viewpoint: np.ndarray) -> LeafTree:
    """Split until patches are flat (lambda_min/lambda_mid <= ``flatness_tau``)
    or hold at most ``leaf_size`` points.

    Leaf normals are the smallest-eigenvalue directions, oriented toward
    ``viewpoint``.  A node centres its points once, as a (3, n) matrix
    ``X``; its covariance is ``X X^T / n``, its points project on the
    largest-eigenvalue direction, and it splits at their median, which
    ``np.partition`` gives as ``np.median`` would: the middle projection,
    or the mean of the two middle ones.
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
        X = (sub - c).T
        evals, evecs = np.linalg.eigh(X @ X.T * (1.0 / idx.size))  # ascending
        flat = evals[1] <= 1e-12 or evals[0] / evals[1] <= REGISTRATION_CONFIG.flatness_tau
        if flat or idx.size <= REGISTRATION_CONFIG.leaf_size:
            if evals[1] > 1e-12:
                _push_leaf(cents, norms, c, evecs[:, 0], viewpoint)
            continue
        proj = evecs[:, 2] @ X
        half = idx.size // 2
        if idx.size % 2:
            med = np.partition(proj, half)[half]
        else:
            part = np.partition(proj, (half - 1, half))
            med = 0.5 * (part[half - 1] + part[half])
        left = proj <= med
        if left.all() or not left.any():
            # all projections equal: cannot split further
            _push_leaf(cents, norms, c, evecs[:, 0], viewpoint)
            continue
        stack.append(idx[left])
        stack.append(idx[~left])

    centroids = np.array(cents).reshape(-1, 3)
    normals = np.array(norms).reshape(-1, 3)
    return LeafTree(centroids, normals, cKDTree(centroids))


def _push_leaf(cents, norms, c, normal, viewpoint):
    cents.append(c)
    norms.append(-normal if normal @ (viewpoint - c) < 0 else normal)


# --- model sampling ---------------------------------------------------------


def _jump_mask(depth: np.ndarray, gate: float, wrap: bool):
    """Pixels of range image ``depth`` whose range jumps by more than
    ``gate`` to a neighbor; only pixels with a range, and neighbors with
    one, take part.

    Rendered silhouettes blend foreground and background into ranges that
    belong to neither surface; they always sit on a range discontinuity.
    """
    valid = depth > 0
    bad = np.zeros_like(valid)
    for axis, step in ((0, 1), (0, -1), (1, 1), (1, -1)):
        nd = shift_image(depth, step, axis, wrap)
        bad |= valid & (nd > 0) & (np.abs(depth - nd) > gate)
    return bad


def sample_model(model: SplatModel, cam: SphericalCamera, pose: SE3Pose) -> np.ndarray:
    """World points of the pixels where the model, rendered at ``pose``
    without normals, shows a surface (see :meth:`RenderOutput.surface`).

    Pixels on a range discontinuity are dropped: their blended range lies
    between the two surfaces.
    """
    depth = rasterize_forward(cam, pose, model, normals=False)[0].surface()
    m = (depth > 0) & ~_jump_mask(depth, REGISTRATION_CONFIG.spread_gate, cam.full_circle)
    return pose.apply(depth[m][:, None] * cam.pixel_directions[m])


# --- residual assembly ------------------------------------------------------


def _huber_weights(r: np.ndarray, delta: float) -> np.ndarray:
    a = np.abs(r)
    return np.where(a <= delta, 1.0, delta / np.maximum(a, 1e-12))


def _huber_value(r: np.ndarray, delta: float) -> float:
    a = np.abs(r)
    quad = 0.5 * r * r
    lin = delta * (a - 0.5 * delta)
    return float(np.sum(np.where(a <= delta, quad, lin)))


def _geo_system(tree: LeafTree, scan: np.ndarray, T: SE3Pose):
    """Point-to-plane residuals at ``T``, untrimmed, and their Jacobian.

    Each point considers its ``assoc_k`` nearest leaf centroids and keeps
    the one whose plane it is closest to; near edges the nearest centroid
    is often on the wrong surface.  A candidate's signed distance is ``n.p
    - n.c``, from the leaves' plane offsets ``n.c``, and the kept one's is
    the residual.  Returns ``(r, jacobian)``, where ``jacobian(keep)`` gives
    the rows of the residuals ``keep`` selects, or None when no point has a
    leaf within the association gate.
    """
    cfg = REGISTRATION_CONFIG
    p_w = T.apply(scan)
    # a tree with fewer leaves pads its answers with inf, which ``valid`` drops
    dist, leaf_i = tree.kdtree.query(p_w, k=cfg.assoc_k, distance_upper_bound=cfg.assoc_gate)
    valid = np.isfinite(dist)
    ok = valid[:, 0]
    if not ok.any():
        return None
    leaf_i = np.where(valid, leaf_i, 0)
    offsets = np.einsum("lj,lj->l", tree.normals, tree.centroids)
    signed = np.einsum("pkj,pj->pk", tree.normals[leaf_i], p_w) - offsets[leaf_i]
    pd = np.where(valid, np.abs(signed), np.inf)
    pick = (np.arange(p_w.shape[0]), pd.argmin(axis=1))
    li = leaf_i[pick][ok]
    n = tree.normals[li]
    q = scan[ok]
    r = signed[pick][ok]

    def jacobian(keep):
        nR = n[keep] @ T.rotation  # row i: n_i^T R
        # -n^T R [q]x == (q x (R^T n))^T row-wise
        return np.concatenate([nR, np.cross(q[keep], nR)], axis=1)

    return r, jacobian


def _bilinear_range(D: np.ndarray, uv: np.ndarray):
    """Bilinear sample of range image ``D`` with analytic image-space gradient.

    Interpolates between stored samples, which live at integer image
    coordinates.  Requires all four supporting pixels inside the image and
    positive (0 is no range); cells whose four ranges spread wider than
    ``spread_gate`` (range discontinuities) are rejected.  Returns (value,
    d/du, d/dv, ok).
    """
    H, W = D.shape
    u, v = uv[:, 0], uv[:, 1]
    i0 = np.floor(u).astype(int)
    j0 = np.floor(v).astype(int)
    ok = (i0 >= 0) & (i0 + 1 < W) & (j0 >= 0) & (j0 + 1 < H)
    i0c = np.clip(i0, 0, W - 2)
    j0c = np.clip(j0, 0, H - 2)
    fu = u - i0c
    fv = v - j0c
    d00 = D[j0c, i0c]
    d10 = D[j0c, i0c + 1]
    d01 = D[j0c + 1, i0c]
    d11 = D[j0c + 1, i0c + 1]
    cell = np.stack([d00, d10, d01, d11])
    lo = cell.min(axis=0)
    ok &= (lo > 0) & (cell.max(axis=0) - lo <= REGISTRATION_CONFIG.spread_gate)
    top = d00 * (1 - fu) + d10 * fu
    bot = d01 * (1 - fu) + d11 * fu
    val = top * (1 - fv) + bot * fv
    du = (d10 - d00) * (1 - fv) + (d11 - d01) * fv
    dv = bot - top
    return val, du, dv, ok


def _photo_system(X_w: np.ndarray, D: np.ndarray, cam: SphericalCamera, T: SE3Pose):
    """Range-warp residuals |q| - D(project(q)), q = T^-1 X_w, untrimmed, on
    the scan's range image ``D``.

    Returns ``(r, jacobian)`` as :func:`_geo_system` does, or None when no
    anchor warps onto a cell of four ranges.
    """
    q = T.inverse().apply(X_w)
    rho2 = q[:, 0] ** 2 + q[:, 1] ** 2
    r2 = rho2 + q[:, 2] ** 2
    val, du, dv, ok = _bilinear_range(D, cam.project(q))
    ok &= rho2 > 1e-12
    if not ok.any():
        return None
    q, rho2, r2, du, dv = q[ok], rho2[ok], r2[ok], du[ok], dv[ok]
    rng_q = np.sqrt(r2)

    def jacobian(keep):
        qk, rho2k, r2k, rngk = q[keep], rho2[keep], r2[keep], rng_q[keep]
        x, y, z = qk[:, 0], qk[:, 1], qk[:, 2]
        rho = np.sqrt(rho2k)
        # image coordinates of the warped point: u = fx*atan2(y,x)+cx, v = fy*el+cy
        du_dq = cam.fx * np.stack([-y / rho2k, x / rho2k, np.zeros_like(x)], axis=1)
        dv_dq = cam.fy * np.stack(
            [-x * z / (r2k * rho), -y * z / (r2k * rho), rho / r2k], axis=1
        )
        dr_dq = qk / rngk[:, None] - du[keep, None] * du_dq - dv[keep, None] * dv_dq
        # right perturbation: dq/d(rho) = -I, dq/d(phi) = [q]x; row: dr_dq^T [q]x
        return np.concatenate([-dr_dq, np.cross(dr_dq, qk)], axis=1)

    return rng_q - val[ok], jacobian


def _trim(r: np.ndarray, floor: float) -> np.ndarray:
    """Which residuals to keep: those within ``trim_factor`` times the median
    or within ``floor``, which the solver anneals downward across iterations
    so the threshold does not collapse while part of the pose error is large."""
    a = np.abs(r)
    return a <= max(REGISTRATION_CONFIG.trim_factor * np.median(a), floor)


def _kept(found, floor: float) -> np.ndarray:
    """The residuals of a family's ``(r, jacobian)`` that :func:`_trim` keeps."""
    return found[0][_trim(found[0], floor)]


# --- solver -----------------------------------------------------------------


def register(
    model: SplatModel,
    scan: np.ndarray,
    cam: SphericalCamera,
    initial: SE3Pose,
    rng: np.random.Generator | None = None,
) -> RegistrationResult:
    """Align a sensor-frame scan to the model, starting from ``initial``.

    ``scan`` is (N, 3); non-finite rows are dropped first, as
    :func:`io.load_scan` drops them.  ``converged`` says the joint phase
    stopped on a step whose undamped step was shorter than ``tol`` too; a
    phase whose damping runs out keeps its pose.  Raises :class:`RegistrationError`
    for a scan of another shape or with no finite row, when the model renders
    too few confident pixels, or when too few residuals survive association;
    callers are expected to fall back to their motion model.
    """
    cfg = REGISTRATION_CONFIG
    scan = np.asarray(scan, dtype=float)
    if scan.ndim != 2 or scan.shape[1] != 3:
        raise RegistrationError(f"a scan of shape {scan.shape} is not (N, 3)")
    scan = scan[np.isfinite(scan).all(axis=1)]
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

    # each family's system, which associates at a pose, and its Huber threshold
    families = {
        "geo": (lambda T: _geo_system(tree, geo_scan, T), cfg.huber_geo),
        "photo": (lambda T: _photo_system(X_w, scan_img, cam, T), cfg.huber_photo),
    }

    T = initial
    # each family's untrimmed residuals at T, as its system returned them
    # there: None when it associated nothing
    found = {}
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
            floor = max(cfg.trim_floor, cfg.assoc_gate * 0.5 ** it_total)
            # the linearisation at T: each family's residuals trimmed at this
            # floor, their Jacobian and the family's weight, 1 / residual count;
            # a family new to the phase is associated first
            lin = {}
            for name in active:
                if name not in found:
                    found[name] = families[name][0](T)
                if found[name] is not None:
                    r, jacobian = found[name]
                    keep = _trim(r, floor)
                    lin[name] = r[keep], jacobian(keep), 1.0 / np.count_nonzero(keep)
            if sum(r.size for r, _, _ in lin.values()) < cfg.min_residuals:
                raise RegistrationError("too few residuals survive association")

            H, b, obj0 = np.zeros((6, 6)), np.zeros(6), 0.0
            for name, (r, J, weight) in lin.items():
                huber = families[name][1]
                w = _huber_weights(r, huber)
                H += weight * (J.T * w) @ J
                b += weight * (J.T @ (w * r))
                obj0 += weight * _huber_value(r, huber)

            accepted, refused = False, None
            while not accepted and lam <= cfg.damping_max:
                try:
                    delta = np.linalg.solve(H + lam * np.eye(6), -b)
                except np.linalg.LinAlgError:
                    delta = np.full(6, np.nan)
                # a step that damping has barely moved since the last refusal
                # would be refused again: raise the damping before trying one
                moved = refused is None or (np.linalg.norm(delta - refused)
                                            > cfg.retry_change * np.linalg.norm(refused))
                if np.all(np.isfinite(delta)) and moved:
                    T_try = T.retract(delta)
                    trial = {name: families[name][0](T_try) for name in active}
                    # scored like the linearisation, on its trimmed residuals:
                    # its families, its weights; no Jacobian is built
                    obj = [weight * _huber_value(_kept(trial[name], floor), families[name][1])
                           for name, (_, _, weight) in lin.items() if trial[name] is not None]
                    accepted = bool(obj) and sum(obj) <= obj0 + 1e-12
                    refused = None if accepted else delta
                lam = max(lam * 0.25, cfg.damping_init) if accepted else max(lam, 1e-8) * 10.0
            if not accepted:
                break  # damping exhausted: keep current estimate for this phase
            # the accepted trial is the next linearisation point
            T, found = T_try, trial
            if np.linalg.norm(delta) < cfg.tol:
                # damping alone can make a step short; the undamped one must be too
                converged = bool(np.linalg.matrix_rank(H) == 6
                                 and np.linalg.norm(np.linalg.solve(H, -b)) < cfg.tol)
                break

    # residual statistics at the returned pose, trimmed at the last floor
    geo_r, photo_r = (_kept(found[name], floor) if found.get(name) else np.zeros(0)
                      for name in families)
    rms = lambda r: float(np.sqrt(np.mean(r * r))) if r.size else 0.0
    return RegistrationResult(
        T.orthonormalized(), converged, it_total, rms(geo_r), rms(photo_r),
        geo_r.size, photo_r.size,
    )
