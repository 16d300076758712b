"""Local splat map construction and photometric refinement.

A local map is a splat model plus the keyframes that shaped it.  Each
keyframe stores its estimated camera, the measured range image and the
normals derived from it.  Refinement renders the model at a sampled
keyframe and follows the analytic gradients of its score against that
keyframe's images with Adam.  The objective's range, opacity and normal
terms are per pixel, so the render takes their gradients batch by batch
as it blends (see :func:`mapping_loss`), and no pass after it reads the
images again.

The objective exists only where the keyframe measured a range: every
per-pixel term below, and so every pixel gradient, is masked by its valid
pixels.  So are the reset check's coverage and the densify mask.
Refinement, the reset check and :func:`add_keyframe`'s own render
therefore render only those pixels (``rasterize_forward(..., mask=valid)``);
the pixels without a range would cost blend and gradient work that changes
nothing.  Keyframes come from a subsampled scan, so that is often half the
image.  Renders that look for surfaces anywhere in the image (registration's
model samples, the export) render every pixel.

The objective per keyframe, summed over pixels of the valid mask:

    L = sum w(D_kf) * |D - D_kf|                (range, w = 1/max(D_kf, 1m))
      + w_o * sum -log(max(O, 1e-6))            (opacity: surfaces should be solid)
      + w_n * sum (1 - N_render . N_kf)         (normal alignment)
      + w_s * sum max(0, max(s_a, s_b) - cap)   (scale regularizer, per splat)

New splats are spawned at keyframe pixels drawn by range-gradient weight
(depth edges first), seeded on the back-projected surface with the
keyframe normal, pixel-footprint scales and opacity 0.5.

Every weight, threshold and learning rate has one value in use and lives
in :data:`MAPPING_CONFIG`, read directly here as renders read
``rasterizer.RASTER_CONFIG``.  A study that sweeps one of them should bring
back only that knob as a parameter, not the whole record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError
from .geometry import (
    RangeImage,
    SphericalCamera,
    build_range_image,
    estimate_camera,
    facing_sensor,
    range_image_normals,
    shift_image,
    smooth_range_image,
)
from .rasterizer import RenderOutput, rasterize_backward, rasterize_forward
from .se3 import SE3Pose
from .splats import PARAMS_PER_SPLAT, SplatModel

__all__ = [
    "MappingConfig",
    "MAPPING_CONFIG",
    "Keyframe",
    "LocalMap",
    "make_keyframe",
    "scale_loss",
    "mapping_loss",
    "MappingLoss",
    "spawn_splats",
    "densify_mask",
    "add_keyframe",
    "refine",
    "sample_keyframe_index",
    "coverage",
    "should_reset_local_map",
]


@dataclass(frozen=True)
class MappingConfig:
    """Weights, thresholds and optimizer settings for map refinement."""

    n_spawn: int = 20000          # cap on splats spawned per keyframe event
    w_opacity: float = 0.05
    w_normal: float = 0.1
    w_scale: float = 1.0
    scale_cap: float = 0.5        # meters; hinge above this
    densify_range_err: float = 0.1
    kf_sample_p: float = 0.4      # geometric bias toward recent keyframes
    max_keyframes: int = 100
    prune_opacity: float = 0.005
    coverage_min: float = 0.3
    reset_radius: float = 50.0
    lr_centers: float = 1e-3      # multiplied by the map's scene scale
    lr_tangents: float = 1e-3
    lr_log_scales: float = 5e-3
    lr_logit_opacity: float = 5e-2
    scale_floor: float = 1e-4
    opacity_init: float = 0.5
    range_weight_floor: float = 1.0  # meters


# the settings of every map
MAPPING_CONFIG = MappingConfig()

_OPACITY_EPS = 1e-6  # mapping_loss clamps opacity here before the log
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class Keyframe:
    """One registered scan as the map sees it.

    ``index`` is the scan's position in the run, and ``pose`` is the
    sensor's pose in the world.  ``camera`` is the spherical projection
    fitted to the scan.  ``range_image`` holds the measured range in
    meters along each pixel ray of ``camera``, in the sensor frame; a pixel
    with no return reads range 0 and is not ``valid``.  ``normals`` is the
    ``(H, W, 3)`` image of unit surface normals in the sensor frame, facing
    the sensor; a pixel with no normal reads ``(0, 0, 0)``.
    """

    index: int
    pose: SE3Pose
    camera: SphericalCamera
    range_image: RangeImage
    normals: np.ndarray


def make_keyframe(
    index: int, cloud: np.ndarray, pose: SE3Pose, width: int, height: int
) -> Keyframe:
    """Build a keyframe: estimate its camera, range image and normals."""
    cam = estimate_camera(cloud, width, height)
    rimg = build_range_image(cam, cloud)
    # noise in raw ranges becomes orientation noise; smooth for normals only
    normals = range_image_normals(cam, smooth_range_image(rimg, cam.full_circle))
    return Keyframe(index, pose.copy(), cam, rimg, normals)


# --- losses -----------------------------------------------------------------


@dataclass
class MappingLoss:
    """The objective of the module docstring, bound to one keyframe and model.

    :meth:`pixel_grads` is the rule :func:`rasterize_forward` applies to
    each blend batch of a render masked by ``kf.range_image.valid``, the
    render :func:`refine` makes, so every pixel it sees is measured;
    ``d_params`` is the weighted scale hinge's gradient in the layout of
    ``SplatModel.params``, and ``scale`` the unweighted hinge; :meth:`terms`
    scores a finished render.  ``pixels`` is what the rule reads of the
    keyframe, per flat pixel: rows of its range, the range weight and the
    weighted normal term's gradient (3 rows).
    """

    kf: Keyframe
    scale: float
    d_params: np.ndarray
    pixels: np.ndarray

    def pixel_grads(self, pix: np.ndarray, values: np.ndarray) -> np.ndarray:
        """d(loss)/d(image) at the flat pixels ``pix`` from their blended
        ``values``: rows range, opacity and normal, in both.

        Pixels whose opacity is at the clamp get no opacity gradient.  The
        rendered normal is the raw blend (not re-normalized), so its
        gradient is the negated keyframe normal, where the keyframe has one.
        """
        g = np.take(self.pixels, pix, axis=1)
        O = values[1]
        clamped = np.maximum(O, _OPACITY_EPS)
        g[0] = g[1] * np.sign(values[0] - g[0])
        g[1] = MAPPING_CONFIG.w_opacity * np.where(O > _OPACITY_EPS, -1.0 / clamped, 0.0)
        return g

    def terms(self, render: RenderOutput) -> dict[str, float]:
        """The weighted ``total`` and the unweighted ``range``, ``opacity``,
        ``normal`` and ``scale`` terms on ``render``, this keyframe's view of
        the bound model.  The normal term counts only where the keyframe
        has a normal too."""
        cfg = MAPPING_CONFIG
        kf = self.kf
        M = kf.range_image.valid
        D_kf = kf.range_image.range
        w = 1.0 / np.maximum(D_kf, cfg.range_weight_floor)
        diff = render.range - D_kf
        L_d = float(np.sum(w[M] * np.abs(diff[M])))
        clamped = np.maximum(render.opacity, _OPACITY_EPS)
        L_o = float(np.sum(-np.log(clamped[M])))
        M_n = M & kf.normals.any(axis=-1)
        L_n = float(np.sum(1.0 - np.sum(render.normal * kf.normals, axis=-1)[M_n]))
        total = L_d + cfg.w_opacity * L_o + cfg.w_normal * L_n + cfg.w_scale * self.scale
        return {"total": total, "range": L_d, "opacity": L_o, "normal": L_n,
                "scale": self.scale}


def scale_loss(model: SplatModel) -> tuple[float, np.ndarray]:
    """Hinge on the larger scale above ``scale_cap``, and its parameter gradient.

    The gradient is laid out like ``model.params`` and reaches only the
    log scale of each hinged splat's larger axis.
    """
    s = model.scales
    if s.shape[0] == 0:
        return 0.0, np.zeros_like(model.params)
    mx = s.max(axis=1)
    over = mx - MAPPING_CONFIG.scale_cap
    L = float(np.sum(np.maximum(over, 0.0)))
    g = np.zeros_like(s)
    hot = over > 0
    arg = s.argmax(axis=1)
    g[hot, arg[hot]] = 1.0
    return L, model.param_gradients(scales=g)


def mapping_loss(model: SplatModel, kf: Keyframe) -> MappingLoss:
    """Bind the objective of the module docstring to ``model`` and one keyframe."""
    cfg = MAPPING_CONFIG
    M = kf.range_image.valid
    D_kf = kf.range_image.range
    M_n = M & kf.normals.any(axis=-1)
    g_n = cfg.w_normal * np.where(M_n[..., None], -kf.normals, 0.0)
    pixels = np.concatenate([D_kf[None], 1.0 / np.maximum(D_kf, cfg.range_weight_floor)[None],
                             np.moveaxis(g_n, -1, 0)]).reshape(5, -1)
    L_s, g_s = scale_loss(model)
    return MappingLoss(kf, L_s, cfg.w_scale * g_s, pixels)


# --- spawning ---------------------------------------------------------------


def _range_gradient_weights(kf: Keyframe) -> np.ndarray:
    """Magnitude of the range image gradient, zero at invalid pixels: per axis
    central where both neighbours are valid, one-sided where one is."""
    D = kf.range_image.range
    V = kf.range_image.valid
    wrap = kf.camera.full_circle
    g = []
    for axis in (1, 0):
        plus, minus, pv, mv = (
            shift_image(a, step, axis, wrap) for a, step in ((D, -1), (D, 1), (V, -1), (V, 1))
        )
        spans = np.maximum(pv.astype(int) + mv, 1)
        g.append((np.where(pv, plus, D) - np.where(mv, minus, D)) / spans)
    mag = np.hypot(*g)
    mag[~V] = 0.0
    return mag


def _complete_frames(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangents for unit normals (t_alpha x t_beta = n)."""
    n = np.asarray(normals, dtype=float)
    ref = np.tile([0.0, 0.0, 1.0], (n.shape[0], 1))
    steep = np.abs(n[:, 2]) > 0.9
    ref[steep] = [1.0, 0.0, 0.0]
    ta = np.cross(n, ref)
    ta /= np.linalg.norm(ta, axis=1, keepdims=True)
    tb = np.cross(n, ta)
    return ta, tb


def spawn_splats(
    model: SplatModel,
    kf: Keyframe,
    mask: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """Create splats at up to ``n_spawn`` masked keyframe pixels.

    When more pixels are masked, they are drawn without replacement,
    weighted by the range-gradient magnitude; if fewer than ``n_spawn``
    carry a weight, all of those are taken and the rest drawn uniformly
    from the others.  Each splat sits on the back-projected surface point,
    scaled to the pixel footprint, with the keyframe normal made to face the
    sensor in the sensor frame (:func:`geometry.facing_sensor`), then turned
    into the world by the keyframe pose.  Returns the number spawned.
    """
    cfg = MAPPING_CONFIG
    mask = mask & kf.range_image.valid
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return 0
    if idx.size > cfg.n_spawn:
        w = _range_gradient_weights(kf).ravel()[idx]
        hot = w > 0
        n_hot = int(np.count_nonzero(hot))
        if n_hot >= cfg.n_spawn:
            idx = rng.choice(idx, size=cfg.n_spawn, replace=False, p=w / w.sum())
        else:
            rest = rng.choice(idx[~hot], size=cfg.n_spawn - n_hot, replace=False)
            idx = np.concatenate([idx[hot], rest])
    rows, cols = np.unravel_index(idx, kf.range_image.shape)
    d = kf.range_image.range[rows, cols]
    pts_s = d[:, None] * kf.camera.pixel_directions[rows, cols]
    # pixels without a keyframe normal read 0, so those splats face the sensor head on
    n_s = facing_sensor(kf.normals[rows, cols],
                        pts_s / np.linalg.norm(pts_s, axis=1, keepdims=True))
    centers = kf.pose.apply(pts_s)
    ta, tb = _complete_frames(n_s @ kf.pose.rotation.T)

    pitch_az = 1.0 / abs(kf.camera.fx)
    pitch_el = 1.0 / abs(kf.camera.fy)
    scales = np.maximum(np.stack([d * pitch_az, d * pitch_el], axis=1), cfg.scale_floor)
    model.append(centers, ta, tb, scales, np.full(idx.size, cfg.opacity_init), kf.index)
    return idx.size


def densify_mask(render: RenderOutput, kf: Keyframe) -> np.ndarray:
    """Valid pixels the current model explains poorly: no surface (see
    :meth:`RenderOutput.surface`) or a wrong range."""
    M = kf.range_image.valid
    thin = ~render.surface()[0]
    wrong = np.abs(render.range - kf.range_image.range) >= MAPPING_CONFIG.densify_range_err
    return M & (thin | wrong)


def coverage(render: RenderOutput, kf: Keyframe) -> float:
    """Mean rendered opacity over the keyframe's valid pixels."""
    M = kf.range_image.valid
    if not M.any():
        return 0.0
    return float(render.opacity[M].mean())


def should_reset_local_map(lmap: "LocalMap", kf: Keyframe) -> str | None:
    """The trigger that makes ``kf`` open a fresh local map, or ``None`` to join.

    Three triggers, checked in this order: ``"keyframes"``, the keyframe
    budget is exhausted; ``"radius"``, the sensor has left the neighborhood
    of the map's first keyframe; ``"coverage"``, the model barely covers the
    new view.  The coverage render blends range and opacity only, at
    ``kf``'s measured pixels; one that lets ``kf`` join is left on the map
    for :func:`add_keyframe`, which would render the same view and pixels
    and reads no normals either.  The check's coverage is left on
    ``lmap.coverage``, ``None`` when it made no render.
    """
    cfg = MAPPING_CONFIG
    lmap.coverage = None
    if len(lmap.keyframes) >= cfg.max_keyframes:
        return "keyframes"
    origin = lmap.keyframes[0].pose.translation
    if np.linalg.norm(kf.pose.translation - origin) > cfg.reset_radius:
        return "radius"
    if len(lmap.model) == 0:
        return None
    render, _ = rasterize_forward(kf.camera, kf.pose, lmap.model, normals=False,
                                  mask=kf.range_image.valid)
    lmap.coverage = coverage(render, kf)
    if lmap.coverage < cfg.coverage_min:
        return "coverage"
    lmap.keyframe_render = (kf, lmap.model.version, render)
    return None


# --- optimizer --------------------------------------------------------------


class _Adam:
    """Adam moments for every column of ``SplatModel.params``, resized with the model."""

    def __init__(self, n: int):
        self.t = 0
        self.m = np.zeros((n, PARAMS_PER_SPLAT))
        self.v = np.zeros((n, PARAMS_PER_SPLAT))

    def grow(self, extra: int):
        self.m = np.pad(self.m, ((0, extra), (0, 0)))
        self.v = np.pad(self.v, ((0, extra), (0, 0)))

    def prune(self, keep: np.ndarray):
        self.m = self.m[keep]
        self.v = self.v[keep]

    def step(self, model: SplatModel, grads: np.ndarray, lrs: np.ndarray):
        """Update ``model.params`` from ``(N, 12)`` gradients and ``(12,)`` step sizes."""
        self.t += 1
        b1c = 1.0 - _ADAM_BETA1**self.t
        b2c = 1.0 - _ADAM_BETA2**self.t
        m, v = self.m, self.v
        m *= _ADAM_BETA1
        m += (1.0 - _ADAM_BETA1) * grads
        v *= _ADAM_BETA2
        v += (1.0 - _ADAM_BETA2) * grads * grads
        model.params -= lrs * (m / b1c) / (np.sqrt(v / b2c) + _ADAM_EPS)
        model.touch()


def _learning_rates(scene_scale: float) -> np.ndarray:
    """Adam's step size for each column of ``SplatModel.params``.

    Centers move in meters, so their rate scales with the map's scene scale.
    """
    cfg = MAPPING_CONFIG
    return SplatModel.param_rows(
        1,
        centers=cfg.lr_centers * scene_scale,
        raw_t_alpha=cfg.lr_tangents,
        raw_t_beta=cfg.lr_tangents,
        log_scales=cfg.lr_log_scales,
        logit_opacity=cfg.lr_logit_opacity,
    )[0]


@dataclass
class LocalMap:
    """Active splat model, its keyframes and the shared optimizer state.

    ``keyframe_render`` is the reset check's render of a joining keyframe,
    as ``(keyframe, model.version, render)``; :func:`add_keyframe` uses it
    for that keyframe and that model version, and clears it.  ``coverage``
    is the last reset check's coverage, ``None`` when it made no render.
    """

    model: SplatModel
    keyframes: list[Keyframe] = field(default_factory=list)
    scene_scale: float = 1.0
    optimizer: _Adam | None = None
    keyframe_render: tuple[Keyframe, int, RenderOutput] | None = None
    coverage: float | None = None

    @classmethod
    def start(cls, kf: Keyframe) -> "LocalMap":
        """Open an empty map scaled to ``kf``'s ranges; :func:`add_keyframe` then
        seeds it from ``kf``, its first keyframe."""
        ranges = kf.range_image.range[kf.range_image.valid]
        scale = float(np.median(ranges)) if ranges.size else 1.0
        return cls(SplatModel(), [], max(scale, 1e-3), _Adam(0))


def add_keyframe(lmap: LocalMap, kf: Keyframe, rng: np.random.Generator) -> dict:
    """Append a keyframe: prune dead splats, then densify where it is unexplained.

    The first keyframe of a map seeds splats at every valid pixel (up to
    the spawn cap).  Opacities are never reset here, only pruned.  The
    reset check's render of ``kf`` stands in for a new one while the model
    is unchanged.  Returns the counts ``pruned`` and ``spawned``.
    """
    stats = {"pruned": 0, "spawned": 0}
    shared, lmap.keyframe_render = lmap.keyframe_render, None
    if len(lmap.model) == 0:
        mask = kf.range_image.valid.copy()
    else:
        if shared is not None and shared[0] is kf and shared[1] == lmap.model.version:
            render = shared[2]
        else:
            render, _ = rasterize_forward(kf.camera, kf.pose, lmap.model, normals=False,
                                          mask=kf.range_image.valid)
        mask = densify_mask(render, kf)
        keep = lmap.model.opacities >= MAPPING_CONFIG.prune_opacity
        if not keep.all():
            stats["pruned"] = lmap.model.prune(keep)
            lmap.optimizer.prune(keep)
    before = len(lmap.model)
    stats["spawned"] = spawn_splats(lmap.model, kf, mask, rng)
    lmap.optimizer.grow(len(lmap.model) - before)
    lmap.keyframes.append(kf)
    return stats


def sample_keyframe_index(n: int, p: float, rng: np.random.Generator) -> int:
    """Truncated geometric draw over keyframe ages (0 = most recent).

    Returns an index into the keyframe list (n-1 is the newest).
    """
    if n <= 0:
        raise GeometryError("no keyframes to sample")
    ages = np.arange(n)
    w = p * (1.0 - p) ** ages
    w /= w.sum()
    age = int(rng.choice(n, p=w))
    return n - 1 - age


def refine(lmap: LocalMap, iters: int, rng: np.random.Generator) -> list[dict[str, float]]:
    """Adam refinement over randomly sampled keyframes.

    Each iteration binds the mapping loss to one keyframe, renders it
    there at the keyframe's measured pixels while taking the loss's
    gradient in the same pass, and steps every column of the model's
    parameters, then clamps scales into ``[scale_floor, 10 * scale_cap]``.
    Returns one entry per iteration: the weighted ``total`` and the
    unweighted ``range``, ``opacity``, ``normal`` and ``scale`` terms, all
    before the step.
    """
    losses: list[dict[str, float]] = []
    if len(lmap.model) == 0 or not lmap.keyframes:
        return losses
    cfg = MAPPING_CONFIG
    lrs = _learning_rates(lmap.scene_scale)
    lo = np.log(cfg.scale_floor)
    hi = np.log(10.0 * cfg.scale_cap)
    for _ in range(iters):
        kf = lmap.keyframes[sample_keyframe_index(len(lmap.keyframes), cfg.kf_sample_p, rng)]
        ml = mapping_loss(lmap.model, kf)
        render, rec = rasterize_forward(kf.camera, kf.pose, lmap.model,
                                        pixel_grads=ml.pixel_grads, mask=kf.range_image.valid)
        grads = rasterize_backward(lmap.model, rec)
        grads += ml.d_params
        lmap.optimizer.step(lmap.model, grads, lrs)
        np.clip(lmap.model.log_scales, lo, hi, out=lmap.model.log_scales)
        losses.append(ml.terms(render))
    return losses

