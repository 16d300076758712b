"""Spherical projection geometry and range images.

The sensor's optical frame is x-forward, y-left, z-up.  A point maps to
image coordinates through azimuth/elevation angles:

    azimuth   = atan2(y, x)          (0 along +x, positive toward +y)
    elevation = atan2(z, hypot(x,y)) (positive toward +z)

    u = fx * azimuth   + cx
    v = fy * elevation + cy

with negative focal lengths so that azimuth decreases left-to-right and
elevation decreases top-to-bottom (north pole at the top of the image).
The intrinsics are fixed by the image size and the angular bounds:

    fx = -(W - 1) / (az_max - az_min)
    fy = -(H - 1) / (el_max - el_min)
    cx = -fx * az_max
    cy = -fy * el_max

so the bounds land on pixel centres: az_max on column 0, az_min on
column W - 1, el_max on row 0 and el_min on row H - 1.  Pixel (col, row)
samples the ray at image coordinates (col, row) exactly.

Each pixel ray ``v`` is also the intersection of two orthonormal planes
through the origin (:attr:`SphericalCamera.pixel_ray_planes`): the
vertical plane ``h_x = (sin az, -cos az, 0)`` and ``h_y = h_x x v``.
Both come from the pixel's angles, so the rays at the poles, which have
no ``v x z``, get their planes too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage

from .errors import GeometryError

__all__ = [
    "SphericalCamera",
    "RangeImage",
    "NormalImage",
    "spherical_coords",
    "ray_direction",
    "estimate_camera",
    "build_range_image",
    "smooth_range_image",
    "shift_image",
    "range_image_normals",
]

_MIN_RANGE = 1e-9


def spherical_coords(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth and elevation (radians) of one point or an (..., 3) array."""
    p = np.asarray(points, dtype=float)
    az = np.arctan2(p[..., 1], p[..., 0])
    el = np.arctan2(p[..., 2], np.hypot(p[..., 0], p[..., 1]))
    return az, el


def ray_direction(azimuth: np.ndarray, elevation: np.ndarray) -> np.ndarray:
    """Unit direction for given angles; inverse of :func:`spherical_coords`."""
    az = np.asarray(azimuth, dtype=float)
    el = np.asarray(elevation, dtype=float)
    ce = np.cos(el)
    return np.stack([ce * np.cos(az), ce * np.sin(az), np.sin(el)], axis=-1)


@dataclass(eq=False)
class SphericalCamera:
    """Spherical projection onto a W x H grid over fixed angular bounds."""

    width: int
    height: int
    az_min: float
    az_max: float
    el_min: float
    el_max: float

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise GeometryError("image must be at least 2 x 2")
        if not (self.az_max > self.az_min and self.el_max > self.el_min):
            raise GeometryError("angular bounds must have positive extent")
        if self.el_min < -np.pi / 2 - 1e-9 or self.el_max > np.pi / 2 + 1e-9:
            raise GeometryError("elevation bounds outside [-pi/2, pi/2]")

    @property
    def fov_h(self) -> float:
        return self.az_max - self.az_min

    @property
    def fov_v(self) -> float:
        return self.el_max - self.el_min

    @property
    def fx(self) -> float:
        return -(self.width - 1) / self.fov_h

    @property
    def fy(self) -> float:
        return -(self.height - 1) / self.fov_v

    @property
    def cx(self) -> float:
        return -self.fx * self.az_max

    @property
    def cy(self) -> float:
        return -self.fy * self.el_max

    @property
    def full_circle(self) -> bool:
        """True when the azimuth span plus one column pitch closes the circle."""
        pitch = self.fov_h / (self.width - 1)
        return self.fov_h + pitch >= 2.0 * np.pi - 0.5 * pitch

    def angles_of(self, uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        uv = np.asarray(uv, dtype=float)
        az = (uv[..., 0] - self.cx) / self.fx
        el = (uv[..., 1] - self.cy) / self.fy
        return az, el

    def project(self, points: np.ndarray) -> np.ndarray:
        """Continuous (u, v) image coordinates of (..., 3) points."""
        az, el = spherical_coords(points)
        u = self.fx * az + self.cx
        v = self.fy * el + self.cy
        return np.stack([u, v], axis=-1)

    def pixel_of(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest-pixel (col, row) of points plus an in-bounds mask.

        Rounding is half-up, so u = 3.5 lands in column 4.
        """
        uv = self.project(points)
        cols = np.floor(uv[..., 0] + 0.5).astype(int)
        rows = np.floor(uv[..., 1] + 0.5).astype(int)
        ok = (cols >= 0) & (cols < self.width) & (rows >= 0) & (rows < self.height)
        return cols, rows, ok

    def back_project(self, uv: np.ndarray, ranges: np.ndarray) -> np.ndarray:
        """Points at the given ranges along the rays of (..., 2) pixel coords."""
        az, el = self.angles_of(uv)
        return np.asarray(ranges, dtype=float)[..., None] * ray_direction(az, el)

    @cached_property
    def pixel_grid(self) -> np.ndarray:
        """(H, W, 2) image coordinates of every pixel's sample: (col, row)."""
        u = np.arange(self.width, dtype=float)
        v = np.arange(self.height, dtype=float)
        uu, vv = np.meshgrid(u, v)
        return np.stack([uu, vv], axis=-1)

    @cached_property
    def pixel_directions(self) -> np.ndarray:
        """(H, W, 3) unit ray direction of every pixel."""
        az, el = self.angles_of(self.pixel_grid)
        return ray_direction(az, el)

    @cached_property
    def pixel_ray_planes(self) -> tuple[np.ndarray, np.ndarray]:
        """(h_x, h_y): two orthonormal planes through the origin meeting in each pixel ray.

        ``h_x = (sin az, -cos az, 0)`` from the pixel's azimuth is the
        vertical plane of the ray, ``(v x z)/|v x z|``, and also its limit
        at the poles, so every ray has its planes, the poles' included.
        ``h_y = h_x x v`` completes the pair.
        """
        az, _ = self.angles_of(self.pixel_grid)
        hx = np.stack([np.sin(az), -np.cos(az), np.zeros_like(az)], axis=-1)
        return hx, np.cross(hx, self.pixel_directions)


def estimate_camera(points: np.ndarray, width: int, height: int) -> SphericalCamera:
    """Fit a camera to a cloud: bounds are the cloud's angular extremes.

    Points closer than 1e-9 to the origin are ignored.  Raises
    :class:`GeometryError` when no usable points remain or the cloud has
    zero angular extent along either axis.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    norms = np.linalg.norm(p, axis=1)
    p = p[norms > _MIN_RANGE]
    if p.shape[0] == 0:
        raise GeometryError("no usable points for camera estimation")
    az, el = spherical_coords(p)
    az_min, az_max = float(az.min()), float(az.max())
    el_min, el_max = float(el.min()), float(el.max())
    if az_max - az_min < 1e-12 or el_max - el_min < 1e-12:
        raise GeometryError("cloud has zero angular extent")
    return SphericalCamera(width, height, az_min, az_max, el_min, el_max)


@dataclass
class RangeImage:
    """Per-pixel range in meters; ``valid`` marks pixels that saw a point."""

    range: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.range = np.asarray(self.range, dtype=float)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.range.shape != self.valid.shape or self.range.ndim != 2:
            raise GeometryError("range and valid must be matching H x W arrays")

    @property
    def shape(self) -> tuple[int, int]:
        return self.range.shape


@dataclass
class NormalImage:
    """Per-pixel unit surface normal in the sensor frame."""

    normals: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.normals = np.asarray(self.normals, dtype=float)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.normals.ndim != 3 or self.normals.shape[2] != 3:
            raise GeometryError("normals must be H x W x 3")
        if self.normals.shape[:2] != self.valid.shape:
            raise GeometryError("normals and valid shapes disagree")


def build_range_image(cam: SphericalCamera, points: np.ndarray) -> RangeImage:
    """Project a sensor-frame cloud; on pixel collisions the nearest point wins.

    Points at the origin or projecting outside the grid are dropped.
    Empty pixels get range 0 and are invalid.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    r = np.linalg.norm(p, axis=1)
    keep = r > _MIN_RANGE
    p, r = p[keep], r[keep]
    cols, rows, ok = cam.pixel_of(p)
    cols, rows, r = cols[ok], rows[ok], r[ok]
    img = np.full((cam.height, cam.width), np.inf)
    np.minimum.at(img, (rows, cols), r)
    valid = np.isfinite(img)
    img[~valid] = 0.0
    return RangeImage(img, valid)


def smooth_range_image(rimg: RangeImage, wrap: bool = False, size: int = 3) -> RangeImage:
    """Median-filter the valid ranges; the valid mask is unchanged.

    Invalid pixels are excluded from every window (they enter as +inf);
    a pixel whose window is mostly invalid keeps its original value.
    Meant as a preprocessing step for normal estimation, where per-pixel
    range noise turns into large orientation noise.
    """
    filled = np.where(rimg.valid, rimg.range, np.inf)
    k = size // 2
    if wrap and k:
        filled = np.pad(filled, ((0, 0), (k, k)), mode="wrap")
    sm = ndimage.median_filter(filled, size=size, mode="nearest")
    if wrap and k:
        sm = sm[:, k:-k]
    out = np.where(rimg.valid & np.isfinite(sm), sm, rimg.range)
    return RangeImage(out, rimg.valid.copy())


def shift_image(a: np.ndarray, step: int, axis: int, wrap: bool) -> np.ndarray:
    """``a`` moved ``step`` pixels along ``axis``: ``out[i] = a[i - step]``.

    The neighbour rule of every range-image stencil: rows never wrap;
    columns wrap across the azimuth seam when ``wrap`` (full-circle
    cameras).  Pixels shifted in from outside the image are zero (False).
    """
    out = np.roll(a, step, axis)
    if not (wrap and axis == 1):
        edge = [slice(None)] * a.ndim
        edge[axis] = slice(step, None) if step < 0 else slice(0, step)
        out[tuple(edge)] = 0
    return out


def range_image_normals(cam: SphericalCamera, rimg: RangeImage) -> NormalImage:
    """Central-difference surface normals of a range image.

    A pixel gets a normal only when all four neighbors are valid; the
    horizontal neighbors wrap around the azimuth seam for full-circle
    cameras.  Normals are unit length and oriented toward the sensor
    (negative dot product with the viewing ray).
    """
    dirs = cam.pixel_directions
    pts = rimg.range[..., None] * dirs
    wrap = cam.full_circle

    def around(a, step, axis):
        return shift_image(a, step, axis, wrap)

    ok = rimg.valid.copy()
    for step, axis in ((1, 0), (-1, 0), (1, 1), (-1, 1)):
        ok &= around(rimg.valid, step, axis)
    dx = around(pts, -1, 1) - around(pts, 1, 1)
    dy = around(pts, -1, 0) - around(pts, 1, 0)
    n = np.cross(dx, dy)
    norm = np.linalg.norm(n, axis=-1)
    ok &= norm > 1e-12
    n = np.divide(
        n, np.maximum(norm, 1e-12)[..., None], out=np.zeros_like(n), where=ok[..., None]
    )
    # orient toward the sensor: flip where the normal points along the ray
    flip = np.sum(n * dirs, axis=-1) > 0
    n[flip] = -n[flip]
    n[~ok] = 0.0
    return NormalImage(n, ok)
