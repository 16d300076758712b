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
through the origin: the vertical plane ``h_x = (sin az, -cos az, 0)`` and
``h_y = h_x x v``.  Both come from the pixel's angles, so the rays at the
poles, which have no ``v x z``, get their planes too.  The camera computes
all three once (:attr:`SphericalCamera.pixel_rays`) for every reader.
Surface normals are unit, in the sensor frame of those rays, and face the
sensor, ``n . ray <= 0``, by one rule: :func:`facing_sensor`.

Images are plain arrays with one encoding of "nothing here".  A range
image is ``(H, W)`` meters along the pixel rays, 0 at a pixel without a
return, so ``D > 0`` is its mask.  A normal image is ``(H, W, 3)``, and a
pixel without a normal reads ``(0, 0, 0)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GeometryError

__all__ = [
    "SphericalCamera",
    "spherical_coords",
    "ray_direction",
    "estimate_camera",
    "build_range_image",
    "smooth_range_image",
    "shift_image",
    "range_image_normals",
    "facing_sensor",
]

_MIN_RANGE = 1e-9
_SMOOTH_SIZE = 3  # median window of smooth_range_image, pixels a side


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

    @cached_property
    def pixel_rays(self) -> np.ndarray:
        """(3, H, W, 3): ``h_x``, ``h_y`` and the unit ray ``v`` of every pixel.

        ``h_x = (sin az, -cos az, 0)`` from the pixel's azimuth is the
        vertical plane of the ray, ``(v x z)/|v x z|``, and also its limit
        at the poles, so every ray has its planes, the poles' included.
        ``h_y = h_x x v`` completes the orthonormal pair meeting in ``v``.
        The trigonometry runs once per column and once per row.
        """
        az = (np.arange(self.width, dtype=float) - self.cx) / self.fx
        el = (np.arange(self.height, dtype=float)[:, None] - self.cy) / self.fy
        sin_az, cos_az, cos_el = np.sin(az), np.cos(az), np.cos(el)
        rays = np.empty((3, self.height, self.width, 3))
        rays[0] = np.stack([sin_az, -cos_az, np.zeros_like(az)], axis=-1)
        rays[2] = np.stack(np.broadcast_arrays(cos_el * cos_az, cos_el * sin_az, np.sin(el)), -1)
        rays[1] = np.cross(rays[0], rays[2])
        return rays

    @property
    def pixel_directions(self) -> np.ndarray:
        """(H, W, 3) unit ray direction of every pixel, a view of :attr:`pixel_rays`."""
        return self.pixel_rays[2]


def estimate_camera(points: np.ndarray, width: int, height: int) -> SphericalCamera:
    """Fit a camera to a cloud: bounds are the cloud's angular extremes.

    Points closer than 1e-9 to the origin are ignored.  Raises
    :class:`GeometryError` when the cloud is not (N, 3), when no usable
    points remain or when it has zero angular extent along either axis.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3:
        raise GeometryError(f"a cloud of shape {p.shape} is not (N, 3)")
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


def build_range_image(cam: SphericalCamera, points: np.ndarray) -> np.ndarray:
    """Project a sensor-frame cloud into an ``(H, W)`` range image; on pixel
    collisions the nearest point wins.

    Points at the origin or projecting outside the grid are dropped, so a
    pixel that a point reached is positive and every other pixel reads 0.
    A cloud that is not (N, 3) raises :class:`GeometryError`.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3:
        raise GeometryError(f"a cloud of shape {p.shape} is not (N, 3)")
    r = np.linalg.norm(p, axis=1)
    keep = r > _MIN_RANGE
    p, r = p[keep], r[keep]
    cols, rows, ok = cam.pixel_of(p)
    cols, rows, r = cols[ok], rows[ok], r[ok]
    img = np.full((cam.height, cam.width), np.inf)
    np.minimum.at(img, (rows, cols), r)
    img[np.isinf(img)] = 0.0
    return img


def smooth_range_image(D: np.ndarray, wrap: bool = False) -> np.ndarray:
    """Range image ``D`` with its positive ranges median-filtered over
    ``_SMOOTH_SIZE`` windows; pixels without a range stay 0.

    Pixels without a range are excluded from every window (they enter as
    +inf); a pixel whose window is mostly empty keeps its original value.
    Past the image's edge, windows repeat the edge row, and the edge column
    too unless ``wrap``, where columns wrap across the azimuth seam.
    Meant as a preprocessing step for normal estimation, where per-pixel
    range noise turns into large orientation noise.
    """
    valid = D > 0
    filled = np.where(valid, D, np.inf)
    k = _SMOOTH_SIZE // 2
    filled = np.pad(filled, ((k, k), (0, 0)), mode="edge")
    filled = np.pad(filled, ((0, 0), (k, k)), mode="wrap" if wrap else "edge")
    windows = sliding_window_view(filled, (_SMOOTH_SIZE, _SMOOTH_SIZE))
    sm = np.median(windows, axis=(-2, -1))
    return np.where(valid & np.isfinite(sm), sm, D)


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


def facing_sensor(normals: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """(..., 3) ``normals`` made unit with ``n . ray <= 0`` along unit view ``rays``;
    a normal too short to normalize faces the sensor head on (``-ray``)."""
    n = np.where(np.linalg.norm(normals, axis=-1, keepdims=True) > 1e-12, normals, -rays)
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    return np.where(np.sum(n * rays, axis=-1, keepdims=True) > 0, -n, n)


def range_image_normals(cam: SphericalCamera, D: np.ndarray) -> np.ndarray:
    """Central-difference sensor-frame normals of range image ``D``, facing
    the sensor, as an ``(H, W, 3)`` array.

    A pixel gets a unit normal only when it and all four neighbors have a
    range and span a plane; the horizontal neighbors wrap around the azimuth
    seam for full-circle cameras.  :func:`facing_sensor` orients it.  Every
    other pixel reads ``(0, 0, 0)``, so ``normals.any(axis=-1)`` is the mask
    of the pixels that have one.
    """
    dirs = cam.pixel_directions
    pts = D[..., None] * dirs
    wrap = cam.full_circle

    def around(a, step, axis):
        return shift_image(a, step, axis, wrap)

    valid = D > 0
    ok = valid.copy()
    for step, axis in ((1, 0), (-1, 0), (1, 1), (-1, 1)):
        ok &= around(valid, step, axis)
    dx = around(pts, -1, 1) - around(pts, 1, 1)
    dy = around(pts, -1, 0) - around(pts, 1, 0)
    n = np.cross(dx, dy)
    ok &= np.linalg.norm(n, axis=-1) > 1e-12
    return np.where(ok[..., None], facing_sensor(n, dirs), 0.0)
