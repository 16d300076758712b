"""Analytic scenes and simulated spherical scans for testing.

Primitives (finite planes, spheres, axis-aligned boxes) support
closed-form raycasting, which gives each ray's exact range, and uniform
surface sampling, which gives points with their exact normals.  Scans
come from the former; ground-truth point sets and seeded maps from the
latter.

Scan grid convention: with image width W the azimuth of column j is
``pi - (j+1)*2*pi/W`` (columns sweep from just under +pi down to -pi)
and rows span ``linspace(el_max, el_min, H)``.  This guarantees that
every simulated point re-projects inside the pixel grid of a camera
estimated from the cloud itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IngestionError
from .evaluation import Trajectory
from .geometry import ray_direction
from .se3 import SE3Pose

__all__ = [
    "Plane",
    "Sphere",
    "Box",
    "Scene",
    "ScanSpec",
    "SynthScan",
    "raycast_scan",
    "make_trajectory",
    "room_with_boxes",
    "load_scene",
    "save_scene",
]

_EPS = 1e-9


@dataclass
class Plane:
    """Finite rectangle: origin plus two orthonormal in-plane axes."""

    origin: np.ndarray
    e_u: np.ndarray
    e_v: np.ndarray
    half_u: float
    half_v: float

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        self.e_u = np.asarray(self.e_u, dtype=float).reshape(3)
        self.e_v = np.asarray(self.e_v, dtype=float).reshape(3)
        self.e_u = self.e_u / np.linalg.norm(self.e_u)
        self.e_v = self.e_v - (self.e_u @ self.e_v) * self.e_u
        self.e_v = self.e_v / np.linalg.norm(self.e_v)
        self.half_u = float(self.half_u)
        self.half_v = float(self.half_v)

    @property
    def normal(self) -> np.ndarray:
        return np.cross(self.e_u, self.e_v)

    def area(self) -> float:
        return 4.0 * self.half_u * self.half_v

    def raycast(self, origins: np.ndarray, dirs: np.ndarray):
        n = self.normal
        denom = dirs @ n
        num = (self.origin - origins) @ n
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(np.abs(denom) > _EPS, num / denom, np.inf)
        hit = origins + t[:, None] * dirs
        lu = (hit - self.origin) @ self.e_u
        lv = (hit - self.origin) @ self.e_v
        ok = (t > _EPS) & (np.abs(lu) <= self.half_u) & (np.abs(lv) <= self.half_v)
        return np.where(ok, t, np.inf)

    def surface_points(self, n: int, rng: np.random.Generator):
        u = rng.uniform(-self.half_u, self.half_u, size=n)
        v = rng.uniform(-self.half_v, self.half_v, size=n)
        pts = self.origin + u[:, None] * self.e_u + v[:, None] * self.e_v
        return pts, np.broadcast_to(self.normal, (n, 3)).copy()


@dataclass
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(3)
        self.radius = float(self.radius)

    def area(self) -> float:
        return 4.0 * np.pi * self.radius**2

    def raycast(self, origins: np.ndarray, dirs: np.ndarray):
        oc = origins - self.center
        b = np.sum(oc * dirs, axis=1)
        c = np.sum(oc * oc, axis=1) - self.radius**2
        disc = b * b - c
        sq = np.sqrt(np.maximum(disc, 0.0))
        t0 = -b - sq
        t1 = -b + sq
        t = np.where(t0 > _EPS, t0, np.where(t1 > _EPS, t1, np.inf))
        return np.where(disc >= 0, t, np.inf)

    def surface_points(self, n: int, rng: np.random.Generator):
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return self.center + self.radius * v, v.copy()


@dataclass
class Box:
    """Axis-aligned box; rays starting inside hit the exit face."""

    center: np.ndarray
    half_sizes: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(3)
        self.half_sizes = np.asarray(self.half_sizes, dtype=float).reshape(3)

    def area(self) -> float:
        a, b, c = self.half_sizes * 2.0
        return 2.0 * (a * b + b * c + a * c)

    def raycast(self, origins: np.ndarray, dirs: np.ndarray):
        lo = self.center - self.half_sizes
        hi = self.center + self.half_sizes
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / dirs
            t1 = (lo - origins) * inv
            t2 = (hi - origins) * inv
        tn = np.where(np.isnan(t1), -np.inf, np.minimum(t1, t2))
        tf = np.where(np.isnan(t2), np.inf, np.maximum(t1, t2))
        # for axes with zero direction the slab constrains nothing if the
        # origin lies between the faces, everything otherwise
        par = np.abs(dirs) < _EPS
        inside_slab = (origins >= lo) & (origins <= hi)
        tn = np.where(par, np.where(inside_slab, -np.inf, np.inf), tn)
        tf = np.where(par, np.where(inside_slab, np.inf, -np.inf), tf)
        t_near = tn.max(axis=1)
        t_far = tf.min(axis=1)
        t = np.where(t_near > _EPS, t_near, t_far)
        ok = (t_near <= t_far) & (t > _EPS) & np.isfinite(t)
        return np.where(ok, t, np.inf)

    def surface_points(self, n: int, rng: np.random.Generator):
        hx, hy, hz = self.half_sizes
        face_areas = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy])
        face_areas = face_areas * 4.0
        face = rng.choice(6, size=n, p=face_areas / face_areas.sum())
        u = rng.uniform(-1, 1, size=n)
        v = rng.uniform(-1, 1, size=n)
        pts = np.zeros((n, 3))
        normals = np.zeros((n, 3))
        for f in range(6):
            m = face == f
            ax = f // 2
            sg = 1.0 if f % 2 == 0 else -1.0
            others = [i for i in range(3) if i != ax]
            pts[m, ax] = sg * self.half_sizes[ax]
            pts[m, others[0]] = u[m] * self.half_sizes[others[0]]
            pts[m, others[1]] = v[m] * self.half_sizes[others[1]]
            normals[m, ax] = sg
        return self.center + pts, normals


@dataclass
class Scene:
    """A list of primitives raycast jointly (nearest hit wins)."""

    primitives: list = field(default_factory=list)

    def raycast(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Distance to the nearest hit along each ray; inf where none."""
        best_t = np.full(dirs.shape[0], np.inf)
        for prim in self.primitives:
            np.minimum(best_t, prim.raycast(origins, dirs), out=best_t)
        return best_t

    def surface_points(self, n: int, rng: np.random.Generator):
        """Area-weighted uniform samples over all primitive surfaces."""
        areas = np.array([p.area() for p in self.primitives])
        counts = rng.multinomial(n, areas / areas.sum())
        pts, normals = [], []
        for prim, k in zip(self.primitives, counts):
            if k:
                p, nm = prim.surface_points(int(k), rng)
                pts.append(p)
                normals.append(nm)
        return np.concatenate(pts), np.concatenate(normals)

    def visible_surface_points(
        self, n: int, viewpoints: np.ndarray, rng: np.random.Generator
    ):
        """Surface samples kept only if unoccluded from some viewpoint."""
        pts, normals = self.surface_points(n, rng)
        viewpoints = np.asarray(viewpoints, dtype=float).reshape(-1, 3)
        seen = np.zeros(pts.shape[0], dtype=bool)
        for vp in viewpoints:
            rest = ~seen
            if not rest.any():
                break
            q = pts[rest]
            vec = q - vp
            dist = np.linalg.norm(vec, axis=1)
            good = dist > _EPS
            dirs = np.zeros_like(vec)
            dirs[good] = vec[good] / dist[good, None]
            t = self.raycast(np.broadcast_to(vp, q.shape).copy(), dirs)
            vis = good & (t >= dist - 1e-4)
            idx = np.nonzero(rest)[0]
            seen[idx[vis]] = True
        return pts[seen], normals[seen]


@dataclass
class ScanSpec:
    """Grid, range limit and noise settings of a simulated scan."""

    width: int = 256
    height: int = 32
    el_min: float = float(-np.deg2rad(16.0))
    el_max: float = float(np.deg2rad(14.0))
    max_range: float = 100.0
    noise_sigma: float = 0.0
    dropout: float = 0.0


@dataclass
class SynthScan:
    """Simulated scan: the sensor-frame points of its valid returns."""

    cloud: np.ndarray


def _grid_angles(spec: ScanSpec) -> tuple[np.ndarray, np.ndarray]:
    h = 2.0 * np.pi / spec.width
    az = np.pi - h * (np.arange(spec.width) + 1.0)
    el = np.linspace(spec.el_max, spec.el_min, spec.height)
    return az, el


def raycast_scan(
    scene: Scene,
    pose: SE3Pose,
    spec: ScanSpec | None = None,
    rng: np.random.Generator | None = None,
) -> SynthScan:
    """Simulate one scan of ``scene`` from ``pose`` (sensor in world).

    Range noise is Gaussian along the ray; ``dropout`` is the probability
    of losing an otherwise valid return.  With zero noise and dropout the
    cloud back-projects exactly onto the scene surfaces.
    """
    spec = spec or ScanSpec()
    rng = rng or np.random.default_rng(0)
    az, el = _grid_angles(spec)
    azg, elg = np.meshgrid(az, el)
    dirs_s = ray_direction(azg.ravel(), elg.ravel())
    dirs_w = dirs_s @ pose.rotation.T
    origins = np.broadcast_to(pose.translation, dirs_w.shape).copy()
    t = scene.raycast(origins, dirs_w)

    valid = np.isfinite(t) & (t <= spec.max_range)
    r = np.where(valid, t, 0.0)
    if spec.noise_sigma > 0:
        r = r + np.where(valid, rng.normal(0.0, spec.noise_sigma, size=r.shape), 0.0)
        r = np.maximum(r, 1e-3)
    if spec.dropout > 0:
        valid &= rng.random(size=r.shape) >= spec.dropout
    r = np.where(valid, r, 0.0)
    return SynthScan((r[valid, None] * dirs_s[valid]).reshape(-1, 3))


def make_trajectory(kind: str, length: float, steps: int, dt: float = 0.1) -> Trajectory:
    """Simple planar trajectories: 'line', 'arc' or 'figure8'.

    ``length`` is the total path length in meters; heading follows the
    direction of travel.
    """
    if steps < 1:
        raise IngestionError("trajectory needs at least one step")
    stamps = dt * np.arange(steps)

    def rotz(a):
        c, s = np.cos(a), np.sin(a)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    poses = []
    if kind == "line":
        for i in range(steps):
            x = length * i / max(steps - 1, 1)
            poses.append(SE3Pose(np.eye(3), [x, 0.0, 0.0]))
    elif kind == "arc":
        sweep = np.pi / 2.0
        radius = length / sweep
        for i in range(steps):
            a = sweep * i / max(steps - 1, 1)
            t = [radius * np.sin(a), radius * (1.0 - np.cos(a)), 0.0]
            poses.append(SE3Pose(rotz(a), t))
    elif kind == "figure8":
        a_par = np.linspace(0.0, 2.0 * np.pi, steps, endpoint=False)
        x = np.sin(a_par)
        y = np.sin(a_par) * np.cos(a_par)
        # normalize the unit-amplitude curve's arc length to the request
        fine = np.linspace(0.0, 2.0 * np.pi, 4096)
        fx, fy = np.sin(fine), np.sin(fine) * np.cos(fine)
        unit_len = float(np.sum(np.hypot(np.diff(fx), np.diff(fy))))
        amp = length / unit_len
        x, y = amp * x, amp * y
        dx = np.gradient(x)
        dy = np.gradient(y)
        for i in range(steps):
            poses.append(SE3Pose(rotz(np.arctan2(dy[i], dx[i])), [x[i], y[i], 0.0]))
    else:
        raise IngestionError(f"unknown trajectory kind: {kind!r}")
    return Trajectory(stamps, poses)


def room_with_boxes(
    size: float = 12.0,
    height: float = 4.0,
    n_boxes: int = 4,
    seed: int = 0,
) -> Scene:
    """A room with a few boxes and a sphere scattered inside."""
    rng = np.random.default_rng(seed)
    prims: list = [Box([0.0, 0.0, 0.0], [size / 2, size / 2, height / 2])]
    for _ in range(n_boxes):
        c = rng.uniform(-size / 3, size / 3, size=2)
        half = rng.uniform(0.3, 0.9, size=3)
        prims.append(Box([c[0], c[1], -height / 2 + half[2]], half))
    prims.append(
        Sphere([rng.uniform(-size / 4, size / 4), rng.uniform(-size / 4, size / 4), 0.0], 0.6)
    )
    return Scene(prims)


def save_scene(path, scene: Scene) -> None:
    """Write a scene as one primitive per line (see :func:`load_scene`)."""
    lines = ["# synthetic scene"]
    for p in scene.primitives:
        if isinstance(p, Plane):
            vals = [*p.origin, *p.e_u, *p.e_v, p.half_u, p.half_v]
            lines.append("plane " + " ".join(f"{v:.17g}" for v in vals))
        elif isinstance(p, Sphere):
            vals = [*p.center, p.radius]
            lines.append("sphere " + " ".join(f"{v:.17g}" for v in vals))
        elif isinstance(p, Box):
            vals = [*p.center, *p.half_sizes]
            lines.append("box " + " ".join(f"{v:.17g}" for v in vals))
        else:
            raise IngestionError(f"cannot serialize primitive {type(p).__name__}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_scene(path) -> Scene:
    """Parse a scene file: 'plane', 'sphere' or 'box' records.

    Formats (one per line, '#' comments):
      plane  ox oy oz  ux uy uz  vx vy vz  half_u half_v
      sphere cx cy cz  radius
      box    cx cy cz  hx hy hz
    """
    prims: list = []
    with open(path) as f:
        for ln, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            kind, vals = parts[0].lower(), parts[1:]
            try:
                v = [float(x) for x in vals]
            except ValueError as e:
                raise IngestionError(f"{path}:{ln}: bad number ({e})") from None
            if kind == "plane" and len(v) == 11:
                prims.append(Plane(v[0:3], v[3:6], v[6:9], v[9], v[10]))
            elif kind == "sphere" and len(v) == 4:
                prims.append(Sphere(v[0:3], v[3]))
            elif kind == "box" and len(v) == 6:
                prims.append(Box(v[0:3], v[3:6]))
            else:
                raise IngestionError(f"{path}:{ln}: unrecognized record {kind!r}")
    if not prims:
        raise IngestionError(f"{path}: no primitives found")
    return Scene(prims)
