"""File formats: scans, trajectories, models, float images and run reports.

Everything here is deliberately boring.  Scans arrive as raw float32
x,y,z,intensity records or as PLY; trajectories go out in the two common
text layouts; the model container is a small tagged binary holding the
splat parameter matrix; float images use the PFM convention so any viewer
that knows portable float maps can open them.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import GeometryError, IngestionError
from .evaluation import Trajectory
from .se3 import SE3Pose
from .splats import PARAMS_PER_SPLAT, SplatModel

__all__ = [
    "load_scan",
    "read_ply",
    "write_ply",
    "save_trajectory",
    "read_trajectory",
    "read_pose",
    "save_model",
    "load_model",
    "is_model_file",
    "write_pfm",
    "write_report",
]


# --- point clouds -----------------------------------------------------------


def load_scan(path) -> np.ndarray:
    """Load one scan as an (N, 3) float array, dropping non-finite rows.

    ``.bin`` files are raw little-endian float32 x,y,z,intensity records
    (the intensity channel is discarded); a size that is not a whole number
    of 16-byte records raises :class:`IngestionError`.  Anything else must
    be PLY, refused as :func:`read_ply` says.
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"scan file not found: {path}")
    suffix = path.suffix.lower()
    if suffix == ".bin":
        n_bytes = path.stat().st_size
        if n_bytes == 0:
            raise IngestionError(f"empty scan file: {path}")
        if n_bytes % 16 != 0:
            raise IngestionError(f"truncated scan file: {path} ({n_bytes} bytes)")
        pts = np.fromfile(path, dtype="<f4").reshape(-1, 4)[:, :3].astype(float)
    elif suffix == ".ply":
        pts, _ = read_ply(path)
    else:
        raise IngestionError(f"unknown scan format {suffix!r}: {path}")
    pts = pts[np.isfinite(pts).all(axis=1)]
    if pts.shape[0] == 0:
        raise IngestionError(f"no finite points in {path}")
    return pts


_PLY_DTYPES = {
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
    "uchar": "u1", "uint8": "u1",
    "char": "i1", "int8": "i1",
    "short": "i2", "ushort": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
}
_PLY_LINE_TOKENS = {"format": 2, "element": 3, "property": 3}  # fewest tokens per line


def _parse_ply_header(fh):
    line = fh.readline()
    if line.strip() != b"ply":
        raise IngestionError("not a PLY file")
    fmt = None
    count = None
    props = []
    in_vertex = False
    while True:
        line = fh.readline()
        if not line:
            raise IngestionError("unterminated PLY header")
        tok = line.decode("ascii", "replace").split()
        if not tok or tok[0] == "comment":
            continue
        if len(tok) < _PLY_LINE_TOKENS.get(tok[0], 0) or (
                tok[0] == "element" and not tok[2].isdecimal()):
            raise IngestionError(f"malformed PLY header line {' '.join(tok)!r}")
        if tok[0] == "format":
            fmt = tok[1]
        elif tok[0] == "element":
            in_vertex = tok[1] == "vertex"
            if in_vertex != (count is None):
                raise IngestionError("the vertex element must be the first PLY element")
            if in_vertex:
                count = int(tok[2])
        elif tok[0] == "property" and in_vertex:
            if tok[1] == "list":
                raise IngestionError("list properties unsupported in vertex element")
            if tok[1] not in _PLY_DTYPES:
                raise IngestionError(f"unsupported PLY property type {tok[1]!r}")
            if any(name == tok[2] for name, _ in props):
                raise IngestionError(f"PLY vertex property {tok[2]!r} appears twice")
            props.append((tok[2], _PLY_DTYPES[tok[1]]))
        elif tok[0] == "end_header":
            break
    if fmt not in ("ascii", "binary_little_endian"):
        raise IngestionError(f"unsupported PLY format {fmt!r}")
    return fmt, count, props


def _text_rows(lines: list[str], ncols: int, max_rows: int | None = None) -> np.ndarray:
    """Float rows of whitespace-separated text; ``(0, ncols)`` when it has none.

    ``np.loadtxt`` warns when its input holds no data row, so it is only
    called when there is one to read.
    """
    if max_rows == 0 or not any(
        line.strip() and not line.lstrip().startswith("#") for line in lines
    ):
        return np.zeros((0, ncols))
    try:
        return np.loadtxt(lines, dtype=float, max_rows=max_rows, ndmin=2)
    except ValueError as e:
        raise IngestionError(f"malformed numeric text: {e}") from None


def read_ply(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Vertex positions (and normals, when present) from an ASCII or
    little-endian binary PLY.

    Raises :class:`IngestionError` for a malformed header line, a vertex
    element that is not the first element, a list, unsupported or repeated
    vertex property, missing ``x``/``y``/``z``, or a body with fewer vertices
    than the header counts; a binary body's size is checked before it is read.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        fmt, count, props = _parse_ply_header(fh)
        names = [p[0] for p in props]
        for need in ("x", "y", "z"):
            if need not in names:
                raise IngestionError(f"PLY misses vertex property {need!r}")
        dtype = np.dtype([(n, "<" + t) for n, t in props])
        if fmt == "ascii":
            body = fh.read().decode("ascii", "replace").splitlines()
            # each vertex is one line: no more rows are read than there are lines
            rows = _text_rows(body, len(props), max_rows=min(count, len(body)))
            if rows.shape != (count, len(props)):
                raise IngestionError(f"truncated ASCII PLY: {path}")
            data = {n: rows[:, i] for i, (n, _) in enumerate(props)}
        else:
            # compared before reading, so a count beyond the file allocates nothing
            size = dtype.itemsize * count
            if size > path.stat().st_size - fh.tell():
                raise IngestionError(f"truncated binary PLY: {path}")
            buf = fh.read(size)
            rec = np.frombuffer(buf, dtype=dtype)
            data = {n: rec[n].astype(float) for n in names}
    pts = np.stack([data["x"], data["y"], data["z"]], axis=1)
    normals = None
    if all(n in data for n in ("nx", "ny", "nz")):
        normals = np.stack([data["nx"], data["ny"], data["nz"]], axis=1)
    return pts, normals


def write_ply(path, points: np.ndarray, normals: np.ndarray | None = None) -> None:
    """Write points (optionally with normals) as binary double-precision PLY.

    Double properties keep export → load round trips exact.
    """
    points = np.asarray(points, dtype="<f8").reshape(-1, 3)
    cols = [points]
    prop_names = ["x", "y", "z"]
    if normals is not None:
        normals = np.asarray(normals, dtype="<f8").reshape(-1, 3)
        if normals.shape[0] != points.shape[0]:
            raise IngestionError("normals and points disagree in length")
        cols.append(normals)
        prop_names += ["nx", "ny", "nz"]
    data = np.concatenate(cols, axis=1)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {points.shape[0]}"]
    header += [f"property double {n}" for n in prop_names]
    header.append("end_header")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(data).tobytes())


# --- trajectories -----------------------------------------------------------


def save_trajectory(traj: Trajectory, path, fmt: str = "tum") -> None:
    """Write a trajectory as TUM or KITTI text.

    TUM rows are "timestamp tx ty tz qx qy qz qw"; KITTI rows are the 12
    row-major values of the 3x4 pose matrix (timestamps implicit).  Both
    print with 17 significant digits so a reload reproduces the poses.
    """
    if len(traj) == 0:
        raise IngestionError("refusing to save an empty trajectory")
    lines = []
    if fmt == "tum":
        for t, pose in zip(traj.stamps, traj.poses):
            q = Rotation.from_matrix(pose.rotation).as_quat()  # x, y, z, w
            q = q / np.linalg.norm(q)
            vals = [t, *pose.translation, *q]
            lines.append(" ".join(f"{v:.17g}" for v in vals))
    elif fmt == "kitti":
        for pose in traj.poses:
            M = np.concatenate([pose.rotation, pose.translation[:, None]], axis=1)
            lines.append(" ".join(f"{v:.17g}" for v in M.ravel()))
    else:
        raise IngestionError(f"unknown trajectory format {fmt!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_pose(translation, rotation) -> SE3Pose:
    """The pose of a trajectory row or a ``--pose`` value.

    ``rotation`` is an ``(x, y, z, w)`` quaternion, normalized first, or the
    9 row-major entries of a matrix, snapped onto SO(3).  A non-finite
    translation, a quaternion with a non-finite entry or a norm too small to
    normalize, or a matrix whose determinant is not positive (a reflection,
    which no snap makes a rotation) raises :class:`IngestionError`.
    """
    t = np.array(translation, dtype=float)
    if not np.all(np.isfinite(t)):
        raise IngestionError(f"translation {t.tolist()} must be finite")
    rot = np.asarray(rotation, dtype=float)
    if rot.size == 9:
        R = rot.reshape(3, 3)
        if not np.linalg.det(R) > 0.0:
            raise IngestionError(f"rotation matrix {R.tolist()} has a determinant "
                                 "that is not positive")
        return SE3Pose(R, t).orthonormalized()
    if np.all(np.isfinite(rot)):
        try:
            return SE3Pose(Rotation.from_quat(rot).as_matrix(), t)
        except ValueError:
            pass
    raise IngestionError(f"quaternion {rot.tolist()} must be finite and nonzero")


def read_trajectory(path) -> tuple[Trajectory, str]:
    """Read a TUM or KITTI trajectory and its format, ``"tum"`` or ``"kitti"``,
    told apart by the column count (8 = TUM, 12 = KITTI; any other count
    raises :class:`IngestionError`).  KITTI rows carry no stamps: row ``i``
    is stamped ``i`` seconds."""
    rows = _text_rows(Path(path).read_text().splitlines(), 0)
    if rows.size == 0:
        raise IngestionError(f"empty trajectory file: {path}")
    fmt = {8: "tum", 12: "kitti"}.get(rows.shape[1])
    if fmt == "tum":
        stamps = rows[:, 0]
        poses = [read_pose(r[1:4], r[4:8]) for r in rows]
    elif fmt == "kitti":
        stamps = np.arange(rows.shape[0], dtype=float)
        poses = [read_pose(M[:, 3], M[:, :3]) for M in rows.reshape(-1, 3, 4)]
    else:
        raise IngestionError(f"cannot infer trajectory format from {rows.shape[1]} columns")
    return Trajectory(stamps, poses), fmt


# --- model container --------------------------------------------------------

_MODEL_MAGIC = b"SPLM"
_MODEL_VERSION = 2


def is_model_file(path) -> bool:
    """Whether ``path`` starts with the model file magic ``SPLM``."""
    with open(path, "rb") as fh:
        return fh.read(len(_MODEL_MAGIC)) == _MODEL_MAGIC


def save_model(path, model: SplatModel) -> None:
    """Persist a splat model exactly, as the parameters it optimizes.

    Layout: magic ``SPLM``, u32 version, u64 count, then ``model.params``
    as count rows of 12 little-endian float64 (the row layout of
    :class:`SplatModel`).
    """
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<IQ", _MODEL_VERSION, len(model)))
        fh.write(model.params.astype("<f8").tobytes())


def load_model(path) -> SplatModel:
    """Read a model written by :func:`save_model`.

    Files without the magic, other versions, truncated files, non-finite
    values and rows that decode to no splat raise :class:`IngestionError`.
    A row decodes when ``exp`` of its log scales is neither 0 nor inf and
    its raw tangents neither vanish, overflow nor are parallel.
    """
    data = Path(path).read_bytes()
    if data[:4] != _MODEL_MAGIC:
        raise IngestionError(f"not a splat model file: {path}")
    if len(data) < 16:
        raise IngestionError(f"truncated model file: {path}")
    ver, count = struct.unpack_from("<IQ", data, 4)
    if ver != _MODEL_VERSION:
        raise IngestionError(f"unsupported model version {ver}: {path}")
    if len(data) - 16 != count * PARAMS_PER_SPLAT * 8:
        raise IngestionError(f"model file size does not match its count: {path}")
    rows = np.frombuffer(data, dtype="<f8", offset=16).reshape(count, PARAMS_PER_SPLAT)
    if not np.isfinite(rows).all():
        raise IngestionError(f"non-finite values in model file: {path}")
    model = SplatModel(rows)
    with np.errstate(over="ignore"):
        scales = model.scales
        if not np.all((scales > 0.0) & (scales < np.inf)):
            raise IngestionError(f"log scales whose exp is 0 or inf in model file: {path}")
        try:
            model.tangent_frames()
        except GeometryError as e:
            raise IngestionError(f"{e} in model file: {path}") from None
    return model


# --- portable float maps ----------------------------------------------------


def write_pfm(path, image: np.ndarray) -> None:
    """Write a 1- or 3-channel float image as little-endian PFM.

    PFM stores rows bottom-up; a negative scale marks little-endian.
    """
    image = np.asarray(image, dtype="<f4")
    if image.ndim == 2:
        header = b"Pf"
    elif image.ndim == 3 and image.shape[2] == 3:
        header = b"PF"
    else:
        raise IngestionError(f"PFM needs HxW or HxWx3, got {image.shape}")
    with open(path, "wb") as fh:
        fh.write(header + b"\n")
        fh.write(f"{image.shape[1]} {image.shape[0]}\n".encode())
        fh.write(b"-1.0\n")
        fh.write(np.ascontiguousarray(image[::-1]).tobytes())


def write_report(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
