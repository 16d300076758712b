"""LiDAR odometry and mapping with 2D Gaussian splats on spherical images."""

from .errors import (
    EvaluationError,
    ExportError,
    GeometryError,
    IngestionError,
    RegistrationError,
    SplatScanError,
)
from .evaluation import (
    ReconMetrics,
    RPEResult,
    Trajectory,
    reconstruction_metrics,
    relative_pose_error,
    voxel_downsample,
)
from .geometry import (
    RangeImage,
    SphericalCamera,
    build_range_image,
    estimate_camera,
    range_image_normals,
    smooth_range_image,
)
from .mapping import (
    Keyframe,
    LocalMap,
    add_keyframe,
    make_keyframe,
    refine,
    should_reset_local_map,
)
from .pipeline import Pipeline, RunConfig, export_oriented_points
from .rasterizer import RenderOutput, rasterize_forward
from .registration import RegistrationResult, register
from .se3 import SE3Pose
from .splats import SplatModel

__version__ = "0.1.0"

__all__ = [
    "SplatScanError",
    "GeometryError",
    "IngestionError",
    "RegistrationError",
    "EvaluationError",
    "ExportError",
    "SphericalCamera",
    "RangeImage",
    "build_range_image",
    "smooth_range_image",
    "range_image_normals",
    "estimate_camera",
    "SE3Pose",
    "SplatModel",
    "RenderOutput",
    "rasterize_forward",
    "RegistrationResult",
    "register",
    "Keyframe",
    "LocalMap",
    "make_keyframe",
    "add_keyframe",
    "refine",
    "should_reset_local_map",
    "Trajectory",
    "RPEResult",
    "relative_pose_error",
    "ReconMetrics",
    "reconstruction_metrics",
    "voxel_downsample",
    "Pipeline",
    "RunConfig",
    "export_oriented_points",
    "__version__",
]
