"""Exception types shared across the package."""


class SplatScanError(Exception):
    """Base class for errors raised by this package."""


class GeometryError(SplatScanError, ValueError):
    """Invalid geometric input (empty cloud, zero vector, bad camera)."""


class IngestionError(SplatScanError, ValueError):
    """Scan, model, trajectory or config file could not be parsed."""


class RegistrationError(SplatScanError, RuntimeError):
    """Scan-to-map alignment failed outright (no residuals, singular system)."""


class EvaluationError(SplatScanError, ValueError):
    """Metric inputs are unusable (no timestamp overlap, empty clouds)."""


class ExportError(SplatScanError, RuntimeError):
    """Map export produced nothing (no keyframes, no confident pixels)."""
