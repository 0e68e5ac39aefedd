"""Exception taxonomy shared across the pipeline stages."""


class PipelineError(Exception):
    """Base class for every error this package raises on purpose."""


class FormatError(PipelineError):
    """Malformed container or record (bad magic, truncated header, ...)."""


class UnsupportedFormatError(PipelineError):
    """Well-formed file using an encoding we do not handle."""


class TooShortError(PipelineError):
    """Input has fewer samples/frames than one analysis unit requires."""


class ShapeError(PipelineError):
    """Array dimensions are inconsistent with the operation."""


class LabelError(PipelineError):
    """Class labels are not the expected one-hot / index encoding."""


class ConfigError(PipelineError):
    """Invalid or inconsistent configuration values."""


class DataError(PipelineError):
    """Dataset violates a precondition (empty class, too few clips, ...)."""


class DependencyError(PipelineError):
    """A step was run before the step it depends on: a pipeline stage before
    the stages it reads, a layer's backward before a train-mode forward."""


class CacheError(PipelineError):
    """A stage's `.hash` sidecar cannot be read or written."""
