"""Exception types shared across the package.

The CLI maps these onto exit codes: validation/config problems exit 1,
numeric failures exit 2, I/O failures (plain OSError) exit 3.
"""


class ValidationError(ValueError):
    """Invalid configuration or data that fails its contract."""


class ShapeError(ValidationError):
    """Operand shapes do not conform; the message names both shapes."""


class CorpusError(ValidationError):
    """A corpus file or record violates the manifest contract."""


class MissingBlobError(CorpusError):
    """A manifest entry references a blob file that does not exist."""


class BlobSizeError(CorpusError):
    """A blob's byte length disagrees with the dimensions in the manifest."""


class DanglingReferenceError(CorpusError):
    """A text record references a video id absent from the corpus."""


class CheckpointError(ValidationError):
    """A checkpoint file is unreadable: bad magic, version, or truncation."""


class ConfigError(ValidationError):
    """A run configuration file or override is malformed."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""
