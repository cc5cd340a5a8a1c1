"""Exception hierarchy shared across the package.

Each error type carries the ``label`` and the ``exit_code`` that the command line
reports it with, and a subclass inherits both: configuration (2), data (3),
numeric divergence (4).
"""


class CompatLearnError(Exception):
    """Base class for all package-specific errors."""

    label, exit_code = "data", 3


class ConfigError(CompatLearnError):
    """Invalid configuration: bad capacity, inconsistent dimensions, unknown keys."""

    label, exit_code = "config", 2


class DataError(CompatLearnError):
    """Invalid or corrupt data: malformed files, bad labels, duplicate ids."""


class DivergenceError(CompatLearnError):
    """Training produced non-finite values."""

    label, exit_code = "divergence", 4


class DegenerateFeatureError(DataError):
    """A zero-norm feature vector appeared where a direction is required."""


class DisjointnessError(DataError):
    """Class sets that must be disjoint overlap."""


class CorruptFileError(DataError):
    """A serialized artifact failed checksum, magic, or structural validation."""


class UnsupportedVersionError(DataError):
    """A serialized artifact declares a format version this build does not read."""


class MetricUndefinedError(CompatLearnError):
    """A summary metric was requested where it is mathematically undefined."""

    label, exit_code = "config", 2
