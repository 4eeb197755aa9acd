"""Exception types shared across the package."""


class Se3SlamError(Exception):
    """Base class for all library errors."""


class NotSkewSymmetric(Se3SlamError):
    """Matrix handed to vee() is not skew-symmetric within tolerance."""


class DegenerateMatrix(Se3SlamError):
    """Matrix cannot be projected onto the rotation group (singular or det <= 0)."""


class DegenerateGeometry(Se3SlamError):
    """Landmark geometry too collinear for a well-posed attitude solve."""


class ZeroVector(DegenerateGeometry):
    """A direction vector with (near-)zero norm was supplied."""


class EmptyMap(Se3SlamError):
    """An operation that needs at least one landmark got an empty map."""


class NonFiniteState(Se3SlamError):
    """An observer update produced, or a pose increment was given, NaN or infinity."""


class ConfigInvalid(Se3SlamError):
    """Scenario file failed validation; message carries the field path."""


class UnknownParameter(Se3SlamError):
    """Sweep parameter path does not name a numeric scenario field."""
