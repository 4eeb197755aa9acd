"""Exception types shared across the package."""


class Se3SlamError(Exception):
    """Base class for all library errors."""


class DegenerateGeometry(Se3SlamError):
    """Landmark geometry too collinear for a well-posed attitude solve, or a
    direction vector with a non-finite or near-zero norm."""


class NonFiniteState(Se3SlamError):
    """An observer update produced, or a pose increment was given, NaN or infinity."""


class ConfigInvalid(Se3SlamError):
    """A scenario file, a sweep parameter or value, or a command argument failed
    validation; the message names the key (an unknown sweep path is an unknown
    key), after the file's path for an error from a file."""
