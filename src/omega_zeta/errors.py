"""Exception hierarchy shared across the library."""


class OmegaZetaError(Exception):
    """Base class for all library errors."""


class PoleError(OmegaZetaError):
    """Input lies on (or too close to) a pole of the evaluated function."""


class DomainError(OmegaZetaError):
    """Input outside the supported domain of an operation."""


class DegenerateNodesError(OmegaZetaError):
    """Two partial-fraction nodes coincide within tolerance."""


class SignPatternError(OmegaZetaError):
    """Acceleration scheme requires strictly alternating signs."""


class DivergenceError(OmegaZetaError):
    """Unaccelerated summation requested for a series whose terms grow."""


def _check_index(name, value, least):
    """DomainError unless `value` is an integer (has __index__, as range()
    needs: not 64.0) and at least `least`."""
    if not hasattr(value, "__index__"):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
