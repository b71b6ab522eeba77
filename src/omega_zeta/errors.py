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
