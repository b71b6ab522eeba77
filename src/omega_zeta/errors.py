"""Exception hierarchy shared across the library, and the argument checks
that turn a bad argument into a DomainError naming it."""

import cmath
import math


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


def _shown(value):
    """repr(value), or its size where repr refuses an int of over 4300 digits."""
    try:
        return repr(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


def _check_index(name, value, least):
    """DomainError unless `value` is an integer (has __index__, as range()
    needs: not 64.0) and at least `least`."""
    if not hasattr(value, "__index__"):
        raise DomainError(f"{name} must be an integer, got {_shown(value)}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {_shown(value)}")


def _check_real(name, value, least=-math.inf, strict=False):
    """float(value), or DomainError unless `value` is a real number (not a
    str or bytes, which float() would parse), finite as a float, and >=
    `least` (> `least` when `strict`).  A float passes as itself."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):  # also an int past the double range
        x = math.nan
    if x is not value and isinstance(value, (str, bytes)) or not math.isfinite(x):
        raise DomainError(f"{name} must be a finite real number, got {_shown(value)}")
    if x < least or strict and x == least:
        raise DomainError(f"{name} must be {'>' if strict else '>='} {least}, got {_shown(value)}")
    return x


def _check_complex(name, value):
    """complex(value), or DomainError unless `value` is a number (not a str,
    which complex() would parse) with finite real and imaginary parts.  A
    complex passes as itself."""
    try:
        z = complex(value)
    except (TypeError, ValueError, OverflowError):
        z = cmath.nan
    if z is not value and isinstance(value, str) or not cmath.isfinite(z):
        raise DomainError(f"{name} must be a finite number, got {_shown(value)}")
    return z
