"""Independent reference values for the test surface.

zeta_oracle and tail_power_sum are Hurwitz sums, the Dirichlet series
plus Euler-Maclaurin corrections with a fixed Bernoulli table
(`special._hurwitz`); they never touch gamma products or any series
implemented elsewhere in the package, so cross-checks against them are
not circular.
"""

from __future__ import annotations

import math

from .errors import DomainError, _check_index
from .special import _hurwitz

__all__ = ["zeta_oracle", "tail_power_sum"]


def _check_exponent(caller, name, value):
    """float(value), or DomainError unless `value` is a real number, finite
    and >= 2 (a Decimal, say, would meet float arithmetic in `_hurwitz`)."""
    try:
        ok = 2 <= value < math.inf
    except TypeError:  # a string, a complex number
        ok = False
    if not ok:
        raise DomainError(f"{caller} needs a finite {name} >= 2, got {value!r}")
    return float(value)


def zeta_oracle(s: int) -> float:
    """zeta(s) for real s >= 2: 1 + zeta(s, 2), the 1 added last to the
    Hurwitz sum by Euler-Maclaurin.  Accurate to well below 1e-13 relative.
    """
    return 1.0 + _hurwitz(_check_exponent("zeta_oracle", "s", s), 2.0)


def tail_power_sum(p: int, cutoff: int) -> float:
    """sum_{s > cutoff} s^-p = zeta(p, cutoff + 1), avoiding the
    cancellation of zeta(p) minus a partial sum."""
    p = _check_exponent("tail_power_sum", "p", p)
    _check_index("cutoff", cutoff, 0)
    return _hurwitz(p, cutoff + 1)
