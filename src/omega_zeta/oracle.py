"""Independent reference values for the test surface.

zeta_oracle and tail_power_sum are Hurwitz sums, the Dirichlet series
plus Euler-Maclaurin corrections with a fixed Bernoulli table
(`special._hurwitz`); they never touch gamma products or any series
implemented elsewhere in the package, so cross-checks against them are
not circular.
"""

from __future__ import annotations

from .errors import _check_index, _check_real
from .special import _hurwitz

__all__ = ["zeta_oracle", "tail_power_sum"]


def zeta_oracle(s: int) -> float:
    """zeta(s) for real s >= 2: 1 + zeta(s, 2), the 1 added last to the
    Hurwitz sum by Euler-Maclaurin.  Accurate to well below 1e-13 relative.
    """
    return 1.0 + _hurwitz(_check_real("s", s, 2), 2.0)


def tail_power_sum(p: int, cutoff: int) -> float:
    """sum_{s > cutoff} s^-p = zeta(p, cutoff + 1), avoiding the
    cancellation of zeta(p) minus a partial sum."""
    p = _check_real("p", p, 2)
    _check_index("cutoff", cutoff, 0)
    return _hurwitz(p, cutoff + 1)
