"""Independent reference values for the test surface.

zeta_oracle uses only the Dirichlet series plus Euler-Maclaurin
corrections with a fixed Bernoulli table; it never touches gamma
products or any series implemented elsewhere in the package, so
cross-checks against it are not circular.
"""

from __future__ import annotations

import math

from .errors import DomainError, _check_index
from .special import _BERNOULLI

__all__ = ["zeta_oracle", "tail_power_sum"]


def _check_exponent(caller, name, value):
    """DomainError unless `value` is a real number, finite and >= 2."""
    try:
        ok = 2 <= value < math.inf
    except TypeError:  # a string, a complex number
        ok = False
    if not ok:
        raise DomainError(f"{caller} needs a finite {name} >= 2, got {value!r}")


def _add_bernoulli_corrections(total: float, s: int, n: int) -> float:
    """total plus sum_j B_2j/(2j)! * rising(s, 2j-1) * n^(1-s-2j), j = 1..6,
    added one term at a time: the Euler-Maclaurin corrections for
    sum_k k^-s at the cutoff n."""
    rising = float(s)  # rising factorial s(s+1)...(s+2j-2)
    fact = 2.0         # (2j)!
    for j, b2j in enumerate(_BERNOULLI, start=1):
        total += b2j / fact * rising * n ** (1.0 - s - 2 * j)
        # extend rising to 2(j+1)-1 factors, fact to (2j+2)!
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    return total


def zeta_oracle(s: int) -> float:
    """zeta(s) for integer s >= 2 via Euler-Maclaurin summation.

    Partial Dirichlet sum to the cutoff 20, integral + midpoint terms,
    then six Bernoulli correction terms.  Accurate to well below 1e-13
    relative.
    """
    _check_exponent("zeta_oracle", "s", s)
    n = 20
    total = sum(k ** (-float(s)) for k in range(1, n))
    total += n ** (1.0 - s) / (s - 1.0)
    total += 0.5 * n ** (-float(s))
    return _add_bernoulli_corrections(total, s, n)


def tail_power_sum(p: int, cutoff: int) -> float:
    """sum_{s > cutoff} s^-p via Euler-Maclaurin, avoiding the
    cancellation of zeta(p) minus a partial sum.

    The six correction terms form an asymptotic series in the cutoff, so
    for small cutoffs the leading terms are summed explicitly before the
    corrections are applied at 20.
    """
    _check_exponent("tail_power_sum", "p", p)
    _check_index("cutoff", cutoff, 0)
    n = max(cutoff, 20)
    total = sum(k ** (-float(p)) for k in range(cutoff + 1, n + 1))
    total += n ** (1.0 - p) / (p - 1.0) - 0.5 * n ** (-float(p))
    return _add_bernoulli_corrections(total, p, n)

