"""The alternating series for zeta(m) built from gamma products.

The n-th summand is m*(-1)^(n-1)*|lambda_n|/n^m where lambda_n is the
partial-fraction coefficient of the unity product; every term is
assembled in log-space so that large m and n never overflow.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .accel import ConvergenceReport, PrecisionConfig, _first_terms, sum_alternating
from .errors import _check_index
from .unity_product import coefficient_log_parts, product_coefficient

__all__ = ["zeta_term", "zeta_via_series"]


@lru_cache(maxsize=None, typed=True)
def zeta_term(m: int, n: int) -> float:
    """The n-th summand of the zeta(m) series, m(-1)^(n-1)|lambda_n|/n^m.

    The magnitude is formed in log space and exponentiated once, so a
    term below the double range underflows to 0.0 with its sign kept.
    Memoized on (m, n) and their types; `zeta_term.cache_clear()` empties it.
    """
    _check_index("m", m, 2)
    _check_index("n", n, 1)
    if m == 2:
        # Gamma(1 + n) = n! collapses the term to 2*(-1)^(n-1)/n^2 exactly.
        return (1 if n % 2 else -1) * 2.0 / (n * n)
    if n == 1:
        # t_1 = prod_{s>=2} 1/(1 - s^-m) carries nearly all of zeta(m)'s
        # error: the closed form's m - 1 Lanczos log-gammas leave it ~4e-15
        # off, the product of 8 factors and its tail ~1e-16.
        return -m * product_coefficient(m, 1)
    # term = -m * lambda_n / n^m; lambda_n has sign (-1)^n
    return (1 if n % 2 else -1) * math.exp(math.log(m) + coefficient_log_parts(m, n)
                                           - m * math.log(n))


def zeta_via_series(m: int, config: PrecisionConfig | None = None) -> ConvergenceReport:
    """Evaluate the series for zeta(m) under the given precision config."""
    config = config or PrecisionConfig()
    return sum_alternating(_first_terms(zeta_term, config.max_terms, m),
                           config.method)
