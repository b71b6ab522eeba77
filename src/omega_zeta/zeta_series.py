"""The alternating series for zeta(m) built from gamma products.

The n-th summand is m*(-1)^(n-1)*|lambda_n|/n^m where lambda_n is the
partial-fraction coefficient of the unity product; every term is
assembled in log-space so that large m and n never overflow.
"""

from __future__ import annotations

import math

from .accel import ConvergenceReport, sum_alternating
from .errors import DomainError
from .oracle import PrecisionConfig
from .unity_product import coefficient_log_parts

__all__ = ["zeta_term", "zeta_via_series"]


def zeta_term(m: int, n: int) -> float:
    """The n-th summand of the zeta(m) series, m(-1)^(n-1)|lambda_n|/n^m.

    The magnitude is formed in log space and exponentiated once, so a
    term below the double range underflows to 0.0 with its sign kept.
    """
    if m < 2 or n < 1:
        raise DomainError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    if m == 2:
        # Gamma(1 + n) = n! collapses the term to 2*(-1)^(n-1)/n^2 exactly.
        return (1 if n % 2 else -1) * 2.0 / (n * n)
    lam_log, lam_sign = coefficient_log_parts(m, n)
    # term = -m * lambda_n / n^m; lambda_n has sign (-1)^n
    return -lam_sign * math.exp(math.log(m) + lam_log - m * math.log(n))


def zeta_via_series(m: int, config: PrecisionConfig | None = None) -> ConvergenceReport:
    """Evaluate the series for zeta(m) under the given precision config."""
    if m < 2:
        raise DomainError(f"need m >= 2, got {m}")
    config = config or PrecisionConfig()
    terms = [zeta_term(m, n) for n in range(1, config.max_terms + 1)]
    return sum_alternating(terms, config.method)
