"""The alternating series for zeta(m) built from gamma products.

The n-th summand is m*(-1)^(n-1)*|lambda_n|/n^m where lambda_n is the
partial-fraction coefficient of the unity product; every term is
assembled in log-space so that large m and n never overflow.
"""

from __future__ import annotations

import math

from .accel import ConvergenceReport, SeriesTermTrace, sum_alternating
from .errors import DomainError
from .oracle import PrecisionConfig
from .unity_product import coefficient_log_parts

__all__ = ["zeta_term", "zeta_via_series"]


def zeta_term(m: int, n: int) -> SeriesTermTrace:
    """The n-th summand of the zeta(m) series, as a signed log-space trace."""
    if m < 2 or n < 1:
        raise DomainError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    if m == 2:
        # Gamma(1 + n) = n! collapses the term to 2*(-1)^(n-1)/n^2 exactly.
        sign = 1 if n % 2 else -1
        value = sign * 2.0 / (n * n)
        return SeriesTermTrace(n, value, math.log(2.0) - 2.0 * math.log(n), sign)
    lam_log, lam_sign = coefficient_log_parts(m, n)
    # term = -m * lambda_n / n^m; lambda_n has sign (-1)^n
    log_mag = math.log(m) + lam_log - m * math.log(n)
    sign = -lam_sign
    value = sign * math.exp(log_mag)
    return SeriesTermTrace(n, value, log_mag, sign)


def zeta_via_series(m: int, config: PrecisionConfig | None = None) -> ConvergenceReport:
    """Evaluate the series for zeta(m) under the given precision config."""
    if m < 2:
        raise DomainError(f"need m >= 2, got {m}")
    config = config or PrecisionConfig()
    traces = [zeta_term(m, n) for n in range(1, config.max_terms + 1)]
    report = sum_alternating([t.value for t in traces], config.method)
    if config.trace_enabled:
        report.trace = traces
    return report
