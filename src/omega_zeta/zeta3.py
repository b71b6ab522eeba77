"""Three alternative series for zeta(3).

* Sine form: terms mix a rising complex product against sin(pi w) with
  |Im w| growing linearly, both of size exp(sqrt(3) pi n / 2).  Each
  term is real with sign (-1)^(n-1), taken from the formula; only its
  log-magnitude is accumulated, so the huge factors cancel in log space.
* Hyperbolic form: odd-index terms use the finite product P(d) against
  cosh, even-index terms Q(d) against sinh.  Interleaved they reproduce
  the alternating zeta(3) series term by term.
* Beta form: an alternating Beta-function series plus a double sum
  whose inner k-series diverges classically for n >= 4 and is summed
  with an Euler transform.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

from .accel import (ConvergenceReport, _first_terms, log_hypergeometric,
                    sum_alternating)
from .errors import DomainError
from .oracle import PrecisionConfig
from .special import log_cosh, log_sin, log_sinh

__all__ = [
    "Zeta3Variant",
    "p_poly",
    "q_poly",
    "sine_term",
    "hyperbolic_term",
    "zeta3_series",
]

_SQRT3 = math.sqrt(3.0)
_OMEGA3_SQ = complex(-0.5, -_SQRT3 / 2.0)  # exp(-2 pi i / 3)


class Zeta3Variant(Enum):
    SINE = "sine"
    HYPERBOLIC = "hyperbolic"
    BETA = "beta"

    @classmethod
    def _missing_(cls, value):
        names = ", ".join(v.value for v in cls)
        raise DomainError(f"unknown variant {value!r}; use one of {names}")


def p_poly(d: int) -> float:
    """log P(d), P(d) = prod_{k=1}^{d} ((k - 1/2)^2 + (3/4)(2d - 1)^2)."""
    if d < 1:
        raise DomainError("need d >= 1")
    c = 0.75 * (2 * d - 1) ** 2
    return sum(math.log((k - 0.5) ** 2 + c) for k in range(1, d + 1))


def q_poly(d: int) -> float:
    """log Q(d), Q(d) = prod_{k=1}^{d} (k^2 + 3 d^2)."""
    if d < 1:
        raise DomainError("need d >= 1")
    c = 3.0 * d * d
    return sum(math.log(k * k + c) for k in range(1, d + 1))


@lru_cache(maxsize=None)
def sine_term(n: int) -> float:
    """n-th term of the sine-form series, accumulated in log-space.

    The term equals 3 Gamma(1 - w n) Gamma(1 - w^2 n) / (n! n^3) * (-1)^(n-1)
    with w = exp(2 pi i / 3), and the gamma pair is a conjugate pair, so its
    sign is (-1)^(n-1) and only log-magnitudes are accumulated.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    w = _OMEGA3_SQ * n
    log_mag = math.log(3.0 * math.pi)
    for k in range(1, n + 1):
        log_mag += math.log(abs(k + w))
    log_mag -= math.lgamma(n + 1.0) + 2.0 * math.log(n)
    log_mag -= log_sin(math.pi * w).real
    return (1 if n % 2 else -1) * math.exp(log_mag)


@lru_cache(maxsize=None)
def hyperbolic_term(n: int) -> float:
    """n-th term of the interleaved hyperbolic-form series.

    Odd n = 2d-1 gives the (positive) P(d)/cosh term, even n = 2d the
    (negative) Q(d)/sinh term.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    if n % 2:
        d = (n + 1) // 2
        log_mag = (math.log(3.0 * math.pi) + p_poly(d)
                   - math.lgamma(2.0 * d) - 3.0 * math.log(2 * d - 1)
                   - log_cosh(_SQRT3 * math.pi * (2 * d - 1) / 2.0))
        sign = 1
    else:
        d = n // 2
        log_mag = (math.log(3.0 * _SQRT3 * math.pi / 8.0) + q_poly(d)
                   - log_sinh(_SQRT3 * math.pi * d)
                   - math.lgamma(2.0 * d + 1.0) - 2.0 * math.log(d))
        sign = -1
    return sign * math.exp(log_mag)


@lru_cache(maxsize=None)
def beta_series_term(n: int) -> float:
    """3 * (-1)^(n-1) * B(n/2, n/2) / n^2, via log-gamma."""
    log_mag = (math.log(3.0) + 2.0 * math.lgamma(0.5 * n)
               - math.lgamma(float(n)) - 2.0 * math.log(n))
    sign = 1.0 if n % 2 else -1.0
    return sign * math.exp(log_mag)


# Inner Euler transforms are limited to term magnitudes below this, so
# the binomial cancellation noise stays under ~1e-8 absolute.
_INNER_LOG_CAP = math.log(1e8)


@lru_cache(maxsize=None)
def inner_double_sum(n: int):
    """Euler-transformed inner k-sum of the double series,

        sum_k (-1)^(n+k) * 36 * C(n+k-1, k) / ((n+2k)(3n^2 + (n+2k)^2)),

    over k < max(28, 2n + 12).  The terms grow like k^(n-4); for n >= 4
    the classical sum diverges and only the Euler transform gives it a
    value.  Returns (value, noise) where noise estimates the cancellation
    error left by differencing the large binomial terms in double precision.
    C(n+k-1, k) is hypergeometric in k, with ratio 1 + (n-1)/(k+1), so
    `accel.log_hypergeometric` builds its logarithm from 0 with no lgamma.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    k_terms = max(28, 2 * n + 12)
    terms = []
    base_sign = 1.0 if n % 2 == 0 else -1.0
    peak = 0.0
    log_binoms = log_hypergeometric(0.0, ((n - 1, 1, 1.0),), 0, k_terms)
    for k, log_binom in enumerate(log_binoms):
        log_mag = (math.log(36.0) + log_binom
                   - math.log(n + 2.0 * k)
                   - math.log(3.0 * n * n + (n + 2.0 * k) ** 2))
        if log_mag > _INNER_LOG_CAP and k > n:
            break
        peak = max(peak, log_mag)
        sign = base_sign if k % 2 == 0 else -base_sign
        terms.append(sign * math.exp(log_mag))
    noise = math.exp(peak) * len(terms) * 2.2e-16
    return sum_alternating(terms, "euler").value, noise


def zeta3_series(variant: Zeta3Variant | str,
                 config: PrecisionConfig | None = None) -> ConvergenceReport:
    """Evaluate zeta(3) by the requested variant series.

    `variant` is a Zeta3Variant or its string value.  The sine and
    hyperbolic forms sum their terms as one series; the beta form sums
    its beta and inner parts apart and adds the results.
    """
    variant = Zeta3Variant(variant)
    config = config or PrecisionConfig(max_terms=40)

    if variant is Zeta3Variant.BETA:
        n_outer = config.max_terms
        beta_terms = [beta_series_term(n) for n in range(1, n_outer + 1)]
        # The inner Euler transforms lose accuracy as the binomial terms
        # outgrow double precision; stop the outer sum once the per-term
        # cancellation noise exceeds the budget and let the outer
        # acceleration extrapolate from the reliable terms.
        inner_terms = []
        total_noise = 0.0
        for n in range(1, n_outer + 1):
            value, noise = inner_double_sum(n)
            if noise > 1e-9 and n > 8:
                break
            inner_terms.append(value)
            total_noise += noise
        rep_beta = sum_alternating(beta_terms, config.method)
        rep_inner = sum_alternating(inner_terms, config.method)
        return ConvergenceReport(
            rep_beta.value + rep_inner.value,
            len(inner_terms),
            rep_beta.error_estimate + rep_inner.error_estimate + total_noise,
            rep_beta.method,
        )

    if variant is Zeta3Variant.SINE:
        terms = _first_terms(sine_term, config.max_terms)
    else:
        # max_terms counts index pairs d; each contributes an odd and an
        # even interleaved term.
        terms = _first_terms(hyperbolic_term, 2 * config.max_terms)
    return sum_alternating(terms, config.method)
