"""Three alternative series for zeta(3).

* Sine form: terms mix a rising complex product against sin(pi w) with
  |Im w| growing linearly, both of size exp(sqrt(3) pi n / 2).  Each
  term is real with sign (-1)^(n-1), taken from the formula; only its
  log-magnitude is accumulated, so the huge factors cancel in log space.
* Hyperbolic form: odd-index terms use the finite product P(d) against
  cosh, even-index terms Q(d) against sinh.  Interleaved they reproduce
  the alternating zeta(3) series term by term.
* Beta form: an alternating Beta-function series plus a double sum
  whose inner k-series diverges classically for n >= 4; each inner sum
  takes its Euler value from Pfaff's convergent transformation.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

from .accel import (ConvergenceReport, PrecisionConfig, _default_config, _first_terms,
                    sum_alternating)
from .errors import DomainError, _check_index
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
    _check_index("d", d, 1)
    c = 0.75 * (2 * d - 1) ** 2
    return sum(math.log((k - 0.5) ** 2 + c) for k in range(1, d + 1))


def q_poly(d: int) -> float:
    """log Q(d), Q(d) = prod_{k=1}^{d} (k^2 + 3 d^2)."""
    _check_index("d", d, 1)
    c = 3.0 * d * d
    return sum(math.log(k * k + c) for k in range(1, d + 1))


@lru_cache(maxsize=None)
def sine_term(n: int) -> float:
    """n-th term of the sine-form series, accumulated in log-space.

    The term equals 3 Gamma(1 - w n) Gamma(1 - w^2 n) / (n! n^3) * (-1)^(n-1)
    with w = exp(2 pi i / 3), and the gamma pair is a conjugate pair, so its
    sign is (-1)^(n-1) and only log-magnitudes are accumulated.
    """
    _check_index("n", n, 1)
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
    _check_index("n", n, 1)
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
    """3 * (-1)^(n-1) * B(n/2, n/2) / n^2, with B(m, m) = 1/((2m - 1)
    C(2m - 2, m - 1)) and B(m + 1/2, m + 1/2) = pi C(2m, m)/16^m: an
    integer quotient, correctly rounded, or pi times one.  Both quotients
    fall with n and round to zero from n = 1053 on, where the term is the
    formula's signed zero without forming n-digit binomials."""
    if n >= 1053:
        return 0.0 if n % 2 else -0.0
    m = n // 2
    if n % 2:
        return math.pi * (3 * math.comb(2 * m, m) / (16 ** m * n * n))
    return -3 / ((n - 1) * math.comb(n - 2, m - 1) * n * n)


def _pfaff_sum(n: int, b: complex):
    """P(b) = sum_j (n)_j / (b + 1)_j * 2^-j / b, up to the first term
    below half a rounding of the total."""
    term = total = 1.0 / b
    j = 0
    while abs(term) >= 2.0 ** -54 * abs(total):
        term *= (n + j) / (b + (j + 1.0)) * 0.5
        total += term
        j += 1
    return total


@lru_cache(maxsize=None)
def inner_double_sum(n: int) -> float:
    """Euler (Abel) value of the inner k-sum of the double series,

        sum_k (-1)^(n+k) * 36 * C(n+k-1, k) / ((n+2k)(3n^2 + (n+2k)^2)),

    whose terms grow like k^(n-4), so that it diverges classically for
    n >= 4.  With x = n + 2k the summand splits as
    (1/3n^2)(1/x - Re 1/(x - i sqrt(3) n)), and each piece is
    sum_k (-1)^k C(n+k-1, k)/(k + b) = int_0^1 t^(b-1) (1+t)^-n dt
    = 2^-n P(b) at b = n/2 and b = n(1 - i sqrt(3))/2: Pfaff's
    transformation of 2F1(n, b; b+1; -1) (DLMF 15.8.1), which is Euler's
    transform in closed form.  The terms of P fall at every step, by
    (n+j)/(2|b+1+j|) < 1, so the value is
    (-1)^n 6/n^2 2^-n (P(n/2) - Re P(n(1 - i sqrt(3))/2)).  The bracket is
    2^n int_0^1 t^(n/2-1) (1+t)^-n (1 - cos((sqrt(3)/2) n ln t)) dt > 0, and
    at most 3 for n >= 2, so from n = 1076 the value is a signed zero.
    """
    _check_index("n", n, 1)
    if n >= 1076:
        return 0.0 if n % 2 == 0 else -0.0
    diff = _pfaff_sum(n, 0.5 * n) - _pfaff_sum(n, complex(0.5 * n, -0.5 * _SQRT3 * n)).real
    return math.ldexp((6.0 if n % 2 == 0 else -6.0) / (n * n) * diff, -n)


def zeta3_series(variant: Zeta3Variant | str,
                 config: PrecisionConfig | None = None) -> ConvergenceReport:
    """Evaluate zeta(3) by the requested variant series.

    `variant` is a Zeta3Variant or its string value.  The sine and
    hyperbolic forms sum their terms as one series; the beta form sums
    its beta and inner parts apart, over max_terms terms each, and adds
    the values and the estimates.
    """
    variant = Zeta3Variant(variant)
    if not isinstance(config, PrecisionConfig):
        config = _default_config(config, max_terms=40)

    if variant is Zeta3Variant.BETA:
        rep_beta = sum_alternating(_first_terms(beta_series_term, config.max_terms),
                                   config.method)
        rep_inner = sum_alternating(_first_terms(inner_double_sum, config.max_terms),
                                    config.method)
        return ConvergenceReport(rep_beta.value + rep_inner.value, config.max_terms,
                                 rep_beta.error_estimate + rep_inner.error_estimate,
                                 rep_beta.method)

    if variant is Zeta3Variant.SINE:
        terms = _first_terms(sine_term, config.max_terms)
    else:
        # max_terms counts index pairs d; each contributes an odd and an
        # even interleaved term.
        terms = _first_terms(hyperbolic_term, 2 * config.max_terms)
    return sum_alternating(terms, config.method)
