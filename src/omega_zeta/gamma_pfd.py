"""Partial-fraction machinery for Gamma(a+z)Gamma(a-z).

Contains the summation identity for symmetric sequences, the product
form of Gamma(a+z)Gamma(a-z)/Gamma(a)^2, the partial-fraction series
for Gamma(a+z)Gamma(a-z), and the derived series for sum 1/(q+n)^2.

The partial-fraction series converges classically only while its terms
(which scale like k^(2a-3)) decay; outside that regime term growth is
detected at runtime and an Euler transform must be used, which
annihilates the polynomial growth by finite differencing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .accel import AccelerationMethod, ConvergenceReport, running_sums, sum_alternating
from .errors import DomainError, PoleError
from .special import exp_log, log_gamma, trigamma

__all__ = [
    "SymmetricSequence",
    "integer_sequence",
    "shifted_integer_sequence",
    "summation_identity_check",
    "gamma_pair",
    "modulus_product",
    "gamma_pfd_series",
    "inverse_square_series",
]

_POLE_DIST = 1e-8


@dataclass(frozen=True)
class SymmetricSequence:
    """A sequence a_n with sum 1/|a_n|^2 < inf, together with F'(-a_n)
    for the canonical even-zero product F(z) = z * prod(1 - (z/a_n)^2).
    """

    term: Callable[[int], complex]
    fprime_at: Callable[[int], complex]


def integer_sequence() -> SymmetricSequence:
    """a_n = n, for which F(z) = sin(pi z)/pi and F'(-n) = (-1)^n."""
    return SymmetricSequence(
        term=lambda n: float(n),
        fprime_at=lambda n: -1.0 if n % 2 else 1.0,
    )


def shifted_integer_sequence(a: float) -> SymmetricSequence:
    """a_n = a - 1 + n with the closed form
    F'(-a_n) = Gamma(a)^2 * (-1)^n * (a+n-1) * (n-1)! / Gamma(2a+n-1).
    """
    if a <= 0:
        raise DomainError(f"need a > 0, got {a}")
    two_lg_a = 2.0 * math.lgamma(a)

    def fprime(n: int) -> float:
        log_mag = (two_lg_a + math.log(a + n - 1.0) + math.lgamma(float(n))
                   - math.lgamma(2.0 * a + n - 1.0))
        sign = -1.0 if n % 2 else 1.0
        return sign * math.exp(log_mag)

    return SymmetricSequence(
        term=lambda n: a - 1.0 + n,
        fprime_at=fprime,
    )


def summation_identity_check(seq: SymmetricSequence, n_terms: int,
                             rhs_method: AccelerationMethod | str = "none"):
    """Truncated left and right sides of sum 1/a_n^2 = sum -2/(F'(-a_n) a_n^2).

    The right side, whose terms alternate and may decay slowly or grow,
    is summed by `sum_alternating`, so the default "none" refuses
    growing terms with DivergenceError.
    """
    if n_terms < 1:
        raise DomainError("need n_terms >= 1")
    lhs = 0j
    rhs_terms = []
    for n in range(1, n_terms + 1):
        an = complex(seq.term(n))
        lhs += 1.0 / (an * an)
        rhs_terms.append(-2.0 / (complex(seq.fprime_at(n)) * an * an))
    return lhs, complex(sum_alternating(rhs_terms, rhs_method).value)


def gamma_pair(a: complex, z: complex) -> complex:
    """Gamma(a+z) * Gamma(a-z), through log-space."""
    a = complex(a)
    z = complex(z)
    return exp_log(log_gamma(a + z) + log_gamma(a - z))


def modulus_product(a: float, z: complex, n_factors: int) -> complex:
    """Truncated product for Gamma(a+z)Gamma(a-z)/Gamma(a)^2 with a
    first-order tail correction exp(z^2 * psi'(a + N))."""
    if n_factors < 1:
        raise DomainError("need n_factors >= 1")
    a = float(a)
    z = complex(z)
    z2 = z * z
    log_prod = 0j
    for k in range(1, n_factors + 1):
        den = a - 1.0 + k
        factor = 1.0 - z2 / (den * den)
        if abs(factor) <= _POLE_DIST:
            raise PoleError(f"z = {z} hits pole at a-1+{k}")
        log_prod -= cmath.log(factor)
    tail = z2 * trigamma(a + n_factors)
    return cmath.exp(log_prod + tail)


def gamma_pfd_series(a: float, z: complex, n_terms: int,
                     method: AccelerationMethod | str) -> ConvergenceReport:
    """Partial-fraction series for Gamma(a+z)Gamma(a-z):

        Gamma(a)^2 + sum_{k>=0} (-1)^(k+1) Gamma(2a+k)/((a+k)k!)
                                * 2z^2/(z^2 - (a+k)^2)

    z enters only through z^2, so the result is even in z by
    construction.  At z = 0 every term vanishes and the value is
    Gamma(a)^2 exactly, under every method.  When 2a is a non-positive
    integer, Gamma(2a+k) has a pole and the series cannot be formed.

    For real z^2 the terms are real, and they alternate strictly from the
    first k with 2a+k > 0 and (a+k)^2 > z^2 on (for real z with |z| > a
    the earlier terms have the flipped sign).  The terms before that k
    are added with fsum and only the rest goes to `sum_alternating`, so
    CVZ sees an alternating series.  Gamma(a)^2 and the coefficients are
    real, so the value is a float exactly when z^2 is real.

    The coefficients are hypergeometric: log|c_0| takes one lgamma, and
    each later log|c_k| adds the log1p of the rational ratio c_k/c_{k-1}
    to a compensated running sum (`running_sums`), so the terms stay
    within about 1e-14 relative of their exact values up to N = 1024.
    """
    method = AccelerationMethod(method)
    a = float(a)
    z = complex(z)
    if not (math.isfinite(a) and cmath.isfinite(z)):
        raise DomainError(f"need finite a and z, got a = {a}, z = {z}")
    if a == round(a) and a <= 0:
        raise PoleError(f"Gamma(a)^2 pole at a = {a}")
    if a < 0 and 2.0 * a == round(2.0 * a):
        raise DomainError(f"need 2a not a non-positive integer (Gamma(2a+k) "
                          f"has a pole), got a = {a}")
    if n_terms < 1:
        raise DomainError("need n_terms >= 1")
    z2 = z * z
    ga2 = exp_log(2.0 * log_gamma(a)).real

    # log|c_k| for c_k = Gamma(2a+k)/((a+k) k!), by the ratio
    # c_{k+1}/c_k = (2a+k)/(k+1) * (a+k)/(a+k+1).  From k0 on, a+k > 0
    # and the first factor is at least 1/2, so log1p is accurate; the
    # steps before k0 take log|ratio| directly.
    k0 = math.ceil(1.0 - 4.0 * a)
    steps = (math.log1p((2.0 * a - 1.0) / (k + 1)) - math.log1p(1.0 / (a + k))
             if k >= k0 else
             math.log(abs((2.0 * a + k) / (k + 1) * (a + k) / (a + k + 1.0)))
             for k in range(n_terms - 1))
    log_coefs = running_sums(math.lgamma(2.0 * a) - math.log(abs(a)), steps)
    terms = []
    for k, log_coef in enumerate(log_coefs):
        ak = a + k
        den = z2 - ak * ak
        if abs(den) <= _POLE_DIST:
            raise PoleError(f"z = {z} within tolerance of pole at a+{k}")
        x = 2.0 * a + k
        # Gamma(x) < 0 exactly for x in (-1, 0), (-3, -2), ...
        coef_sign = -1.0 if x < 0 and math.floor(x) % 2 else 1.0
        if ak < 0:
            coef_sign = -coef_sign
        sign = -coef_sign if k % 2 == 0 else coef_sign
        terms.append(sign * math.exp(log_coef) * 2.0 * z2 / den)
    k = 0
    if z2.imag == 0:
        while k < n_terms - 1 and (2.0 * a + k <= 0 or (a + k) ** 2 <= z2.real):
            k += 1
    head = math.fsum(t.real for t in terms[:k])
    if z2 == 0:
        # CVZ would reject the all-zero terms as not alternating.
        report = ConvergenceReport(0.0, n_terms, 0.0, method)
    else:
        report = sum_alternating(terms[k:], method)
        report.terms_used = n_terms
    report.value = ga2 + head + report.value
    return report


def inverse_square_series(q: float, n_terms: int,
                          method: AccelerationMethod | str) -> ConvergenceReport:
    """The series -2 sum_n (-1)^n Gamma(2q+n+1)/(Gamma(q+1)^2 (n-1)! (q+n)^3),
    whose (possibly regularized) value is psi'(q+1).

    log|t_1| takes the only lgamma calls; each later log|t_n| adds the
    log1p of the ratio t_n/t_{n-1} to a compensated running sum.
    """
    method = AccelerationMethod(method)
    if not math.isfinite(q):
        raise DomainError(f"need finite q, got q = {q}")
    if q <= -1:
        raise DomainError(f"need q > -1, got {q}")
    if n_terms < 1:
        raise DomainError("need n_terms >= 1")
    # Ratio t_{n+1}/t_n = (2q+n+1)/n * ((q+n)/(q+n+1))^3, with log1p once
    # (2q+1)/n >= -1/2 and log|ratio| directly before.
    n0 = math.ceil(-2.0 - 4.0 * q)
    steps = (math.log1p((2.0 * q + 1.0) / n) - 3.0 * math.log1p(1.0 / (q + n))
             if n >= n0 else
             math.log((2.0 * q + n + 1.0) / n * ((q + n) / (q + n + 1.0)) ** 3)
             for n in range(1, n_terms))
    log_t1 = (math.lgamma(2.0 * q + 2.0) - 2.0 * math.lgamma(q + 1.0)
              - 3.0 * math.log(q + 1.0))
    terms = [(2.0 if n % 2 else -2.0) * math.exp(log_mag)
             for n, log_mag in enumerate(running_sums(log_t1, steps), 1)]
    return sum_alternating(terms, method)
