"""Partial-fraction machinery for Gamma(a+z)Gamma(a-z).

Contains the product form of Gamma(a+z)Gamma(a-z)/Gamma(a)^2, the
partial-fraction series for Gamma(a+z)Gamma(a-z), and the derived
series for sum 1/(q+n)^2.

The partial-fraction series converges classically only while its terms
(which scale like k^(2a-3)) decay; outside that regime term growth is
detected at runtime and an Euler transform must be used, which
annihilates the polynomial growth by finite differencing.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from itertools import cycle

from .accel import AccelerationMethod, ConvergenceReport, _method, _sum_parts, log_hypergeometric
from .errors import DomainError, PoleError
from .special import exp_log, log_gamma, trigamma

__all__ = [
    "gamma_pair",
    "modulus_product",
    "gamma_pfd_series",
    "inverse_square_series",
]

_POLE_DIST = 1e-8


def gamma_pair(a: complex, z: complex) -> complex:
    """Gamma(a+z) * Gamma(a-z), through log-space."""
    a = complex(a)
    z = complex(z)
    return exp_log(log_gamma(a + z) + log_gamma(a - z))


def _sum_own_terms(real, imag, method):
    """sum_alternating of terms built here from finite inputs, as parts, where
    a term that is not finite can only be an overflow (a product past the
    double range, or inf times 0 in complex arithmetic): OverflowError."""
    try:
        return _sum_parts(real, imag, method)
    except DomainError:
        if all(map(math.isfinite, real)) and all(map(math.isfinite, imag)):
            raise
    raise OverflowError("a term exceeds double range")


def _within_double_range(series):
    """`series`, with every way it leaves the double range (lgamma or exp
    while the terms are built, an inf or nan term or sum) ended in one
    readable OverflowError.  `series` returns a report, or a bare value.
    CVZ's term limit is a DomainError and passes through."""
    @functools.wraps(series)
    def checked(*args, **kwargs):
        try:
            report = series(*args, **kwargs)
            if (cmath.isfinite(getattr(report, "value", report))
                    and math.isfinite(getattr(report, "error_estimate", 0.0))):
                return report
        except OverflowError:
            pass
        raise OverflowError(f"{series.__name__}: a term, a weight or the sum "
                            "exceeds double range")
    return checked


@_within_double_range
def modulus_product(a: float, z: complex, n_factors: int) -> complex:
    """Truncated product for Gamma(a+z)Gamma(a-z)/Gamma(a)^2 with a
    first-order tail correction exp(z^2 * psi'(a + N))."""
    if n_factors < 1:
        raise DomainError("need n_factors >= 1")
    a = float(a)
    z = complex(z)
    if not (math.isfinite(a) and cmath.isfinite(z)):
        raise DomainError(f"need finite a and z, got a = {a}, z = {z}")
    z2 = z * z
    log_prod = 0j
    for k in range(1, n_factors + 1):
        den = a - 1.0 + k
        factor = 1.0 - z2 / (den * den) if den else 0.0
        if abs(factor) <= _POLE_DIST:
            raise PoleError(f"z = {z} hits pole at a-1+{k}")
        log_prod -= cmath.log(factor)
    tail = z2 * trigamma(a + n_factors)
    return cmath.exp(log_prod + tail)


@_within_double_range
def gamma_pfd_series(a: float, z: complex, n_terms: int,
                     method: AccelerationMethod | str) -> ConvergenceReport:
    """Partial-fraction series for Gamma(a+z)Gamma(a-z):

        Gamma(a)^2 + sum_{k>=0} (-1)^(k+1) Gamma(2a+k)/((a+k)k!)
                                * 2z^2/(z^2 - (a+k)^2)

    z enters only through z^2, so the result is even in z by
    construction.  At z = 0 every term vanishes and the value is
    Gamma(a)^2 exactly, under every method.  When 2a is a non-positive
    integer, Gamma(2a+k) has a pole and the series cannot be formed.

    For real z^2 the terms are floats, each the real part of its complex
    form bit for bit, but a term that underflows keeps the sign of the
    formula, which complex division can lose.  They alternate strictly
    from the first k with 2a+k > 0 and (a+k)^2 > z^2 on (for real z with
    |z| > a the earlier terms have the flipped sign).  The terms before
    that k are added with fsum and only the rest goes to `_sum_parts`,
    so CVZ sees an alternating series and the value is a float exactly
    when z^2 is real.

    The coefficients c_k = Gamma(2a+k)/((a+k) k!) are hypergeometric, with
    c_(k+1)/c_k = (1 + (2a-1)/(k+1)) / (1 + 1/(a+k)): log|c_0| takes one
    lgamma and `accel.log_hypergeometric` the rest, so the terms stay
    within about 1e-14 relative of their exact values up to N = 1024.
    """
    method = _method(method)
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
    zz = z2.real if z2.imag == 0 else z2
    ga2 = exp_log(2.0 * log_gamma(a)).real
    dens = [zz - (a + k) * (a + k) for k in range(n_terms)]
    # |den| >= |Im den| = |Im z^2|, so only a near-real z^2 can meet a pole
    if abs(z2.imag) <= _POLE_DIST and min(map(abs, dens)) <= _POLE_DIST:
        k = next(k for k, den in enumerate(dens) if abs(den) <= _POLE_DIST)
        raise PoleError(f"z = {z} within tolerance of pole at a+{k}")
    if z2 == 0:
        # Every term is 0 (CVZ would reject them as not alternating), also
        # where exp of its coefficient's logarithm would overflow.
        return ConvergenceReport(ga2, n_terms, 0.0, method)
    log_coefs = log_hypergeometric(math.lgamma(2.0 * a) - math.log(abs(a)),
                                   ((2.0 * a - 1.0, 1, 1.0), (1.0, a, -1.0)),
                                   0, n_terms)
    # 2 (-1)^(k+1) sign(c_k); 2a+k < 0 for k <= -2a, Gamma(2a+k) < 0 at odd floors
    twos = [-2.0, 2.0] * (n_terms // 2 + 1)
    for k in range(min(n_terms, math.floor(-2.0 * a) + 1)):
        if math.floor(2.0 * a + k) % 2 != (a + k < 0):
            twos[k] = -twos[k]
    terms = [two * math.exp(log_coef) * zz / den
             for two, log_coef, den in zip(twos, log_coefs, dens)]
    k = 0
    if z2.imag == 0:
        while k < n_terms - 1 and (2.0 * a + k <= 0 or (a + k) ** 2 <= z2.real):
            k += 1
    head = math.fsum(terms[:k])
    parts = ([t.real for t in terms], [t.imag for t in terms]) if z2.imag else (terms[k:], ())
    rep = _sum_own_terms(*parts, method)
    return ConvergenceReport(ga2 + head + rep.value, n_terms, rep.error_estimate, method)


@_within_double_range
def inverse_square_series(q: float, n_terms: int,
                          method: AccelerationMethod | str) -> ConvergenceReport:
    """The series -2 sum_n (-1)^n Gamma(2q+n+1)/(Gamma(q+1)^2 (n-1)! (q+n)^3),
    whose (possibly regularized) value is psi'(q+1).

    The terms are hypergeometric, with t_(n+1)/t_n =
    -(1 + (2q+1)/n) / (1 + 1/(q+n))^3: log|t_1| takes the only lgamma calls
    and `accel.log_hypergeometric` the rest.
    """
    method = _method(method)
    if not math.isfinite(q):
        raise DomainError(f"need finite q, got q = {q}")
    if q <= -1:
        raise DomainError(f"need q > -1, got {q}")
    if n_terms < 1:
        raise DomainError("need n_terms >= 1")
    # With 16 terms the CVZ sum leaves the double range from q near 454,
    # a term from 469, and lgamma itself from 1e305.
    log_t1 = (math.lgamma(2.0 * q + 2.0) - 2.0 * math.lgamma(q + 1.0)
              - 3.0 * math.log(q + 1.0))
    log_mags = log_hypergeometric(log_t1, ((2.0 * q + 1.0, 0, 1.0), (1.0, q, -3.0)),
                                  1, n_terms)
    terms = list(map(operator.mul, cycle((2.0, -2.0)), map(math.exp, log_mags)))
    return _sum_own_terms(terms, (), method)
