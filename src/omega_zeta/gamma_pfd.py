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
import itertools
import math

from .accel import AccelerationMethod, ConvergenceReport, _method, sum_alternating
from .errors import DomainError, PoleError, _check_complex, _check_index, _check_real
from .special import _log_power_tail, exp_log, log_gamma

__all__ = [
    "gamma_pair",
    "modulus_product",
    "gamma_pfd_series",
    "inverse_square_series",
]

_POLE_DIST = 1e-8


def _log_ratio(c, d, e, k):
    """e*log|1 + c/(k + d)|, as one quotient where c/(k + d) < -1/2."""
    x = c / (k + d)
    return e * (math.log1p(x) if x >= -0.5 else math.log(abs((k + d + c) / (k + d))))


def _log_prefix(start, factors, first, end):
    """(logs, total, comp) for t_k, k = first .. end, with log|t_first| =
    `start` and t_(k+1)/t_k = prod (1 + c/(k + d))^e over the (c, d, e) in
    `factors`: log|t_k| while some c/(k + d) can be < -1/2 (k + d <
    max(-2c, 0)), where log1p would magnify its argument's rounding and a
    factor adds e*log|(k + d + c)/(k + d)| as one quotient; then the
    Kahan-compensated sum and its compensation, for the caller's log1p pass
    to go on from.  Summed plainly, log-magnitudes near 30 drift by 1e-13
    relative over 1024 steps; compensated, by about one rounding in all."""
    (c1, d1, e1), (c2, d2, e2) = factors
    split = min(end, max(first, *(math.ceil(max(-2.0 * c, 0.0) - d) + 1
                                  for c, d, _ in factors)))
    total, comp, logs = start, 0.0, [start]
    for k in range(first, split):
        y = _log_ratio(c1, d1, e1, k) + _log_ratio(c2, d2, e2, k) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        logs.append(total)
    return logs, total, comp


@functools.lru_cache(maxsize=None)
def _steps(first, size):
    """((first, 0.0), (-first, 1.0), (first, 2.0), ...), `size` pairs: the
    alternating sign and the float index k of each term, for the term passes
    to read instead of forming them per call.  Callers ask for the least
    power of two >= N, so a record holds < 2N pairs and all of one sign < 4N."""
    return tuple(zip(itertools.cycle((first, -first)), map(float, range(size))))


def gamma_pair(a: complex, z: complex) -> complex:
    """Gamma(a+z) * Gamma(a-z), through log-space."""
    a = _check_complex("a", a)
    z = _check_complex("z", z)
    return exp_log(log_gamma(a + z) + log_gamma(a - z))


def _sum_own_terms(terms, method):
    """sum_alternating of terms built here from finite inputs, where a term
    that is not finite can only be an overflow (a product past the double
    range, or inf times 0 in complex arithmetic): OverflowError."""
    try:
        return sum_alternating(terms, method)
    except DomainError:
        if all(map(cmath.isfinite, terms)):
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
    """Truncated product for Gamma(a+z)Gamma(a-z)/Gamma(a)^2 with its full
    tail sum_j z^(2j)/j * zeta(2j, a + N), which needs |z| < a + N."""
    _check_index("n_factors", n_factors, 1)
    a = _check_real("a", a)
    z = _check_complex("z", z)
    z2 = z * z
    logs = []
    for k in range(1, n_factors + 1):
        den = a - 1.0 + k
        factor = 1.0 - z2 / (den * den) if den else 0.0
        if abs(factor) <= _POLE_DIST:
            raise PoleError(f"z = {z} hits pole at a-1+{k}")
        logs.append(-cmath.log(factor))
    if not abs(z) < a + n_factors:
        raise DomainError(f"need |z| < a + n_factors = {a + n_factors:.6g}, got |z| = {abs(z):.4g}")
    # N logarithms, added one by one, would round N times
    log_prod = complex(math.fsum(t.real for t in logs), math.fsum(t.imag for t in logs))
    return cmath.exp(_log_power_tail(z, 2, a + n_factors, log_prod))


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
    that k are added with fsum and only the rest goes to `sum_alternating`,
    so CVZ sees an alternating series and the value is a float exactly
    when z^2 is real.

    The coefficients c_k = Gamma(2a+k)/((a+k) k!) are hypergeometric, with
    c_(k+1)/c_k = (1 + (2a-1)/(k+1)) / (1 + 1/(a+k)): log|c_0| takes one
    lgamma, `_log_prefix` the first steps and one pass the rest, which builds
    each term as its log-magnitude is summed, reading its sign and float k
    from the cached `_steps` record (a < 0 flips signs only inside the
    prefix).  The terms stay within about 1e-14 relative of their exact
    values up to N = 1024.
    """
    method = _method(method)
    a = _check_real("a", a)
    z = _check_complex("z", z)
    if a == round(a) and a <= 0:
        raise PoleError(f"Gamma(a)^2 pole at a = {a}")
    if a < 0 and 2.0 * a == round(2.0 * a):
        raise DomainError(f"need 2a not a non-positive integer (Gamma(2a+k) "
                          f"has a pole), got a = {a}")
    _check_index("n_terms", n_terms, 1)
    z2 = z * z
    zz = z2.real if z2.imag == 0 else z2
    ga2 = exp_log(2.0 * log_gamma(a)).real
    # |z^2 - (a+k)^2| >= |Im z^2|, so only a near-real z^2 can meet a pole,
    # and only at the k nearest -a +- sqrt(Re z^2)
    if abs(z2.imag) <= _POLE_DIST:
        root = math.sqrt(max(z2.real, 0.0))
        near = [min(max(x - a, 0.0), n_terms - 1.0) for x in (-root, root)]
        for k in sorted({f(x) for x in near for f in (math.floor, math.ceil)}):
            if abs(zz - (a + k) * (a + k)) <= _POLE_DIST:
                raise PoleError(f"z = {z} within tolerance of pole at a+{k}")
    if z2 == 0:
        # Every term is 0 (CVZ would reject them as not alternating), also
        # where exp of its coefficient's logarithm would overflow.
        return ConvergenceReport(ga2, n_terms, 0.0, method)
    c = 2.0 * a - 1.0
    logs, total, comp = _log_prefix(math.lgamma(2.0 * a) - math.log(abs(a)),
                                    ((c, 1.0, 1.0), (1.0, a, -1.0)), 0, n_terms - 1)
    # 2 (-1)^(k+1) sign(c_k); 2a+k < 0 for k <= -2a, Gamma(2a+k) < 0 at odd
    # floors, all k inside the prefix, past which the signs just alternate
    twos = [-2.0, 2.0] * (len(logs) // 2 + 1)
    for k in range(min(len(logs), math.floor(-2.0 * a) + 1)):
        if math.floor(2.0 * a + k) % 2 != (a + k < 0):
            twos[k] = -twos[k]
    terms = [two * math.exp(log_coef) * zz / (zz - (ak := a + k) * ak)
             for two, log_coef, k in zip(twos, logs, map(float, range(n_terms)))]
    # a + k serves c_k's term and the step from c_k to c_(k+1)
    ak = a + (len(logs) - 1)
    steps = _steps(-2.0, 1 << (n_terms - 1).bit_length())
    for two, k1 in itertools.islice(steps, len(logs), n_terms):
        y = math.log1p(c / k1) - math.log1p(1.0 / ak) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        ak = a + k1
        terms.append(two * math.exp(total) * zz / (zz - ak * ak))
    k = 0
    if z2.imag == 0:
        while k < n_terms - 1 and (2.0 * a + k <= 0 or (a + k) ** 2 <= z2.real):
            k += 1
    head = math.fsum(terms[:k])
    rep = _sum_own_terms(terms[k:] if k else terms, method)
    return ConvergenceReport(ga2 + head + rep.value, n_terms, rep.error_estimate, method)


@_within_double_range
def inverse_square_series(q: float, n_terms: int,
                          method: AccelerationMethod | str) -> ConvergenceReport:
    """The series -2 sum_n (-1)^n Gamma(2q+n+1)/(Gamma(q+1)^2 (n-1)! (q+n)^3),
    whose (possibly regularized) value is psi'(q+1).

    The terms are hypergeometric, with t_(n+1)/t_n =
    -(1 + (2q+1)/n) / (1 + 1/(q+n))^3: log|t_1| takes the only lgamma calls,
    `_log_prefix` the first steps and one term-building pass the rest, which
    reads each sign and float n from the cached `_steps` record.
    """
    method = _method(method)
    q = _check_real("q", q, -1, True)
    _check_index("n_terms", n_terms, 1)
    # With 16 terms the CVZ sum leaves the double range from q near 454,
    # a term from 469, and lgamma itself from 1e305.
    log_t1 = (math.lgamma(2.0 * q + 2.0) - 2.0 * math.lgamma(q + 1.0)
              - 3.0 * math.log(q + 1.0))
    c = 2.0 * q + 1.0
    logs, total, comp = _log_prefix(log_t1, ((c, 0.0, 1.0), (1.0, q, -3.0)),
                                    1, n_terms)
    steps = _steps(2.0, 1 << (n_terms - 1).bit_length())
    terms = [two * math.exp(log) for (two, _), log in zip(steps, logs)]
    for two, k in itertools.islice(steps, len(logs), n_terms):
        y = math.log1p(c / k) - 3.0 * math.log1p(1.0 / (k + q)) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        terms.append(two * math.exp(total))
    return _sum_own_terms(terms, method)
