"""The infinite product prod_{n>=1} n^m/(n^m - z^m) and its expansions.

Three independent evaluation routes are provided (truncated product,
gamma-function product, exp of a zeta power series), plus the
partial-fraction coefficients of the product by two independent routes
and the rearranged partial-fraction series.  The coefficients are plain
floats: the gamma closed form (`series_coefficient`) sums only the real
parts of its log-gammas and takes the sign (-1)^n from the formula.

One truncated product, `_log_truncated_product`, with the full tail
sum_k x^(mk)/k sum_{s>N} s^(-mk), serves the `TruncatedProduct` route and
the residue lambda_n = -(1/m) prod_{s != n} 1/(1 - (n/s)^m) of
`product_coefficient`.  `ExpZetaSeries` is that tail at N = 0, but keeps
its own sum from `zeta_oracle`, so it shares no code with the route it
checks.
"""

from __future__ import annotations

import cmath
import math

from .accel import AccelerationMethod, ConvergenceReport
from .errors import DomainError, PoleError
from .oracle import tail_power_sum, zeta_oracle
from .special import exp_log, log_gamma, roots_of_unity

__all__ = [
    "TruncatedProduct",
    "GammaProduct",
    "ExpZetaSeries",
    "unity_gamma_product",
    "series_coefficient",
    "product_coefficient",
    "unity_product_pfd",
]

_POLE_DIST = 1e-8
_N_FACTORS = 1000  # factors of the truncated-product route


class TruncatedProduct:
    """Route: prod_{n <= 1000} times its power-sum tail, for |z| < 1001."""


class GammaProduct:
    """Route: prod_j Gamma(1 - w^j z) over the m-th roots of unity w^j."""


class ExpZetaSeries:
    """Route: exp(sum_k zeta(mk) z^(mk)/k), for |z| <= 0.95."""


def _check_pole_distance(m: int, z: complex):
    # Poles sit at k * omega^{-j}.  | |z/k|^m - 1 | <= |(z/k)^m - 1|, so
    # (z/k)^m is formed only near |z| = k, where it cannot overflow.
    k = round(abs(z))
    if k < 1 or abs(m * math.log(abs(z) / k)) > 2.0 * _POLE_DIST:
        return
    if abs((z / k) ** m - 1.0) <= _POLE_DIST:
        raise PoleError(f"z = {z} within tolerance of a product pole")


def _log_truncated_product(m: int, x: complex, n_factors: int,
                           skip: int = 0) -> complex:
    """A logarithm of prod_{s >= 1, s != skip} 1/(1 - (x/s)^m): the factors
    s <= N = n_factors and the power-sum tail.  `skip` is 0 or the pole
    s = x that a residue leaves out.  The tail converges for |x| < N + 1;
    where it cannot reach double precision in 400 powers, DomainError."""
    if abs(x) >= n_factors + 1:
        raise DomainError(f"a product of {n_factors} factors needs "
                          f"|z| < {n_factors + 1}, got |z| = {abs(x):.4g}")
    log_prod = 0j
    # w = (x/s)^m overflows for s <= |x| e^(-700/m).  There
    # log(1 - w) = log w + log(1/w - 1) up to 2 pi i, which exp ignores.
    n_over = int(abs(x) * math.exp(-700.0 / m))
    for s in range(1, n_over + 1):
        log_w = m * cmath.log(x / s)
        log_prod -= log_w + cmath.log(cmath.exp(-log_w) - 1.0)
    # (x/s)^m, not x^m/s^m: s^m overflows a float from m = 103.  The
    # factors below a skipped pole (skip = x > n_over) have logs up to
    # m log x; summed apart, the many small ones above it keep their digits.
    head = 0j
    for s in range(n_over + 1, skip):
        head -= cmath.log(1.0 - (x / s) ** m)
    for s in range(max(n_over, skip) + 1, n_factors + 1):
        log_prod -= cmath.log(1.0 - (x / s) ** m)
    log_x = cmath.log(x)
    for k in range(1, 400):
        p = m * k
        power_sum = tail_power_sum(p, n_factors)
        if power_sum < 1e-300:
            # Near underflow the power sum loses its digits.  It is below
            # (N+1)^-p (1 + (N+1)/(p-1)) and later terms are smaller still,
            # so stop only where that bound times |x|^p is negligible.
            if (p * (log_x.real - math.log(n_factors + 1))
                    + math.log1p((n_factors + 1) / (p - 1)) < math.log(1e-17)):
                return log_prod + head
            break
        term = exp_log(p * log_x + math.log(power_sum)) / k
        log_prod += term
        if abs(term) < 1e-17:
            return log_prod + head
    raise DomainError(f"the tail of a product of {n_factors} factors does not "
                      f"converge at |z| = {abs(x):.4g}")


def unity_gamma_product(m: int, z: complex, route) -> complex:
    """Evaluate the product by the requested route."""
    if m < 2:
        raise DomainError(f"need m >= 2, got {m}")
    z = complex(z)
    if not math.isfinite(math.hypot(z.real, z.imag)):
        raise DomainError(f"need finite z with |z| in double range, got {z}")
    if z == 0:
        return 1.0 + 0j
    _check_pole_distance(m, z)

    if isinstance(route, GammaProduct):
        acc = 0j
        for w in roots_of_unity(m):
            acc += log_gamma(1.0 - w * z)
        return exp_log(acc)

    if isinstance(route, TruncatedProduct):
        return cmath.exp(_log_truncated_product(m, z, _N_FACTORS))

    if isinstance(route, ExpZetaSeries):
        if abs(z) > 0.95:
            raise DomainError(
                f"exp-zeta route needs |z| <= 0.95, got |z| = {abs(z):.4g}"
            )
        zm = z ** m
        p = zm
        s = 0j
        # |inc| <= zeta(2) |z|^(mk) < 2 * 0.95^(mk), below 1e-18 by this k.
        max_powers = math.ceil(math.log(5e-19) / (m * math.log(0.95)))
        for k in range(1, max_powers + 1):
            inc = zeta_oracle(m * k) / k * p
            s += inc
            if abs(inc) < 1e-18:
                break
            p *= zm
        return cmath.exp(s)

    raise DomainError(f"unknown route {route!r}")


def coefficient_log_parts(m: int, n: int) -> float:
    """log |lambda_n| of the gamma closed form

        lambda_n = (-1)^n/n! * prod_{j=1}^{m-1} Gamma(1 - w^j n).

    lambda_n is real with sign (-1)^n: conjugate roots pair into
    |Gamma(1 - w^j n)|^2 > 0, and w = -1 (even m) contributes n!.  So
    only the real parts of the log-gammas are summed.
    """
    if m == 2:
        # Gamma(1 + n) cancels n! exactly.
        return 0.0
    log_mag = 0.0
    for w in roots_of_unity(m)[1:]:
        log_mag += log_gamma(1.0 - w * n).real
    return log_mag - math.lgamma(n + 1.0)


def series_coefficient(m: int, n: int) -> float:
    """lambda_n, the product's coefficient at its pole z = n (closed form)."""
    if m < 2 or n < 1:
        raise DomainError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    return (-1 if n % 2 else 1) * math.exp(coefficient_log_parts(m, n))


def product_coefficient(m: int, n: int, n_factors: int) -> float:
    """lambda_n from the truncated product over s = 1..n_factors, s != n,
    with its full tail; an independent check on `series_coefficient`."""
    if m < 2 or n < 1:
        raise DomainError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    if n_factors < 4 * n:
        raise DomainError("product route needs at least 4n factors")
    # lambda_n = -(1/m) prod_{s != n} 1/(1 - (n/s)^m), whose n - 1 factors
    # with s < n are negative: the sign is (-1)^n.
    sign = -1 if n % 2 else 1
    return sign * math.exp(_log_truncated_product(m, n, n_factors, skip=n).real) / m


def unity_product_pfd(m: int, z: complex, n_terms: int) -> ConvergenceReport:
    """Partial-fraction series for the product:

        1 + sum_{n=1}^{N} m * lambda_n * w/(w - 1),  w = (z/n)^m,

    with `error_estimate` the conservative tail bound
    m|z|^m sum_{n>N} 1/(n^m - |z|^m), which holds for |z| < N + 1 only.
    """
    if n_terms < 1:
        raise DomainError("need n_terms >= 1")
    z = complex(z)
    if abs(z) >= n_terms + 1:
        raise DomainError(f"a series of {n_terms} terms needs "
                          f"|z| < {n_terms + 1}, got |z| = {abs(z):.4g}")
    _check_pole_distance(m, z)
    s = 1.0 + 0j
    for n in range(1, n_terms + 1):
        w = (z / n) ** m
        s += m * series_coefficient(m, n) * w / (w - 1.0)
    # sum_{n>N} 1/(n^m - r) <= sum_{n>N} n^-m / (1 - r/(N+1)^m), r = |z|^m
    tail_sum = tail_power_sum(m, n_terms) / (1.0 - (abs(z) / (n_terms + 1)) ** m)
    return ConvergenceReport(s, n_terms, m * abs(z) ** m * tail_sum,
                             AccelerationMethod.NO_ACCELERATION)
