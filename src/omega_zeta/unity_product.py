"""The infinite product prod_{n>=1} n^m/(n^m - z^m) and its expansions.

Three independent evaluation routes are provided (truncated product
with tail correction, gamma-function product, exp of a zeta power
series), plus the partial-fraction coefficients of the product by two
independent routes and the rearranged partial-fraction series.  The
coefficients are real: the gamma closed form sums only the real parts
of its log-gammas and takes the sign (-1)^n from the formula.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, PoleError
from .oracle import tail_power_sum, zeta_oracle
from .special import exp_log, log_gamma, roots_of_unity

__all__ = [
    "TruncatedProduct",
    "GammaProduct",
    "ExpZetaSeries",
    "SeriesCoefficient",
    "ProductRoute",
    "ClosedFormRoute",
    "unity_gamma_product",
    "series_coefficient",
    "unity_product_pfd",
    "PfdSeriesValue",
]

_POLE_DIST = 1e-8


@dataclass(frozen=True)
class TruncatedProduct:
    n_factors: int = 1000


@dataclass(frozen=True)
class GammaProduct:
    pass


@dataclass(frozen=True)
class ExpZetaSeries:
    max_powers: int = 200


@dataclass(frozen=True)
class ProductRoute:
    n_factors: int


@dataclass(frozen=True)
class ClosedFormRoute:
    pass


@dataclass(frozen=True)
class SeriesCoefficient:
    """Partial-fraction coefficient of the product at the pole z = n."""

    m: int
    n: int
    value: float
    route: object


def _check_pole_distance(m: int, z: complex):
    # Poles sit at n * omega^{-j}; only |z| close to an integer matters.
    r = abs(z)
    k = round(r)
    if k >= 1 and abs(z ** m - k ** m) <= _POLE_DIST * k ** m:
        raise PoleError(f"z = {z} within tolerance of a product pole")


def unity_gamma_product(m: int, z: complex, route) -> complex:
    """Evaluate the product by the requested route."""
    if m < 2:
        raise DomainError(f"need m >= 2, got {m}")
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"need finite z, got {z}")
    if z == 0:
        return 1.0 + 0j
    _check_pole_distance(m, z)

    if isinstance(route, GammaProduct):
        acc = 0j
        for w in roots_of_unity(m).roots:
            acc += log_gamma(1.0 - w * z)
        return exp_log(acc)

    if isinstance(route, TruncatedProduct):
        n_factors = route.n_factors
        log_prod = 0j
        # (z/n)^m, not z^m/n^m: the integer n^m overflows a float from m = 103.
        for n in range(1, n_factors + 1):
            log_prod -= cmath.log(1.0 - (z / n) ** m)
        # First-order tail: exp(z^m * sum_{n>N} n^-m).
        tail = z ** m * tail_power_sum(m, n_factors)
        return cmath.exp(log_prod + tail)

    if isinstance(route, ExpZetaSeries):
        if abs(z) > 0.95:
            raise DomainError(
                f"exp-zeta route needs |z| <= 0.95, got |z| = {abs(z):.4g}"
            )
        zm = z ** m
        p = zm
        s = 0j
        for k in range(1, route.max_powers + 1):
            inc = zeta_oracle(m * k) / k * p
            s += inc
            if abs(inc) < 1e-18:
                break
            p *= zm
        return cmath.exp(s)

    raise ValueError(f"unknown route {route!r}")


@lru_cache(maxsize=None)
def coefficient_log_parts(m: int, n: int):
    """(log |lambda_n|, sign) of the gamma closed form

        lambda_n = (-1)^n/n! * prod_{j=1}^{m-1} Gamma(1 - w^j n).

    lambda_n is real with sign (-1)^n: conjugate roots pair into
    |Gamma(1 - w^j n)|^2 > 0, and w = -1 (even m) contributes n!.  So
    only the real parts of the log-gammas are summed.
    """
    sign = -1 if n % 2 else 1
    if m == 2:
        # Gamma(1 + n) cancels n! exactly.
        return 0.0, sign
    log_mag = 0.0
    for w in roots_of_unity(m).roots[1:]:
        log_mag += log_gamma(1.0 - w * n).real
    return log_mag - math.lgamma(n + 1.0), sign


def series_coefficient(m: int, n: int, route=ClosedFormRoute()) -> SeriesCoefficient:
    """The coefficient lambda_n, by truncated product or gamma closed form."""
    if m < 2 or n < 1:
        raise DomainError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    if isinstance(route, ClosedFormRoute):
        log_mag, sign = coefficient_log_parts(m, n)
        return SeriesCoefficient(m, n, sign * math.exp(log_mag), route)
    if isinstance(route, ProductRoute):
        if route.n_factors < 4 * n:
            raise DomainError("product route needs at least 4n factors")
        # -(1/m) prod_{s != n} s^m/(s^m - n^m), in log space with sign tracking
        log_mag = -math.log(m)
        sign = -1
        nm = float(n) ** m
        for s in range(1, route.n_factors + 1):
            if s == n:
                continue
            num = float(s) ** m
            den = num - nm
            log_mag += math.log(num) - math.log(abs(den))
            if den < 0:
                sign = -sign
        # Tail prod_{s>N} s^m/(s^m - n^m) = exp(sum_k n^{mk}/k * sum_{s>N} s^{-mk});
        # raw truncation at N = 8n would leave an O(n/N) relative error.
        big_n = route.n_factors
        for k in range(1, 400):
            inc = float(n) ** (m * k) / k * tail_power_sum(m * k, big_n)
            log_mag += inc
            if inc < 1e-17:
                break
        return SeriesCoefficient(m, n, sign * math.exp(log_mag), route)
    raise ValueError(f"unknown route {route!r}")


@dataclass(frozen=True)
class PfdSeriesValue:
    value: complex
    tail_bound: float
    terms_used: int


def unity_product_pfd(m: int, z: complex, n_terms: int) -> PfdSeriesValue:
    """Partial-fraction series for the product:

        1 + sum_{n=1}^{N} m * lambda_n * z^m/(z^m - n^m)

    with a conservative tail bound m|z|^m sum_{n>N} 1/(n^m - |z|^m).
    """
    if n_terms < 1:
        raise DomainError("need n_terms >= 1")
    z = complex(z)
    if z == 0:
        return PfdSeriesValue(1.0 + 0j, 0.0, n_terms)
    _check_pole_distance(m, z)
    zm = z ** m
    s = 1.0 + 0j
    for n in range(1, n_terms + 1):
        lam = series_coefficient(m, n).value
        s += m * lam * zm / (zm - float(n) ** m)
    r = abs(z) ** m
    # sum_{n>N} 1/(n^m - r) <= sum_{n>N} n^-m / (1 - r/(N+1)^m)
    tail_sum = tail_power_sum(m, n_terms) / (1.0 - r / float(n_terms + 1) ** m)
    tail = m * r * tail_sum
    return PfdSeriesValue(s, tail, n_terms)
