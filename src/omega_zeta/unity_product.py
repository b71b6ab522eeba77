"""The infinite product prod_{n>=1} n^m/(n^m - z^m) and its expansions.

Three independent evaluation routes are provided (truncated product
with tail correction, gamma-function product, exp of a zeta power
series), plus the partial-fraction coefficients of the product by two
independent routes and the rearranged partial-fraction series.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, PoleError, ResidueError
from .oracle import tail_power_sum, zeta_oracle
from .special import LogComplex, log_gamma, roots_of_unity

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
    if z == 0:
        return 1.0 + 0j
    _check_pole_distance(m, z)

    if isinstance(route, GammaProduct):
        acc = LogComplex(0.0, 0.0)
        for w in roots_of_unity(m).roots:
            acc = acc * log_gamma(1.0 - w * z)
        return acc.to_complex()

    if isinstance(route, TruncatedProduct):
        n_factors = route.n_factors
        log_prod = 0j
        zm = z ** m
        for n in range(1, n_factors + 1):
            log_prod -= cmath.log(1.0 - zm / n ** m)
        # First-order tail: exp(z^m * sum_{n>N} n^-m).
        tail = zm * tail_power_sum(m, n_factors)
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


def _closed_form_log(m: int, n: int):
    """(log |coef|, sign) of the gamma closed form (-1)^n/n! * prod Gamma(1 - w^j n)."""
    if m == 2:
        # Gamma(1 + n) cancels n! exactly.
        return 0.0, -1 if n % 2 else 1
    log_mag = 0.0
    arg = 0.0
    for w in roots_of_unity(m).roots[1:]:
        lg = log_gamma(1.0 - w * n)
        log_mag += lg.log_mag
        arg += lg.arg
    log_mag -= math.lgamma(n + 1.0)
    phase = arg + n * math.pi
    residual = abs(math.sin(phase))
    if residual > 1e-9:
        raise ResidueError(
            f"coefficient (m={m}, n={n}) has imaginary residual {residual:.3g}"
        )
    sign = 1 if math.cos(phase) > 0 else -1
    return log_mag, sign


@lru_cache(maxsize=None)
def _closed_form_value(m: int, n: int):
    log_mag, sign = _closed_form_log(m, n)
    return log_mag, sign, sign * math.exp(log_mag)


def series_coefficient(m: int, n: int, route=ClosedFormRoute()) -> SeriesCoefficient:
    """The coefficient lambda_n, by truncated product or gamma closed form."""
    if m < 2 or n < 1:
        raise DomainError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    if isinstance(route, ClosedFormRoute):
        _, _, value = _closed_form_value(m, n)
        return SeriesCoefficient(m, n, value, route)
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


def coefficient_log_parts(m: int, n: int):
    """(log-magnitude, sign) of lambda_n from the gamma closed form."""
    log_mag, sign, _ = _closed_form_value(m, n)
    return log_mag, sign


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
