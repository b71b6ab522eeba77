"""The infinite product prod_{n>=1} n^m/(n^m - z^m) and its expansions.

Three independent evaluation routes are provided (truncated product,
gamma-function product, exp of a zeta power series), plus the
partial-fraction coefficients of the product by two independent routes
and the rearranged partial-fraction series.  The coefficients are plain
floats: the gamma closed form (`series_coefficient`) sums only the real
parts of its log-gammas and takes the sign (-1)^n from the formula.

One truncated product, `_log_truncated_product`, serves the
`TruncatedProduct` route and the residue lambda_n = -(1/m) prod_{s != n}
1/(1 - (n/s)^m) of `product_coefficient`; its tail sum_k x^(mk)/k
zeta(mk, N + 1) is `special._log_power_tail`, as `modulus_product`'s is.
`ExpZetaSeries` is that tail at N = 0 but keeps its own loop over
`zeta_oracle`: the routes share only the Hurwitz sum, which `verify`
checks against closed forms.
"""

from __future__ import annotations

import cmath
import math

from .accel import AccelerationMethod, ConvergenceReport
from .errors import DomainError, PoleError, _check_complex, _check_index
from .oracle import tail_power_sum, zeta_oracle
from .special import _log_gamma_real, _log_power_tail, exp_log, log_gamma, roots_of_unity

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
    if not math.isfinite(math.hypot(z.real, z.imag)):
        raise DomainError(f"need finite z with |z| in double range, got {z}")
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
    return _log_power_tail(x, m, n_factors + 1.0, log_prod) + head


def unity_gamma_product(m: int, z: complex, route) -> complex:
    """Evaluate the product by the requested route."""
    _check_index("m", m, 2)
    z = _check_complex("z", z)
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
        log_mag += _log_gamma_real(1.0 - w * n)
    return log_mag - math.lgamma(n + 1.0)


def series_coefficient(m: int, n: int) -> float:
    """lambda_n, the product's coefficient at its pole z = n (closed form)."""
    _check_index("m", m, 2)
    _check_index("n", n, 1)
    return (-1 if n % 2 else 1) * math.exp(coefficient_log_parts(m, n))


def product_coefficient(m: int, n: int) -> float:
    """lambda_n from the truncated product over s = 1..8n, s != n, with its
    full tail; an independent check on `series_coefficient`."""
    _check_index("m", m, 2)
    _check_index("n", n, 1)
    # lambda_n = -(1/m) prod_{s != n} 1/(1 - (n/s)^m), whose n - 1 factors
    # with s < n are negative: the sign is (-1)^n.
    sign = -1 if n % 2 else 1
    return sign * math.exp(_log_truncated_product(m, n, 8 * n, skip=n).real) / m


def unity_product_pfd(m: int, z: complex, n_terms: int) -> ConvergenceReport:
    """Partial-fraction series for the product:

        1 + sum_{n=1}^{N} m * lambda_n * w/(w - 1),  w = (z/n)^m,

    with `error_estimate` the conservative tail bound
    m|z|^m sum_{n>N} 1/(n^m - |z|^m), which holds for |z| < N + 1 only.
    """
    _check_index("m", m, 2)
    _check_index("n_terms", n_terms, 1)
    z = _check_complex("z", z)
    if abs(z) >= n_terms + 1:
        raise DomainError(f"a series of {n_terms} terms needs "
                          f"|z| < {n_terms + 1}, got |z| = {abs(z):.4g}")
    _check_pole_distance(m, z)
    if z and math.log(m) + m * math.log(abs(z)) > 709.78:  # log of the largest double
        raise DomainError(f"the series needs m |z|^m < 1.8e308, got m = {m}, |z| = {abs(z):.4g}")
    s = 1.0 + 0j
    for n in range(1, n_terms + 1):
        w = (z / n) ** m
        s += m * series_coefficient(m, n) * w / (w - 1.0)
    # sum_{n>N} 1/(n^m - r) <= sum_{n>N} n^-m / (1 - r/(N+1)^m), r = |z|^m
    tail_sum = tail_power_sum(m, n_terms) / (1.0 - (abs(z) / (n_terms + 1)) ** m)
    return ConvergenceReport(s, n_terms, m * abs(z) ** m * tail_sum,
                             AccelerationMethod.NO_ACCELERATION)
