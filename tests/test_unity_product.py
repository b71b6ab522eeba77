import cmath
import math
import random

import mpmath as mp
import pytest

from omega_zeta import (
    ClosedFormRoute,
    DomainError,
    ExpZetaSeries,
    GammaProduct,
    PoleError,
    ProductRoute,
    TruncatedProduct,
    series_coefficient,
    unity_gamma_product,
    unity_product_pfd,
)
from omega_zeta.unity_product import coefficient_log_parts

ROUTES = (TruncatedProduct(1000), GammaProduct(), ExpZetaSeries())


def test_value_at_half_is_pi_over_two():
    v = unity_gamma_product(2, 0.5, GammaProduct())
    assert abs(v - math.pi / 2) < 1e-12


def test_value_at_zero_is_one():
    for route in ROUTES:
        assert unity_gamma_product(3, 0.0, route) == 1.0


def test_route_cross_agreement():
    z = 0.4 + 0.1j
    values = [unity_gamma_product(3, z, route) for route in ROUTES]
    scale = abs(values[0])
    for a in values:
        for b in values:
            assert abs(a - b) < 1e-9 * scale


def test_m2_closed_form():
    for z in (0.1, 0.3, 0.5 + 0.2j, 0.8j):
        ref = math.pi * z / cmath.sin(math.pi * z)
        v = unity_gamma_product(2, z, GammaProduct())
        assert abs(v - ref) < 1e-11 * abs(ref)


def test_rotation_symmetry():
    w3 = cmath.exp(2j * math.pi / 3)
    for z in (0.3, 0.5 + 0.2j, 0.7j):
        a = unity_gamma_product(3, z, GammaProduct())
        b = unity_gamma_product(3, w3 * z, GammaProduct())
        assert abs(a - b) < 1e-11 * abs(a)


def test_pole_and_domain_errors():
    with pytest.raises(PoleError):
        unity_gamma_product(2, 1.0 + 1e-12j, GammaProduct())
    with pytest.raises(DomainError):
        unity_gamma_product(3, 0.97, ExpZetaSeries())
    with pytest.raises(DomainError):
        unity_gamma_product(1, 0.5, GammaProduct())


def test_coefficients_m2_are_unit():
    for n in range(1, 40):
        assert series_coefficient(2, n).value == (-1.0) ** n


def test_coefficient_routes_agree():
    for m in (2, 3, 4, 5):
        for n in (1, 2, 5, 9, 15):
            cf = series_coefficient(m, n, ClosedFormRoute()).value
            pr = series_coefficient(m, n, ProductRoute(8 * n)).value
            assert abs(pr - cf) < 1e-6 * abs(cf)


def test_coefficient_sign_and_bound():
    for m in (3, 4, 5):
        for n in range(1, 31):
            v = series_coefficient(m, n).value
            assert abs(v) < 1.0
            assert (v > 0) == (n % 2 == 0)


def test_product_route_needs_enough_factors():
    with pytest.raises(DomainError):
        series_coefficient(3, 10, ProductRoute(20))


def test_pfd_series_against_closed_form():
    v = unity_product_pfd(2, 0.5, 200)
    assert abs(v.value - math.pi / 2) < 1e-5
    assert abs(v.value - math.pi / 2) < v.tail_bound


def test_pfd_series_at_zero():
    v = unity_product_pfd(3, 0.0, 1)
    assert v.value == 1.0
    assert v.tail_bound == 0.0


def test_pfd_series_matches_gamma_route_within_tail():
    v = unity_product_pfd(3, 0.3, 100)
    ref = unity_gamma_product(3, 0.3, GammaProduct())
    assert abs(v.value - ref) < v.tail_bound


def test_coefficient_log_parts_against_multiprecision():
    # lambda_n = (-1)^n/n! prod_j Gamma(1 - w^j n) is real with sign (-1)^n.
    rng = random.Random(11)
    with mp.workdps(40):
        for _ in range(40):
            m, n = rng.randint(3, 120), rng.randint(1, 64)
            log_mag, sign = coefficient_log_parts(m, n)
            assert sign == (-1) ** n
            ref = mp.fsum(mp.re(mp.loggamma(1 - mp.exp(2j * mp.pi * j / m) * n))
                          for j in range(1, m)) - mp.loggamma(n + 1)
            assert abs(log_mag - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("m", [500, 2000])
def test_coefficient_log_parts_large_m(m):
    for n in range(1, 9):
        log_mag, sign = coefficient_log_parts(m, n)
        assert sign == (-1) ** n
        assert math.isfinite(log_mag)


@pytest.mark.parametrize("m", [103, 120])
def test_truncated_product_beyond_float_range_of_n_to_the_m(m):
    # n^m as an integer no longer converts to a float from m = 103 on.
    for z in (0.5, 0.99, 0.5 + 0.3j, 0.95j, cmath.rect(1.2, 0.3)):
        ref = unity_gamma_product(m, z, GammaProduct())
        v = unity_gamma_product(m, z, TruncatedProduct(1000))
        assert abs(v - ref) <= 1e-9 * abs(ref)
