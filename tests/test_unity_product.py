import cmath
import math
import random
import re

import mpmath as mp
import pytest

from omega_zeta import (
    DomainError,
    ExpZetaSeries,
    GammaProduct,
    PoleError,
    TruncatedProduct,
    log_gamma,
    product_coefficient,
    series_coefficient,
    unity_gamma_product,
    unity_product_pfd,
)
from omega_zeta.special import _log_truncated_product
from omega_zeta.unity_product import coefficient_log_parts

ROUTES = (TruncatedProduct(), GammaProduct(), ExpZetaSeries())


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
    # A first-order tail left the truncated route 6.8e-11 off here.
    for z in (0.1, 0.3, 0.5 + 0.2j, 0.8j):
        ref = math.pi * z / cmath.sin(math.pi * z)
        for route in ROUTES:
            v = unity_gamma_product(2, z, route)
            assert abs(v - ref) < 1e-13 * abs(ref)


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
    # The truncated route serves |z| < 1001; just inside, at 2002 factors,
    # its tail converges and the value is pi z/sin(pi z).  It is real: the
    # 1000 factors with s < z are negative, and an fsum of their phases
    # fl(pi) left an imaginary part of 3.27e-9 where their parity gives 0.
    with pytest.raises(DomainError):
        unity_gamma_product(2, 1200.5 + 0.5j, TruncatedProduct())
    z = 1000.9
    v = unity_gamma_product(2, z, TruncatedProduct())
    with mp.workdps(40):
        ref = mp.pi * z / mp.sin(mp.pi * mp.mpf(z))
        assert v.imag == 0.0
        assert abs(v.real - ref) <= 1e-12 * abs(ref)
    with pytest.raises(DomainError, match=r"^z must be a finite number, got \(nan\+0j\)$"):
        unity_gamma_product(3, complex(math.nan, 0), GammaProduct())
    for z in (complex(math.nan, 0), complex(0.2, math.nan)):
        message = f"z must be a finite number, got {z!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            unity_product_pfd(3, z, 5)
    with pytest.raises(DomainError):
        unity_product_pfd(3, 0.3, 0)
    with pytest.raises(DomainError):
        series_coefficient(3, 0)
    with pytest.raises(DomainError):
        product_coefficient(1, 2)


@pytest.mark.parametrize("m,z", [(500, 3 * (1 + 1e-13)), (3, 1 + 1e-10j),
                                 (2, 1 + 1e-12j)])
def test_pole_check_still_fires_near_the_poles(m, z):
    for route in ROUTES:
        with pytest.raises(PoleError):
            unity_gamma_product(m, z, route)
    with pytest.raises(PoleError):
        unity_product_pfd(m, z, 10)


def test_coefficients_m2_are_unit():
    for n in range(1, 40):
        assert series_coefficient(2, n) == (-1.0) ** n


def test_coefficient_routes_agree():
    for m in (2, 3, 4, 5):
        for n in (1, 2, 5, 9, 15):
            cf = series_coefficient(m, n)
            pr = product_coefficient(m, n)
            assert abs(pr - cf) < 1e-6 * abs(cf)


def test_coefficient_sign_and_bound():
    for m in (3, 4, 5):
        for n in range(1, 31):
            v = series_coefficient(m, n)
            assert abs(v) < 1.0
            assert (v > 0) == (n % 2 == 0)


@pytest.mark.parametrize("m", [200, 300])
def test_product_coefficient_at_large_m(m):
    # The old tail formed n^(mk) = 2^(300k), which overflows from k = 4.
    # The closed form is itself 1.6e-13 off here, so the reference is mpmath.
    with mp.workdps(40):
        ref = mp.fprod(mp.gamma(1 - mp.expjpi(mp.mpf(2 * j) / m) * 2)
                       for j in range(1, m)) / 2
        assert abs(product_coefficient(m, 2) - ref) <= 1e-13 * abs(ref)


def test_pfd_series_against_closed_form():
    v = unity_product_pfd(2, 0.5, 200)
    assert abs(v.value - math.pi / 2) < 1e-5
    assert abs(v.value - math.pi / 2) < v.error_estimate


def test_pfd_series_at_zero():
    v = unity_product_pfd(3, 0.0, 1)
    assert v.value == 1.0
    assert v.error_estimate == 0.0


@pytest.mark.parametrize("z", [12.5, 8.0 + 8.0j, 11.0 + 1e-9j])
def test_pfd_series_refuses_z_beyond_its_tail_bound(z):
    # The tail bound divides by 1 - (|z|/(N+1))^m, negative from |z| = N+1:
    # (20, 12.5, 10) once reported an estimate of -26.5.
    with pytest.raises(DomainError):
        unity_product_pfd(20, z, 10)


@pytest.mark.parametrize("z", [2.5, 1.9 + 0.1j, 1.8])
def test_pfd_series_refuses_z_whose_power_leaves_the_double_range(z):
    # w = (z/n)^1200 at n = 1 and m|z|^m leave the double range here (once
    # Python's "complex exponentiation" OverflowError, and at 1.8 a nan
    # estimate), while the product itself is far below it.
    with pytest.raises(DomainError, match=r"needs m \|z\|\^m < 1.8e308"):
        unity_product_pfd(1200, z, 10)


def test_pfd_series_matches_gamma_route_within_tail():
    v = unity_product_pfd(3, 0.3, 100)
    ref = unity_gamma_product(3, 0.3, GammaProduct())
    assert abs(v.value - ref) < v.error_estimate


@pytest.mark.parametrize("z", [0.5, 0.95])
def test_pfd_series_at_large_m(z):
    # n^1200 overflows a float from n = 2; each term takes w = (z/n)^m.
    v = unity_product_pfd(1200, z, 10)
    with mp.workdps(40):
        zm = mp.mpc(z) ** 1200
        ref = mp.exp(mp.nsum(lambda k: mp.zeta(1200 * k) * zm ** k / k,
                             [1, mp.inf]))
    assert abs(v.value - complex(ref)) <= v.error_estimate


def test_coefficient_log_parts_against_multiprecision():
    # lambda_n = (-1)^n/n! prod_j Gamma(1 - w^j n) is real with sign (-1)^n.
    rng = random.Random(11)
    with mp.workdps(40):
        for _ in range(40):
            m, n = rng.randint(3, 120), rng.randint(1, 64)
            log_mag = coefficient_log_parts(m, n)
            assert math.copysign(1.0, series_coefficient(m, n)) == (-1) ** n
            ref = mp.fsum(mp.re(mp.loggamma(1 - mp.exp(2j * mp.pi * j / m) * n))
                          for j in range(1, m)) - mp.loggamma(n + 1)
            assert abs(log_mag - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("m", [500, 2000])
def test_coefficient_log_parts_large_m(m):
    for n in range(1, 9):
        log_mag = coefficient_log_parts(m, n)
        assert math.copysign(1.0, series_coefficient(m, n)) == (-1) ** n
        assert math.isfinite(log_mag)


@pytest.mark.parametrize("m", [103, 120])
def test_truncated_product_beyond_float_range_of_n_to_the_m(m):
    # n^m as an integer no longer converts to a float from m = 103 on.
    for z in (0.5, 0.99, 0.5 + 0.3j, 0.95j, cmath.rect(1.2, 0.3)):
        ref = unity_gamma_product(m, z, GammaProduct())
        v = unity_gamma_product(m, z, TruncatedProduct())
        assert abs(v - ref) <= 1e-9 * abs(ref)


def _phi_reference(m, z):
    # log prod_j Gamma(1 - w^j z) = sum_k zeta(mk) z^(mk)/k for |z| < 1
    with mp.workdps(40):
        zm = mp.mpc(z.real, z.imag) ** m
        return complex(mp.exp(mp.nsum(lambda k: mp.zeta(m * k) * zm ** k / k, [1, mp.inf])))


def test_truncated_product_within_an_ulp_or_two_on_the_unit_disc():
    # N = max(2|z|, 4) factors: 1000 fixed factors left 3e-14 here.
    rng = random.Random(36)
    for i in range(70):
        m = (3, 4, 5, 8, 20, 60, 100)[i % 7]
        z = cmath.rect(0.9 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
        ref = _phi_reference(m, z)
        assert abs(unity_gamma_product(m, z, TruncatedProduct()) - ref) <= 1e-15 * abs(ref), (m, z)


@pytest.mark.parametrize("m", [3, 4, 8])
def test_truncated_product_converges_up_to_its_domain_edge(m):
    # With 1000 fixed factors the tail gave up ("does not converge") from
    # |z| of about 700; N >= 2|z| keeps its ratio below 1/2.
    with mp.workdps(40):
        for r in (100.37, 400.37, 700.37, 850.37, 1000.37):
            z = cmath.rect(r, 0.05)
            ref = mp.fsum(mp.re(mp.loggamma(1 - mp.expjpi(mp.mpf(2 * j) / m) * mp.mpc(z)))
                          for j in range(m))
            log_mag = _log_truncated_product(z, m, 0.0, math.ceil(2 * r)).real
            assert abs(log_mag - ref) <= 1e-12 * abs(ref), (m, r)
            unity_gamma_product(m, z, TruncatedProduct())


def test_truncated_product_tail_beyond_first_order():
    # At m = 2 the first-order tail z^2 sum_{n>1000} n^-2 left 1.4e-4 here.
    z = 30.5 + 0.1j
    ref = unity_gamma_product(2, z, GammaProduct())
    v = unity_gamma_product(2, z, TruncatedProduct())
    assert abs(v - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("r", [1.898, 1.92])
def test_truncated_product_with_huge_first_factor(r):
    # z^1100 is e^705 at |z| = 1.898 and overflows at 1.92, where the
    # product is still 2.3e-312, not 0.
    z = cmath.rect(r, 0.2)
    ref = unity_gamma_product(1100, z, GammaProduct())
    v = unity_gamma_product(1100, z, TruncatedProduct())
    assert ref != 0
    assert abs(v - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("z", [0.95, -0.95, 0.95j])
def test_exp_zeta_route_converges_at_the_edge_of_its_domain(z):
    # At m = 2 the powers z^(2k) shrink only by 0.9025 each; a cap of 200
    # powers left a tail of 6e-11.
    v = unity_gamma_product(2, z, ExpZetaSeries())
    with mp.workdps(40):
        ref = mp.pi * mp.mpc(z) / mp.sin(mp.pi * mp.mpc(z))
    assert float(abs(v - ref) / abs(ref)) <= 1e-13


def test_coefficient_log_parts_bit_identical_to_a_log_gamma_loop():
    # log|lambda_n| as the plain sum of log_gamma(1 - w n).real over roots
    # computed afresh (not from the roots memo) must keep every bit.
    for m in range(3, 161):
        roots = [(1 + 0j, 1j, -1 + 0j, -1j)[4 * j // m % 4] if 4 * j % m == 0
                 else cmath.exp(2j * math.pi * j / m) for j in range(1, m)]
        for n in range(2, 130):
            log_mag = 0.0
            for w in roots:
                log_mag += log_gamma(1.0 - w * n).real
            expected = log_mag - math.lgamma(n + 1.0)
            assert coefficient_log_parts(m, n).hex() == expected.hex(), (m, n)
