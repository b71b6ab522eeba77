import math

import mpmath as mp
import pytest

import omega_zeta.zeta_series as zeta_series_module
from omega_zeta import (
    DomainError,
    PrecisionConfig,
    gamma,
    roots_of_unity,
    zeta_oracle,
    zeta_term,
    zeta_via_series,
)

mp.mp.dps = 30


def test_m2_terms_collapse():
    for n in range(1, 101):
        expected = 2.0 * (-1.0) ** (n - 1) / n ** 2
        t = zeta_term(2, n)
        assert abs(t - expected) <= 1e-14 * abs(expected)
    assert abs(zeta_term(2, 3) - 2.0 / 9.0) < 1e-16


def test_first_m3_term_is_gamma_modulus_squared():
    # 3 * |Gamma(1.5 - sqrt(3)/2 i)|^2, by multiprecision
    ref = float(3 * abs(mp.gamma(mp.mpc(1.5, -mp.sqrt(3) / 2))) ** 2)
    t = zeta_term(3, 1)
    assert t > 0
    assert abs(t - ref) < 1e-12 * ref


def test_term_bound_and_alternation():
    for m in range(2, 7):
        for n in range(1, 101):
            t = zeta_term(m, n)
            assert abs(t) <= m / float(n) ** m * (1 + 1e-12)
            assert math.copysign(1.0, t) == (1 if n % 2 else -1)


def test_log_space_no_overflow():
    for m in range(2, 9):
        for n in range(1, 201):
            t = zeta_term(m, n)
            assert isinstance(t, float)
            assert math.isfinite(t)


def test_log_space_matches_direct_small_n():
    for m in (3, 4, 5):
        roots = roots_of_unity(m)
        for n in range(1, 21):
            direct = m * (-1.0) ** (n - 1)
            for w in roots[1:]:
                direct *= gamma(1.0 - w * n)
            direct /= math.factorial(n) * float(n) ** m
            t = zeta_term(m, n)
            assert abs(direct.real - t) <= 1e-10 * abs(t)


def test_series_values():
    assert abs(zeta_via_series(2, PrecisionConfig(max_terms=32)).value
               - math.pi ** 2 / 6) < 1e-12
    assert abs(zeta_via_series(3, PrecisionConfig(max_terms=64)).value
               - zeta_oracle(3)) < 1e-9
    assert abs(zeta_via_series(4, PrecisionConfig(max_terms=64)).value
               - math.pi ** 4 / 90) < 1e-9


def test_monotone_improvement():
    for m in (2, 3, 4):
        ref = zeta_oracle(m)
        errs = [abs(zeta_via_series(m, PrecisionConfig(max_terms=k)).value - ref)
                for k in (8, 16, 32, 64)]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 5e-15


def test_unknown_method_is_a_domain_error_before_any_term(monkeypatch):
    def no_terms(m, n):
        raise AssertionError("term built before the method was checked")

    monkeypatch.setattr(zeta_series_module, "zeta_term", no_terms)
    with pytest.raises(DomainError):
        zeta_via_series(3, PrecisionConfig(method="bogus"))


def test_domain_errors():
    with pytest.raises(DomainError):
        zeta_via_series(1)
    with pytest.raises(DomainError):
        zeta_term(3, 0)
