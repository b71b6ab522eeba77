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
from omega_zeta.accel import _first_terms

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


def test_non_integer_m_or_n_is_a_domain_error_cold_and_warm():
    # The caches are typed: once zeta(3) has run, 3.0 still reaches the check.
    zeta_term.cache_clear()
    _first_terms.cache_clear()
    for _ in range(2):
        for call in (lambda: zeta_via_series(3.0), lambda: zeta_via_series(2.5),
                     lambda: zeta_term(2.5, 1), lambda: zeta_term(3, 1.0)):
            with pytest.raises(DomainError, match="[mn] must be an integer, got"):
                call()
        zeta_via_series(3)  # caches the terms and the tuple of m = 3


def test_term_cache_returns_the_same_bits():
    grid = [(m, n) for m in (2, 3, 7, 40) for n in (1, 2, 9, 64)]
    before = [zeta_term(m, n).hex() for m, n in grid]
    zeta_term.cache_clear()
    assert [zeta_term(m, n).hex() for m, n in grid] == before
    assert [zeta_term.__wrapped__(m, n).hex() for m, n in grid] == before


def test_term_cache_keeps_no_exceptions():
    for _ in range(2):
        with pytest.raises(DomainError):
            zeta_term(3, 0)
        with pytest.raises(DomainError):
            zeta_term(1, 4)


@pytest.mark.parametrize("m", [*range(3, 13), 20, 120, 2000])
def test_first_term_matches_the_product(m):
    # t_1 = prod_{s>=2} 1/(1 - s^-m), the truncated product with its tail
    with mp.workdps(40):
        ref = mp.exp(mp.nsum(lambda s: -mp.log1p(-mp.mpf(s) ** -m), [2, mp.inf]))
        assert abs(zeta_term(m, 1) - ref) <= 4e-16 * ref


def _cases_within_estimate():
    for m in range(3, 13):
        yield m, "none", 128
        yield m, "euler", 128
        yield m, "cvz", 640 // m
    # From m*N of about 720 the last terms underflow to +-0.0; they keep
    # their sign bit, so CVZ sums them too.
    yield from ((15, "cvz", 64), (20, "cvz", 64), (23, "cvz", 32),
                (46, "cvz", 16), (2000, "cvz", 4))


@pytest.mark.parametrize("m,method,n_terms", _cases_within_estimate())
def test_series_within_its_estimate(m, method, n_terms):
    rep = zeta_via_series(m, PrecisionConfig(max_terms=n_terms, method=method))
    ref = float(mp.zeta(m))
    eps = 2.0 ** -52
    assert abs(rep.value - ref) <= max(rep.error_estimate, 8 * eps * ref)


@pytest.mark.parametrize("n_terms", [16, 32, 64, 128])
def test_plain_sum_within_its_estimate(n_terms):
    # The last term bounds the truncation; 4u sum |t| covers fsum's rounding
    # and the terms' own (2u leaves m = 9 out), so the estimate never reads
    # 0.0 once the last terms underflow.
    for m in range(3, 41):
        rep = zeta_via_series(m, PrecisionConfig(max_terms=n_terms, method="none"))
        err = abs(mp.mpf(rep.value) - mp.zeta(m))
        assert 0.0 < rep.error_estimate and err <= rep.error_estimate, m


def test_term_tuple_is_the_per_index_terms():
    grid = [(2, 16), (3, 64), (12, 128), (40, 32)]

    def bits():
        return [[t.hex() for t in _first_terms(zeta_term, count, m)] for m, count in grid]

    before = bits()
    assert before == [[zeta_term(m, n).hex() for n in range(1, count + 1)]
                      for m, count in grid]
    assert all(type(_first_terms(zeta_term, count, m)) is tuple for m, count in grid)
    _first_terms.cache_clear()
    assert bits() == before
