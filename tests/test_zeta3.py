import math
import sys

import mpmath as mp
import pytest

import omega_zeta.zeta3 as zeta3_module
from omega_zeta import (
    DomainError,
    PrecisionConfig,
    Zeta3Variant,
    hyperbolic_term,
    log_cosh,
    log_gamma,
    log_sinh,
    p_poly,
    q_poly,
    sine_term,
    zeta3_series,
    zeta_oracle,
    zeta_term,
)
from omega_zeta.accel import _first_terms
from omega_zeta.zeta3 import beta_series_term, inner_double_sum

mp.mp.dps = 40

SQRT3 = math.sqrt(3.0)
ZETA3 = zeta_oracle(3)


def test_p_poly_small():
    assert abs(p_poly(1)) < 1e-15  # P(1) = 1
    assert abs(p_poly(2) - math.log(63)) < 1e-14
    with pytest.raises(DomainError):
        p_poly(0)


def test_q_poly_small():
    assert abs(q_poly(1) - math.log(4)) < 1e-15
    assert abs(q_poly(2) - math.log(208)) < 1e-14
    with pytest.raises(DomainError):
        q_poly(0)


@pytest.mark.parametrize("d", [10, 50])
def test_pq_poly_vs_multiprecision(d):
    p_ref = mp.fsum(mp.log((k - mp.mpf(1) / 2) ** 2
                           + mp.mpf(3) / 4 * (2 * d - 1) ** 2)
                    for k in range(1, d + 1))
    q_ref = mp.fsum(mp.log(k ** 2 + 3 * d ** 2) for k in range(1, d + 1))
    assert abs(p_poly(d) - float(p_ref)) < 1e-12 * float(p_ref)
    assert abs(q_poly(d) - float(q_ref)) < 1e-12 * float(q_ref)


def test_sine_terms_match_series_terms():
    for n in range(1, 21):
        ref = zeta_term(3, n)
        assert abs(sine_term(n) - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 300, 1000])
def test_sine_term_sign_and_magnitude(n):
    # The term is 3 Gamma(1 - w n) Gamma(1 - w^2 n) / (n! n^3) * (-1)^(n-1),
    # which the sine form, the hyperbolic form and zeta_term(3, n) all
    # return as a float.  At n = 1000 it is below the double range and
    # only its sign survives.
    w = mp.exp(2j * mp.pi / 3)
    log_ref = (mp.log(3) + mp.re(mp.loggamma(1 - w * n))
               + mp.re(mp.loggamma(1 - w * w * n))
               - mp.loggamma(n + 1) - 3 * mp.log(n))
    ref = (-1) ** (n - 1) * mp.exp(log_ref)
    for term in (sine_term(n), hyperbolic_term(n), zeta_term(3, n)):
        assert isinstance(term, float)
        assert math.copysign(1.0, term) == (-1) ** (n - 1)
        if abs(ref) >= sys.float_info.min:
            assert (abs((term - ref) / ref)
                    <= 1e-13 * max(1.0, abs(float(log_ref))))


def test_hyperbolic_terms_match_series_terms():
    for n in range(1, 21):
        ref = zeta_term(3, n)
        assert abs(hyperbolic_term(n) - ref) <= 1e-9 * abs(ref)


def test_hyperbolic_first_odd_term():
    ref = 3 * math.pi / math.cosh(SQRT3 * math.pi / 2)
    assert abs(hyperbolic_term(1) - ref) < 1e-13 * ref


def test_gamma_pair_identities():
    for d in range(1, 16):
        lhs = 2.0 * log_gamma(complex(1 + d, SQRT3 * d)).real
        rhs = (math.log(SQRT3 * math.pi * d) + q_poly(d)
               - log_sinh(SQRT3 * math.pi * d))
        assert abs(math.expm1(lhs - rhs)) < 1e-9
        lhs = 2.0 * log_gamma(complex(0.5 + d, SQRT3 * (2 * d - 1) / 2)).real
        rhs = (math.log(math.pi) + p_poly(d)
               - log_cosh(SQRT3 * math.pi * (2 * d - 1) / 2))
        assert abs(math.expm1(lhs - rhs)) < 1e-9


def test_hyperbolic_sum():
    rep = zeta3_series(Zeta3Variant.HYPERBOLIC, PrecisionConfig(max_terms=12))
    assert abs(rep.value - ZETA3) < 1e-9


def test_sine_sum():
    rep = zeta3_series(Zeta3Variant.SINE, PrecisionConfig(max_terms=40))
    assert abs(rep.value - ZETA3) < 1e-6


def test_beta_sum():
    rep = zeta3_series(Zeta3Variant.BETA, PrecisionConfig(max_terms=40))
    assert abs(rep.value - ZETA3) < 1e-13


@pytest.mark.parametrize("method", ["none", "euler", "cvz"])
def test_beta_sum_within_its_estimate_at_every_length(method):
    # Every requested term is used, and the error stays within the estimate.
    ref = mp.zeta(3)
    for n_terms in range(1, 201):
        rep = zeta3_series("beta", PrecisionConfig(max_terms=n_terms, method=method))
        assert rep.terms_used == n_terms
        assert float(abs(rep.value - ref)) <= rep.error_estimate, n_terms


def _mp_beta_term(n):
    return 3 * (-1) ** (n - 1) * mp.beta(mp.mpf(n) / 2, mp.mpf(n) / 2) / n ** 2


def test_beta_series_terms_match_multiprecision():
    # At n = 1 the term is 3 pi, which the sum of the beta form cancels down
    # to zeta(3), so its absolute error counts.
    for n in range(1, 1001):
        ref = _mp_beta_term(n)
        err = abs(beta_series_term(n) - ref)
        assert err <= 4e-15, n
        if n <= 60:
            assert err <= 4e-15 * abs(ref), n


@pytest.mark.parametrize("variant", list(Zeta3Variant), ids=lambda v: v.value)
def test_variant_name_gives_the_same_report(variant):
    config = PrecisionConfig(max_terms=12)
    assert zeta3_series(variant.value, config) == zeta3_series(variant, config)


def test_unknown_variant_is_a_domain_error_before_any_term(monkeypatch):
    def no_terms(n):
        raise AssertionError("term built before the variant was checked")

    for name in ("sine_term", "hyperbolic_term", "beta_series_term",
                 "inner_double_sum"):
        monkeypatch.setattr(zeta3_module, name, no_terms)
    with pytest.raises(DomainError):
        zeta3_series("bogus")


def test_inner_double_sum_matches_term_decomposition():
    # The inner sum plus the Beta part reassembles the series term, so the
    # Euler value of the inner sum, which diverges classically for n >= 4,
    # is the 40-digit series term less the 40-digit Beta part.
    w = mp.exp(2j * mp.pi / 3)
    for n in range(1, 61):
        term = (3 * (-1) ** (n - 1) * mp.gamma(1 - w * n) * mp.gamma(1 - w * w * n)
                / (mp.factorial(n) * n ** 3))
        ref = mp.re(term) - _mp_beta_term(n)
        assert abs(inner_double_sum(n) - ref) <= 2e-15 * abs(ref), n


def test_inner_sums_past_the_double_range_are_the_signed_zeros_they_round_to():
    # From n = 1076 the inner sum is below 2^-n; it returns the signed zero
    # that the summed form rounds to.
    for n in range(1076, 1101):
        diff = (zeta3_module._pfaff_sum(n, 0.5 * n)
                - zeta3_module._pfaff_sum(n, complex(0.5 * n, -0.5 * SQRT3 * n)).real)
        assert 0.0 < diff <= 3.0
        summed = math.ldexp((6.0 if n % 2 == 0 else -6.0) / (n * n) * diff, -n)
        zero = 0.0 if n % 2 == 0 else -0.0
        assert inner_double_sum(n).hex() == summed.hex() == zero.hex()


def test_beta_sum_past_the_double_range_keeps_its_bits():
    long = zeta3_series("beta", PrecisionConfig(max_terms=3000, method="none"))
    short = zeta3_series("beta", PrecisionConfig(max_terms=1000, method="none"))
    assert long.value.hex() == short.value.hex() == "0x1.33ba004f00628p+0"
    assert long.error_estimate.hex() == short.error_estimate.hex() == "0x1.36d499443b9d4p-47"


MEMOIZED = (sine_term, hyperbolic_term, beta_series_term, inner_double_sum)


@pytest.mark.parametrize("fn", MEMOIZED, ids=lambda fn: fn.__name__)
def test_term_cache_returns_the_same_bits(fn):
    grid = (1, 2, 3, 8, 31, 120)

    before = [fn(n).hex() for n in grid]
    fn.cache_clear()
    assert [fn(n).hex() for n in grid] == before
    assert [fn.__wrapped__(n).hex() for n in grid] == before


@pytest.mark.parametrize("fn", (sine_term, hyperbolic_term, inner_double_sum),
                         ids=lambda fn: fn.__name__)
def test_term_cache_keeps_no_exceptions(fn):
    for _ in range(2):
        with pytest.raises(DomainError):
            fn(0)


def test_no_overflow_to_200():
    for n in range(1, 201):
        assert math.isfinite(sine_term(n))
        assert math.isfinite(hyperbolic_term(n))


def test_variants_within_own_estimates():
    for variant in Zeta3Variant:
        rep = zeta3_series(variant, PrecisionConfig(max_terms=40))
        assert abs(rep.value - ZETA3) <= 5 * rep.error_estimate


@pytest.mark.parametrize("fn", (sine_term, hyperbolic_term), ids=lambda fn: fn.__name__)
def test_term_tuple_is_the_per_index_terms(fn):
    grid = (1, 12, 80)

    def bits():
        return [[t.hex() for t in _first_terms(fn, count)] for count in grid]

    before = bits()
    assert before == [[fn(n).hex() for n in range(1, count + 1)] for count in grid]
    assert all(type(_first_terms(fn, count)) is tuple for count in grid)
    _first_terms.cache_clear()
    assert bits() == before
