import math

import mpmath as mp
import pytest

import omega_zeta.gamma_pfd as gamma_pfd_module
from omega_zeta import (
    AccelerationMethod,
    DivergenceError,
    DomainError,
    gamma,
    gamma_pair,
    gamma_pfd_series,
    integer_sequence,
    inverse_square_series,
    modulus_product,
    shifted_integer_sequence,
    summation_identity_check,
    trigamma,
)

CVZ = AccelerationMethod.CHEBYSHEV_ALTERNATING
EULER = AccelerationMethod.EULER_TRANSFORM
NONE = AccelerationMethod.NO_ACCELERATION


def test_gamma_pair_values():
    assert abs(gamma_pair(1.0, 0.5) - math.pi / 2) < 1e-13
    a = 2.3
    assert abs(gamma_pair(a, 0.0) - gamma(a) ** 2) < 1e-12 * abs(gamma(a)) ** 2
    assert abs(gamma_pair(0.5, 0.25) - math.pi * math.sqrt(2)) < 1e-12


def test_summation_identity_integers():
    lhs, rhs = summation_identity_check(integer_sequence(), 64, CVZ)
    assert abs(rhs.real - math.pi ** 2 / 6) < 1e-9
    assert abs(lhs.real + trigamma(65.0) - math.pi ** 2 / 6) < 1e-13


def test_summation_identity_shifted_reduces_to_integers():
    seq = shifted_integer_sequence(1.0)
    for n in (1, 2, 5, 10):
        assert seq.term(n) == float(n)
        assert abs(seq.fprime_at(n) - (-1.0) ** n) < 1e-13


def test_summation_identity_shifted():
    seq = shifted_integer_sequence(1.3)
    lhs, _ = summation_identity_check(seq, 10000)
    assert abs(lhs.real + trigamma(1.3 + 10000.0) - trigamma(1.3)) < 1e-10
    _, rhs = summation_identity_check(seq, 256, EULER)
    assert abs(rhs.real - trigamma(1.3)) < 1e-6


def test_identity_check_default_refuses_growing_terms():
    # Without a method the right side is a plain sum, which a = 2.6 makes
    # grow like n^(2a-4).
    with pytest.raises(DivergenceError):
        summation_identity_check(shifted_integer_sequence(2.6), 64)


def test_unknown_method_is_a_domain_error_before_any_term(monkeypatch):
    def no_terms(_):
        raise AssertionError("term built before the method was checked")

    monkeypatch.setattr(gamma_pfd_module, "log_gamma", no_terms)
    with pytest.raises(DomainError):
        gamma_pfd_series(1.0, 0.3, 16, "bogus")


def test_modulus_product_cases():
    assert abs(modulus_product(1.0, 0.5, 1000) - math.pi / 2) < 1e-8
    assert modulus_product(2.0, 0.0, 1) == 1.0
    ref = gamma_pair(2.5, 0.7j) / gamma(2.5) ** 2
    assert abs(modulus_product(2.5, 0.7j, 1000) - ref) < 1e-8 * abs(ref)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
def test_modulus_product_agreement_grid(a):
    for frac in (0.1, 0.5, 0.9):
        z = frac * a
        ref = gamma_pair(a, z) / gamma(a) ** 2
        assert abs(modulus_product(a, z, 1000) - ref) < 1e-8 * abs(ref)


def test_series_raw_convergent_regime():
    for a in (0.5, 0.8, 1.0, 1.25):
        for z in (0.1, 0.3, 0.45, 0.2j):
            rep = gamma_pfd_series(a, z, 1000, NONE)
            err = abs(rep.value - gamma_pair(a, z))
            assert err <= 5 * rep.error_estimate


def test_series_z_zero_gives_gamma_squared():
    for a in (0.5, 1.7, 3.0):
        rep = gamma_pfd_series(a, 0.0, 1, NONE)
        assert abs(rep.value - gamma(a).real ** 2) < 1e-12 * gamma(a).real ** 2


@pytest.mark.parametrize("method", list(AccelerationMethod))
def test_series_z_zero_under_every_method(method):
    for a in (0.5, 1.5, 3.0):
        rep = gamma_pfd_series(a, 0.0, 16, method)
        assert rep.value == gamma(a).real ** 2
        assert rep.error_estimate == 0.0
        assert rep.method is method


@pytest.mark.parametrize("a,z", [(math.nan, 0.3), (math.inf, 0.3),
                                 (1.5, complex(math.nan, 0.0)),
                                 (1.5, complex(0.2, -math.inf))])
def test_series_rejects_non_finite_input(a, z):
    with pytest.raises(DomainError, match="need finite"):
        gamma_pfd_series(a, z, 16, EULER)


@pytest.mark.parametrize("a,z", [(0.3, 0.45), (0.3, 1.7), (0.6, 2.2),
                                 (1.2, 3.9), (-0.3, 0.45), (-2.7, 1.1)])
def test_series_cvz_when_z_exceeds_a(a, z):
    # Terms with (a+k)^2 < z^2 (or a+k, 2a+k <= 0) break the alternation.
    ref = mp.gamma(mp.mpf(a) + z) * mp.gamma(mp.mpf(a) - z)
    for zz in (z, -z):
        rep = gamma_pfd_series(a, zz, 64, CVZ)
        assert rep.terms_used == 64
        assert abs(rep.value - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("z", [0.3, 0.0])
def test_series_rejects_half_integer_pole_of_gamma_2a(z):
    with pytest.raises(DomainError, match=r"2a .* got a = -0\.5"):
        gamma_pfd_series(-0.5, z, 16, EULER)


@pytest.mark.parametrize("method", [EULER, CVZ])
@pytest.mark.parametrize("a,z", [(-0.0010936, 0.71505), (-2.998009, 0.42306),
                                 (-0.9954445, 0.4823201j)])
def test_series_is_real_for_real_z_squared(a, z, method):
    # Gamma(a)^2 is real; near a pole of Gamma(a) it is large, and a complex
    # exp of its logarithm would leave a spurious imaginary part.
    rep = gamma_pfd_series(a, z, 64, method)
    assert type(rep.value) is float


def test_series_regularized_regime():
    for a in (1.5, 2.0, 3.0):
        for z in (0.1, 0.3, 0.45, 0.2j):
            rep = gamma_pfd_series(a, z, 64, EULER)
            ref = gamma_pair(a, z)
            assert abs(rep.value - ref) < 1e-6 * abs(ref)


def test_series_divergence_detected():
    with pytest.raises(DivergenceError):
        gamma_pfd_series(3.0, 0.4, 64, NONE)


def test_series_even_in_z():
    for a in (0.5, 2.0):
        for z in (0.3, 0.2j, 0.1 + 0.1j):
            assert (gamma_pfd_series(a, z, 48, EULER).value
                    == gamma_pfd_series(a, -z, 48, EULER).value)


def test_inverse_square_collapse_at_zero():
    rep = inverse_square_series(0.0, 1000, NONE)
    assert abs(rep.value - math.pi ** 2 / 6) < 1e-5


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.5])
def test_inverse_square_vs_trigamma(q):
    rep = inverse_square_series(q, 64, EULER)
    assert abs(rep.value - trigamma(q + 1.0)) < 1e-6


def test_inverse_square_divergence_detected():
    with pytest.raises(DivergenceError):
        inverse_square_series(2.5, 64, NONE)
