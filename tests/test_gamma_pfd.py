import math

import mpmath as mp
import pytest

import omega_zeta.gamma_pfd as gamma_pfd_module
from omega_zeta import (
    AccelerationMethod,
    DivergenceError,
    DomainError,
    PoleError,
    exp_log,
    gamma,
    gamma_pair,
    gamma_pfd_series,
    inverse_square_series,
    log_gamma,
    modulus_product,
    trigamma,
)
from omega_zeta.accel import _sum_parts, log_hypergeometric

CVZ = AccelerationMethod.CHEBYSHEV_ALTERNATING
EULER = AccelerationMethod.EULER_TRANSFORM
NONE = AccelerationMethod.NO_ACCELERATION


def test_gamma_pair_values():
    assert abs(gamma_pair(1.0, 0.5) - math.pi / 2) < 1e-13
    a = 2.3
    assert abs(gamma_pair(a, 0.0) - gamma(a) ** 2) < 1e-12 * abs(gamma(a)) ** 2
    assert abs(gamma_pair(0.5, 0.25) - math.pi * math.sqrt(2)) < 1e-12


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


def test_modulus_product_past_double_range_overflows_readably():
    # The tail z^2 psi'(a + N) is about 9.5e4 here, far past exp's range.
    with pytest.raises(OverflowError, match="exceeds double range"):
        modulus_product(1.0, 1000.0, 10)


@pytest.mark.parametrize("a,z", [(math.nan, 0.3), (math.inf, 0.3),
                                 (1.5, complex(0.2, math.nan))])
def test_modulus_product_rejects_non_finite_input(a, z):
    with pytest.raises(DomainError, match="need finite"):
        modulus_product(a, z, 5)


@pytest.mark.parametrize("fn, args, error, match", [
    (modulus_product, (1.0, 0.3, 0), DomainError, "n_factors"),
    (modulus_product, (0.5, 1.5, 5), PoleError, "hits pole"),
    # a - 1 + k is exactly 0 (for |a| < 2^-53, a - 1.0 rounds to -1.0)
    (modulus_product, (0.0, 0.3, 5), PoleError, "hits pole"),
    (modulus_product, (-1.0, 0.3, 5), PoleError, "hits pole"),
    (modulus_product, (1e-300, 0.3, 5), PoleError, "hits pole"),
    (gamma_pfd_series, (-2.0, 0.3, 16, EULER), PoleError, r"Gamma\(a\)\^2 pole"),
    (gamma_pfd_series, (1.5, 0.3, 0, EULER), DomainError, "n_terms"),
    (inverse_square_series, (-1.0, 16, EULER), DomainError, "q > -1"),
    (inverse_square_series, (0.5, 0, EULER), DomainError, "n_terms"),
])
def test_bad_input_raises_its_typed_error(fn, args, error, match):
    with pytest.raises(error, match=match):
        fn(*args)


@pytest.mark.parametrize("series, args", [(gamma_pfd_series, (0.7, 0.3)),
                                          (inverse_square_series, (0.5,))],
                         ids=["gamma_pfd_series", "inverse_square_series"])
def test_cvz_term_limit_passes_through_the_range_guard(series, args):
    # The terms are finite, so the DomainError is CVZ's own, not an overflow.
    with pytest.raises(DomainError, match="at most 402 terms"):
        series(*args, 403, CVZ)


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


@pytest.mark.parametrize("method", list(AccelerationMethod))
def test_series_z_zero_builds_no_term(method):
    # Gamma(85)^2 = 1.1e253 is a double, though exp of log|c_k| overflows for
    # a >= 81.5: at z = 0 the series is Gamma(a)^2 before any term is built.
    rep = gamma_pfd_series(85.0, 0.0, 16, method)
    assert rep.value.hex() == exp_log(2.0 * log_gamma(85.0)).real.hex()
    assert rep.error_estimate == 0.0
    with pytest.raises(OverflowError, match="exceeds double range"):
        gamma_pfd_series(150.0, 0.0, 16, method)  # Gamma(150)^2 is past it


@pytest.mark.parametrize("a,z", [(math.nan, 0.3), (math.inf, 0.3),
                                 (1.5, complex(math.nan, 0.0)),
                                 (1.5, complex(0.2, -math.inf))])
def test_series_rejects_non_finite_input(a, z):
    with pytest.raises(DomainError, match="need finite"):
        gamma_pfd_series(a, z, 16, EULER)


def test_series_huge_a_overflows_readably():
    # At 1e308 2a is inf, so the pole test on 2a must not round it; from
    # a = 81.5 on, exp of log|c_k| overflows while the terms are built.
    for a in (1e308, 81.5, 90.0, 98.9):
        for method in (NONE, EULER, CVZ):
            with pytest.raises(OverflowError, match="exceeds double range"):
                gamma_pfd_series(a, 0.1, 16, method)


@pytest.mark.parametrize("a,z", [(81.08, 5.0), (81.392, 0.3), (81.392, 0.3 + 0.2j)])
@pytest.mark.parametrize("method", [EULER, CVZ])
def test_series_term_past_double_range_overflows_readably(a, z, method):
    # exp(log|c_15|) is finite, but twice it is inf, and inf times the
    # complex z^2 leaves a nan part: sum_alternating calls such a term a
    # DomainError, and the series, whose inputs were finite, an overflow.
    with pytest.raises(OverflowError, match="exceeds double range"):
        gamma_pfd_series(a, z, 16, method)


@pytest.mark.parametrize("q,method", [
    pytest.param(500.0, EULER, id="500.0"),
    pytest.param(1e20, EULER, id="1e+20"),
    pytest.param(1e308, EULER, id="1e+308"),
    pytest.param(460.0, CVZ, id="460.0-cvz"),
    pytest.param(469.0, EULER, id="469.0-euler"),
    pytest.param(469.0, NONE, id="469.0-none"),
])
def test_inverse_square_huge_q_overflows_readably(q, method):
    # A term's exp overflows from q near 469, lgamma itself near 1e305,
    # and -4q is -inf at 1e308.  CVZ's weighted sum of finite terms
    # overflows to nan from q near 454, and at 469 Euler's sums reach inf.
    # There the last term is -inf, which `none` must not read as growth.
    with pytest.raises(OverflowError, match="exceeds double range"):
        inverse_square_series(q, 16, method)


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_inverse_square_rejects_non_finite_q(q):
    with pytest.raises(DomainError, match="need finite q"):
        inverse_square_series(q, 16, EULER)


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


@pytest.mark.parametrize("q,n_terms,method,ref,tol", [
    pytest.param(0.0, 64, EULER, trigamma(1.0), 1e-6, id="0.0"),
    pytest.param(0.5, 64, EULER, trigamma(1.5), 1e-6, id="0.5"),
    pytest.param(1.0, 64, EULER, trigamma(2.0), 1e-6, id="1.0"),
    pytest.param(2.5, 64, EULER, trigamma(3.5), 1e-6, id="2.5"),
    # The right side of sum 1/a_n^2 = -2 sum 1/(F'(-a_n) a_n^2) for a_n = n
    # and for a_n = a-1+n at a = 1.3.
    pytest.param(0.0, 64, CVZ, math.pi ** 2 / 6, 1e-9, id="0.0-cvz"),
    pytest.param(0.3, 256, EULER, trigamma(1.3), 1e-6, id="0.3-256"),
])
def test_inverse_square_vs_trigamma(q, n_terms, method, ref, tol):
    rep = inverse_square_series(q, n_terms, method)
    assert abs(rep.value - ref) < tol


def test_inverse_square_divergence_detected():
    with pytest.raises(DivergenceError):
        inverse_square_series(2.5, 64, NONE)


def _per_term(a, z, n_terms):
    """The series' terms as first built, kept here to pin their bits: one
    complex term per k, its sign from the signs of Gamma(2a+k) and a+k."""
    z2 = complex(z) * complex(z)
    log_coefs = log_hypergeometric(math.lgamma(2.0 * a) - math.log(abs(a)),
                                   ((2.0 * a - 1.0, 1, 1.0), (1.0, a, -1.0)),
                                   0, n_terms)
    terms = []
    for k, log_coef in enumerate(log_coefs):
        ak = a + k
        x = 2.0 * a + k
        coef_sign = -1.0 if x < 0 and math.floor(x) % 2 else 1.0
        if ak < 0:
            coef_sign = -coef_sign
        sign = -coef_sign if k % 2 == 0 else coef_sign
        terms.append(sign * math.exp(log_coef) * 2.0 * z2 / (z2 - ak * ak))
    return terms


@pytest.fixture
def built_terms(monkeypatch):
    """Every term gamma_pfd_series builds, in order: the head it adds with
    fsum, then the rest, whose real and imaginary parts it passes to the
    summation engine."""
    seen = []

    class Math:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def fsum(values):
            values = list(values)
            seen.extend(values)
            return math.fsum(values)

    def capture(real, imag, method):
        seen.extend(map(complex, real, imag) if imag else real)
        return _sum_parts(real, imag, method)

    monkeypatch.setattr(gamma_pfd_module, "math", Math())
    monkeypatch.setattr(gamma_pfd_module, "_sum_parts", capture)
    return seen


def _hex(t):
    return (t.real.hex(), t.imag.hex()) if type(t) is complex else t.hex()


# 1.7 as in the benchmark; -0.3, -0.7, -1.94 and -2.9 have coefficients of
# either sign, and z = 0.41 flips the first terms at a = -0.3 and -0.7.  At
# a = -100.3 and -150.7 terms underflow to +-0.0, with |a+k| >= 0.3 > |z|.
@pytest.mark.parametrize("a,z", [
    (a, z) for a in (1.7, -0.3, -0.7, -1.94, -2.9, -100.3, -150.7)
    for z in (0.2, 0.35j, 0.2 + 0.1j) + ((0.41,) if a > -100 else ())])
def test_series_terms_match_the_per_term_formula_bit_for_bit(built_terms, a, z):
    gamma_pfd_series(a, z, 1024, EULER)
    ref = _per_term(a, z, 1024)
    if (z * z).imag == 0:
        # real z^2: float terms, each the real part of the complex one
        assert {type(t) for t in built_terms} == {float}
        ref = [t.real for t in ref]
    assert list(map(_hex, built_terms)) == list(map(_hex, ref))
    if a < -100 and (z * z).imag == 0:
        assert {_hex(t) for t in built_terms if t == 0} == {"0x0.0p+0", "-0x0.0p+0"}


@pytest.mark.parametrize("z", [0.41, 0.35j, 2.2])
def test_series_terms_even_in_z_where_they_underflow(built_terms, z):
    # From k = 302 on every term underflows.  Complex arithmetic once made
    # all of them -0.0 at -z (whose z^2 has imaginary part -0.0), and CVZ
    # refused those as not alternating; at z = 2.2 it also lost the sign of
    # the underflowed terms with (a+k)^2 < z^2.
    plus, minus = (gamma_pfd_series(-150.7, w, 600, CVZ) for w in (z, -z))
    assert plus == minus
    half = len(built_terms) // 2
    assert list(map(_hex, built_terms[:half])) == list(map(_hex, built_terms[half:]))


@pytest.mark.parametrize("a,z,k", [(0.25, 2.25, 2), (0.25, -2.25, 2),
                                   (0.25, 2.25 + 1e-12j, 2),
                                   (-1.5 + 1e-10, 0.5, 1), (84.0, 91.0, 7)])
def test_series_pole_names_the_first_k(a, z, k):
    # z^2 = (a+k)^2; at a = -1.5 + 1e-10 both k = 1 and k = 2 are within
    # the tolerance.  At a = 84 the pole is found before the term at k = 6
    # overflows.  A z^2 with an imaginary part within the tolerance is still
    # scanned.
    with pytest.raises(PoleError, match=rf"pole at a\+{k}$"):
        gamma_pfd_series(a, z, 16, EULER)
