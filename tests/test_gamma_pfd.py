import math
import operator
import random
import re
import sys

import mpmath as mp
import pytest

import omega_zeta.accel as accel
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
from omega_zeta.accel import sum_alternating
from test_term_accuracy import _inverse_square_grid

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
    assert abs(modulus_product(1.0, 0.5, 1000) - math.pi / 2) < 1e-14
    assert modulus_product(2.0, 0.0, 1) == 1.0
    ref = gamma_pair(2.5, 0.7j) / gamma(2.5) ** 2
    assert abs(modulus_product(2.5, 0.7j, 1000) - ref) < 1e-14 * abs(ref)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
def test_modulus_product_agreement_grid(a):
    for frac in (0.1, 0.5, 0.9):
        z = frac * a
        ref = gamma_pair(a, z) / gamma(a) ** 2
        assert abs(modulus_product(a, z, 1000) - ref) < 1e-14 * abs(ref)


def _gamma_pair_ratio(a, z):
    return mp.gamma(a + mp.mpc(z)) * mp.gamma(a - mp.mpc(z)) / mp.gamma(a) ** 2


@pytest.mark.parametrize("n_factors", [1, 10, 50, 1000])
def test_modulus_product_full_tail_vs_multiprecision(n_factors):
    # The whole tail sum_j z^(2j)/j zeta(2j, a + N): as accurate with 10
    # factors as with 1000, where z^2 psi'(a + N) alone was 2.5e-3 off at
    # (2.5, 2.25, 10).  At (12, 11, 1) the power sums at a + N = 13 need
    # more than 20 terms before Euler-Maclaurin.
    cases = [(a, frac * a * unit) for a in (0.5, 1.0, 2.5)
             for frac in (0.2, 0.6, 0.9) for unit in (1, 1j)]
    cases += [(1.3, 0.5 + 0.7j), (12.0, 11.0)]
    for a, z in cases:
        if abs(z) < a + n_factors:
            ref = _gamma_pair_ratio(a, z)
            assert abs(modulus_product(a, z, n_factors) - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("a, z", [(-0.99, 0.008), (12.0, 11.0), (2.5, 2.25)])
def test_modulus_product_adds_its_factor_logarithms_exactly(a, z):
    # 1000 logarithms added one by one were 4.6e-14, 1.2e-14 and 6.9e-16
    # off; math.fsum leaves the rounding of each logarithm and of the tail.
    with mp.workdps(40):
        ref = _gamma_pair_ratio(a, z)
        assert abs(modulus_product(a, z, 1000) - ref) <= 3e-15 * abs(ref)


@pytest.mark.parametrize("a", [-2.5, -1.3])
@pytest.mark.parametrize("n_factors", [1, 10, 1000])
def test_modulus_product_with_negative_first_shifts(a, n_factors):
    # a < -1: the first s = a - 1 + k of the shared truncated-product kernel
    # are negative.  At N = 1 the tail's y = a + N is below |z|, and
    # a + z = -1 at (-1.3, 0.3) is a pole of Gamma(a + z).
    with mp.workdps(40):
        for z in (0.3, 0.2 + 0.4j):
            if not abs(z) < a + n_factors:
                with pytest.raises(DomainError, match="need"):
                    modulus_product(a, z, n_factors)
            elif (a, z) == (-1.3, 0.3):
                with pytest.raises(PoleError, match="hits pole"):
                    modulus_product(a, z, n_factors)
            else:
                ref = _gamma_pair_ratio(a, z)
                assert abs(modulus_product(a, z, n_factors) - ref) <= 1e-14 * abs(ref), z


@pytest.mark.parametrize("a, z", [(1.0, 50.5), (2.5, 30.2)])
def test_modulus_product_of_a_real_z_past_many_factors_is_real(a, z):
    # The factors with a - 1 + k < z are negative: the phase is pi times the
    # parity of their count (50 and 28 here), not an fsum of as many fl(pi),
    # which left an imaginary part of 1.6e-13 and 6.3e-9.
    v = modulus_product(a, z, 1000)
    with mp.workdps(40):
        ref = _gamma_pair_ratio(a, z).real
        assert v.imag == 0.0
        assert abs(v.real - ref) <= 1e-14 * abs(ref)


def test_modulus_product_tail_from_below_one():
    # a + N = 0.01: zeta(2j, 0.01) > 100^(2j) would leave the double range
    # from j = 77, so the tail takes its first factor apart.
    ref = _gamma_pair_ratio(-0.99, 0.008)
    assert abs(modulus_product(-0.99, 0.008, 1) - ref) <= 1e-14 * abs(ref)


def test_modulus_product_past_double_range_overflows_readably():
    # Gamma(1199.5) Gamma(0.5) / Gamma(600)^2 is about 6e360, past exp's range.
    with pytest.raises(OverflowError, match="exceeds double range"):
        modulus_product(600.0, 599.5, 1000)


@pytest.mark.parametrize("a, z, n_factors, match", [
    # z = 1000 is a pole of Gamma(a - z), and the tail needs |z| < a + N
    (1.0, 1000.0, 10, r"need \|z\| < a \+ n_factors = 11, got \|z\| = 1000"),
    # |z| / (a + N) = 0.98: the tail is still at 1e-6 after 400 powers
    (600.0, 599.5, 10, "does not converge in 400 powers"),
])
def test_modulus_product_tail_outside_its_range_is_a_domain_error(a, z, n_factors, match):
    with pytest.raises(DomainError, match=match):
        modulus_product(a, z, n_factors)


@pytest.mark.parametrize("a,z", [(math.nan, 0.3), (math.inf, 0.3),
                                 (1.5, complex(0.2, math.nan))])
def test_modulus_product_rejects_non_finite_input(a, z):
    message = (f"a must be a finite real number, got {a!r}" if not math.isfinite(a)
               else f"z must be a finite number, got {z!r}")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
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
    (inverse_square_series, (-1.0, 16, EULER), DomainError, "q must be > -1, got -1.0"),
    (inverse_square_series, (0.5, 0, EULER), DomainError, "n_terms"),
    # the tail zeta(2j, a + N) needs |z| < a + N
    (modulus_product, (-1.0, 0.5, 1), DomainError, r"n_factors = 0, got \|z\| = 0.5"),
    (inverse_square_series, ("1", 16, EULER), DomainError,
     "q must be a finite real number, got '1'"),
    (gamma_pfd_series, (1.0, "x", 16, EULER), DomainError, "z must be a finite number, got 'x'"),
    (modulus_product, (1.0, "x", 5), DomainError, "z must be a finite number, got 'x'"),
    # a numeric string is not a number either
    (gamma_pfd_series, ("1.5", 0.3, 16, EULER), DomainError,
     "a must be a finite real number, got '1.5'"),
    (gamma_pfd_series, (1.5, "0.3", 16, EULER), DomainError,
     "z must be a finite number, got '0.3'"),
    (modulus_product, ("1.0", "0.5", 10), DomainError,
     "a must be a finite real number, got '1.0'"),
    (modulus_product, (b"1.0", 0.5, 10), DomainError,
     "a must be a finite real number, got b'1.0'"),
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


@pytest.mark.parametrize("method", list(AccelerationMethod))
def test_every_series_enters_the_engine_once(monkeypatch, method):
    # Wrapped wherever a package module binds it, as perfbench's tracer does,
    # sum_alternating sees each series' whole sum: at a = -0.3, z = 0.41 the
    # first term is added apart and 63 of the 64 reach it.
    calls = []
    original = accel.sum_alternating

    def counting(terms, method):
        calls.append(len(terms))
        return original(terms, method)

    for name, module in list(sys.modules.items()):
        if name == "omega_zeta" or name.startswith("omega_zeta."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    for series, args, count in [(gamma_pfd_series, (0.7, 0.3), 64),
                                (gamma_pfd_series, (0.7, 0.2 + 0.1j), 64),
                                (gamma_pfd_series, (-0.3, 0.41), 63),
                                (inverse_square_series, (0.5,), 64)]:
        calls.clear()
        series(*args, 64, method)
        assert calls == [count], (series.__name__, args)


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
    message = (f"a must be a finite real number, got {a!r}" if not math.isfinite(a)
               else f"z must be a finite number, got {z!r}")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
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
    pytest.param(470.0, CVZ, id="470.0-cvz"),
    pytest.param(469.0, EULER, id="469.0-euler"),
    pytest.param(469.0, NONE, id="469.0-none"),
])
def test_inverse_square_huge_q_overflows_readably(q, method):
    # A term's exp overflows from q near 469, lgamma itself near 1e305,
    # and -4q is -inf at 1e308.  CVZ's weighted sum of finite terms
    # overflows to nan from q near 454, and at 469 Euler's sums reach inf.
    # There the last term is -inf, which `none` must not read as growth.
    message = "inverse_square_series: a term, a weight or the sum exceeds double range"
    with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
        inverse_square_series(q, 16, method)


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_inverse_square_rejects_non_finite_q(q):
    message = f"q must be a finite real number, got {q!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
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


def _log_hypergeometric_per_factor(start, factors, first, count):
    """log|t_k|, k = first .. first + count - 1, of a term with log|t_first|
    = start and t_(k+1)/t_k = prod (1 + c/(k + d))^e over the (c, d, e) in
    `factors`, as first computed, kept here to pin the bits of both series:
    one pass per factor with the quotient test on every k, the passes added
    elementwise in the order of the factors, then a Kahan sum."""
    ks = range(first, first + count - 1)
    steps = None
    for c, d, e in factors:
        logs = [e * (math.log1p(x) if (x := c / (k + d)) >= -0.5
                     else math.log(abs((k + d + c) / (k + d))))
                for k in ks]
        steps = logs if steps is None else list(map(operator.add, steps, logs))
    total, comp, out = start, 0.0, [start]
    for step in steps:
        y = step - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out.append(total)
    return out


def _per_term(a, z, n_terms):
    """The series' terms as first built, kept here to pin their bits: one
    complex term per k, its sign from the signs of Gamma(2a+k) and a+k."""
    z2 = complex(z) * complex(z)
    log_coefs = _log_hypergeometric_per_factor(math.lgamma(2.0 * a) - math.log(abs(a)),
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
    fsum, then the rest, which it passes to the summation engine."""
    seen = []

    class Math:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def fsum(values):
            values = list(values)
            seen.extend(values)
            return math.fsum(values)

    def capture(terms, method):
        seen.extend(terms)
        return sum_alternating(terms, method)

    monkeypatch.setattr(gamma_pfd_module, "math", Math())
    monkeypatch.setattr(gamma_pfd_module, "sum_alternating", capture)
    return seen


def _hex(t):
    return (t.real.hex(), t.imag.hex()) if type(t) is complex else t.hex()


# N = 1, 2 and 3 leave no step or few after the prefix; the others read the
# cached (sign, k) records of 4, 8, 64, 128, 1024 and 2048 pairs up to, at and
# past a power of two.
_SIZES = (1, 2, 3, 4, 5, 63, 64, 65, 1000, 1024, 1025)


# 1.7 as in the benchmark; -0.3, -0.7, -1.94 and -2.9 have coefficients of
# either sign, and z = 0.41 flips the first terms at a = -0.3 and -0.7.  At
# a = -100.3 and -150.7 terms underflow to +-0.0, with |a+k| >= 0.3 > |z|.
# Below a = 1/4 the first steps take the quotient test (c/(k + d) < -1/2 at
# k = 0).
@pytest.mark.parametrize("a,z", [
    (a, z) for a in (1.7, -0.3, -0.7, -1.94, -2.9, -100.3, -150.7, 0.2499, 0.25, 0.2501)
    for z in (0.2, 0.35j, 0.2 + 0.1j) + ((0.41,) if a > -100 else ())])
def test_series_terms_match_the_per_term_formula_bit_for_bit(built_terms, a, z):
    for n_terms in _SIZES:
        built_terms.clear()
        gamma_pfd_series(a, z, n_terms, EULER)
        ref = _per_term(a, z, n_terms)
        if (z * z).imag == 0:
            # real z^2: float terms, each the real part of the complex one
            assert {type(t) for t in built_terms} == {float}
            ref = [t.real for t in ref]
        assert list(map(_hex, built_terms)) == list(map(_hex, ref)), n_terms
    if a < -100 and (z * z).imag == 0:
        assert {_hex(t) for t in built_terms if t == 0} == {"0x0.0p+0", "-0x0.0p+0"}


# q = -0.9 and -0.7501 take the quotient test at n = 1, as (2q+1)/n < -1/2,
# and at -0.802 and -0.9519 the first log step rounds apart from one taken
# with log1p; -0.4999 sits just above the q = -1/2 where 2q+1 changes sign.
@pytest.mark.parametrize("q", sorted({q for q, _ in _inverse_square_grid()}
                                     | {-0.9519, -0.9, -0.802, -0.7501, -0.4999}))
def test_inverse_square_terms_match_the_per_factor_logs_bit_for_bit(captured, q):
    sizes = set(_SIZES) | {n for p, n in _inverse_square_grid() if p == q}
    for n_terms in sorted(sizes):
        captured.clear()
        inverse_square_series(q, n_terms, EULER)
        logs = _log_hypergeometric_per_factor(
            math.lgamma(2.0 * q + 2.0) - 2.0 * math.lgamma(q + 1.0) - 3.0 * math.log(q + 1.0),
            ((2.0 * q + 1.0, 0, 1.0), (1.0, q, -3.0)), 1, n_terms)
        ref = [(-2.0 if n % 2 else 2.0) * math.exp(log) for n, log in enumerate(logs)]
        assert list(map(float.hex, captured[0])) == list(map(float.hex, ref)), n_terms


def test_step_records_stay_bounded_and_clear():
    # N = 1 .. 2100 reads records of 1, 2, 4, ..., 4096 pairs: 13 sizes for
    # each of the two first signs, -2.0 for gamma_pfd_series and 2.0 for
    # inverse_square_series
    steps = gamma_pfd_module._steps
    steps.cache_clear()
    for n_terms in range(1, 2101):
        gamma_pfd_series(0.7, 0.3, n_terms, NONE)
        inverse_square_series(0.5, n_terms, NONE)
    assert steps.cache_info().currsize == 2 * 13
    before = [repr(gamma_pfd_series(0.7, 0.3, 1000, NONE)),
              repr(inverse_square_series(0.5, 1000, NONE))]
    steps.cache_clear()
    assert steps.cache_info().currsize == 0
    assert [repr(gamma_pfd_series(0.7, 0.3, 1000, NONE)),
            repr(inverse_square_series(0.5, 1000, NONE))] == before


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


def _first_pole(a, z, n_terms):
    """The first k with |z^2 - (a+k)^2| within the pole tolerance, by a scan
    of every k; None where there is none."""
    z2 = complex(z) * complex(z)
    zz = z2.real if z2.imag == 0 else z2
    if abs(z2.imag) > 1e-8:
        return None
    return next((k for k in range(n_terms) if abs(zz - (a + k) * (a + k)) <= 1e-8), None)


def _pole_cases():
    rng = random.Random(2031)
    for _ in range(300):  # a < 0, real z on +-(a + k), a little off or beyond N
        a = rng.choice((rng.uniform(-40.0, -0.01), -rng.randrange(1, 30) - 0.5 + 1e-10))
        ak = a + rng.randrange(0, 40)
        yield a, rng.choice((1.0, -1.0)) * ak + rng.choice((0.0, 1e-10, -3e-10, 1e-9)), 32
    for _ in range(200):  # imaginary z, a + k near 0
        a = -rng.randrange(1, 40) + rng.uniform(-1e-4, 1e-4)
        yield a, complex(0.0, rng.uniform(0.0, 2e-4)), 32


def test_series_pole_scan_finds_the_first_k_of_a_full_scan():
    found = 0
    for a, z, n_terms in _pole_cases():
        k = _first_pole(a, z, n_terms)
        if k is None:
            gamma_pfd_series(a, z, n_terms, EULER)
        else:
            found += 1
            with pytest.raises(PoleError, match=rf"pole at a\+{k}$"):
                gamma_pfd_series(a, z, n_terms, EULER)
    assert 100 < found < 400
