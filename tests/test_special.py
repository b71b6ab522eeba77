import cmath
import math
import random

import mpmath as mp
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from omega_zeta import (
    DomainError,
    GammaProduct,
    PoleError,
    exp_log,
    gamma,
    gamma_pair,
    log_cosh,
    log_gamma,
    log_sin,
    log_sinh,
    roots_of_unity,
    trigamma,
    unity_gamma_product,
)

mp.mp.dps = 30


def _rel(a, b):
    return abs(a - b) / abs(b)


def test_log_gamma_trivial_values():
    assert abs(log_gamma(1.0).real) < 1e-15
    assert log_gamma(1.0).imag == 0.0
    assert abs(log_gamma(5.0).real - math.log(24)) < 1e-14
    assert abs(log_gamma(0.5).real - 0.5 * math.log(math.pi)) < 1e-14
    assert log_gamma(0.5).imag == 0.0


def test_log_gamma_complex_vs_multiprecision():
    ref = complex(mp.loggamma(1 + 3j))
    got = log_gamma(1 + 3j)
    assert abs(got.real - ref.real) <= 1e-12 * abs(ref.real)
    # arguments may differ by 2*pi; compare exponentials
    assert abs(cmath.exp(complex(got.real, got.imag))
               - complex(mp.gamma(1 + 3j))) <= 1e-12 * abs(complex(mp.gamma(1 + 3j)))


@pytest.mark.parametrize("z", [2 + 50j, -3.7 + 11j, 120.5, 0.25 - 8j, 150 + 120j])
def test_log_gamma_accuracy_large_arguments(z):
    ref = complex(mp.loggamma(z))
    got = log_gamma(z)
    assert abs(got.real - ref.real) <= 1e-12 * max(1.0, abs(ref.real))


def test_log_gamma_pole():
    for z in (0.0, -1.0, -7.0, -3 + 1e-14j):
        with pytest.raises(PoleError):
            log_gamma(z)


def test_gamma_values():
    assert _rel(gamma(0.5), math.sqrt(math.pi)) < 1e-14
    assert _rel(gamma(-0.5), -2 * math.sqrt(math.pi)) < 1e-13
    assert _rel(gamma(1 + 1j), complex(mp.gamma(1 + 1j))) < 1e-13


def test_gamma_overflow():
    with pytest.raises(OverflowError):
        gamma(500.0)


def test_gamma_reflection_and_recurrence():
    rng = random.Random(11)
    count = 0
    while count < 200:
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z) > 20 or abs(z.real - round(z.real)) < 0.05:
            continue
        if abs(log_gamma(z).real) > 600 or abs(log_gamma(1 - z).real) > 600:
            continue
        count += 1
        refl = gamma(z) * gamma(1 - z) * cmath.sin(math.pi * z) / math.pi
        assert abs(refl - 1.0) < 1e-11
        assert _rel(gamma(z + 1), z * gamma(z)) < 1e-12


def test_gamma_conjugate_symmetry():
    for z in (1.3 + 2.7j, -0.4 + 5j, 7 - 3j):
        assert gamma(z.conjugate()) == gamma(z).conjugate()


def test_exp_log_gamma_consistency():
    for z in (0.3, 2.5 + 1j, -1.2 + 0.7j, 10 - 4j):
        lg = log_gamma(z)
        assert _rel(exp_log(lg), gamma(z)) < 1e-13


def test_trigamma_values():
    assert abs(trigamma(1.0) - math.pi ** 2 / 6) < 1e-13
    assert abs(trigamma(2.0) - (math.pi ** 2 / 6 - 1)) < 1e-13
    assert abs(trigamma(0.5) - math.pi ** 2 / 2) < 1e-13
    with pytest.raises(DomainError):
        trigamma(-1.0)


def test_trigamma_past_double_range_overflows_readably():
    # psi'(x) > 1/x^2: 1/(x x) rounds to inf at 1e-155 and 1e-160, and x x
    # underflows to 0 at 1e-170 and 1e-320.
    assert trigamma(1e-154) == 1e308
    for x in (1e-155, 1e-160, 1e-170, 1e-320):
        with pytest.raises(OverflowError, match="exceeds double range$"):
            trigamma(x)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_trigamma_recurrence(x):
    assert abs(trigamma(x) - trigamma(x + 1) - 1 / x ** 2) < 1e-12 / x ** 2


@pytest.mark.parametrize("x,n_terms,tol", [(1.0, 64, 1e-13), (1.3, 10000, 1e-10)])
def test_trigamma_partial_sum_plus_tail(x, n_terms, tol):
    # The left side of sum 1/a_n^2 = -2 sum 1/(F'(-a_n) a_n^2) for
    # a_n = x-1+n: its first terms plus the tail psi'(x+N) give psi'(x).
    partial = 0.0
    for n in range(1, n_terms + 1):
        an = x - 1.0 + n
        partial += 1.0 / (an * an)
    assert abs(partial + trigamma(x + n_terms) - trigamma(x)) < tol


def test_roots_of_unity_exact_cases():
    assert roots_of_unity(2) == (1, -1)
    assert roots_of_unity(4) == (1, 1j, -1, -1j)
    r3 = roots_of_unity(3)
    assert abs(r3[1] - complex(-0.5, math.sqrt(3) / 2)) < 1e-15
    assert abs(r3[2] - complex(-0.5, -math.sqrt(3) / 2)) < 1e-15
    with pytest.raises(DomainError):
        roots_of_unity(1)


@pytest.mark.parametrize("m", list(range(2, 65)))
def test_roots_of_unity_invariants(m):
    roots = roots_of_unity(m)
    assert all(abs(abs(w) - 1) < 1e-15 for w in roots)
    assert abs(sum(roots)) < 1e-14
    for j in (0, 1, m // 2, m - 1):
        for k in (1, m - 1):
            assert abs(roots[j] * roots[k] - roots[(j + k) % m]) < 1e-14


def test_log_sin():
    ls = log_sin(math.pi / 2)
    assert abs(ls.real) < 1e-15 and abs(ls.imag) < 1e-15
    z = 0.3 + 40j
    got = log_sin(z)
    ref = complex(mp.log(mp.sin(mp.mpc(z))))
    assert abs(got.real - ref.real) < 1e-12 * abs(ref.real)
    with pytest.raises(PoleError):
        log_sin(2 * math.pi)


def test_log_sinh_log_cosh():
    assert abs(log_sinh(0.1) - math.log(math.sinh(0.1))) < 1e-14
    assert abs(log_cosh(100.0) - (100.0 - math.log(2))) < 1e-12
    assert abs(log_sinh(300.0) - (300.0 - math.log(2))) < 1e-12
    with pytest.raises(DomainError):
        log_sinh(0.0)
    with pytest.raises(DomainError):
        log_cosh(-1.0)


def test_log_complex_normalization_and_overflow():
    with pytest.raises(OverflowError):
        exp_log(complex(800.0, 0.0))


@pytest.mark.parametrize("z", [1.0, 5.0, 0.5, 2.5 + 1j, -1.2 + 0.7j, -3.5, 40 - 70j])
def test_logs_are_plain_complex(z):
    assert type(log_gamma(z)) is complex
    assert type(log_sin(z)) is complex


_COORD = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_COORD, _COORD)
def test_exp_log_gamma_matches_multiprecision(x, y):
    z = complex(x, y)
    # Stay 0.1 away from the poles 0, -1, -2, ...
    assume(abs(z - min(0, round(x))) >= 0.1)
    try:
        got = exp_log(log_gamma(z))
    except OverflowError:
        reject()
    ref = complex(mp.gamma(mp.mpc(x, y)))
    assert _rel(got, ref) <= 1e-12


@pytest.mark.parametrize("z", [0.3 + 19.5j, 1.7 + 20.0j, -2.2 + 20.5j,
                               4.0 - 19.9j, -0.6 - 20.1j, 25.0 + 35j])
def test_log_sin_real_part_across_branch_switch(z):
    ref = float(mp.log(abs(mp.sin(mp.mpc(z)))))
    assert abs(log_sin(z).real - ref) <= 1e-13 * abs(ref)


def test_gamma_overflow_message():
    with pytest.raises(OverflowError, match="exceeds double range"):
        gamma(200.0)
    # |z| is finite, but the reflection's pi*z is not
    with pytest.raises(OverflowError, match=r"pi\*z exceeds double range"):
        unity_gamma_product(3, 1e308 + 1e308j, GammaProduct())


@pytest.mark.parametrize("fn, args", [
    (log_gamma, (math.nan,)), (log_gamma, (math.inf,)), (log_gamma, (-math.inf,)),
    (log_gamma, (complex(1.0, math.nan),)), (log_gamma, (complex(-2.5, math.inf),)),
    (log_sin, (math.nan,)), (log_sin, (complex(0.3, math.inf),)),
    (gamma, (math.nan,)), (gamma_pair, (math.nan, 0.3)),
    (trigamma, (math.nan,)), (trigamma, (math.inf,)),
    (log_sinh, (math.nan,)), (log_sinh, (math.inf,)),
    (log_cosh, (math.nan,)), (log_cosh, (math.inf,)),
], ids=["lg-nan", "lg-inf", "lg-minus-inf", "lg-nan-imag", "lg-reflected-inf-imag",
        "ls-nan", "ls-inf-imag", "gamma-nan", "gamma-pair-nan",
        "trigamma-nan", "trigamma-inf", "log-sinh-nan", "log-sinh-inf",
        "log-cosh-nan", "log-cosh-inf"])
def test_non_finite_argument_is_a_domain_error(fn, args):
    # Not "cannot convert float NaN to integer" from round(), nor nan+nanj,
    # nor a nan or inf passed through.
    with pytest.raises(DomainError, match="needs finite"):
        fn(*args)
