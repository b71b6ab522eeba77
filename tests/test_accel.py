import math
from itertools import accumulate

import pytest

from omega_zeta import (
    AccelerationMethod,
    DivergenceError,
    SignPatternError,
    shifted_integer_sequence,
    sum_alternating,
    summation_identity_check,
)
from omega_zeta.accel import euler_average

CVZ = AccelerationMethod.CHEBYSHEV_ALTERNATING
EULER = AccelerationMethod.EULER_TRANSFORM
NONE = AccelerationMethod.NO_ACCELERATION


def test_alternating_harmonic_cvz():
    terms = [(-1.0) ** (n - 1) / n for n in range(1, 21)]
    rep = sum_alternating(terms, CVZ)
    assert abs(rep.value - math.log(2)) < 1e-10


def test_alternating_harmonic_euler():
    terms = [(-1.0) ** (n - 1) / n for n in range(1, 31)]
    rep = sum_alternating(terms, EULER)
    assert abs(rep.value - math.log(2)) < 1e-9


def test_single_term_no_acceleration():
    rep = sum_alternating([1.0], NONE)
    assert rep.value == 1.0
    assert rep.error_estimate == 1.0


def test_zeta2_terms_cvz():
    terms = [2.0 * (-1.0) ** (n - 1) / n ** 2 for n in range(1, 33)]
    rep = sum_alternating(terms, CVZ)
    assert abs(rep.value - math.pi ** 2 / 6) < 1e-12


def test_sign_pattern_enforced():
    with pytest.raises(SignPatternError):
        sum_alternating([1.0, 0.5, -0.2], CVZ)
    with pytest.raises(SignPatternError):
        sum_alternating([1.0, 0.0, 0.2], CVZ)


def test_euler_regularizes_divergent_alternating():
    # sum (-1)^n (n+1) has Abel value 1/4
    terms = [(-1.0) ** n * (n + 1) for n in range(40)]
    rep = sum_alternating(terms, EULER)
    assert abs(rep.value - 0.25) < 1e-10


def test_error_estimates_cover_truth():
    terms = [(-1.0) ** (n - 1) / n ** 2 for n in range(1, 25)]
    truth = math.pi ** 2 / 12
    for method in (NONE, EULER, CVZ):
        rep = sum_alternating(terms, method)
        assert abs(rep.value - truth) <= 5 * rep.error_estimate


RE_PARTS = [(-1.0) ** n / (n + 1) for n in range(16)]
IM_PARTS = [(-1.0) ** n * 0.5 / (n + 1) ** 2 for n in range(16)]
COMPLEX_TERMS = [complex(r, i) for r, i in zip(RE_PARTS, IM_PARTS)]


def test_complex_terms_plain_and_euler():
    rep = sum_alternating(COMPLEX_TERMS, NONE)
    assert rep.value == sum(COMPLEX_TERMS)
    assert rep.error_estimate == abs(COMPLEX_TERMS[-1])
    rep = sum_alternating(COMPLEX_TERMS, EULER)
    value, est = euler_average(list(accumulate(COMPLEX_TERMS)))
    assert (rep.value, rep.error_estimate) == (value, est)
    truth = complex(math.log(2), math.pi ** 2 / 24)
    assert abs(rep.value - truth) <= 5 * rep.error_estimate


def test_complex_terms_cvz_sums_each_part():
    rep = sum_alternating(COMPLEX_TERMS, CVZ)
    re = sum_alternating(RE_PARTS, CVZ)
    im = sum_alternating(IM_PARTS, CVZ)
    assert rep.value == complex(re.value, im.value)
    assert rep.error_estimate == math.hypot(re.error_estimate,
                                            im.error_estimate)
    same_sign_imag = [complex(r, abs(i)) for r, i in zip(RE_PARTS, IM_PARTS)]
    with pytest.raises(SignPatternError):
        sum_alternating(same_sign_imag, CVZ)


@pytest.mark.parametrize("method", list(AccelerationMethod))
def test_method_by_name_matches_enum(method):
    for terms in (RE_PARTS, COMPLEX_TERMS):
        assert sum_alternating(terms, method.value) == sum_alternating(
            terms, method)


def test_plain_summation_refuses_growing_terms():
    terms = [(-1.0) ** n * (n + 1) for n in range(40)]
    with pytest.raises(DivergenceError):
        sum_alternating(terms, "none")


def test_identity_check_refuses_growing_plain_sum():
    # The right-side terms grow like n^(2a-4); their raw sum is meaningless.
    with pytest.raises(DivergenceError):
        summation_identity_check(shifted_integer_sequence(2.6), 64, NONE)
