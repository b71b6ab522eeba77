import math
import operator
import random
import sys
from fractions import Fraction
from itertools import accumulate

import pytest

from omega_zeta import (
    AccelerationMethod,
    DivergenceError,
    SignPatternError,
    sum_alternating,
)
from omega_zeta.accel import (
    _binomial_mean,
    _binomial_weights,
    _cvz,
    _cvz_weights,
    euler_average,
)

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
    # the last term, plus 4u of it for summation and term rounding
    assert rep.error_estimate == 1.0 + 4.0 * 2.0 ** -53


def test_zeta2_terms_cvz():
    terms = [2.0 * (-1.0) ** (n - 1) / n ** 2 for n in range(1, 33)]
    rep = sum_alternating(terms, CVZ)
    assert abs(rep.value - math.pi ** 2 / 6) < 1e-12


def test_sign_pattern_enforced():
    with pytest.raises(SignPatternError):
        sum_alternating([1.0, 0.5, -0.2], CVZ)
    with pytest.raises(SignPatternError):
        sum_alternating([1.0, 0.0, 0.2], CVZ)
    # Terms that underflowed keep their sign bit, and still alternate.
    assert sum_alternating([1.0, -0.5, 0.0, -0.0], CVZ).terms_used == 4


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
    # the last term, plus (2N + 4)u of sum |t| for recursive complex summation
    assert rep.error_estimate == (abs(COMPLEX_TERMS[-1]) + 36.0 * 2.0 ** -53
                                  * sum(map(abs, COMPLEX_TERMS)))
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


def euler_triangle(values):
    """Reference Euler transform: average neighbouring partial sums until
    one is left; the estimate is the size of the last averaging step."""
    row = list(values)
    if len(row) == 1:
        return row[0], abs(row[0])
    prev = row[0]
    while len(row) > 1:
        prev = row[0]
        row = [(row[i] + row[i + 1]) / 2.0 for i in range(len(row) - 1)]
    return row[0], abs(row[0] - prev)


def _series(kind, n):
    if kind == "real":
        return [(-1.0) ** k / (k + 1) for k in range(n)]
    if kind == "complex":
        return [complex((-1.0) ** k / (k + 1), (-1.0) ** k * 0.5 / (k + 1) ** 2)
                for k in range(n)]
    if kind == "divergent":
        return [(-1.0) ** k * (k + 1) for k in range(n)]
    rng = random.Random(n)
    return [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3, 3) for _ in range(n)]


def _exact_mean(sums):
    n = len(sums) - 1
    return sum(math.comb(n, k) * s for k, s in enumerate(sums)) / 2 ** n


@pytest.mark.parametrize("kind", ["real", "complex", "divergent"])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 256])
def test_euler_closed_form_matches_triangle(kind, n):
    sums = list(accumulate(_series(kind, n)))
    value, est = euler_average(sums)
    ref_value, ref_est = euler_triangle(sums)
    ulps = 4 * math.ulp(max(abs(s) for s in sums))
    assert abs(value - ref_value) <= ulps
    assert est >= ref_est - 2 * ulps


@pytest.mark.parametrize("kind", ["real", "complex", "divergent", "random"])
@pytest.mark.parametrize("n", [2, 3, 17, 256, 1100])
def test_euler_rounding_bound_holds_exactly(kind, n):
    # n = 1100 takes the outer weights C(1099, k)/2^1099 below the normal
    # range, down to 0.0.
    terms = _series(kind, n)
    sums = list(accumulate(terms))
    value, est = euler_average(sums)
    last, rounding = _binomial_mean(_binomial_weights(n - 1), sums)
    prev, _ = _binomial_mean(_binomial_weights(n - 2), sums[:-1])
    assert (value, est) == (last, abs(last - prev) + rounding)

    def gap(exact_re, exact_im):
        v = complex(value)
        return math.hypot(float(Fraction(v.real) - exact_re),
                          float(Fraction(v.imag) - exact_im))

    def parts(xs):
        return ([Fraction(complex(x).real) for x in xs],
                [Fraction(complex(x).imag) for x in xs])

    # The Euler sum of the float partial sums as given ...
    given_re, given_im = parts(sums)
    assert gap(_exact_mean(given_re), _exact_mean(given_im)) <= rounding
    # ... and of the exact partial sums of the float terms.
    t_re, t_im = parts(terms)
    exact_re = _exact_mean(list(accumulate(t_re)))
    exact_im = _exact_mean(list(accumulate(t_im)))
    assert gap(exact_re, exact_im) <= rounding


def test_binomial_weights_cache_returns_the_same_tuple_bits():
    grid = (0, 1, 2, 17, 256, 1100)
    before = [[w.hex() for w in _binomial_weights(n)] for n in grid]
    assert all(type(_binomial_weights(n)) is tuple for n in grid)
    _binomial_weights.cache_clear()
    assert [[w.hex() for w in _binomial_weights(n)] for n in grid] == before


def _cvz_loop(terms):
    """CVZ as one loop over its recurrence, summing as it goes: the form the
    cached weights replaced, kept here to pin their bits."""
    n = len(terms)
    magnitudes = [abs(t) for t in terms]
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c * magnitudes[k]
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    a_max = max(magnitudes)
    return (math.copysign(1.0, terms[0]) * (s / d),
            max(3.0 * a_max / d, 16.0 * 2.0 ** -53 * a_max))


def _cvz_grid():
    rng = random.Random(2000)
    for n in range(1, 403):
        yield [2.0 * (-1.0) ** k / (k + 1) ** 2 for k in range(n)]
        yield [(-1.0) ** (k + 1) * rng.uniform(0.5, 2.0) / (k + 1) for k in range(n)]


def test_cvz_matches_the_recurrence_loop():
    # Through Python 3.11 builtin sum adds floats left to right, as the loop
    # did.  From 3.12 it is compensated; the loop itself is up to ~60 ulp off
    # the exact weighted sum at N near 400, so there the value is held to
    # the exact sum of the same products instead.
    for terms in _cvz_grid():
        value, est = _cvz(terms)
        ref, ref_est = _cvz_loop(terms)
        assert est == ref_est
        if sys.version_info < (3, 12):
            assert value.hex() == ref.hex(), len(terms)
        else:
            weights, d = _cvz_weights(len(terms))
            products = map(operator.mul, weights, map(abs, terms))
            exact = math.copysign(float(sum(map(Fraction, products))) / d, terms[0])
            assert abs(value - exact) <= 3 * math.ulp(exact), len(terms)


def test_cvz_weights_cache_returns_the_same_tuple_bits():
    grid = (1, 2, 17, 256, 402)

    def bits(n):
        weights, d = _cvz_weights(n)
        return [w.hex() for w in weights], d.hex()

    before = [bits(n) for n in grid]
    assert all(type(_cvz_weights(n)[0]) is tuple for n in grid)
    _cvz_weights.cache_clear()
    assert [bits(n) for n in grid] == before


def test_cvz_past_the_double_range_is_a_readable_overflow():
    with pytest.raises(OverflowError, match="at most 402 terms, got 403"):
        sum_alternating([(-1.0) ** k / (k + 1) for k in range(403)], CVZ)


@pytest.mark.parametrize("sums", [
    list(accumulate(COMPLEX_TERMS)),
    [1.0, 0.5 + 0.25j, 0.75, 0.625],  # complex only in the middle
], ids=["complex", "mixed"])
def test_euler_takes_the_complex_branch(sums):
    value, est = euler_average(sums)
    assert type(value) is complex
    re, _ = euler_average([complex(s).real for s in sums])
    im, _ = euler_average([complex(s).imag for s in sums])
    assert value == complex(re, im)
    assert est > 0.0


@pytest.mark.parametrize("n", [2, 17, 256])
def test_euler_estimate_is_never_zero(n):
    # Constant partial sums and Sum (-1)^k (k+1) at n = 17 both give
    # last == prev, where the estimate used to be exactly 0.0.
    for terms in ([1.0] + [0.0] * (n - 1), _series("divergent", n)):
        assert sum_alternating(terms, EULER).error_estimate > 0.0
    assert euler_average([1e-300] * n)[1] > 0.0
