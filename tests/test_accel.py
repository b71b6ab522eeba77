import math
import operator
import random
import sys
from fractions import Fraction
from itertools import accumulate

import pytest

from omega_zeta import (
    AccelerationMethod,
    ConvergenceReport,
    DivergenceError,
    DomainError,
    SignPatternError,
    sum_alternating,
)
from omega_zeta.accel import (
    _binomial_mean,
    _binomial_weights,
    _cvz,
    _cvz_weights,
    euler_average,
    log_hypergeometric,
)
from test_term_accuracy import _inverse_square_grid, _pfd_grid

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


def test_convergence_report_compares_by_value_and_refuses_assignment():
    report = ConvergenceReport(1.5, 4, 1e-9, EULER)
    assert report == ConvergenceReport(1.5, 4, 1e-9, EULER)
    assert report != ConvergenceReport(1.5, 4, 1e-9, CVZ)
    assert report == (1.5, 4, 1e-9, EULER)
    assert repr(report) == ("ConvergenceReport(value=1.5, terms_used=4,"
                            " error_estimate=1e-09, method=" + repr(EULER) + ")")
    with pytest.raises(AttributeError):
        report.value = 2.5


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
# A real first term, then complex ones: both parts still alternate.
MIXED_TERMS = [1.0, -0.5 - 0.25j, 0.25 + 0.125j, -0.125 - 0.0625j]


def test_complex_terms_plain_and_euler():
    rep = sum_alternating(COMPLEX_TERMS, NONE)
    # fsum rounds each part's exact sum once
    assert rep.value == complex(float(sum(map(Fraction, RE_PARTS))),
                                float(sum(map(Fraction, IM_PARTS))))
    # per part, the last term plus 4u of sum |t|, combined with hypot
    u = 2.0 ** -53
    assert rep.error_estimate == math.hypot(
        abs(RE_PARTS[-1]) + 4.0 * u * sum(map(abs, RE_PARTS)),
        abs(IM_PARTS[-1]) + 4.0 * u * sum(map(abs, IM_PARTS)))
    rep = sum_alternating(COMPLEX_TERMS, EULER)
    truth = complex(math.log(2), math.pi ** 2 / 24)
    assert abs(rep.value - truth) <= 5 * rep.error_estimate


@pytest.mark.parametrize("terms", [COMPLEX_TERMS, MIXED_TERMS], ids=["complex", "mixed"])
def test_euler_sums_a_complex_series_part_by_part(terms):
    rep = sum_alternating(terms, EULER)
    re = sum_alternating([complex(t).real for t in terms], EULER)
    im = sum_alternating([complex(t).imag for t in terms], EULER)
    assert rep.value == complex(re.value, im.value)
    assert rep.error_estimate == math.hypot(re.error_estimate,
                                            im.error_estimate)


@pytest.mark.parametrize("method", list(AccelerationMethod))
def test_complex_terms_with_no_imaginary_part_sum_as_real(method):
    rep = sum_alternating([complex(t) for t in RE_PARTS], method)
    assert type(rep.value) is float
    assert rep == sum_alternating(RE_PARTS, method)


@pytest.mark.parametrize("terms", [RE_PARTS, COMPLEX_TERMS, MIXED_TERMS],
                         ids=["real", "complex", "mixed"])
@pytest.mark.parametrize("method", list(AccelerationMethod))
def test_iterator_of_terms_sums_like_a_list(terms, method):
    report = sum_alternating(terms, method)
    assert sum_alternating(iter(terms), method) == report
    assert sum_alternating(tuple(terms), method) == report


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


def _real_series(kind, n):
    """The real series of `kind`, a complex one as its two parts: Euler
    takes only real sums, and sum_alternating sums a complex series so."""
    terms = _series(kind, n)
    if kind != "complex":
        return [terms]
    return [[t.real for t in terms], [t.imag for t in terms]]


def _exact_mean(sums):
    n = len(sums) - 1
    return sum(math.comb(n, k) * s for k, s in enumerate(sums)) / 2 ** n


@pytest.mark.parametrize("kind", ["real", "complex", "divergent"])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 256])
def test_euler_closed_form_matches_triangle(kind, n):
    for terms in _real_series(kind, n):
        sums = list(accumulate(terms))
        value, est = euler_average(terms)
        ref_value, ref_est = euler_triangle(sums)
        ulps = 4 * math.ulp(max(abs(s) for s in sums))
        assert abs(value - ref_value) <= ulps
        assert est >= ref_est - 2 * ulps


@pytest.mark.parametrize("kind", ["real", "complex", "divergent", "random"])
@pytest.mark.parametrize("n", [2, 3, 17, 256, 1100])
def test_euler_rounding_bound_holds_exactly(kind, n):
    # n = 1100 takes the outer weights C(1099, k)/2^1099 below the normal
    # range, down to 0.0.
    for terms in _real_series(kind, n):
        sums = list(accumulate(terms))
        value, est = euler_average(terms)
        last, rounding, total = _binomial_mean(sums)
        # the step last - prev by Pascal's rule, over the N - 2 weights
        lo, weights, _, mass = _binomial_weights(n - 2)
        steps = [w * t for w, t in zip(weights, terms[lo + 1:])]
        allowance = 2.0 ** -53 * (3.0 * abs(last) + 2.0 * sum(map(abs, steps)))
        assert (value, est) == (last, abs(sum(steps)) / 2.0 + allowance
                                + 2.0 * mass * total + rounding)
        # The Euler sum of the float partial sums as given ...
        given = _exact_mean(list(map(Fraction, sums)))
        assert abs(Fraction(value) - given) <= rounding
        # ... and of the exact partial sums of the float terms.
        exact = _exact_mean(list(accumulate(map(Fraction, terms))))
        assert abs(Fraction(value) - exact) <= rounding


def test_binomial_weights_cache_returns_the_same_tuple_bits():
    grid = (0, 1, 2, 17, 256, 1100)

    def bits(n):
        lo, weights, _, mass = _binomial_weights(n)
        return lo, [w.hex() for w in weights], mass.hex()

    before = [bits(n) for n in grid]
    assert all(type(_binomial_weights(n)[1]) is tuple for n in grid)
    _binomial_weights.cache_clear()
    assert [bits(n) for n in grid] == before


def _euler_full(values):
    """The Euler transform as one fsum over all N binomial weights, the form
    the window replaced, kept here to pin its values and estimates."""
    u, tiny = 2.0 ** -53, 2.0 ** -1074

    def weights(n):
        scale, c, out = 1 << n, 1, []
        for k in range(n + 1):
            out.append(c / scale)
            c = c * (n - k) // (k + 1)
        return out

    def mean(w, sums):
        products = list(map(operator.mul, w, sums))
        total = math.fsum(products)
        running = list(accumulate(map(abs, sums)))
        drift = sum(map(operator.mul, w, running))
        return total, (2.0 * u * (abs(total) + 2.0 * sum(map(abs, products)) + drift)
                       + tiny * (2 * len(sums) + 1 + running[-1]))

    n = len(values)
    if n == 1:
        return values[0], abs(values[0])
    last, rounding = mean(weights(n - 1), values)
    prev = math.fsum(map(operator.mul, weights(n - 2), values))
    return last, abs(last - prev) + rounding


def _window_families(n):
    yield "convergent", [(-1.0) ** k / (k + 1) for k in range(n)]
    for p in (1, 2.5):
        yield f"k^{p}", [(-1.0) ** k * (k + 1) ** p for k in range(n)]
    # from k = 54 on the terms underflow to +-0.0
    yield "underflow", [(-1.0) ** k * 2.0 ** (-20 * k) for k in range(n)]
    re, im = _real_series("complex", n)
    yield "complex-re", re
    yield "complex-im", im


@pytest.mark.parametrize("n", [2, 17, 64, 127, 128, 256, 512, 1024, 1100, 4096])
def test_euler_window_matches_the_full_sum(n):
    for name, terms in _window_families(n):
        sums = list(accumulate(terms))
        value, est = euler_average(terms)
        ref, ref_est = _euler_full(sums)
        assert value.hex() == ref.hex(), name
        assert est >= ref_est, name


@pytest.mark.parametrize("n", [2, 17, 64, 127, 128, 256, 512, 1024, 1100, 4096])
def test_euler_step_is_half_the_next_weighted_term_sum(n):
    # Pascal's rule C(N-1,k) = C(N-2,k) + C(N-2,k-1) makes the step of the
    # means exact: last - prev = 1/2 sum_j w'_j (S_(j+1) - S_j).
    # Each side is counted in units of 2^-(N-1) times the finest sum's last
    # bit, where every quantity is an exact integer.
    def binomials(m):
        row = [1]
        for k in range(m):
            row.append(row[-1] * (m - k) // (k + 1))
        return row

    for name, terms in _window_families(n):
        sums = [s.as_integer_ratio() for s in accumulate(terms)]
        unit = max(d for _, d in sums)
        sums = [p * (unit // d) for p, d in sums]
        step = sum(map(operator.mul, binomials(n - 2), map(operator.sub, sums[1:], sums)))
        last = sum(map(operator.mul, binomials(n - 1), sums))
        prev = 2 * sum(map(operator.mul, binomials(n - 2), sums))
        assert step == last - prev, name


@pytest.mark.parametrize("n", [0, 1, 2, 17, 256, 1023, 4095])
def test_tail_weights_are_the_suffix_sums_of_the_window(n):
    _, weights, tails, _ = _binomial_weights(n)
    assert type(tails) is tuple and len(tails) == len(weights)
    assert _binomial_weights(n)[2] is tails
    exact = list(accumulate(map(Fraction, reversed(weights))))[::-1]
    for k, (tail, ref) in enumerate(zip(tails, exact)):
        # a suffix of len(weights) - k roundings, each within u of its sum
        assert abs(Fraction(tail) - ref) <= (len(weights) - k) * 2.0 ** -53 * ref


def test_euler_window_holds_order_sqrt_n_weights():
    n = 4095
    lo, weights, _, mass = _binomial_weights(n)
    assert len(weights) == n + 1 - 2 * lo <= 12 * math.sqrt(n + 1)
    # the window is the weights >= u^2; those left out weigh a few u^2
    assert min(weights) >= 2.0 ** -106 > math.comb(n, lo - 1) / 2 ** n
    exact = 2 * sum(Fraction(math.comb(n, k), 2 ** n) for k in range(lo))
    assert exact <= mass <= 8 * 2.0 ** -106
    assert len(_binomial_weights(106)[1]) == 107  # every weight up to N = 107


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
    # N > 402 is outside CVZ's domain, not an overflow of the series.
    with pytest.raises(DomainError, match="at most 402 terms, got 403"):
        sum_alternating([(-1.0) ** k / (k + 1) for k in range(403)], CVZ)


@pytest.mark.parametrize("n", [2, 17, 256])
def test_euler_estimate_is_never_zero(n):
    # Constant partial sums and Sum (-1)^k (k+1) at n = 17 both give
    # last == prev, where the estimate used to be exactly 0.0.
    for terms in ([1.0] + [0.0] * (n - 1), _series("divergent", n)):
        assert sum_alternating(terms, EULER).error_estimate > 0.0
    assert euler_average([1e-300] + [0.0] * (n - 1))[1] > 0.0


@pytest.mark.parametrize("method", list(AccelerationMethod))
@pytest.mark.parametrize("terms,error", [
    ([1.0, -math.inf, 0.5], DomainError),
    ([1.0, math.nan, 0.5], DomainError),
    ([1e308, -1e308, 1e308, -1e308], OverflowError),
    ([1e308] * 3, OverflowError),
    ([(-1.0) ** k for k in range(8)] + [math.inf], DomainError),
], ids=["minus-inf", "nan", "alternating-huge", "fsum-overflow", "last-inf"])
def test_non_finite_sums_raise_typed_errors(terms, error, method):
    if error is OverflowError and method is CVZ and terms[1] > 0:
        error = SignPatternError  # these terms do not alternate
    match = {DomainError: "must be finite", OverflowError: "exceeds double range",
             SignPatternError: "alternate"}[error]
    with pytest.raises(error, match=match):
        sum_alternating(terms, method)
    with pytest.raises(error, match=match):
        sum_alternating([complex(t, t / 2) for t in terms], method)


def _log_hypergeometric_per_factor(start, factors, first, count):
    """log_hypergeometric as first written, kept here to pin its bits: one
    pass per factor with the quotient test on every k, the passes added
    elementwise in the order of the factors, then the same Kahan sum."""
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


def _hypergeometric_cases():
    """(start, factors, first, count) of every series that builds its terms
    with log_hypergeometric, at the term-accuracy grids and beyond."""
    # a = 0.2499 / 0.2501 / -0.001 and q = -0.7501 / -0.4999 / -0.9 sit at
    # the edges of the quotient prefix; at a = -100.3 and -150.7 it is long.
    pfd = [a for a, _, _ in _pfd_grid()] + [-0.7, -100.3, -150.7]
    for a in pfd:
        yield (math.lgamma(2.0 * a) - math.log(abs(a)),
               ((2.0 * a - 1.0, 1, 1.0), (1.0, a, -1.0)), 0, 1024)
    for q, n_terms in _inverse_square_grid():
        yield (math.lgamma(2.0 * q + 2.0) - 2.0 * math.lgamma(q + 1.0)
               - 3.0 * math.log(q + 1.0),
               ((2.0 * q + 1.0, 0, 1.0), (1.0, q, -3.0)), 1, n_terms)
    # One factor alone, as for the binomial C(n+k-1, k), goes beside the
    # factor of one, (0, 1, 0.0).
    one = (0, 1, 0.0)
    for n in (1, 2, 3, 17, 60):
        yield 0.0, ((n - 1, 1, 1.0), one), 0, max(28, 2 * n + 12)
    # c/(k + d) = -1/2 exactly at k = 4; then either sign of c and k + d
    yield 1.5, ((-2.0, 0.0, 1.0), (3.0, -7.25, -2.0)), 3, 40
    rng = random.Random(20203)
    for _ in range(40):
        start = rng.uniform(-5, 5)
        drawn = [(rng.uniform(-6, 6), rng.uniform(-6, 6), rng.choice((1.0, -3.0)))
                 for _ in range(rng.choice((1, 2)))]
        yield start, (*drawn, one)[:2], rng.choice((0, 1, 3)), 48


def test_log_hypergeometric_matches_the_per_factor_passes_bit_for_bit():
    for start, factors, first, count in _hypergeometric_cases():
        got = log_hypergeometric(start, factors, first, count)
        ref = _log_hypergeometric_per_factor(start, factors, first, count)
        assert type(got) is list
        assert list(map(float.hex, got)) == list(map(float.hex, ref)), (factors, first)
