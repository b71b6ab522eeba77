import math
import operator
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omega_zeta import (
    AccelerationMethod,
    ConvergenceReport,
    DivergenceError,
    DomainError,
    SignPatternError,
    sum_alternating,
)
from omega_zeta.accel import (
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
    if kind == "subnormal":  # the products round to multiples of 2^-1074
        return [rng.choice((-1, 1)) * rng.randint(0, 3) * 5e-324 for _ in range(n)]
    return [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3, 3) for _ in range(n)]


def _real_series(kind, n):
    """The real series of `kind`, a complex one as its two parts: Euler
    takes only real sums, and sum_alternating sums a complex series so."""
    terms = _series(kind, n)
    if kind != "complex":
        return [terms]
    return [[t.real for t in terms], [t.imag for t in terms]]


def _binomials(n):
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


def _scaled(x):
    """x * 2^1074 as an exact integer: every double is a multiple of 2^-1074."""
    p, q = x.as_integer_ratio()
    return p * ((1 << 1074) // q)


def _exact_means(terms):
    """The Euler means, as Fractions, of the float partial sums as given
    and of the exact partial sums of the float terms."""
    row, scale = _binomials(len(terms) - 1), 1 << (len(terms) - 1 + 1074)
    given = sum(map(operator.mul, row, map(_scaled, accumulate(terms))))
    exact = sum(map(operator.mul, row, accumulate(map(_scaled, terms))))
    return Fraction(given, scale), Fraction(exact, scale)


def _euler_natural(terms):
    """(last, step, bound) as euler_average forms them, but with the mean's
    products fed to fsum in natural order, the form before the outward
    order: the reference whose value and estimate it keeps bit for bit."""
    n = len(terms)
    sums = list(accumulate(terms))
    lo, weights, z, _ = _binomial_weights(n - 1)
    window = sums[lo:n - lo]
    last = math.fsum(map(operator.mul, weights, window))
    bound = sum(map(operator.mul, z, map(abs, window)))
    if lo:
        bound += z[0] * sum(map(abs, sums[:lo])) + z[-1] * sum(map(abs, sums[n - lo:]))
    lo, weights = _binomial_weights(n - 2)[:2]
    step = sum(map(operator.mul, weights, terms[lo + 1:]))
    return last, step, bound


def _estimate(n, last, step, bound):
    """Euler's estimate from its parts, in euler_average's order of evaluation."""
    return abs(step) / 2.0 + 5.0 * 2.0 ** -53 * abs(last) + bound + 2.0 ** -1074 * (2 * n + 1)


def _rounding_part(terms, value, est):
    """The part of the estimate beyond |last - prev|, 5u |last| +
    sum_i z_i |S'_i| + 2^-1074 (2N + 1), as an exact Fraction, checked to
    make up `est` in euler_average's own order of evaluation."""
    u, tiny, n = 2.0 ** -53, 2.0 ** -1074, len(terms)
    _, step, bound = _euler_natural(terms)
    assert est == _estimate(n, value, step, bound)
    return Fraction(5.0 * u * abs(value)) + Fraction(bound) + Fraction(tiny) * (2 * n + 1)


def _left_out(n):
    """The exact mass 2 sum_(k<lo) C(n,k)/2^n of the weights that the
    window of a mean of n + 1 sums leaves out."""
    lo = _binomial_weights(n)[0]
    return 2 * sum(Fraction(math.comb(n, k), 2 ** n) for k in range(lo))


def _euler_split(terms):
    """The Euler estimate with each part of its rounding bound summed on
    its own, over the suffix sums T_k of the window's weights and the
    exact mass each window leaves out: the form the cached z_k fold, kept
    here as the reference the estimate must not fall below."""
    u, tiny, n = 2.0 ** -53, 2.0 ** -1074, len(terms)
    sums = list(accumulate(terms))
    lo, weights = _binomial_weights(n - 1)[:2]
    mass = float(_left_out(n - 1))
    tails = tuple(accumulate(reversed(weights)))[::-1]
    products = list(map(operator.mul, weights, sums[lo:]))
    mean = math.fsum(products)
    magnitudes = list(map(abs, sums))
    total = sum(magnitudes)
    drift = sum(map(operator.mul, tails, magnitudes[lo:]), tails[0] * sum(magnitudes[:lo]))
    rounding = (2.0 * u * (abs(mean) + 2.0 * sum(map(abs, products)) + drift)
                + 2.0 * mass * total + tiny * (2 * n + 1 + total))
    lo, weights = _binomial_weights(n - 2)[:2]
    mass = float(_left_out(n - 2))
    steps = list(map(operator.mul, weights, terms[lo + 1:]))
    return mean, (abs(sum(steps)) / 2.0 + u * (3.0 * abs(mean) + 2.0 * sum(map(abs, steps)))
                  + 2.0 * mass * total + rounding)


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


@pytest.mark.parametrize("kind", ["real", "complex", "divergent", "random", "subnormal"])
@pytest.mark.parametrize("n", [2, 3, 17, 256, 1100])
def test_euler_rounding_bound_holds_exactly(kind, n):
    # n = 1100 takes the outer weights C(1099, k)/2^1099 below the normal
    # range, down to 0.0.
    for terms in _real_series(kind, n):
        value, est = euler_average(terms)
        ref, ref_est = _euler_split(terms)
        assert value.hex() == ref.hex() and est >= ref_est
        rounding = _rounding_part(terms, value, est)
        # The Euler sum of the float partial sums as given, and of the
        # exact partial sums of the float terms.
        for mean in _exact_means(terms):
            assert abs(Fraction(value) - mean) <= rounding


def _mixed_terms(n, seed, centre, spread, special):
    """n terms of mixed sign with magnitudes in 1e-300 .. 1e300, about a
    share `special` of them subnormal or a signed zero."""
    rng = random.Random(seed)
    terms = []
    for _ in range(n):
        sign, kind = rng.choice((-1.0, 1.0)), rng.random()
        if kind < special / 2:
            terms.append(sign * rng.randint(1, 2 ** 52) * 5e-324)
        elif kind < special:
            terms.append(sign * 0.0)
        else:
            exponent = centre + rng.uniform(-spread, spread)
            terms.append(sign * 10.0 ** min(300.0, max(-300.0, exponent)))
    return terms


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(2, 1100), st.integers(0, 2 ** 32), st.floats(-300.0, 300.0),
       st.floats(0.0, 300.0), st.floats(0.0, 1.0))
def test_euler_rounding_part_bounds_the_exact_mean(n, seed, centre, spread, special):
    # fsum rounds the exact sum of its inputs whatever their order, so
    # feeding the mean's products from the middle out changes no bit of the
    # value, nor (checked in _rounding_part) of the estimate, against the
    # natural order; and the terms are left as they were.
    terms = _mixed_terms(n, seed, centre, spread, special)
    before = list(terms)
    value, est = euler_average(terms)
    assert terms == before
    assert value.hex() == _euler_natural(terms)[0].hex()
    rounding = _rounding_part(terms, value, est)
    for mean in _exact_means(terms):
        assert abs(Fraction(value) - mean) <= rounding


def test_binomial_weights_cache_returns_the_same_tuple_bits():
    grid = (0, 1, 2, 17, 256, 1100)

    def bits(n):
        lo, weights, z, outward = _binomial_weights(n)
        return lo, [w.hex() for w in weights], [c.hex() for c in z], [w.hex() for w in outward]

    before = [bits(n) for n in grid]
    for n in grid:
        _, weights, z, outward = _binomial_weights(n)
        assert type(weights) is type(z) is type(outward) is tuple
        # The weights from the middle out, in two runs of falling weight: a
        # permutation of them that shares their float objects.
        mid = len(weights) // 2
        assert sorted(map(id, outward)) == sorted(map(id, weights))
        for run in (outward[:mid], outward[mid:]):
            assert list(run) == sorted(run, reverse=True)
    assert _binomial_weights(1)[3] == (0.5, 0.5)  # N = 2, where mid is 1
    assert _binomial_weights(0)[3] == (1.0,)
    _binomial_weights.cache_clear()
    assert [bits(n) for n in grid] == before


def _outcome(euler, terms):
    """The value and estimate of `euler` on `terms` in float hex, or the type
    of the error it raises."""
    try:
        last, est = euler(terms)
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__
    return last.hex(), est.hex()


def _natural_outcome(terms):
    """_outcome of the natural-order reference, _euler_natural."""
    def euler(terms):
        last, step, bound = _euler_natural(terms)
        return last, _estimate(len(terms), last, step, bound)
    return _outcome(euler, terms)


_M = sys.float_info.max


def _near_max_series(n):
    yield "max", [_M] + [0.0] * (n - 1)
    yield "-max", [-_M] + [0.0] * (n - 1)
    yield "max-and-0", [_M * (-1.0) ** k for k in range(n)]  # sums M, 0, M, 0, ..
    yield "max-0-minus-max", [_M, -_M, -_M, _M] * (n // 4) + [_M, -_M, -_M][:n % 4]
    rng = random.Random(n)
    # sums that creep down from DBL_MAX by 0 to 3 units in the last place a term
    yield "just-below", [_M] + [-rng.randrange(4) * 2.0 ** 971 for _ in range(n - 1)]
    yield "inf-later", [_M * 0.75] * n  # the sums reach inf from k = 1
    yield "nan-later", ([_M, _M, -math.inf] + [1.0] * n)[:n]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 64, 107, 108, 128, 1024, 1100])
def test_euler_near_the_double_range_keeps_the_natural_outcome(n):
    # The products of each window at DBL_MAX round to a sum of at most
    # DBL_MAX, so no partial of fsum leaves the double range in any order
    # while the sums are finite, and non-finite sums end fsum in a way that
    # does not depend on the order.
    weights = _binomial_weights(n - 1)[1]
    assert sum(int(w * _M) for w in weights) <= int(_M)
    for name, terms in _near_max_series(n):
        assert _outcome(euler_average, terms) == _natural_outcome(terms), name


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
    for name, terms in _window_families(n):
        sums = [s.as_integer_ratio() for s in accumulate(terms)]
        unit = max(d for _, d in sums)
        sums = [p * (unit // d) for p, d in sums]
        step = sum(map(operator.mul, _binomials(n - 2), map(operator.sub, sums[1:], sums)))
        last = sum(map(operator.mul, _binomials(n - 1), sums))
        prev = 2 * sum(map(operator.mul, _binomials(n - 2), sums))
        assert step == last - prev, name


@pytest.mark.parametrize("n", [0, 1, 2, 17, 256, 1023, 4095])
def test_bound_coefficients_cover_the_parts_they_fold(n):
    # In exact arithmetic, each z_k of a mean of n + 1 sums bounds what it
    # folds for sum k: the drift u T_k over the suffix sums of the window's
    # weights, the weight's and the product's roundings u (2+u)(1+u) w_k,
    # the mass left out of the mean's window, (1+u) m, and of the step's,
    # 2 m', the underflow allowance 2^-1075 and the step's roundings
    # 2u (1+u)^2 (w'_(k-1) + w'_k).  The masses m and m' are the exact
    # ones, from the binomials.  z_lo and z_(n-lo) cover every sum left out
    # below and above the window.  The doubling of all but the step's parts
    # leaves room for the roundings of the cached floats.
    u = Fraction(1, 2 ** 53)
    lo, weights, z, _ = _binomial_weights(n)
    assert type(z) is tuple and len(z) == len(weights)
    assert _binomial_weights(n)[2] is z
    w = [Fraction(0)] * (n + 1)
    w[lo:n - lo + 1] = map(Fraction, weights)
    tails = list(accumulate(reversed(w)))[::-1]
    step = [Fraction(0)] * (n + 1)  # w'_j, zero outside the step's window
    if n:
        lo1, weights1 = _binomial_weights(n - 1)[:2]
        step[lo1:n - lo1] = map(Fraction, weights1)
    least = ((1 + u) * _left_out(n) + 2 * (_left_out(n - 1) if n else 0)
             + Fraction(2.0 ** -1075))
    for k in range(n + 1):
        part = (u * tails[k] + u * (2 + u) * (1 + u) * w[k] + least
                + 2 * u * (1 + u) ** 2 * (step[k] + (step[k - 1] if k else 0)))
        assert Fraction(z[min(max(k - lo, 0), len(z) - 1)]) >= part, k


def test_euler_window_holds_order_sqrt_n_weights():
    n = 4095
    lo, weights = _binomial_weights(n)[:2]
    assert len(weights) == n + 1 - 2 * lo <= 12 * math.sqrt(n + 1)
    # the window is the weights >= u^2; those left out weigh a few u^2
    assert min(weights) >= 2.0 ** -106 > math.comb(n, lo - 1) / 2 ** n
    assert _left_out(n) <= 8 * 2.0 ** -106
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
            products = map(operator.mul, weights, terms)
            exact = float(sum(map(Fraction, products))) / d
            assert abs(value - exact) <= 3 * math.ulp(exact), len(terms)


def _cvz_copysign(terms):
    """_cvz as it read its signs before: one copysign per term, then the
    unfolded sum sign(t_0) sum_k c_k |t_k| / d with c_k = (-1)^k |c_k|,
    kept here to pin the bits of the sign-folded form."""
    signs = list(map(math.copysign, repeat(1.0), terms))
    if signs[0::2].count(signs[0]) + signs[1::2].count(-signs[0]) < len(signs):
        same = list(map(operator.eq, signs, signs[1:]))
        raise SignPatternError(
            f"terms must strictly alternate in sign (index {same.index(True) + 1})")
    folded, d = _cvz_weights(len(terms))
    weights = [-w if k % 2 else w for k, w in enumerate(folded)]
    magnitudes = list(map(abs, terms))
    s = sum(map(operator.mul, weights, magnitudes))
    a_max = max(magnitudes)
    return signs[0] * (s / d), max(3.0 * a_max / d, 16.0 * 2.0 ** -53 * a_max)


def _outcome(fn, terms):
    try:
        return tuple(map(float.hex, fn(terms)))
    except SignPatternError as exc:
        return "SignPatternError", str(exc)


def _alternating(n, lead, rng):
    return [lead * (-1.0) ** k * rng.uniform(0.5, 2.0) / (k + 1) for k in range(n)]


def _cvz_sign_cases():
    rng = random.Random(2030)
    for lead in (1.0, -1.0):
        for n in (1, 2, 3, 17, 128, 401, 402):
            yield _alternating(n, lead, rng)
        # tails underflowed to +-0.0 that keep their sign bits
        yield [lead * (-1.0) ** k * 1e-300 * 10.0 ** (-8 * k) for k in range(60)]
        yield [lead * (-1.0) ** k * 2.0 ** (-1070 - k) for k in range(9)]
        # an all-zero alternating series, and one term of either zero
        for n in (1, 2, 5, 402):
            yield [lead * (-1.0) ** k * 0.0 for k in range(n)]
        # weights that cancel exactly: a zero sum of nonzero terms
        w0, w1 = _cvz_weights(2)[0]
        yield [lead * w1, -lead * w0]
        # a zero, a sign pattern that breaks, ints among the floats
        yield [lead, -lead, 0.0, -lead]
        yield [lead, -lead, -0.0 * lead, -lead]
        yield [lead, -lead, -lead, lead]
        yield [lead, 0.0, lead]
        yield [lead, -0.5 * lead, 0.25 * lead, -0.125 * lead, 0.0]
        yield [int(lead), -0.5 * lead, 2 * int(lead), -0.125 * lead]


def test_cvz_sign_folded_sum_keeps_the_copysign_forms_bits():
    # (-1)^k c_k t_k = sign(t_0) c_k |t_k| exactly and rounding is symmetric,
    # so value, estimate and the sign of a zero sum keep their bits, and a
    # broken sign pattern names the same index.
    kinds = set()
    for terms in _cvz_sign_cases():
        got, ref = _outcome(_cvz, terms), _outcome(_cvz_copysign, terms)
        assert got == ref, terms[:4]
        kinds.add(got[0] if got[0] == "SignPatternError" else got[0].startswith("-"))
    assert kinds == {"SignPatternError", False, True}  # errors, values of either sign
    assert _cvz([0.0, -0.0, 0.0])[0].hex() == "0x0.0p+0"
    assert _cvz([-0.0, 0.0, -0.0])[0].hex() == "-0x0.0p+0"
    w0, w1 = _cvz_weights(2)[0]
    assert _cvz([-w1, w0])[0].hex() == "-0x0.0p+0"


@pytest.mark.parametrize("terms, index", [
    ([1.0, 0.0, 0.25], 1),
    ([-1.0, 0.5, 0.0, 0.125], 2),
    ([1.0, -0.5, 0.25, 0.0, 0.125], 3),
])
def test_cvz_exact_zero_after_a_positive_term_breaks_the_pattern(terms, index):
    message = f"terms must strictly alternate in sign (index {index})"
    for fn in (_cvz, _cvz_copysign):
        with pytest.raises(SignPatternError, match=re.escape(message)):
            fn(terms)
    with pytest.raises(SignPatternError, match=re.escape(message)):
        sum_alternating(terms, CVZ)


@pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [0, 1, 2, 5])
def test_cvz_names_a_term_that_is_not_finite(bad, index):
    terms = [(-1.0) ** k / (k + 1) for k in range(6)]
    terms[index] = bad
    message = f"term {index + 1} is {bad}: terms must be finite"
    with pytest.raises(DomainError, match=re.escape(message)):
        sum_alternating(terms, CVZ)


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
    if error is OverflowError and method is EULER and terms[1] < 0:
        # Euler's bound stays finite on partial sums 1e308, 0, 1e308, 0,
        # and the mean is exact.
        for scale in (1.0, 1.0 + 0.5j):
            rep = sum_alternating([t * scale for t in terms], method)
            assert abs(rep.value - 5e307 * scale) <= rep.error_estimate < 1e294
        return
    match = {DomainError: "must be finite", OverflowError: "exceeds double range",
             SignPatternError: "alternate"}[error]
    with pytest.raises(error, match=match):
        sum_alternating(terms, method)
    with pytest.raises(error, match=match):
        sum_alternating([complex(t, t / 2) for t in terms], method)


@pytest.mark.parametrize("terms, method, index", [
    (["a", "b"], "none", 1),
    ([None, 1.0], "euler", 1),
    ([1.0, "x"], "cvz", 2),
    ([1j, "x"], "euler", 2),
], ids=["strings", "none-first", "string-second", "complex-then-string"])
def test_terms_that_are_not_numbers_raise_a_domain_error(terms, method, index):
    message = f"term {index} is {terms[index - 1]!r}: terms must be real or complex numbers"
    with pytest.raises(DomainError, match=re.escape(message)):
        sum_alternating(terms, method)


@pytest.mark.parametrize("method", ["none", "euler", "cvz"])
@pytest.mark.parametrize("terms, message", [
    # a complex series' real parts [0.0, Decimal(1)] do not add
    ([1j, Decimal(1)], "term 2 is Decimal('1'): terms must be real or complex numbers"),
    ([Decimal(1), 1.0], "term 1 is Decimal('1'): terms must be real or complex numbers"),
    ([10 ** 400, 1], "term 1 is past the double range: terms must be finite"),
    ([1.0, -10 ** 400], "term 2 is past the double range: terms must be finite"),
    ([1j, 10 ** 400], "term 2 is past the double range: terms must be finite"),
    ([Fraction(10 ** 400), 1], "term 1 is past the double range: terms must be finite"),
], ids=["complex-decimal", "decimal-float", "huge-int", "huge-int-second",
        "complex-huge-int", "huge-fraction"])
def test_numbers_that_do_not_sum_as_doubles_raise_a_domain_error(terms, message, method):
    with pytest.raises(DomainError, match=re.escape(message)):
        sum_alternating(terms, method)
