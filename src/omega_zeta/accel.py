"""The summation engine: alternating series, with optional acceleration.

Two schemes are provided on top of plain summation:

* Euler transform, computed in O(N) as the binomial-weighted mean
  sum_k C(N-1,k) S_k / 2^(N-1) of the partial sums S_k, summed over the
  O(sqrt N) weights that can reach a double result.  Finite
  differencing annihilates polynomial term growth, so this also
  regularizes alternating series that diverge classically.  Its error
  estimate includes a bound on the rounding error of the partial sums
  and of the weighted mean, and on the weights left out.
* The Chebyshev-polynomial scheme of Cohen, Rodriguez Villegas and
  Zagier, which converges like (3 + sqrt(8))^-N for well-behaved
  alternating series.
"""

from __future__ import annotations

import cmath
import math
import operator
from bisect import bisect_left
from collections import namedtuple
from enum import Enum
from functools import lru_cache, partial
from itertools import accumulate, repeat

from .errors import (DivergenceError, DomainError, SignPatternError, _check_index, _check_real,
                     _shown)

__all__ = [
    "AccelerationMethod",
    "ConvergenceReport",
    "PrecisionConfig",
    "sum_alternating",
]

_U = 2.0 ** -53  # unit roundoff of round to nearest
_TINY = 2.0 ** -1074  # smallest subnormal: twice the error of an underflow
_CVZ_MAX_N = 402  # the largest N with (3 + sqrt 8)^N below the double range
_CUT = 106  # Euler weights below u^2 = 2^-_CUT stay out of its sums (euler_average)


class AccelerationMethod(Enum):
    NO_ACCELERATION = "none"
    EULER_TRANSFORM = "euler"
    CHEBYSHEV_ALTERNATING = "cvz"

    @classmethod
    def _missing_(cls, value):
        names = ", ".join(m.value for m in cls)
        raise DomainError(f"unknown method {value!r}; use one of {names}")


_METHODS = {key: m for m in AccelerationMethod for key in (m, m.value)}


def _method(method):
    """The AccelerationMethod named by `method`, a member or its value."""
    try:
        return _METHODS[method]
    except (KeyError, TypeError):  # the enum raises DomainError
        return AccelerationMethod(method)


# The result of a series evaluation.
ConvergenceReport = namedtuple("ConvergenceReport", "value terms_used error_estimate method")


class PrecisionConfig(namedtuple("PrecisionConfig",
                                 "max_terms target_abs_error method trace_enabled")):
    """Truncation and acceleration settings for series evaluations.

    Only `max_terms` and `method` are read.  `target_abs_error` and
    `trace_enabled` stay because the benchmark's `perfbench/worker.py`
    passes them by keyword.  `method` is one of "none", "euler", "cvz".
    """

    __slots__ = ()

    def __new__(cls, max_terms: int = 64, target_abs_error: float = 1e-12,
                method: str = "cvz", trace_enabled: bool = True):
        _check_index("max_terms", max_terms, 1)
        _check_real("target_abs_error", target_abs_error, 0, True)
        _method(method)
        return tuple.__new__(cls, (max_terms, target_abs_error, method, trace_enabled))


def _default_config(config, **settings):
    """PrecisionConfig(**settings) for a `config` of None, the one value
    besides a PrecisionConfig that a series entry point takes."""
    if config is not None:
        raise DomainError(f"config must be a PrecisionConfig, got {_shown(config)}")
    return PrecisionConfig(**settings)


@lru_cache(maxsize=None, typed=True)  # a head of 3.0 reaches `term`, also once 3 is cached
def _first_terms(term, count, *head):
    """(term(*head, 1), ..., term(*head, count)) as one tuple, built once per
    key from the memoized per-index `term`: a warm series costs one lookup."""
    return tuple([term(*head, n) for n in range(1, count + 1)])


def euler_average(terms):
    """Euler transform of the real series `terms`.

    Returns (limit, error_estimate).  With N partial sums S_0..S_(N-1)
    the limit is the binomial mean last = sum_k w_k S_k, w_k =
    C(N-1,k)/2^(N-1), the last entry of the triangle that averages
    neighbouring sums N-1 times, and the truncation estimate is
    |last - prev|, where prev is the same mean of the first N-1 sums.  By
    Pascal's rule C(N-1,k) = C(N-2,k) + C(N-2,k-1), last - prev =
    1/2 sum_j w'_j t_(j+1) with w'_j = C(N-2,j)/2^(N-2), summed from the
    terms.  A single term is its own limit, with estimate |t_0|.

    Both sums run over one window of weights, the k = lo .. N-1-lo with
    w_k >= u^2 = 2^-106 (u = 2^-53, _CUT = 106): a smaller weight cannot
    reach a double result that has not cancelled to within a few u of its
    sums.  The weights follow a normal density of variance (N-1)/4
    closely, so the window holds about sqrt(2 ln 2 _CUT (N-1)), some
    12 sqrt(N), of them: all of them up to N = 107, 374 of 1024 and 750 of
    4096.  Below lo the weights fall at least geometrically, w_(k-1)/w_k
    <= r = (lo-1)/(N-lo+1), so the 2 lo weights left out weigh
    m <= 2 w_(lo-1)/(1-r), a few u^2.  The step's window starts no later
    (w_k <= w'_k below the middle) and w'_k <= 2 w_k, so it leaves out
    m' <= 2m.  The mean moves only where the full and the windowed exact
    sums round apart, which needs a mean within a few u max|S_k| of zero.

    The mean's products go to math.fsum from the middle of the window
    outward (the cached `outward` weights; the window's left half is
    reversed in place once the bound has read it).  fsum (Shewchuk,
    Discrete Comput. Geom. 18, 1997) walks its whole list of partials per
    input, and falling products keep that list short where rising ones
    grow it.  Its sum is correctly rounded in any order, as no partial can
    leave the double range: the products fl(w_k DBL_MAX) of each window
    add up to at most DBL_MAX (checked for every N up to 4100).  The plain
    sums keep their natural order, as their bits depend on it.

    Rounding is bounded a posteriori (Higham, Accuracy and Stability, 2nd
    ed., (2.5) and section 4.2): each rounding to nearest is within u of
    its result, plus 2^-1075 where it underflows.  With A = sum_i |S'_i|
    and T_i the sum of the window's weights w_k, k >= i (T_lo below the
    window, 0 above it), the sums S'_k = fl(S'_(k-1) + t_k) put at most
    u sum_i |S'_i| T_i into the mean; the weights, each rounded once from
    exact integers, and the products p_k = fl(w_k S'_k), |p_k| <=
    (1+u) w_k |S'_k|, put u (2+u) sum_k |p_k|; math.fsum u |last|; and the
    sums left out (1+u) m A.  So |last - sum_k w_k S_k| <=
    u (|last| + (2+u) sum_k |p_k| + sum_i |S'_i| T_i) + (1+u) m A +
    2^-1075 (2N + 1 + A).  The step's window leaves out at most 2 m' A, and
    its roundings, with those of the S'_k the terms stand in for, come to
    2u sum_j |w'_j t_(j+1)| <= 5u sum_k w_k |S'_k|, as |t_(j+1)| <=
    (1+u)(|S'_j| + |S'_(j+1)|) and w'_(k-1) + w'_k = 2 w_k.

    The estimate doubles the mean's bound, which covers its u^2 terms and
    the roundings in evaluating it (sums of nonnegative numbers, within a
    factor 1 + 2Nu of exact), and folds every part that grows with the
    sums into one dot product sum_i z_i |S'_i|, with coefficients

        z_k = 2u (T_k + 2 w_k) + 5u w_k + 2m + 4m + 2^-1074

    cached per window position (_binomial_weights); z_lo and z_(N-1-lo)
    stand for the sums left out below and above.  The estimate is
    |last - prev| + 5u |last| + sum_i z_i |S'_i| + 2^-1074 (2N + 1), where
    3u |last| covers what two rounded means would put in the step.  Over
    every weight the bound would add at most 2u (2 w_k + m) per
    coefficient, which 2m covers: the window never makes it smaller.
    """
    n = len(terms)
    if n == 1:
        return terms[0], abs(terms[0])
    sums = list(accumulate(terms))
    lo, weights, z, outward = _binomial_weights(n - 1)
    window = sums[lo:n - lo] if lo else sums  # no copy while the window holds every sum
    bound = sum(map(operator.mul, z, map(abs, window)))
    if lo:
        bound += z[0] * sum(map(abs, sums[:lo])) + z[-1] * sum(map(abs, sums[n - lo:]))
    mid = len(window) // 2
    window[:mid] = window[mid - 1::-1]  # the sums in the order of `outward`
    last = math.fsum(map(operator.mul, outward, window))
    lo, weights = _binomial_weights(n - 2)[:2]
    step = sum(map(operator.mul, weights, terms[lo + 1:]))
    return last, abs(step) / 2.0 + 5.0 * _U * abs(last) + bound + _TINY * (2 * n + 1)


@lru_cache(maxsize=None)
def _binomial_weights(n):
    """(lo, weights, z, outward): the weights C(n,k) / 2^n >= 2^-_CUT,
    k = lo .. n - lo, each rounded once from exact integers, the
    coefficient z_k of each in the rounding bound of a mean of n + 1 sums,
    which takes in a bound m on the mass of the 2 lo weights left out, and
    the same weights from the middle out, weights[mid-1] down to weights[0]
    and then weights[mid] on, mid = len(weights) // 2: the order in which
    euler_average feeds its mean to fsum.  Tuples, since the cache hands the
    same objects to every caller; `outward` shares the float objects."""
    floor = 1 << max(n - _CUT, 0)
    lo = bisect_left(range(n // 2 + 1), floor, key=partial(math.comb, n))
    scale = 1 << n
    c = math.comb(n, lo)
    # 2 C(n,lo-1) / (1 - r) with r = (lo-1)/(n-lo+2), C(n,lo-1) = c lo/(n-lo+1)
    mass = 2 * c * lo * (n - lo + 2) / ((n - lo + 1) * (n - 2 * lo + 3) * scale)
    weights = []
    for k in range(lo, n - lo + 1):
        weights.append(c / scale)
        c = c * (n - k) // (k + 1)
    least = 6.0 * mass + _TINY  # 2m for the mean's window, 2m' <= 4m for the step's
    tails = accumulate(reversed(weights))
    z = [2.0 * _U * t + 9.0 * _U * w + least for t, w in zip(tails, reversed(weights))]
    mid = len(weights) // 2
    return lo, tuple(weights), tuple(z[::-1]), tuple(weights[:mid][::-1] + weights[mid:])


@lru_cache(maxsize=None)
def _cvz_weights(n):
    """(|c_0| .. |c_(n-1)|, d) for n terms: the weights c_k = (-1)^k |c_k|
    of Cohen, Rodriguez Villegas and Zagier (Exp. Math. 9, 2000, Algorithm
    1) with their signs folded in, summed as sum_k |c_k| t_k / d.  A tuple,
    cached like _binomial_weights.  d overflows above _CVZ_MAX_N, so more
    terms are outside CVZ's domain."""
    if n > _CVZ_MAX_N:
        raise DomainError(f"cvz takes at most {_CVZ_MAX_N} terms, got {n}: "
                          "its scale (3 + sqrt 8)^N overflows a double")
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    weights = []
    for k in range(n):
        c = b - c
        weights.append(-c if k % 2 else c)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return tuple(weights), d


def _cvz(terms):
    """Cohen-Rodriguez Villegas-Zagier sum of strictly alternating real
    terms; returns (value, error_estimate).

    The signs come from the min and max of the even- and odd-indexed
    halves; only where these show a zero, a nan or a break are the sign bits
    read one by one (a nan that min and max pass over leaves a nan sum): a
    term that underflowed to +-0.0 keeps its sign bit and still alternates,
    an exact 0.0 after a positive term does not.  The sum
    sum_k |c_k| t_k = sign(t_0) sum_k c_k |t_k| term by term, exactly, and
    rounding is symmetric, so it carries the bits of the unfolded sum; only
    a sum that comes to exactly zero takes the sign of t_0 explicitly.  It
    is one builtin `sum`: left to right through Python 3.11, as the
    recurrence's loop added, compensated from 3.12 (see README)."""
    evens, odds = terms[0::2], terms[1::2] or [-terms[0]]
    hi, lo, odd_hi, odd_lo = max(evens), min(evens), max(odds), min(odds)
    if not (lo > 0.0 > odd_hi or hi < 0.0 < odd_lo):
        signs = list(map(math.copysign, repeat(1.0), terms))
        if signs[0::2].count(signs[0]) + signs[1::2].count(-signs[0]) < len(signs):
            same = list(map(operator.eq, signs, signs[1:]))
            raise SignPatternError(
                f"terms must strictly alternate in sign (index {same.index(True) + 1})")
    weights, d = _cvz_weights(len(terms))
    s = sum(map(operator.mul, weights, terms)) or 0.0 * terms[0]
    a_max = max(map(abs, (hi, lo, odd_hi, odd_lo)))
    return s / d, max(3.0 * a_max / d, 16.0 * _U * a_max)


def sum_alternating(terms, method: AccelerationMethod | str) -> ConvergenceReport:
    """Sum an iterable of real or complex terms with the requested scheme.

    `method` is an AccelerationMethod or its string value.  Plain
    summation refuses terms that grow (DivergenceError), since only an
    accelerated method regularizes such a series.  ChebyshevAlternating
    requires strictly alternating signs; Euler accepts any sign pattern.
    A series whose first term or sum is complex is summed as two real
    series, its real and imaginary parts, with value complex(re, im) and
    estimate hypot(re_est, im_est); one with no imaginary part sums as real.
    A term that is not a number or not finite raises DomainError, and a
    value or estimate that leaves the double range raises OverflowError;
    the terms are only looked at once the sum has failed.  A list or tuple
    of floats is not copied.
    """
    method = _method(method)
    if type(terms) is not list and type(terms) is not tuple:
        terms = list(terms)
    n = len(terms)
    if not n:
        raise DomainError("empty term list")
    try:
        kind = complex if type(terms[0]) is complex else type(sum(terms))
        if kind is not complex and kind is not float:
            terms = list(map(float, terms))
        imag = [t.imag for t in terms] if kind is complex else ()
    except (TypeError, AttributeError, OverflowError) as exc:  # no +, no .imag, 10**400
        raise _bad_term(terms, exc) from None
    failure = None
    try:
        if method is AccelerationMethod.NO_ACCELERATION:
            last = abs(terms[-1])  # inf is no growth
            if n >= 8 and math.inf > last > 1.2 * abs(terms[n // 2]):
                raise DivergenceError(
                    f"series terms grow (|term {n}| = {last:.3g} > 1.2 |term "
                    f"{n // 2 + 1}|); use an accelerated method")
        value, est = _sum_real([t.real for t in terms] if imag else terms, method)
        if any(imag):
            im, im_est = _sum_real(imag, method)
            value, est = complex(value, im), math.hypot(est, im_est)
        if cmath.isfinite(value) and math.isfinite(est):
            return ConvergenceReport(value, n, est, method)
    except (OverflowError, ValueError, TypeError):  # fsum past the double range or
        pass  # at inf - inf, abs of a huge complex, a complex term's part not a float
    except SignPatternError as exc:  # a nan has no sign for CVZ to alternate
        failure = exc
    raise _bad_term(terms) or failure or OverflowError(
        f"sum_alternating: the {method.value} sum of {n} terms or its estimate "
        "exceeds double range")


def _bad_term(terms, exc=None):
    """The DomainError naming the first term that is not a finite real or complex
    number; else, given the `exc` that the terms raised, one quoting it; else None."""
    import numbers  # only on the error paths
    for k, t in enumerate(terms, 1):
        if not isinstance(t, numbers.Complex):  # nor is a Decimal
            return DomainError(f"term {k} is {t!r}: terms must be real or complex numbers")
        try:
            if not cmath.isfinite(t):
                return DomainError(f"term {k} is {t}: terms must be finite")
        except OverflowError:  # an int or a Fraction past the double range
            return DomainError(f"term {k} is past the double range: terms must be finite")
    return exc and DomainError(f"the terms do not add up as numbers: {exc}")


def _sum_real(terms, method):
    """(value, error_estimate) of a list of real terms under `method`."""
    if method is AccelerationMethod.NO_ACCELERATION:
        # the last term, plus fsum's and the terms' rounding
        return math.fsum(terms), abs(terms[-1]) + 4.0 * _U * sum(map(abs, terms))
    if method is AccelerationMethod.EULER_TRANSFORM:
        return euler_average(terms)
    return _cvz(terms)
