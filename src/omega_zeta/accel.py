"""Summation of alternating series with optional acceleration.

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

from .errors import DivergenceError, DomainError, SignPatternError

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
        if not hasattr(max_terms, "__index__"):  # what range() takes: not 64.0
            raise DomainError(f"max_terms must be an integer, got {max_terms!r}")
        if max_terms < 1:
            raise DomainError("max_terms must be >= 1")
        if target_abs_error <= 0:
            raise DomainError("target_abs_error must be > 0")
        _method(method)
        return tuple.__new__(cls, (max_terms, target_abs_error, method, trace_enabled))


def _log_ratio(c, d, e, k):
    """e*log|1 + c/(k + d)|, as one quotient where c/(k + d) < -1/2."""
    x = c / (k + d)
    return e * (math.log1p(x) if x >= -0.5 else math.log(abs((k + d + c) / (k + d))))


def log_hypergeometric(start: float, factors, first: int, count: int) -> list[float]:
    """log|t_k| for k = first .. first + count - 1 of a hypergeometric term.

    log|t_first| = `start`, and t_(k+1)/t_k = prod (1 + c/(k + d))^e over
    the two (c, d, e) triples in `factors`.  Each factor adds
    e*log1p(c/(k+d)), or, where c/(k + d) < -1/2 and log1p would magnify
    the rounding of its argument, e*log|(k + d + c)/(k + d)| as one
    quotient.  That needs k + d < max(-2c, 0), so only a prefix of k takes
    the test, and the rest is one pass of e1*log1p(..) + e2*log1p(..).  A
    float e keeps the product on the interpreter's fast path.

    The count - 1 steps go into a Kahan-compensated sum.  Summed plainly, a
    log-magnitude near 30 rounds by about 2e-15 per step, 1e-13 relative in
    the terms after 1024 steps; compensated, about one rounding in all.
    """
    (c1, d1, e1), (c2, d2, e2) = factors
    end = first + count - 1
    split = min(end, max(first, *(math.ceil(max(-2.0 * c, 0.0) - d) + 1
                                  for c, d, _ in factors)))
    steps = [_log_ratio(c1, d1, e1, k) + _log_ratio(c2, d2, e2, k)
             for k in range(first, split)]
    steps += [e1 * math.log1p(c1 / (k + d1)) + e2 * math.log1p(c2 / (k + d2))
              for k in range(split, end)]
    total, comp, logs = start, 0.0, [start]
    for step in steps:
        y = step - comp
        t = total + y
        comp = (t - total) - y
        total = t
        logs.append(total)
    return logs


@lru_cache(maxsize=None)
def _first_terms(term, count, *head):
    """(term(*head, 1), ..., term(*head, count)) as one tuple, built once per
    key from the memoized per-index `term`: a warm series costs one lookup."""
    return tuple([term(*head, n) for n in range(1, count + 1)])


def euler_average(terms):
    """Euler transform of the real series `terms`.

    Returns (limit, error_estimate).  With N partial sums S_0..S_(N-1)
    the limit is the binomial mean last = sum_k C(N-1,k) S_k / 2^(N-1),
    the last entry of the triangle that averages neighbouring sums N-1
    times, and the truncation estimate is |last - prev|, where prev is
    the same mean of the first N-1 sums.  By Pascal's rule C(N-1,k) =
    C(N-2,k) + C(N-2,k-1), last - prev = 1/2 sum_j w'_j t_(j+1) with
    w'_j = C(N-2,j)/2^(N-2), summed from the terms.  A single term is its
    own limit, with estimate |t_0|.

    Both sums run over one window of weights, the k = lo .. N-1-lo
    with w_k = C(N-1,k)/2^(N-1) >= u^2 = 2^-106 (u = 2^-53, _CUT = 106): a
    smaller weight cannot reach a double result that has not cancelled to
    within a few u of its sums.  The weights follow a normal density of
    variance (N-1)/4 closely, so the window holds about
    sqrt(2 ln 2 _CUT (N-1)), some 12 sqrt(N), of them: all of them up to
    N = 107, 374 of 1024 and 750 of 4096.  Below lo the weights fall at
    least geometrically, w_(k-1)/w_k <= r = (lo-1)/(N-lo+1), so the 2 lo
    weights left out weigh m <= 2 w_(lo-1)/(1-r), a few u^2.  The products
    they would have made sum to at most m max|S_k| <= D = m A_(N-1) (A_k
    below), and D goes into the bound in full, so the estimate stays a
    bound.  D is a few u^2 A_(N-1), a few u of the u sum_k w_k A_k that the
    bound already holds while the sums grow no faster than a power of k.
    The mean itself moves only where the full and the windowed exact sums
    round apart, which needs a mean within a few u max|S_k| of zero.

    Rounding is bounded a posteriori and added to the estimate.  Each
    rounding to nearest returns x' with |x' - x| <= u|x'| (Higham,
    Accuracy and Stability, 2nd ed., (2.5)), plus at most 2^-1075 where
    the result underflows.  For real sums, with W the window:

    * the sums come from recursive summation, S'_k = fl(S'_(k-1) + t_k),
      so |S'_k - S_k| <= u A_k with A_k = sum_(i<=k) |S'_i| (Higham
      section 4.2); through the mean this is at most u sum_(k in W) w_k A_k
      = u sum_i |S'_i| T_i, with T_i = sum_(k in W, k >= i) w_k;
    * each weight w'_k = c_k / 2^(N-1) is one correctly rounded division
      of exact integers: |w'_k - w_k| <= u w'_k, and w'_k |S'_k| is at
      most (1+u)|p_k| for the product p_k = fl(w'_k S'_k);
    * each product: |p_k - w'_k S'_k| <= u |p_k|;
    * math.fsum rounds the sum of the p_k correctly: the error is at most
      u |last|;
    * the sums left out add sum_(k not in W) w_k |S_k|, at most
      m (max|S'_k| + u A_(N-1)) <= (1+u) D.

    Together |last - sum_k w_k S_k| is at most

        u (|last| + (2+u) sum_(k in W) |p_k| + sum_i |S'_i| T_i)
          + (1+u) D + 2^-1075 (2N + 1 + A_(N-1)).

    The code doubles every coefficient, which covers the u^2 and u D terms
    and the roundings made in evaluating the bound itself: its sums of
    nonnegative numbers (T_i, A_(N-1), sum |p_k| and sum |S'_i| T_i), in
    any order, are within a factor 1 + 2Nu of exact, far below 2 for
    any N that fits in memory.  Summed over every weight, the bound would
    hold 2u (2|p_k| + w_k A_k) for each k left out, in all at most
    2u m (3 max|S'_k| + A_(N-1)) <= 8u D, which 2D covers: the window never
    makes the bound smaller.  The step only perturbs the truncation
    estimate: it is a plain sum, plus 2u sum_j |w'_j t_(j+1)| for its
    roundings and those of the S'_k the terms stand in for, 3u |last| for
    those that two rounded means and their products would put in it, and
    2 m' A_(N-1) for the mass m' its window leaves out.
    """
    n = len(terms)
    if n == 1:
        return terms[0], abs(terms[0])
    last, rounding, total = _binomial_mean(list(accumulate(terms)))
    lo, weights, _, mass = _binomial_weights(n - 2)
    steps = list(map(operator.mul, weights, terms[lo + 1:]))
    return last, (abs(sum(steps)) / 2.0 + _U * (3.0 * abs(last) + 2.0 * sum(map(abs, steps)))
                  + 2.0 * mass * total + rounding)


@lru_cache(maxsize=None)
def _binomial_weights(n):
    """(lo, weights, tails, m): the weights C(n,k) / 2^n >= 2^-_CUT, k = lo ..
    n - lo, each rounded once from exact integers, their suffix sums T_k and
    a bound m on the mass of the 2 lo weights left out (see euler_average).
    Tuples, since the cache hands the same objects to every caller."""
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
    return lo, tuple(weights), tuple(accumulate(reversed(weights)))[::-1], mass


def _binomial_mean(sums):
    """(sum_k w_k s_k, rounding bound, A_n = sum_k |s_k|) as derived in
    euler_average, with 2D = 2 m A_n in the bound."""
    lo, weights, tails, mass = _binomial_weights(len(sums) - 1)
    products = list(map(operator.mul, weights, sums[lo:]))
    mean = math.fsum(products)
    magnitudes = list(map(abs, sums))
    total = sum(magnitudes)
    drift = sum(map(operator.mul, tails, magnitudes[lo:]), tails[0] * sum(magnitudes[:lo]))
    bound = (2.0 * _U * (abs(mean) + 2.0 * sum(map(abs, products)) + drift)
             + 2.0 * mass * total + _TINY * (2 * len(sums) + 1 + total))
    return mean, bound, total


@lru_cache(maxsize=None)
def _cvz_weights(n):
    """(c_0 .. c_(n-1), d) for n terms, summed as sum_k c_k |t_k| / d (Cohen,
    Rodriguez Villegas and Zagier, Exp. Math. 9, 2000, Algorithm 1).  A
    tuple, cached like _binomial_weights.  d overflows above _CVZ_MAX_N, so
    more terms are outside CVZ's domain."""
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
        weights.append(c)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return tuple(weights), d


def _cvz(terms):
    """Cohen-Rodriguez Villegas-Zagier sum of strictly alternating real
    terms; returns (value, error_estimate).

    A term that underflowed to +-0.0 keeps its sign bit and still
    alternates; an exact 0.0 after a positive term does not.  The weighted
    sum is one builtin `sum`: left to right through Python 3.11, as the
    recurrence's loop added, compensated from 3.12 (see README)."""
    signs = list(map(math.copysign, repeat(1.0), terms))
    if signs[0::2].count(signs[0]) + signs[1::2].count(-signs[0]) < len(signs):
        same = list(map(operator.eq, signs, signs[1:]))
        raise SignPatternError(
            f"terms must strictly alternate in sign (index {same.index(True) + 1})")
    weights, d = _cvz_weights(len(terms))
    magnitudes = list(map(abs, terms))
    s = sum(map(operator.mul, weights, magnitudes))
    a_max = max(magnitudes)
    return signs[0] * (s / d), max(3.0 * a_max / d, 16.0 * _U * a_max)


def sum_alternating(terms, method: AccelerationMethod | str) -> ConvergenceReport:
    """Sum an iterable of real or complex terms with the requested scheme.

    `method` is an AccelerationMethod or its string value.  Plain
    summation refuses terms that grow (DivergenceError), since only an
    accelerated method regularizes such a series.  ChebyshevAlternating
    requires strictly alternating signs; Euler accepts any sign pattern.
    A complex series is summed as two real series, of its real and of its
    imaginary parts, with value complex(re, im) and estimate
    hypot(re_est, im_est); one with no imaginary part is summed as real.
    A term that is not finite raises DomainError, and a value or estimate
    that leaves the double range raises OverflowError; the terms are only
    looked at once the sum has failed.  A list or tuple of floats is not copied.
    """
    method = _method(method)
    if type(terms) is not list and type(terms) is not tuple:
        terms = list(terms)
    kind = type(sum(terms))  # complex exactly when some term is
    if kind is complex:
        return _sum_parts([t.real for t in terms], [t.imag for t in terms], method)
    return _sum_parts(terms if kind is float else list(map(float, terms)), (), method)


def _sum_parts(real, imag, method):
    """sum_alternating of the series with parts `real` and `imag` (() if real)."""
    n = len(real)
    if not n:
        raise DomainError("empty term list")
    failure = None
    try:
        if method is AccelerationMethod.NO_ACCELERATION:
            end, mid = (complex(real[i], imag[i]) if imag else real[i] for i in (-1, n // 2))
            last = abs(end)  # not math.hypot, which can round apart; inf is no growth
            if n >= 8 and math.inf > last > 1.2 * abs(mid):
                raise DivergenceError(
                    f"series terms grow (|term {n}| = {last:.3g} > 1.2 |term "
                    f"{n // 2 + 1}|); use an accelerated method")
        value, est = _sum_real(real, method)
        if any(imag):
            im, im_est = _sum_real(imag, method)
            value, est = complex(value, im), math.hypot(est, im_est)
        if cmath.isfinite(value) and math.isfinite(est):
            return ConvergenceReport(value, n, est, method)
    except (OverflowError, ValueError):  # fsum past the double range or at
        pass                             # inf - inf, abs of a huge complex
    except SignPatternError as exc:  # a nan has no sign for CVZ to alternate
        failure = exc
    for k, t in enumerate(map(complex, real, imag) if imag else real, 1):
        if not cmath.isfinite(t):
            raise DomainError(f"term {k} is {t}: terms must be finite")
    raise failure or OverflowError(f"sum_alternating: the {method.value} sum of {n} "
                                   "terms or its estimate exceeds double range")


def _sum_real(terms, method):
    """(value, error_estimate) of a list of real terms under `method`."""
    if method is AccelerationMethod.NO_ACCELERATION:
        # the last term, plus fsum's and the terms' rounding
        return math.fsum(terms), abs(terms[-1]) + 4.0 * _U * sum(map(abs, terms))
    if method is AccelerationMethod.EULER_TRANSFORM:
        return euler_average(terms)
    return _cvz(terms)
