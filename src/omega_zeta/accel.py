"""Summation of alternating series with optional acceleration.

Two schemes are provided on top of plain summation:

* Euler transform, computed in O(N) as the binomial-weighted mean
  sum_k C(N-1,k) S_k / 2^(N-1) of the partial sums S_k.  Finite
  differencing annihilates polynomial term growth, so this also
  regularizes alternating series that diverge classically.  Its error
  estimate includes a bound on the rounding error of the partial sums
  and of the weighted mean.
* The Chebyshev-polynomial scheme of Cohen, Rodriguez Villegas and
  Zagier, which converges like (3 + sqrt(8))^-N for well-behaved
  alternating series.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Iterator

from .errors import DivergenceError, DomainError, SignPatternError

__all__ = [
    "AccelerationMethod",
    "ConvergenceReport",
    "sum_alternating",
]

_U = 2.0 ** -53  # unit roundoff of round to nearest
_TINY = 2.0 ** -1074  # smallest subnormal: twice the error of an underflow
_CVZ_MAX_N = 402  # the largest N with (3 + sqrt 8)^N below the double range


class AccelerationMethod(Enum):
    NO_ACCELERATION = "none"
    EULER_TRANSFORM = "euler"
    CHEBYSHEV_ALTERNATING = "cvz"

    @classmethod
    def _missing_(cls, value):
        names = ", ".join(m.value for m in cls)
        raise DomainError(f"unknown method {value!r}; use one of {names}")


@dataclass
class ConvergenceReport:
    """Result of a series evaluation."""

    value: float
    terms_used: int
    error_estimate: float
    method: AccelerationMethod


def log_hypergeometric(start: float, factors, first: int,
                       count: int) -> Iterator[float]:
    """log|t_k| for k = first .. first + count - 1 of a hypergeometric term.

    log|t_first| = `start`, and t_(k+1)/t_k = prod (1 + c/(k + d))^e over
    the (c, d, e) triples in `factors`.  Each factor adds e*log1p(c/(k+d)),
    or, where c/(k + d) < -1/2 and log1p would magnify the rounding of its
    argument, e*log|(k + d + c)/(k + d)| as one quotient.  A float e keeps
    the product on the interpreter's fast path.

    The count - 1 steps go into a Kahan-compensated sum.  Summed plainly, a
    log-magnitude near 30 rounds by about 2e-15 per step, 1e-13 relative in
    the terms after 1024 steps; compensated, about one rounding in all.
    """
    log1p, log = math.log1p, math.log
    ks = range(first, first + count - 1)
    steps = None
    for c, d, e in factors:
        logs = [e * (log1p(x) if (x := c / (k + d)) >= -0.5
                     else log(abs((k + d + c) / (k + d))))
                for k in ks]
        steps = logs if steps is None else list(map(operator.add, steps, logs))
    total = start
    comp = 0.0
    yield total
    for step in steps:
        y = step - comp
        t = total + y
        comp = (t - total) - y
        total = t
        yield total


@lru_cache(maxsize=None)
def _first_terms(term, count, *head):
    """(term(*head, 1), ..., term(*head, count)) as one tuple, built once per
    key from the memoized per-index `term`: a warm series costs one lookup."""
    return tuple([term(*head, n) for n in range(1, count + 1)])


def euler_average(values):
    """Euler transform of the partial sums `values` (real or complex).

    Returns (limit, error_estimate).  With N sums S_0..S_(N-1) the limit
    is the binomial mean

        last = sum_k C(N-1,k) S_k / 2^(N-1),

    the last entry of the triangle that averages neighbouring sums N-1
    times, and the truncation estimate is |last - prev|, where prev is
    the same mean of the first N-1 sums (the entry one averaging step
    earlier).  A single sum is its own limit, with estimate |S_0|.

    Rounding is bounded a posteriori and added to the estimate.  With
    u = 2^-53, each rounding to nearest returns x' with |x' - x| <= u|x'|
    (Higham, Accuracy and Stability, 2nd ed., (2.5)), plus at most
    2^-1075 where the result underflows.  For real sums, with weights
    w_k = C(N-1,k)/2^(N-1) > 0 summing to 1:

    * the sums come from recursive summation, S'_k = fl(S'_(k-1) + t_k),
      so |S'_k - S_k| <= u A_k with A_k = sum_(i<=k) |S'_i| (Higham
      section 4.2); through the mean this is at most u sum_k w_k A_k;
    * each weight w'_k = c_k / 2^(N-1) is one correctly rounded division
      of exact integers: |w'_k - w_k| <= u w'_k, and w'_k |S'_k| is at
      most (1+u)|p_k| for the product p_k = fl(w'_k S'_k);
    * each product: |p_k - w'_k S'_k| <= u |p_k|;
    * math.fsum rounds the sum of the p_k correctly: the error is at most
      u |last|.

    Together |last - sum_k w_k S_k| is at most

        u (|last| + (2+u) sum_k |p_k| + sum_k w_k A_k)
          + 2^-1075 (2N + 1 + A_(N-1)).

    The code doubles every coefficient, which covers the u^2 term and the
    roundings made in evaluating the bound itself: its sums of
    nonnegative numbers (the A_k, sum_k |p_k| and sum_k w_k A_k) are plain
    recursive sums, within a factor 1 + 2Nu of exact, far below 2 for
    any N that fits in memory.  Complex sums are treated part by part,
    since complex addition rounds each part on its own, and the two
    bounds combine with hypot.  The rounding of prev only perturbs the
    truncation estimate, so prev is the fsum of its products alone (part
    by part for complex sums), the same float as its binomial mean.
    """
    values = list(values)
    n = len(values)
    if n == 1:
        return values[0], abs(values[0])
    last, rounding = _binomial_mean(_binomial_weights(n - 1), values)
    weights = _binomial_weights(n - 2)  # map stops after the first n - 1 sums
    if type(last) is complex:
        prev = complex(math.fsum(map(operator.mul, weights, [v.real for v in values])),
                       math.fsum(map(operator.mul, weights, [v.imag for v in values])))
    else:
        prev = math.fsum(map(operator.mul, weights, values))
    return last, abs(last - prev) + rounding


@lru_cache(maxsize=None)
def _binomial_weights(n):
    """C(n,k) / 2^n for k = 0..n, each rounded once from exact integers.

    A tuple, since the cache hands the same object to every caller."""
    scale = 1 << n
    c = 1
    weights = []
    for k in range(n + 1):
        weights.append(c / scale)
        c = c * (n - k) // (k + 1)
    return tuple(weights)


def _binomial_mean(weights, sums):
    """(sum_k w_k s_k, rounding bound) as derived in euler_average."""
    if complex in map(type, sums):
        re, re_bound = _binomial_mean(weights, [s.real for s in sums])
        im, im_bound = _binomial_mean(weights, [s.imag for s in sums])
        return complex(re, im), math.hypot(re_bound, im_bound)
    products = list(map(operator.mul, weights, sums))
    mean = math.fsum(products)
    running = list(accumulate(map(abs, sums)))
    drift = sum(map(operator.mul, weights, running))
    bound = (2.0 * _U * (abs(mean) + 2.0 * sum(map(abs, products)) + drift)
             + _TINY * (2 * len(sums) + 1 + running[-1]))
    return mean, bound


@lru_cache(maxsize=None)
def _cvz_weights(n):
    """(c_0 .. c_(n-1), d) for n terms, summed as sum_k c_k |t_k| / d (Cohen,
    Rodriguez Villegas and Zagier, Exp. Math. 9, 2000, Algorithm 1).  A
    tuple, cached like _binomial_weights; d overflows above _CVZ_MAX_N."""
    if n > _CVZ_MAX_N:
        raise OverflowError(f"cvz takes at most {_CVZ_MAX_N} terms, got {n}: "
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
    same = list(map(operator.eq, signs, signs[1:]))
    if True in same:
        raise SignPatternError(
            f"terms must strictly alternate in sign (index {same.index(True) + 1})")
    weights, d = _cvz_weights(len(terms))
    magnitudes = list(map(abs, terms))
    s = sum(map(operator.mul, weights, magnitudes))
    a_max = max(magnitudes)
    return signs[0] * (s / d), max(3.0 * a_max / d, 16.0 * _U * a_max)


def sum_alternating(terms, method: AccelerationMethod | str) -> ConvergenceReport:
    """Sum a list of real or complex terms with the requested scheme.

    `method` is an AccelerationMethod or its string value.  Plain
    summation refuses terms that grow (DivergenceError), since only an
    accelerated method regularizes such a series.  ChebyshevAlternating
    requires strictly alternating signs, in the real and the imaginary
    part separately for complex terms; Euler accepts any sign pattern.
    """
    method = AccelerationMethod(method)
    real = True
    try:
        terms = list(map(float, terms))
    except TypeError:
        # Complex terms with no imaginary part are summed as real ones.
        terms = [complex(t) for t in terms]
        real = not any(t.imag for t in terms)
        if real:
            terms = [t.real for t in terms]
    if not terms:
        raise DomainError("empty term list")
    n = len(terms)

    if method is AccelerationMethod.NO_ACCELERATION:
        est = abs(terms[-1])
        if n >= 8 and est > 1.2 * abs(terms[n // 2]):
            raise DivergenceError(
                f"series terms grow (|term {n}| = {est:.3g} > 1.2 |term "
                f"{n // 2 + 1}|); use an accelerated method")
        value = math.fsum(terms) if real else sum(terms)
        # fsum's and the terms' rounding; complex sum() rounds ~n times a part
        est += (4.0 if real else 2.0 * n + 4.0) * _U * sum(map(abs, terms))
    elif method is AccelerationMethod.EULER_TRANSFORM:
        value, est = euler_average(list(accumulate(terms)))
    elif real:
        value, est = _cvz(terms)
    else:
        re, re_est = _cvz([t.real for t in terms])
        im, im_est = _cvz([t.imag for t in terms])
        value, est = complex(re, im), math.hypot(re_est, im_est)
    return ConvergenceReport(value, n, est, method)
