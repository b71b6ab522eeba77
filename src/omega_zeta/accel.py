"""Summation of alternating series with optional acceleration.

Two schemes are provided on top of plain summation:

* Euler transform, implemented as repeated averaging of partial sums.
  Finite differencing annihilates polynomial term growth, so this also
  regularizes alternating series that diverge classically.
* The Chebyshev-polynomial scheme of Cohen, Rodriguez Villegas and
  Zagier, which converges like (3 + sqrt(8))^-N for well-behaved
  alternating series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate

from .errors import DivergenceError, SignPatternError

__all__ = [
    "AccelerationMethod",
    "SeriesTermTrace",
    "ConvergenceReport",
    "sum_alternating",
    "euler_average",
]

_EPS = 2.220446049250313e-16


class AccelerationMethod(Enum):
    NO_ACCELERATION = "none"
    EULER_TRANSFORM = "euler"
    CHEBYSHEV_ALTERNATING = "cvz"


@dataclass(frozen=True)
class SeriesTermTrace:
    """One summand: index, signed value, and its log-space form."""

    n: int
    value: float
    log_mag: float
    sign: int


@dataclass
class ConvergenceReport:
    """Result of a series evaluation."""

    value: float
    terms_used: int
    error_estimate: float
    method: AccelerationMethod
    trace: list = field(default_factory=list)


def euler_average(values):
    """Euler transform via repeated averaging of partial sums.

    `values` are the partial sums (real or complex).  Returns
    (limit, error_estimate).  The estimate is the magnitude of the last
    averaging step.
    """
    row = list(values)
    if len(row) == 1:
        return row[0], abs(row[0])
    prev = row[0]
    while len(row) > 1:
        prev = row[0]
        row = [(row[i] + row[i + 1]) / 2.0 for i in range(len(row) - 1)]
    last = row[0]
    return last, abs(last - prev)


def _cvz(terms):
    """Cohen-Rodriguez Villegas-Zagier sum of strictly alternating real
    terms; returns (value, error_estimate)."""
    n = len(terms)
    signs = [1 if t > 0 else -1 if t < 0 else 0 for t in terms]
    for k in range(n):
        if signs[k] == 0 or (k > 0 and signs[k] == signs[k - 1]):
            raise SignPatternError(
                f"terms must strictly alternate in sign (index {k})"
            )
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
    return signs[0] * (s / d), max(3.0 * a_max / d, 8.0 * _EPS * a_max)


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
        terms = [float(t) for t in terms]
    except TypeError:
        # Complex terms with no imaginary part are summed as real ones.
        terms = [complex(t) for t in terms]
        real = not any(t.imag for t in terms)
        if real:
            terms = [t.real for t in terms]
    if not terms:
        raise ValueError("empty term list")
    n = len(terms)

    if method is AccelerationMethod.NO_ACCELERATION:
        est = abs(terms[-1])
        if n >= 8 and est > 1.2 * abs(terms[n // 2]):
            raise DivergenceError(
                f"series terms grow (|term {n}| = {est:.3g} > 1.2 |term "
                f"{n // 2 + 1}|); use an accelerated method")
        value = math.fsum(terms) if real else sum(terms)
    elif method is AccelerationMethod.EULER_TRANSFORM:
        # Complex terms stay complex: one O(N^2) triangle, not one per part.
        value, est = euler_average(list(accumulate(terms)))
    elif real:
        value, est = _cvz(terms)
    else:
        re, re_est = _cvz([t.real for t in terms])
        im, im_est = _cvz([t.imag for t in terms])
        value, est = complex(re, im), math.hypot(re_est, im_est)
    return ConvergenceReport(value, n, est, method)
