"""Complex special functions: log-gamma, gamma, trigamma, roots of
unity, log-space trigonometric/hyperbolic helpers, the one Hurwitz sum
behind trigamma, the oracle and the tail of the one truncated product.

Everything works in double precision.  Products of gamma values whose
magnitudes exceed the floating-point range are formed as sums of plain
complex logarithms (real part log|.|, imaginary part an argument that is
never reduced) and only turned into values by `exp_log` once the final
result is known to be representable.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache

from .errors import DomainError, PoleError, _check_complex, _check_index, _check_real, _shown

__all__ = [
    "exp_log",
    "log_gamma",
    "gamma",
    "trigamma",
    "roots_of_unity",
    "log_sin",
    "log_sinh",
    "log_cosh",
]

_TWO_PI = 2.0 * math.pi
_LOG_SQRT_TWO_PI = 0.5 * math.log(_TWO_PI)

_LOG_PI = math.log(math.pi)
_LOG_HALF = math.log(0.5)
_POLE_TOL = 1e-12
_POLE_DIST = 1e-8  # how near a pole of the products and series counts as on it


def exp_log(lg: complex) -> complex:
    """exp(lg) for a complex logarithm; OverflowError when too large, then
    DomainError for a nan real part or an infinite or nan imaginary part,
    or for an lg that is not a number."""
    try:
        r = math.exp(min(lg.real, 710.0))  # exp(inf) is inf; past 709.78 exp raises
    except OverflowError:
        raise OverflowError(f"log-magnitude {_shown(lg.real)} exceeds double range") from None
    except (AttributeError, TypeError):  # no .real (a str, None), or not a real one
        raise DomainError(f"lg must be a number, got {_shown(lg)}") from None
    if math.isnan(lg.real) or not math.isfinite(lg.imag):
        raise DomainError(f"exp_log needs Re lg not nan and Im lg finite, got {lg}")
    return complex(r * math.cos(lg.imag), r * math.sin(lg.imag))


def roots_of_unity(m: int) -> tuple:
    """All m-th roots of unity, as a tuple with [j] = exp(2*pi*i*j/m)."""
    _check_index("m", m, 2)
    return _roots_of_unity(operator.index(m))


@lru_cache(maxsize=8)  # one zeta(m) asks for its m at every term; a sweep of m keeps 8
def _roots_of_unity(m: int) -> tuple:
    roots = []
    for j in range(m):
        # Snap the axis-aligned roots to exact values.
        if (4 * j) % m == 0:
            quarter = (4 * j // m) % 4
            roots.append((1 + 0j, 1j, -1 + 0j, -1j)[quarter])
        else:
            roots.append(cmath.exp(2j * math.pi * j / m))
    return tuple(roots)


def _lanczos(z: complex) -> complex:
    """log Gamma(z) for Re z >= 0.5: the Lanczos approximation with g = 7 and
    the standard double-precision set of 9 coefficients, summed in order."""
    w = z - 1.0
    x = (complex(0.99999999999980993) + 676.5203681218851 / (w + 1)
         + -1259.1392167224028 / (w + 2) + 771.32342877765313 / (w + 3)
         + -176.61502916214059 / (w + 4) + 12.507343278686905 / (w + 5)
         + -0.13857109526572012 / (w + 6) + 9.9843695780195716e-6 / (w + 7)
         + 1.5056327351493116e-7 / (w + 8))
    t = w + 7.0 + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(x)


def log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z); exponentiating reproduces Gamma(z).

    Lanczos approximation for Re z >= 0.5, reflection otherwise.  No
    attempt is made to keep the imaginary part on a continuous branch or
    in (-pi, pi]; only exp() of the result, `exp_log`, is meaningful.
    """
    # A finite complex z, the hot path, is used as it is, without a call.
    if type(z) is not complex or not cmath.isfinite(z):
        z = _check_complex("z", z)
    if z.real < 0.5:
        # Only here can z be a pole: round(Re z) <= 0.
        if abs(z.imag) <= _POLE_TOL and abs(z.real - round(z.real)) <= _POLE_TOL:
            raise PoleError(f"gamma pole at z = {z}")
        # Gamma(z) = pi / (sin(pi z) * Gamma(1 - z)), Re(1 - z) > 0.5
        pi_z = math.pi * z
        if not cmath.isfinite(pi_z):
            raise OverflowError(f"log_gamma: pi*z exceeds double range at z = {z}")
        return _LOG_PI - log_sin(pi_z) - _lanczos(1.0 - z)
    if z.imag == 0.0 and z.real == round(z.real) and z.real <= 171:
        # Positive integers: exact log-factorial path.
        return complex(math.lgamma(z.real))
    return _lanczos(z)


def _log_gamma_real(z: complex) -> float:
    """log_gamma(z).real, bit for bit, for the sums of `coefficient_log_parts`:
    off the real axis it reflects on real parts, with no phase of sin(pi z)."""
    if z.real >= 0.5 or abs(z.imag) <= _POLE_TOL or not cmath.isfinite(pi_z := math.pi * z):
        return log_gamma(z).real
    y = abs(pi_z.imag)  # > 1e-12, so sin(pi z) is no zero; log_sin(pi_z).real is
    log_abs_sin = math.log(abs(cmath.sin(pi_z))) if y <= 20.0 else y + _LOG_HALF
    return _LOG_PI - log_abs_sin - _lanczos(1.0 - z).real


def gamma(z: complex) -> complex:
    """Gamma(z) in double precision; raises OverflowError when too large."""
    return exp_log(log_gamma(z))


# B_2 .. B_12 in double precision, for the Euler-Maclaurin corrections of
# `_hurwitz`.
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
              5.0 / 66.0, -691.0 / 2730.0)


def _hurwitz(p: float, x: float) -> float:
    """zeta(p, x) = sum_{k>=0} (x+k)^-p for p >= 2, x > 0, by Euler-Maclaurin: the
    terms up to the first x + k = n >= 20 with n >= 3p + 10, where six corrections
    reach double precision (at n = 20, p = 30 they are 7e-8 off), then those at n;
    or the terms until one is below 1e-18 of the sum (the rest is below 18 times it)."""
    n_head = max(0, math.ceil(max(21.0, 3.0 * p + 11.0) - x))
    total = 0.0
    for k in range(n_head):
        term = (x + k) ** (-float(p))  # x + k, not y += 1: that rounds x away
        if term <= 1e-18 * total:  # also where the terms underflow to 0
            return total
        total += term
    n = x + n_head - 1
    total += n ** (1.0 - p) / (p - 1.0) - 0.5 * n ** (-float(p))
    rising = float(p)  # rising factorial p(p+1)...(p+2j-2)
    fact = 2.0         # (2j)!
    for j, b2j in enumerate(_BERNOULLI, start=1):
        total += b2j / fact * rising * n ** (1.0 - p - 2 * j)
        # extend rising to 2(j+1)-1 factors, fact to (2j+2)!
        rising *= (p + 2 * j - 1) * (p + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    return total


def _log_truncated_product(x: complex, m: int, shift: float, n_factors: int,
                           skip: int = 0) -> complex:
    """A logarithm of prod_{k >= 1, k != skip} 1/(1 - (x/s)^m), s = shift + k:
    the N = n_factors factor logarithms, summed with fsum part by part, and
    the tail sum_j x^(mj)/j zeta(mj, y), y = shift + N + 1 > |x|.  PoleError
    where some s = 0 or |1 - (x/s)^m| <= _POLE_DIST, DomainError where the
    tail cannot reach double precision in 400 powers.  For a real x every
    factor is real, and the phase is pi times the parity of the negative ones,
    not a sum of as many roundings of pi.

    Shift 0 serves the `TruncatedProduct` route, whose N = max(ceil(2|x|), 4)
    keeps |x|/y below 1/2, so that the tail's j-th power is below
    2^(-mj) (1 + y/(mj - 1))/j, negligible well before the 400-power cap or the
    underflow stop; and, skipping the pole s = n, the residue lambda_n of
    `product_coefficient`.  Shift a - 1 at m = 2 serves `modulus_product`.
    `ExpZetaSeries` is the tail at N = 0 but keeps its own loop over
    `zeta_oracle`: the routes share only the Hurwitz sum, which `verify`
    checks against closed forms.
    """
    if shift + (n_factors + 1) < 1.0:  # zeta(p, y) > y^-p would leave the double range
        n_factors += 1
    y = shift + (n_factors + 1)
    if shift == round(shift) and 0 < -shift <= n_factors:
        raise PoleError(f"z = {x} hits pole at s = {shift:g} + {-shift:g} = 0")
    # w = (x/s)^m overflows for |s| <= |x| e^(-700/m), that is for k in (lo, hi].
    bound = abs(x) * math.exp(-700.0 / m)
    lo = min(n_factors, max(0, math.floor(-bound - shift)))
    hi = max(lo, min(n_factors, math.floor(bound - shift)))
    # (x/s)^m, not x^m/s^m: s^m overflows a float from m = 103.
    factors = [1.0 - (x / (shift + k)) ** m
               for k in (*range(1, lo + 1), *range(hi + 1, n_factors + 1)) if k != skip]
    if min(map(abs, factors)) <= _POLE_DIST:
        raise PoleError(f"z = {x} hits pole at some s = {shift:g} + k, k <= {n_factors}")
    logs = list(map(cmath.log, factors))
    # Past the bound log(1 - w) = log w + log(1/w - 1) up to 2 pi i, which exp ignores.
    for k in range(lo + 1, hi + 1):
        log_w = m * cmath.log(x / (shift + k))
        logs.append(log_w + cmath.log(cmath.exp(-log_w) - 1.0))
    total = -complex(math.fsum([t.real for t in logs]), math.fsum([t.imag for t in logs]))
    if not x:
        return total
    log_x = cmath.log(x)
    for j in range(1, 400):  # each path through the loop sets `converged`
        p = m * j
        power_sum = _hurwitz(p, y)
        if power_sum < 1e-300:
            # Near underflow the power sum loses its digits: stop only where its
            # bound y^-p (1 + y/(p-1)) times |x|^p is negligible (later ones are less).
            converged = p * (log_x.real - math.log(y)) + math.log1p(y / (p - 1)) < math.log(1e-17)
            break
        term = exp_log(p * log_x + math.log(power_sum)) / j
        total += term
        if converged := abs(term) < 1e-17:
            break
    if not converged:
        raise DomainError(f"the tail sum_j z^(mj)/j zeta(mj, {y:.6g}) does not converge "
                          f"in 400 powers at |z| = {abs(x):.4g}")
    if not x.imag:
        return complex(total.real, -math.pi * (round(total.imag / math.pi) % 2))
    return total


def trigamma(x: float) -> float:
    """psi'(x) = zeta(2, x) = sum_{k>=0} 1/(x+k)^2 for real x > 0."""
    x = _check_real("x", x, 0, True)
    if x * x == 0.0 or 1.0 / (x * x) == math.inf:  # psi'(x) > 1/x^2, the rest < 2
        raise OverflowError(f"trigamma({x!r}): psi'(x) exceeds double range")
    return _hurwitz(2.0, x)


def log_sin(z: complex) -> complex:
    """A logarithm of sin(z), safe for large |Im z|.

    Past |Im z| = 20, sin z = e^{|Im z|}/2 (sin x + i cos x), x = Re z, conjugated
    for Im z < 0, up to a relative e^{-40} < 2^-54: its real part is
    |Im z| - log 2, as e^{-iz} (e^{2iz} - 1) / (2i) gives it in doubles, and its
    phase atan2(cos x, sin x), which libm reduces exactly for any finite x."""
    if type(z) is not complex or not cmath.isfinite(z):
        z = _check_complex("z", z)
    if abs(z.imag) <= _POLE_TOL and abs(z.real - round(z.real / math.pi) * math.pi) <= _POLE_TOL:
        raise PoleError(f"sin zero at z = {z}")
    if abs(z.imag) <= 20.0:
        # math.log(abs(w)), not cmath.log(w): near |w| = 1 cmath's real part
        # can differ from it by an ulp, and real-valued series are built on it.
        w = cmath.sin(z)
        return complex(math.log(abs(w)), cmath.phase(w))
    im = math.atan2(math.cos(z.real), math.sin(z.real))
    return complex(abs(z.imag) + _LOG_HALF, im if z.imag > 0 else -im)


def log_sinh(x: float) -> float:
    """log(sinh(x)) for real x > 0 without overflow."""
    x = _check_real("x", x, 0, True)
    if x <= 20.0:
        return math.log(math.sinh(x))
    # sinh x = e^x (1 - e^{-2x}) / 2
    return x - math.log(2.0) + math.log1p(-math.exp(-2.0 * x))


def log_cosh(x: float) -> float:
    """log(cosh(x)) for real x >= 0 without overflow."""
    x = _check_real("x", x, 0)
    if x <= 20.0:
        return math.log(math.cosh(x))
    return x - math.log(2.0) + math.log1p(math.exp(-2.0 * x))
