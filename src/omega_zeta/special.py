"""Complex special functions: log-gamma, gamma, trigamma, roots of
unity, and log-space trigonometric/hyperbolic helpers.

Everything works in double precision.  Products of gamma values whose
magnitudes exceed the floating-point range are formed as sums of plain
complex logarithms (real part log|.|, imaginary part an argument that is
never reduced) and only turned into values by `exp_log` once the final
result is known to be representable.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError

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

# Largest log-magnitude exp() can turn into a finite double.
_EXP_OVERFLOW = 709.0

# Lanczos approximation, g = 7, 9 coefficients (standard double-precision set).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_POLE_TOL = 1e-12


def exp_log(lg: complex) -> complex:
    """exp(lg) for a complex logarithm; OverflowError when too large."""
    if lg.real > _EXP_OVERFLOW:
        raise OverflowError(f"log-magnitude {lg.real:.3g} exceeds double range")
    r = math.exp(lg.real)
    return complex(r * math.cos(lg.imag), r * math.sin(lg.imag))


def roots_of_unity(m: int) -> tuple:
    """All m-th roots of unity, as a tuple with [j] = exp(2*pi*i*j/m)."""
    if m < 2:
        raise DomainError(f"need m >= 2, got {m}")
    roots = []
    for j in range(m):
        # Snap the axis-aligned roots to exact values.
        if (4 * j) % m == 0:
            quarter = (4 * j // m) % 4
            roots.append((1 + 0j, 1j, -1 + 0j, -1j)[quarter])
        else:
            roots.append(cmath.exp(2j * math.pi * j / m))
    return tuple(roots)


def _near_nonpositive_integer(z: complex) -> bool:
    if abs(z.imag) > _POLE_TOL:
        return False
    k = round(z.real)
    return k <= 0 and abs(z.real - k) <= _POLE_TOL


def log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z); exponentiating reproduces Gamma(z).

    Lanczos approximation for Re z >= 0.5, reflection otherwise.  No
    attempt is made to keep the imaginary part on a continuous branch or
    in (-pi, pi]; only exp() of the result, `exp_log`, is meaningful.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"log_gamma needs finite z, got {z}")
    if _near_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z}")
    if z.real < 0.5:
        # Gamma(z) = pi / (sin(pi z) * Gamma(1 - z))
        pi_z = math.pi * z
        if not cmath.isfinite(pi_z):
            raise OverflowError(f"log_gamma: pi*z exceeds double range at z = {z}")
        return math.log(math.pi) - log_sin(pi_z) - log_gamma(1.0 - z)
    if z.imag == 0.0 and z.real == round(z.real) and z.real <= 171:
        # Positive integers: exact log-factorial path.
        return complex(math.lgamma(z.real))
    w = z - 1.0
    x = complex(_LANCZOS_COEF[0])
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        x += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(x)


def gamma(z: complex) -> complex:
    """Gamma(z) in double precision; raises OverflowError when too large."""
    return exp_log(log_gamma(z))


# B_2 .. B_12 in double precision, for trigamma's asymptotic series and
# the oracle's Euler-Maclaurin corrections.
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
              5.0 / 66.0, -691.0 / 2730.0)


def trigamma(x: float) -> float:
    """psi'(x) = sum_{k>=0} 1/(x+k)^2 for real x > 0."""
    if not 0 < x < math.inf:
        raise DomainError(f"trigamma needs finite x > 0, got {x}")
    if x * x == 0.0 or 1.0 / (x * x) == math.inf:  # psi'(x) > 1/x^2, the rest < 2
        raise OverflowError(f"trigamma({x!r}): psi'(x) exceeds double range")
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    s = inv + 0.5 * inv2
    p = inv * inv2
    for b in _BERNOULLI:
        s += b * p
        p *= inv2
    return acc + s


def log_sin(z: complex) -> complex:
    """A logarithm of sin(z), safe for large |Im z|."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"log_sin needs finite z, got {z}")
    k = round(z.real / math.pi)
    if abs(z.imag) <= _POLE_TOL and abs(z.real - k * math.pi) <= _POLE_TOL:
        raise PoleError(f"sin zero at z = {z}")
    if abs(z.imag) <= 20.0:
        # math.log(abs(w)), not cmath.log(w): near |w| = 1 cmath's real part
        # can differ from it by an ulp, and real-valued series are built on it.
        w = cmath.sin(z)
        return complex(math.log(abs(w)), cmath.phase(w))
    if z.imag < 0:
        return log_sin(z.conjugate()).conjugate()
    # sin z = e^{-iz} (e^{2iz} - 1) / (2i); |e^{2iz}| = e^{-2 Im z} is tiny.
    rest = cmath.log((cmath.exp(2j * z) - 1.0) / 2j)
    return complex(z.imag + rest.real, -z.real + rest.imag)


def log_sinh(x: float) -> float:
    """log(sinh(x)) for real x > 0 without overflow."""
    if not 0 < x < math.inf:
        raise DomainError(f"log_sinh needs finite x > 0, got {x}")
    if x <= 20.0:
        return math.log(math.sinh(x))
    # sinh x = e^x (1 - e^{-2x}) / 2
    return x - math.log(2.0) + math.log1p(-math.exp(-2.0 * x))


def log_cosh(x: float) -> float:
    """log(cosh(x)) for real x >= 0 without overflow."""
    if not 0 <= x < math.inf:
        raise DomainError(f"log_cosh needs finite x >= 0, got {x}")
    if x <= 20.0:
        return math.log(math.cosh(x))
    return x - math.log(2.0) + math.log1p(math.exp(-2.0 * x))
