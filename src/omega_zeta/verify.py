"""Runnable property suites, one per module, shared by the CLI verify
command and the acceptance tests.

Each suite yields one row per check, (name, errors, bound): a list of the
errors the check measures, one per case, and the largest error it allows.
A yes/no property yields the count of the cases that break it, with bound 0.
`run_suite` alone judges the rows.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple

from . import (
    AccelerationMethod,
    DomainError,
    ExpZetaSeries,
    GammaProduct,
    PrecisionConfig,
    TruncatedProduct,
    Zeta3Variant,
    gamma,
    gamma_pair,
    gamma_pfd_series,
    hyperbolic_term,
    inverse_square_series,
    log_cosh,
    log_gamma,
    log_sinh,
    modulus_product,
    pfd_coefficients,
    pfd_residual,
    product_coefficient,
    q_poly,
    p_poly,
    roots_of_unity,
    series_coefficient,
    sine_term,
    tail_power_sum,
    trigamma,
    unity_gamma_product,
    unity_product_pfd,
    zeta3_series,
    zeta_oracle,
    zeta_term,
    zeta_via_series,
)

__all__ = ["CheckResult", "run_suite", "SUITE_NAMES"]

_SQRT3 = math.sqrt(3.0)
_ZETA3 = 1.2020569031595942854

CheckResult = namedtuple("CheckResult", "suite name passed detail", defaults=("",))


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def _over_estimate(rep, ref):
    """A report's error as a multiple of its own error estimate."""
    return abs(rep.value - ref) / rep.error_estimate


def _pole_free_grid():
    rng = random.Random(7)
    pts = []
    while len(pts) < 20:
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if 0.05 < abs(z) <= 0.9 and abs(abs(z) - 1.0) > 0.1:
            pts.append(z)
    return pts


def _suite_oracle():
    closed = {2: math.pi ** 2 / 6, 4: math.pi ** 4 / 90,
              6: math.pi ** 6 / 945, 8: math.pi ** 8 / 9450}
    yield ("even-argument closed forms",
           [_rel(zeta_oracle(s), v) for s, v in closed.items()], 5e-15)
    yield "stored zeta(3) vs oracle", [abs(_ZETA3 - zeta_oracle(3))], 1e-13
    yield ("zeta(20) - 1 near 2^-20",
           [abs((zeta_oracle(20) - 1.0) / 2.0 ** -20 - 1.0)], 1e-2)
    # the same Euler-Maclaurin formula at cutoff 40: the sum to 40 plus its tail
    yield ("cutoff 20 vs 40 stability",
           [_rel(sum(k ** (-float(s)) for k in range(1, 41)) + tail_power_sum(s, 40),
                 zeta_oracle(s)) for s in (2, 3, 5, 9)], 1e-14)
    yield ("monotone decrease to 1",
           [sum(not zeta_oracle(s) > zeta_oracle(s + 1) for s in range(2, 19))], 0)


def _suite_pfd():
    rng = random.Random(2024)
    residuals = []
    sums = []
    for _ in range(100):
        size = rng.randint(2, 10)
        nodes = []
        while len(nodes) < size:
            cand = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if all(abs(cand - w) >= 0.1 for w in nodes):
                nodes.append(cand)
        result = pfd_coefficients(nodes)
        mu_max = max(abs(mu) for mu in result.coefficients)
        sums.append(abs(sum(result.coefficients)) / mu_max)
        for _ in range(100):
            x = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if min(abs(x + w) for w in nodes) < 0.05:
                continue
            lhs = 1.0
            for w in nodes:
                lhs /= abs(w + x)
            residuals.append(pfd_residual(result, x) / lhs)
    yield "identity residual (relative)", residuals, 1e-10
    yield "coefficients sum to zero", sums, 1e-14
    nodes = [1 + 1j, -2.0, 0.5 - 3j, 4j]
    perm = [nodes[2], nodes[0], nodes[3], nodes[1]]
    base = pfd_coefficients(nodes).coefficients
    permuted = pfd_coefficients(perm).coefficients
    yield ("permutation equivariance",
           [_rel(p, b) for p, b in zip(permuted, (base[2], base[0], base[3], base[1]))],
           5e-15)


def _suite_phi():
    grid = _pole_free_grid()
    routes = []
    for m in (2, 3, 4, 5):
        for z in grid:
            a = unity_gamma_product(m, z, GammaProduct())
            b = unity_gamma_product(m, z, TruncatedProduct())
            c = unity_gamma_product(m, z, ExpZetaSeries())
            routes += (_rel(b, a), _rel(c, a), abs(b - c) / abs(a))
    yield "three-route agreement", routes, 2e-13
    closed = []
    for z in (0.1, 0.3, 0.5 + 0.2j, 0.8j):
        ref = math.pi * z / cmath.sin(math.pi * z)
        closed.append(_rel(unity_gamma_product(2, z, GammaProduct()), ref))
    yield "m=2 closed form pi*z*csc(pi*z)", closed, 1e-14
    yield ("coefficient route agreement",
           [_rel(product_coefficient(m, n), series_coefficient(m, n))
            for m in (2, 3, 4, 5) for n in range(1, 16)], 2e-12)
    # lambda_n has the sign (-1)^n
    yield ("coefficient sign and |.| < 1 bound",
           [sum(not 0.0 < (-1) ** n * series_coefficient(m, n) < 1.0
                for m in (3, 4, 5) for n in range(1, 31))], 0)
    yield ("m=2 coefficients are (-1)^n",
           [abs(series_coefficient(2, n) - (-1.0) ** n) for n in range(1, 31)], 1e-14)
    w3 = cmath.exp(2j * math.pi / 3)
    yield ("rotation symmetry in z^m",
           [_rel(unity_gamma_product(3, w3 * z, GammaProduct()),
                 unity_gamma_product(3, z, GammaProduct())) for z in grid[:8]], 2e-14)
    yield ("pfd series within its tail bound",
           [_over_estimate(unity_product_pfd(m, z, 200),
                           unity_gamma_product(m, z, GammaProduct()))
            for m, z in ((2, 0.5), (3, 0.3), (4, 0.6))], 1.0)


def _suite_zeta():
    yield ("m=2 term collapse to 2(-1)^(n-1)/n^2",
           [_rel(zeta_term(2, n), 2.0 * (-1.0) ** (n - 1) / n ** 2)
            for n in range(1, 101)], 1e-14)
    # term n has the sign (-1)^(n-1)
    yield ("term bound m/n^m and alternation",
           [sum(not 0.0 < (-1) ** (n - 1) * zeta_term(m, n) <= m / float(n) ** m * (1 + 1e-12)
                for m in range(2, 7) for n in range(1, 101))], 0)
    targets = {2: math.pi ** 2 / 6, 3: zeta_oracle(3), 4: math.pi ** 4 / 90,
               5: zeta_oracle(5), 6: math.pi ** 6 / 945}
    yield ("series reproduces zeta(2..6)",
           [abs(zeta_via_series(m, PrecisionConfig(max_terms=64)).value - ref)
            for m, ref in targets.items()], 2e-14)
    growth = []
    for m in (2, 3, 4):
        errs = [abs(zeta_via_series(m, PrecisionConfig(max_terms=k)).value - targets[m])
                for k in (8, 16, 32, 64)]
        growth += [b - a for a, b in zip(errs, errs[1:])]
    # allow double-precision floor wobble once errors hit ~1e-15
    yield "monotone improvement with max_terms", growth, 5e-15
    yield ("log-space terms finite to n=200",
           [sum(not math.isfinite(zeta_term(m, n))
                for m in range(2, 9) for n in range(1, 201, 7))], 0)
    direct_errors = []
    for m in (3, 4, 5):
        roots = roots_of_unity(m)
        for n in range(1, 21):
            direct = m * (-1.0) ** (n - 1)
            for w in roots[1:]:
                direct *= gamma(1.0 - w * n)
            direct /= math.factorial(n) * float(n) ** m
            direct_errors.append(_rel(direct.real, zeta_term(m, n)))
    yield "log-space matches direct evaluation", direct_errors, 2e-13


def _suite_gamma():
    z_grid = (0.1, 0.3, 0.45, 0.2j)
    euler = AccelerationMethod.EULER_TRANSFORM
    yield ("raw series within estimate",
           [_over_estimate(gamma_pfd_series(a, z, 1000, AccelerationMethod.NO_ACCELERATION),
                           gamma_pair(a, z))
            for a in (0.5, 0.8, 1.0, 1.25) for z in z_grid], 1.0)
    yield ("regularized series agreement",
           [_rel(gamma_pfd_series(a, z, 64, euler).value, gamma_pair(a, z))
            for a in (1.5, 2.0, 3.0) for z in z_grid], 2e-12)
    yield ("product form of the gamma pair",
           [_rel(modulus_product(a, frac * a, 1000), gamma_pair(a, frac * a) / gamma(a) ** 2)
            for a in (0.5, 1.0, 2.5) for frac in (0.2, 0.6, 0.9)], 1e-14)
    yield ("inverse-square series vs trigamma",
           [abs(inverse_square_series(q, 64, euler).value - trigamma(q + 1.0))
            for q in (0.0, 0.5, 1.0, 2.5)], 1e-10)
    yield ("evenness in z (bit identical)",
           [sum(gamma_pfd_series(a, z, 64, euler).value
                != gamma_pfd_series(a, -z, 64, euler).value
                for a in (0.5, 2.0) for z in (0.3, 0.2j))], 0)
    # sum 1/a_n^2 = -2 sum 1/(F'(-a_n) a_n^2): for a_n = a-1+n the right
    # side is the psi'(a) series of inverse_square_series(a-1), and for
    # a_n = n that series at q = 0.
    lhs = 0.0
    for n in range(1, 65):
        an = float(n)
        lhs += 1.0 / (an * an)
    rhs = inverse_square_series(0.0, 64, AccelerationMethod.CHEBYSHEV_ALTERNATING)
    yield ("summation identity at a_n = n",
           [abs(rhs.value - math.pi ** 2 / 6),
            abs(lhs - (math.pi ** 2 / 6 - trigamma(65.0)))], 2e-14)
    a = 1.3
    lhs = 0.0
    for n in range(1, 10001):
        an = a - 1.0 + n
        lhs += 1.0 / (an * an)
    rhs = inverse_square_series(a - 1.0, 256, euler)
    yield ("summation identity at a_n = a-1+n",
           [abs(lhs + trigamma(a + 10000.0) - trigamma(a)),
            abs(rhs.value - trigamma(a))], 1e-13)


def _suite_zeta3():
    z3 = zeta_oracle(3)
    rep = zeta3_series(Zeta3Variant.HYPERBOLIC, PrecisionConfig(max_terms=12))
    yield "hyperbolic form, 12 index pairs", [abs(rep.value - z3)], 5e-15
    yield ("sine terms match series terms",
           [_rel(sine_term(n), zeta_term(3, n)) for n in range(1, 21)], 5e-13)
    yield ("hyperbolic terms match series terms",
           [_rel(hyperbolic_term(n), zeta_term(3, n)) for n in range(1, 21)], 5e-13)
    rep = zeta3_series(Zeta3Variant.SINE, PrecisionConfig(max_terms=40))
    yield "sine form sum", [abs(rep.value - z3)], 1e-14
    rep = zeta3_series(Zeta3Variant.BETA, PrecisionConfig(max_terms=40))
    yield "beta form sum (regularized)", [abs(rep.value - z3)], 5e-15
    identities = []
    for d in range(1, 16):
        lhs = log_gamma(complex(1 + d, _SQRT3 * d)).real * 2.0
        rhs = (math.log(_SQRT3 * math.pi * d) + q_poly(d)
               - log_sinh(_SQRT3 * math.pi * d))
        identities.append(abs(math.expm1(lhs - rhs)))
        lhs = log_gamma(complex(0.5 + d, _SQRT3 * (2 * d - 1) / 2.0)).real * 2.0
        rhs = (math.log(math.pi) + p_poly(d)
               - log_cosh(_SQRT3 * math.pi * (2 * d - 1) / 2.0))
        identities.append(abs(math.expm1(lhs - rhs)))
    yield "gamma-pair identities for P(d), Q(d)", identities, 1e-12
    yield ("log-space terms finite to n=200",
           [sum(not (math.isfinite(sine_term(n)) and math.isfinite(hyperbolic_term(n)))
                for n in range(1, 201, 9))], 0)
    yield ("variants within own estimates",
           [_over_estimate(zeta3_series(variant, PrecisionConfig(max_terms=40)), z3)
            for variant in Zeta3Variant], 1.0)


_SUITES = {  # in the order that run_suite("all") runs them
    "pfd": _suite_pfd,
    "phi": _suite_phi,
    "zeta": _suite_zeta,
    "gamma": _suite_gamma,
    "zeta3": _suite_zeta3,
    "oracle": _suite_oracle,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str):
    """Run one named suite (or 'all'); returns a list of CheckResult.

    A check passes when every error in its row is at most its bound.  A nan
    error fails the check, and its worst reads nan."""
    if name != "all" and name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}")
    results = []
    for suite in SUITE_NAMES if name == "all" else (name,):
        for check, errors, bound in _SUITES[suite]():
            # max() skips a nan that is not first, and nan <= bound is False
            worst = math.nan if any(map(math.isnan, errors)) else max(errors)
            results.append(CheckResult(suite, check, worst <= bound,
                                       f"worst {worst:.3g} vs bound {bound:.3g}"))
    return results
