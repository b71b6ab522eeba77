"""Runnable property suites, one per module, shared by the CLI verify
command and the acceptance tests."""

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


def _check(results, suite, name, worst, bound):
    results.append(CheckResult(suite, name, worst <= bound,
                               f"worst {worst:.3g} vs bound {bound:.3g}"))


def _pole_free_grid():
    rng = random.Random(7)
    pts = []
    while len(pts) < 20:
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if 0.05 < abs(z) <= 0.9 and abs(abs(z) - 1.0) > 0.1:
            pts.append(z)
    return pts


def _suite_oracle():
    res = []
    closed = {2: math.pi ** 2 / 6, 4: math.pi ** 4 / 90,
              6: math.pi ** 6 / 945, 8: math.pi ** 8 / 9450}
    worst = max(abs(zeta_oracle(s) - v) / v for s, v in closed.items())
    _check(res, "oracle", "even-argument closed forms", worst, 1e-13)
    worst = abs(_ZETA3 - zeta_oracle(3))
    _check(res, "oracle", "stored zeta(3) vs oracle", worst, 1e-13)
    worst = abs((zeta_oracle(20) - 1.0) / 2.0 ** -20 - 1.0)
    _check(res, "oracle", "zeta(20) - 1 near 2^-20", worst, 1e-2)
    # the same Euler-Maclaurin formula at cutoff 40: the sum to 40 plus its tail
    worst = max(abs(sum(k ** (-float(s)) for k in range(1, 41)) + tail_power_sum(s, 40)
                    - zeta_oracle(s)) / zeta_oracle(s) for s in (2, 3, 5, 9))
    _check(res, "oracle", "cutoff 20 vs 40 stability", worst, 1e-14)
    mono = all(zeta_oracle(s) > zeta_oracle(s + 1) for s in range(2, 19))
    res.append(CheckResult("oracle", "monotone decrease to 1", mono))
    return res


def _suite_pfd():
    res = []
    rng = random.Random(2024)
    worst_resid = 0.0
    worst_musum = 0.0
    for _ in range(100):
        size = rng.randint(2, 10)
        nodes = []
        while len(nodes) < size:
            cand = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if all(abs(cand - w) >= 0.1 for w in nodes):
                nodes.append(cand)
        result = pfd_coefficients(nodes)
        mu_max = max(abs(mu) for mu in result.coefficients)
        worst_musum = max(worst_musum,
                          abs(sum(result.coefficients)) / (1e-11 * mu_max))
        for _ in range(100):
            x = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if min(abs(x + w) for w in nodes) < 0.05:
                continue
            lhs = 1.0
            for w in nodes:
                lhs /= abs(w + x)
            worst_resid = max(worst_resid, pfd_residual(result, x) / lhs)
    _check(res, "pfd", "identity residual (relative)", worst_resid, 1e-10)
    res.append(CheckResult("pfd", "coefficients sum to zero",
                           worst_musum <= 1.0,
                           f"worst |sum mu| = {worst_musum:.3g} x 1e-11 max|mu|"))
    nodes = [1 + 1j, -2.0, 0.5 - 3j, 4j]
    perm = [nodes[2], nodes[0], nodes[3], nodes[1]]
    base = pfd_coefficients(nodes).coefficients
    permuted = pfd_coefficients(perm).coefficients
    equivariant = all(
        abs(p - b) <= 1e-12 * abs(b)
        for p, b in zip(permuted, (base[2], base[0], base[3], base[1])))
    res.append(CheckResult("pfd", "permutation equivariance", equivariant))
    return res


def _suite_phi():
    res = []
    grid = _pole_free_grid()
    worst = 0.0
    for m in (2, 3, 4, 5):
        for z in grid:
            a = unity_gamma_product(m, z, GammaProduct())
            b = unity_gamma_product(m, z, TruncatedProduct())
            c = unity_gamma_product(m, z, ExpZetaSeries())
            scale = abs(a)
            worst = max(worst, abs(a - b) / scale, abs(a - c) / scale,
                        abs(b - c) / scale)
    _check(res, "phi", "three-route agreement", worst, 1e-9)
    worst = 0.0
    for z in (0.1, 0.3, 0.5 + 0.2j, 0.8j):
        ref = math.pi * z / cmath.sin(math.pi * z)
        v = unity_gamma_product(2, z, GammaProduct())
        worst = max(worst, abs(v - ref) / abs(ref))
    _check(res, "phi", "m=2 closed form pi*z*csc(pi*z)", worst, 1e-11)
    worst = 0.0
    for m in (2, 3, 4, 5):
        for n in range(1, 16):
            cf = series_coefficient(m, n)
            pr = product_coefficient(m, n)
            worst = max(worst, abs(pr - cf) / abs(cf))
    _check(res, "phi", "coefficient route agreement", worst, 1e-6)
    ok = True
    for m in (3, 4, 5):
        for n in range(1, 31):
            v = series_coefficient(m, n)
            if abs(v) >= 1.0 or (v > 0) != (n % 2 == 0):
                ok = False
    res.append(CheckResult("phi", "coefficient sign and |.| < 1 bound", ok))
    worst = max(abs(series_coefficient(2, n) - (-1.0) ** n)
                for n in range(1, 31))
    _check(res, "phi", "m=2 coefficients are (-1)^n", worst, 1e-14)
    worst = 0.0
    w3 = cmath.exp(2j * math.pi / 3)
    for z in grid[:8]:
        a = unity_gamma_product(3, z, GammaProduct())
        b = unity_gamma_product(3, w3 * z, GammaProduct())
        worst = max(worst, abs(a - b) / abs(a))
    _check(res, "phi", "rotation symmetry in z^m", worst, 1e-11)
    worst = 0.0
    for m, z in ((2, 0.5), (3, 0.3), (4, 0.6)):
        v = unity_product_pfd(m, z, 200)
        ref = unity_gamma_product(m, z, GammaProduct())
        worst = max(worst, (abs(v.value - ref) - v.error_estimate) / abs(ref))
    res.append(CheckResult("phi", "pfd series within its tail bound",
                           worst <= 0.0, f"worst excess {worst:.3g}"))
    return res


def _suite_zeta():
    res = []
    worst = max(abs(zeta_term(2, n) - 2.0 * (-1.0) ** (n - 1) / n ** 2)
                / (2.0 / n ** 2) for n in range(1, 101))
    _check(res, "zeta", "m=2 term collapse to 2(-1)^(n-1)/n^2", worst, 1e-14)
    ok = True
    for m in range(2, 7):
        for n in range(1, 101):
            t = zeta_term(m, n)
            if abs(t) > m / float(n) ** m * (1 + 1e-12):
                ok = False
            if math.copysign(1.0, t) != (1 if n % 2 else -1):
                ok = False
    res.append(CheckResult("zeta", "term bound m/n^m and alternation", ok))
    targets = {2: math.pi ** 2 / 6, 3: zeta_oracle(3), 4: math.pi ** 4 / 90,
               5: zeta_oracle(5), 6: math.pi ** 6 / 945}
    worst = 0.0
    for m, ref in targets.items():
        rep = zeta_via_series(m, PrecisionConfig(max_terms=64))
        worst = max(worst, abs(rep.value - ref))
    _check(res, "zeta", "series reproduces zeta(2..6)", worst, 1e-8)
    ok = True
    for m in (2, 3, 4):
        ref = targets[m]
        errs = [abs(zeta_via_series(m, PrecisionConfig(max_terms=k)).value - ref)
                for k in (8, 16, 32, 64)]
        # allow double-precision floor wobble once errors hit ~1e-15
        if any(errs[i + 1] > errs[i] + 5e-15 for i in range(3)):
            ok = False
    res.append(CheckResult("zeta", "monotone improvement with max_terms", ok))
    finite = all(math.isfinite(zeta_term(m, n))
                 for m in range(2, 9) for n in range(1, 201, 7))
    res.append(CheckResult("zeta", "log-space terms finite to n=200", finite))
    worst = 0.0
    for m in (3, 4, 5):
        roots = roots_of_unity(m)
        for n in range(1, 21):
            direct = m * (-1.0) ** (n - 1)
            for w in roots[1:]:
                direct *= gamma(1.0 - w * n)
            direct /= math.factorial(n) * float(n) ** m
            t = zeta_term(m, n)
            worst = max(worst, abs(direct.real - t) / abs(t))
    _check(res, "zeta", "log-space matches direct evaluation", worst, 1e-10)
    return res


def _suite_gamma():
    res = []
    z_grid = (0.1, 0.3, 0.45, 0.2j)
    ok = True
    detail = ""
    for a in (0.5, 0.8, 1.0, 1.25):
        for z in z_grid:
            rep = gamma_pfd_series(a, z, 1000, AccelerationMethod.NO_ACCELERATION)
            err = abs(rep.value - gamma_pair(a, z))
            if err > 5.0 * rep.error_estimate:
                ok = False
                detail = f"a={a}, z={z}: err {err:.3g} vs est {rep.error_estimate:.3g}"
    res.append(CheckResult("gamma", "raw series within 5x estimate", ok, detail))
    worst = 0.0
    for a in (1.5, 2.0, 3.0):
        for z in z_grid:
            rep = gamma_pfd_series(a, z, 64, AccelerationMethod.EULER_TRANSFORM)
            ref = gamma_pair(a, z)
            worst = max(worst, abs(rep.value - ref) / abs(ref))
    _check(res, "gamma", "regularized series agreement", worst, 1e-6)
    worst = 0.0
    for a in (0.5, 1.0, 2.5):
        for frac in (0.2, 0.6, 0.9):
            z = frac * a
            ref = gamma_pair(a, z) / gamma(a) ** 2
            worst = max(worst, abs(modulus_product(a, z, 1000) - ref) / abs(ref))
    _check(res, "gamma", "product form of the gamma pair", worst, 1e-14)
    worst = 0.0
    for q in (0.0, 0.5, 1.0, 2.5):
        rep = inverse_square_series(q, 64, AccelerationMethod.EULER_TRANSFORM)
        worst = max(worst, abs(rep.value - trigamma(q + 1.0)))
    _check(res, "gamma", "inverse-square series vs trigamma", worst, 1e-6)
    even = all(
        gamma_pfd_series(a, z, 64, AccelerationMethod.EULER_TRANSFORM).value
        == gamma_pfd_series(a, -z, 64, AccelerationMethod.EULER_TRANSFORM).value
        for a in (0.5, 2.0) for z in (0.3, 0.2j))
    res.append(CheckResult("gamma", "evenness in z (bit identical)", even))
    # sum 1/a_n^2 = -2 sum 1/(F'(-a_n) a_n^2): for a_n = a-1+n the right
    # side is the psi'(a) series of inverse_square_series(a-1), and for
    # a_n = n that series at q = 0.
    lhs = 0.0
    for n in range(1, 65):
        an = float(n)
        lhs += 1.0 / (an * an)
    rhs = inverse_square_series(0.0, 64, AccelerationMethod.CHEBYSHEV_ALTERNATING)
    worst = max(abs(rhs.value - math.pi ** 2 / 6),
                abs(lhs - (math.pi ** 2 / 6 - trigamma(65.0))))
    _check(res, "gamma", "summation identity at a_n = n", worst, 1e-9)
    a = 1.3
    lhs = 0.0
    for n in range(1, 10001):
        an = a - 1.0 + n
        lhs += 1.0 / (an * an)
    rhs = inverse_square_series(a - 1.0, 256, AccelerationMethod.EULER_TRANSFORM)
    worst = max(abs(lhs + trigamma(a + 10000.0) - trigamma(a)),
                abs(rhs.value - trigamma(a)))
    _check(res, "gamma", "summation identity at a_n = a-1+n", worst, 1e-6)
    return res


def _suite_zeta3():
    res = []
    z3 = zeta_oracle(3)
    rep = zeta3_series(Zeta3Variant.HYPERBOLIC, PrecisionConfig(max_terms=12))
    _check(res, "zeta3", "hyperbolic form, 12 index pairs",
           abs(rep.value - z3), 1e-9)
    worst = max(abs(sine_term(n) - zeta_term(3, n))
                / abs(zeta_term(3, n)) for n in range(1, 21))
    _check(res, "zeta3", "sine terms match series terms", worst, 1e-9)
    worst = max(abs(hyperbolic_term(n) - zeta_term(3, n))
                / abs(zeta_term(3, n)) for n in range(1, 21))
    _check(res, "zeta3", "hyperbolic terms match series terms", worst, 1e-9)
    rep = zeta3_series(Zeta3Variant.SINE, PrecisionConfig(max_terms=40))
    _check(res, "zeta3", "sine form sum", abs(rep.value - z3), 1e-6)
    rep = zeta3_series(Zeta3Variant.BETA, PrecisionConfig(max_terms=40))
    _check(res, "zeta3", "beta form sum (regularized)", abs(rep.value - z3), 1e-13)
    worst = 0.0
    for d in range(1, 16):
        lhs = log_gamma(complex(1 + d, _SQRT3 * d)).real * 2.0
        rhs = (math.log(_SQRT3 * math.pi * d) + q_poly(d)
               - log_sinh(_SQRT3 * math.pi * d))
        worst = max(worst, abs(math.expm1(lhs - rhs)))
        lhs = log_gamma(complex(0.5 + d, _SQRT3 * (2 * d - 1) / 2.0)).real * 2.0
        rhs = (math.log(math.pi) + p_poly(d)
               - log_cosh(_SQRT3 * math.pi * (2 * d - 1) / 2.0))
        worst = max(worst, abs(math.expm1(lhs - rhs)))
    _check(res, "zeta3", "gamma-pair identities for P(d), Q(d)", worst, 1e-9)
    finite = all(math.isfinite(sine_term(n))
                 and math.isfinite(hyperbolic_term(n))
                 for n in range(1, 201, 9))
    res.append(CheckResult("zeta3", "log-space terms finite to n=200", finite))
    worst = 0.0
    for variant in Zeta3Variant:
        rep = zeta3_series(variant, PrecisionConfig(max_terms=40))
        excess = abs(rep.value - z3) - 5.0 * rep.error_estimate
        worst = max(worst, excess)
    res.append(CheckResult("zeta3", "variants within 5x own estimates",
                           worst <= 0.0, f"worst excess {worst:.3g}"))
    return res


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
    """Run one named suite (or 'all'); returns a list of CheckResult."""
    if name == "all":
        return [result for suite in _SUITES.values() for result in suite()]
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}")
    return _SUITES[name]()
