"""Acceptance gate.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible with ``pytest -s`` or in the captured output of a failure) and
then asserts, so the suite is red whenever a criterion is not met.
"""

import cmath
import json
import math
import random
import subprocess
import sys
import time

from omega_zeta import (
    AccelerationMethod,
    DivergenceError,
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
    known_constant,
    log_cosh,
    log_gamma,
    log_sinh,
    modulus_product,
    p_poly,
    pfd_coefficients,
    pfd_residual,
    product_coefficient,
    q_poly,
    series_coefficient,
    sine_term,
    trigamma,
    unity_gamma_product,
    zeta3_series,
    zeta_oracle,
    zeta_term,
    zeta_via_series,
)
from omega_zeta.special import roots_of_unity

CVZ = AccelerationMethod.CHEBYSHEV_ALTERNATING
EULER = AccelerationMethod.EULER_TRANSFORM
NONE = AccelerationMethod.NO_ACCELERATION

CLI = [sys.executable, "-m", "omega_zeta.cli"]


def _report(number: int, label: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number:02d}: {label}")
    assert passed, f"criterion {number:02d}: {label}"


def test_criterion_01_zeta2_value():
    value = zeta_via_series(2, PrecisionConfig(max_terms=32)).value
    err = abs(value - math.pi ** 2 / 6)
    _report(1, "series reproduces zeta(2) to 1e-12 with 32 terms",
            err < 1e-12)


def test_criterion_02_zeta3_to_zeta6():
    ok = abs(zeta_via_series(3, PrecisionConfig(max_terms=64)).value
             - zeta_oracle(3)) < 1e-9
    targets = {4: math.pi ** 4 / 90, 5: zeta_oracle(5), 6: math.pi ** 6 / 945}
    for m, ref in targets.items():
        ok &= abs(zeta_via_series(m, PrecisionConfig(max_terms=64)).value
                  - ref) < 1e-8
    _report(2, "series reproduces zeta(3..6) at stated tolerances", ok)


def test_criterion_03_m2_term_collapse():
    ok = True
    for n in range(1, 101):
        expected = 2.0 * (-1.0) ** (n - 1) / n ** 2
        ok &= abs(zeta_term(2, n) - expected) <= 1e-14 * abs(expected)
    _report(3, "m=2 terms collapse to 2(-1)^(n-1)/n^2 at 1e-14 relative", ok)


def test_criterion_04_pfd_random_nodes():
    rng = random.Random(2024)

    def draw_nodes(size):
        while True:
            nodes = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                     for _ in range(size)]
            seps = [abs(a - b) for i, a in enumerate(nodes)
                    for b in nodes[i + 1:]]
            if min(seps) >= 0.1:
                return nodes

    ok = True
    for _ in range(100):
        nodes = draw_nodes(rng.randint(2, 10))
        result = pfd_coefficients(nodes)
        mu_max = max(abs(mu) for mu in result.coefficients)
        ok &= abs(sum(result.coefficients)) < 1e-11 * mu_max
        for _ in range(100):
            x = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if min(abs(x + a) for a in nodes) < 0.05:
                continue
            # the decomposition's terms cancel, so the honest relative
            # scale is the magnitude of what is being summed
            scale = sum(abs(mu / (a + x)) for mu, a
                        in zip(result.coefficients, nodes))
            ok &= pfd_residual(result, x) < 1e-10 * scale
    _report(4, "partial-fraction residual and zero-sum over 100 random "
               "node sets", ok)


def test_criterion_05_product_route_triangle():
    rng = random.Random(7)
    grid = [cmath.rect(rng.uniform(0.05, 0.9), rng.uniform(0, 2 * math.pi))
            for _ in range(20)]
    routes = (TruncatedProduct(), GammaProduct(), ExpZetaSeries())
    ok = True
    for m in (2, 3, 4, 5):
        for z in grid:
            values = [unity_gamma_product(m, z, route) for route in routes]
            scale = max(abs(v) for v in values)
            ok &= all(abs(a - b) < 1e-9 * scale
                      for a in values for b in values)
    for z in grid:
        ref = math.pi * z / cmath.sin(math.pi * z)
        ok &= abs(unity_gamma_product(2, z, GammaProduct()) - ref) \
            < 1e-11 * abs(ref)
    _report(5, "three product routes agree pairwise; m=2 matches the "
               "cosecant closed form", ok)


def test_criterion_06_coefficient_routes_and_bounds():
    ok = True
    for m in (2, 3, 4, 5):
        for n in range(1, 16):
            cf = series_coefficient(m, n)
            pr = product_coefficient(m, n, 8 * n)
            ok &= abs(pr - cf) < 1e-6 * abs(cf)
    for m in (3, 4, 5):
        for n in range(1, 31):
            v = series_coefficient(m, n)
            ok &= abs(v) < 1.0 and (v > 0) == (n % 2 == 0)
    for n in range(1, 31):
        ok &= abs(series_coefficient(2, n) - (-1.0) ** n) <= 1e-14
    _report(6, "pole coefficients: product vs closed form, sign pattern, "
               "unit bound, m=2 collapse", ok)


def test_criterion_07_gamma_pair_series_regimes():
    ok = True
    z_grid = (0.1, 0.3, 0.45, 0.2j)
    for a in (0.5, 0.8, 1.0, 1.25):
        for z in z_grid:
            rep = gamma_pfd_series(a, z, 1000, NONE)
            ok &= abs(rep.value - gamma_pair(a, z)) <= 5 * rep.error_estimate
    for a in (1.5, 2.0, 3.0):
        for z in z_grid:
            rep = gamma_pfd_series(a, z, 64, EULER)
            ref = gamma_pair(a, z)
            ok &= abs(rep.value - ref) < 1e-6 * abs(ref)
    try:
        gamma_pfd_series(3.0, 0.4, 64, NONE)
        ok = False
    except DivergenceError:
        pass
    proc = subprocess.run(CLI + ["gamma-pfd", "--a", "3", "--z", "0.4,0",
                                 "--method", "none"], capture_output=True)
    ok &= proc.returncode == 2
    _report(7, "gamma-pair series: raw regime within estimate, regularized "
               "regime 1e-6, divergence detected (exit 2)", ok)


def test_criterion_08_inverse_square_vs_trigamma():
    ok = all(abs(inverse_square_series(q, 64, EULER).value
                 - trigamma(q + 1.0)) < 1e-6
             for q in (0.0, 0.5, 1.0, 2.5))
    _report(8, "inverse-square series matches trigamma at q in "
               "{0, 0.5, 1, 2.5}", ok)


def test_criterion_09_modulus_product():
    ok = True
    for a in (0.5, 1.0, 2.5):
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            for z in (frac * a, frac * a * 1j):
                ref = gamma_pair(a, z) / gamma(a) ** 2
                ok &= abs(modulus_product(a, z, 1000) - ref) < 1e-8 * abs(ref)
    _report(9, "squared-modulus product matches the gamma-pair ratio at "
               "1e-8 relative", ok)


def test_criterion_10_zeta3_variants():
    rep = zeta3_series(Zeta3Variant.HYPERBOLIC, PrecisionConfig(max_terms=12))
    ok = abs(rep.value - zeta_oracle(3)) < 1e-9
    for n in range(1, 21):
        ref = zeta_term(3, n)
        ok &= abs(sine_term(n) - ref) <= 1e-9 * abs(ref)
    rep = zeta3_series(Zeta3Variant.SINE, PrecisionConfig(max_terms=40))
    ok &= abs(rep.value - zeta_oracle(3)) < 1e-6
    rep = zeta3_series(Zeta3Variant.BETA, PrecisionConfig(max_terms=40))
    ok &= abs(rep.value - zeta_oracle(3)) < 1e-5
    sqrt3 = math.sqrt(3.0)
    for d in range(1, 16):
        lhs = 2.0 * log_gamma(complex(1 + d, sqrt3 * d)).real
        rhs = (math.log(sqrt3 * math.pi * d) + q_poly(d)
               - log_sinh(sqrt3 * math.pi * d))
        ok &= abs(math.expm1(lhs - rhs)) < 1e-9
        lhs = 2.0 * log_gamma(complex(0.5 + d,
                                      sqrt3 * (2 * d - 1) / 2)).real
        rhs = (math.log(math.pi) + p_poly(d)
               - log_cosh(sqrt3 * math.pi * (2 * d - 1) / 2))
        ok &= abs(math.expm1(lhs - rhs)) < 1e-9
    _report(10, "zeta(3) variants: hyperbolic 1e-9 in 12 terms, sine "
                "term-level + 1e-6, beta 1e-5, gamma-pair identities", ok)


def test_criterion_11_overflow_robustness():
    ok = True
    for m in range(2, 9):
        for n in range(1, 201):
            ok &= math.isfinite(zeta_term(m, n))
    for n in range(1, 201):
        ok &= math.isfinite(sine_term(n))
        ok &= math.isfinite(hyperbolic_term(n))
    for m in range(3, 9):
        roots = roots_of_unity(m)
        for n in range(1, 21):
            direct = m * (-1.0) ** (n - 1)
            for w in roots[1:]:
                direct *= gamma(1.0 - w * n)
            direct /= math.factorial(n) * float(n) ** m
            if math.isfinite(abs(direct)) and direct != 0:
                t = zeta_term(m, n)
                ok &= abs(direct.real - t) <= 1e-10 * abs(t)
    _report(11, "log-space terms finite for m<=8, n<=200 and match direct "
                "evaluation where it is finite", ok)


def test_criterion_12_oracle_self_checks():
    closed = {2: math.pi ** 2 / 6, 4: math.pi ** 4 / 90,
              6: math.pi ** 6 / 945, 8: math.pi ** 8 / 9450}
    ok = all(abs(zeta_oracle(s) - ref) < 1e-13 * ref
             for s, ref in closed.items())
    ok &= abs(known_constant("zeta3") - zeta_oracle(3)) < 1e-13
    _report(12, "oracle matches Bernoulli closed forms and the stored "
                "zeta(3) constant", ok)


def test_criterion_13_cli_contract():
    def run(*argv):
        return subprocess.run(CLI + list(argv), capture_output=True,
                              text=True)

    def stripped(proc):
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        for rec in records:
            rec.pop("elapsed_ms", None)
        return records

    a, b = run("zeta", "3", "--terms", "48"), run("zeta", "3", "--terms", "48")
    ok = stripped(a) == stripped(b)
    ok &= run("zeta", "4").returncode == 0
    ok &= run("gamma-pfd", "--a", "3", "--z", "0.4,0",
              "--method", "none").returncode == 2
    ok &= run("zeta", "1").returncode == 3
    ok &= run("phi", "3", "--z", "bogus").returncode == 3
    start = time.perf_counter()
    proc = run("verify", "--suite", "all")
    elapsed = time.perf_counter() - start
    ok &= proc.returncode == 0 and elapsed < 10.0
    _report(13, "CLI determinism, exit-code mapping, and full verify run "
                "under 10 s", ok)
