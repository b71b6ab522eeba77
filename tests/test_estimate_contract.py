"""The benchmark's wrong-result rule as a ratchet over fixed grids.

Every call on the grids below is judged against a 40-digit mpmath reference
by `perfbench/check.py:classify`: a returned value is wrong when
|value - ref| > max(error_estimate, 8 eps |ref|).  A call that raises counts
apart, by the type of its error.  ALLOWED holds the count of each outcome
other than "ok" per (call kind, method).  The test fails when a count rises,
and also when one falls while the table still holds the old count, so a
change that mends an estimate lowers its rows in the same commit.

The grids:

* `gamma_pfd_series(a, z, N)` for a = 0.31..3.01 in steps of 0.1,
  z in {0.2, 0.7}, and `inverse_square_series(q, N)` for q = -0.9..3.0 in
  steps of 0.1, each at N in {16, 64, 256, 384};
* `zeta_via_series(m)` for every m = 2..300 at cap 16, and at caps 64 and
  128 for m = 2..20 and every 15th m from 30 to 300 (every m at those caps
  would cost about 12 s of cold coefficients);
* every `zeta3_series` variant at caps {4, 8, 16, 40};

each under every acceleration method.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import mpmath as mp
import pytest

from omega_zeta import (
    PrecisionConfig,
    gamma_pfd_series,
    inverse_square_series,
    zeta3_series,
    zeta_via_series,
)

_CHECK = Path(__file__).resolve().parent.parent / "perfbench" / "check.py"
_spec = importlib.util.spec_from_file_location("perfbench_check", _CHECK)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

METHODS = ("none", "euler", "cvz")
SERIES_NS = (16, 64, 256, 384)
ZETA_MS_LONG = (*range(2, 21), *range(30, 301, 15))
ZETA3_CAPS = (4, 8, 16, 40)

# (call kind, method, outcome): count, for every outcome other than "ok".
# "none" refuses the series whose terms grow: gamma_pfd's go as k^(2a-4),
# inverse_square's as n^(2q-2).  The wrong results are CVZ's and Euler's
# estimates, short on growing terms (ROADMAP item 13).
ALLOWED = {
    ("gamma_pfd", "none", "DivergenceError"): 72,
    ("gamma_pfd", "euler", "wrong"): 15,
    ("gamma_pfd", "cvz", "wrong"): 82,
    ("inverse_square", "none", "DivergenceError"): 76,
    ("inverse_square", "euler", "wrong"): 2,
    ("inverse_square", "cvz", "wrong"): 70,
}


def _grid():
    """(kind, method, args) for every call of the contract."""
    for method in METHODS:
        for n in SERIES_NS:
            for i in range(28):
                for z in (0.2, 0.7):
                    yield "gamma_pfd", method, (round(0.31 + 0.1 * i, 2), z, n)
            for i in range(40):
                yield "inverse_square", method, (round(-0.9 + 0.1 * i, 1), n)
        for cap in (16, 64, 128):
            for m in (range(2, 301) if cap == 16 else ZETA_MS_LONG):
                yield "zeta", method, (m, cap)
        for variant in ("sine", "hyperbolic", "beta"):
            for cap in ZETA3_CAPS:
                yield "zeta3." + variant, method, (variant, cap)


def _run(kind, method, args):
    if kind == "gamma_pfd":
        return gamma_pfd_series(*args, method)
    if kind == "inverse_square":
        return inverse_square_series(*args, method)
    if kind == "zeta":
        m, cap = args
        return zeta_via_series(m, PrecisionConfig(max_terms=cap, method=method))
    variant, cap = args
    return zeta3_series(variant, PrecisionConfig(max_terms=cap, method=method))


def _reference(kind, args):
    if kind == "gamma_pfd":
        a, z, _ = args
        return mp.gamma(mp.mpf(a) + z) * mp.gamma(mp.mpf(a) - z)
    if kind == "inverse_square":
        return mp.psi(1, mp.mpf(args[0]) + 1)
    return mp.zeta(args[0] if kind == "zeta" else 3)


@pytest.fixture(scope="session")
def outcomes():
    """[(kind, method, args, outcome, detail)] over the whole grid, with
    detail the error and estimate of a wrong result."""
    refs, results = {}, []
    with mp.workdps(40):
        for kind, method, args in _grid():
            key = (kind, args[:2] if kind == "gamma_pfd" else args[:1])
            if key not in refs:
                refs[key] = complex(_reference(kind, args))
            try:
                rep = _run(kind, method, args)
            except Exception as exc:  # a raised call counts by its type
                results.append((kind, method, args, type(exc).__name__, str(exc)))
                continue
            value, ref = complex(rep.value), refs[key]
            outcome = check.classify(value, rep.error_estimate, ref)
            detail = f"error {abs(value - ref):.3g}, estimate {rep.error_estimate:.3g}"
            results.append((kind, method, args, outcome, detail))
    return results


@pytest.mark.parametrize("kind", ["gamma_pfd", "inverse_square", "zeta",
                                  "zeta3.sine", "zeta3.hyperbolic", "zeta3.beta"])
def test_misses_match_the_table(outcomes, kind):
    counts = Counter((k, method, outcome) for k, method, _, outcome, _ in outcomes
                     if k == kind and outcome != "ok")
    table = {key: n for key, n in ALLOWED.items() if key[0] == kind}
    rose = {key: (table.get(key, 0), n) for key, n in counts.items() if n > table.get(key, 0)}
    misses = [f"{k}{args} {method}: {outcome}, {detail}"
              for k, method, args, outcome, detail in outcomes
              if (k, method, outcome) in rose]
    assert not rose, (f"counts rose (table, now): {rose}\n" + "\n".join(misses[:40]))
    fell = {key: (n, counts.get(key, 0)) for key, n in table.items() if counts.get(key, 0) < n}
    assert not fell, f"counts fell (table, now); lower the table: {fell}"
