import ast
import math
import pickle
import re
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import omega_zeta.oracle as oracle_module
from omega_zeta import DomainError, PrecisionConfig, tail_power_sum, trigamma, zeta_oracle
from omega_zeta.special import _BERNOULLI, _hurwitz

mp.mp.dps = 40


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 7, 8, 12, 2.5, 3.7, 10.1])
def test_zeta_oracle_vs_multiprecision(s):
    ref = float(mp.zeta(s))
    assert abs(zeta_oracle(s) - ref) <= 4e-15 * ref


def test_zeta_oracle_known_closed_forms():
    assert abs(zeta_oracle(2) - math.pi ** 2 / 6) < 1e-15
    assert abs(zeta_oracle(4) - math.pi ** 4 / 90) < 1e-14
    assert abs(zeta_oracle(6) - math.pi ** 6 / 945) < 1e-14


def test_zeta_oracle_domain():
    with pytest.raises(Exception):
        zeta_oracle(1)


@pytest.mark.parametrize("call,message", [
    (lambda: zeta_oracle(math.nan), "s must be a finite real number, got nan"),
    (lambda: zeta_oracle(math.inf), "s must be a finite real number, got inf"),
    (lambda: zeta_oracle("3"), "s must be a finite real number, got '3'"),
    (lambda: zeta_oracle(3j), "s must be a finite real number, got 3j"),
    (lambda: tail_power_sum(math.nan, 3), "p must be a finite real number, got nan"),
], ids=["zeta-nan", "zeta-inf", "zeta-str", "zeta-complex", "tail-nan"])
def test_non_finite_or_non_numeric_exponent_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_a_real_exponent_of_any_numeric_type_is_valid():
    assert zeta_oracle(Fraction(5, 2)) == zeta_oracle(2.5)
    assert tail_power_sum(Fraction(5, 2), 3) == tail_power_sum(2.5, 3)


@pytest.mark.parametrize("p", [2, 3, 4, 6, 9, 15])
@pytest.mark.parametrize("cutoff", [5, 20, 100])
def test_tail_power_sum_vs_multiprecision(p, cutoff):
    # subtract the head from the full sum at 40 digits, so the reference
    # carries no truncation error of its own
    ref = float(mp.zeta(p)
                - mp.fsum(mp.mpf(n) ** (-p) for n in range(1, cutoff + 1)))
    got = tail_power_sum(p, cutoff)
    assert abs(got - ref) <= max(1e-16, 1e-12 * ref)


def test_tail_power_sum_consistency_with_oracle():
    for p in (2, 3, 5):
        partial = sum(n ** (-float(p)) for n in range(1, 21))
        assert abs(partial + tail_power_sum(p, 20) - zeta_oracle(p)) < 1e-14


def test_tail_power_sum_rejects_a_negative_cutoff():
    assert abs(tail_power_sum(2, 0) - math.pi ** 2 / 6) < 1e-15
    with pytest.raises(DomainError, match="cutoff must be >= 0, got -5"):
        tail_power_sum(2, -5)


def _corrections_before(total, s, n):
    rising = float(s)
    fact = 2.0
    for j, b2j in enumerate(_BERNOULLI, start=1):
        total += b2j / fact * rising * n ** (1.0 - s - 2 * j)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    return total


def _tail_power_sum_before(p, cutoff):
    """tail_power_sum as it was before the shared kernel: the terms up to
    n = max(cutoff, 20), then Euler-Maclaurin at n.  The terms went through
    the builtin sum, which adds forward as this loop does up to Python 3.11
    (from 3.12 it compensates)."""
    n = max(cutoff, 20)
    total = 0.0
    for k in range(cutoff + 1, n + 1):
        total += k ** (-float(p))
    total += n ** (1.0 - p) / (p - 1.0) - 0.5 * n ** (-float(p))
    return _corrections_before(total, p, n)


def _zeta_oracle_before(s):
    """zeta_oracle as it was: 1 + 2^-s + ... + 19^-s, then the integral
    and midpoint terms and the corrections at 20."""
    total = 0.0
    for k in range(1, 20):
        total += k ** (-float(s))
    total += 20 ** (1.0 - s) / (s - 1.0)
    total += 0.5 * 20 ** (-float(s))
    return _corrections_before(total, s, 20)


def _hurwitz_reference(p, x):
    """zeta(p, x) at 50 digits: the terms up to n >= 4p + 40 (or until they
    fall below 1e-60 of the sum), then 30 Bernoulli corrections at n.
    mpmath's own zeta(p, x) loses digits for large x at this precision."""
    with mp.workdps(50):
        p, x = mp.mpf(p), mp.mpf(x)
        total, k = mp.mpf(0), 0
        while x + k < 4 * p + 40:
            term = (x + k) ** -p
            if term < mp.mpf(10) ** -60 * total:
                return total
            total += term
            k += 1
        n = x + k
        return total + n ** (1 - p) / (p - 1) + n ** -p / 2 + mp.fsum(
            mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.rf(p, 2 * j - 1)
            * n ** (1 - p - 2 * j) for j in range(1, 31))


_EXPONENTS = list(range(2, 401)) + [2.5, 3.7, 10.1]
_CUTOFFS = [0, 1, 3, 8, 16, 19, 20, 21, 100, 1000, 8000]


def test_tail_power_sum_keeps_its_bits_where_its_old_shift_sufficed():
    # Six Bernoulli corrections at n reach double precision for n >= 3p + 10,
    # so there the kernel sums the same terms in the same order.
    pairs = [(p, c) for p in _EXPONENTS for c in _CUTOFFS if max(c, 20) >= 3 * p + 10]
    assert len(pairs) == 790
    for p, cutoff in pairs:
        assert tail_power_sum(p, cutoff) == _tail_power_sum_before(p, cutoff), (p, cutoff)


def test_tail_power_sum_is_accurate_where_its_old_shift_was_short():
    # At n = 20 the corrections diverge as p grows: the old tail was 3e-13
    # off at p = 10, 7e-8 at p = 30, and negative at p = 100.
    assert abs(_tail_power_sum_before(30, 20) / float(_hurwitz_reference(30, 21)) - 1) > 1e-8
    assert _tail_power_sum_before(100, 20) < 0
    for p in (4, 5, 7, 10, 15, 20, 30, 60, 100, 200, 400, 3.7, 10.1):
        for cutoff in _CUTOFFS:
            if max(cutoff, 20) < 3 * p + 10:
                ref = _hurwitz_reference(p, cutoff + 1)
                got = tail_power_sum(p, cutoff)
                assert abs(got - ref) <= 2e-15 * ref + 1e-300, (p, cutoff)


def test_zeta_oracle_is_no_farther_from_zeta_than_before():
    # 1 + zeta(s, 2) with the 1 added last moves 15 of these values by an
    # ulp or two, each toward zeta(s) or to the same distance from it.
    moved = 0
    for s in range(2, 3001):
        new, old = zeta_oracle(s), _zeta_oracle_before(s)
        if new != old:
            moved += 1
            ref = mp.zeta(s)
            assert abs(new - ref) <= abs(old - ref), s
    assert moved == 15


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(st.integers(2, 600), st.floats(2.0, 600.0)), st.floats(-3.0, 6.0))
def test_hurwitz_vs_multiprecision(p, log_x):
    x = 10.0 ** log_x
    assume(-p * log_x < 300.0)  # zeta(p, x) > x^-p stays in the double range
    ref = _hurwitz_reference(p, x)
    # x + k rounds once it needs more bits than x: a relative error of an
    # ulp in a term's base is p ulps in the term.
    assert abs(_hurwitz(p, x) - ref) <= (8 + p) * 2.3e-16 * ref + 1e-300


def test_trigamma_is_within_1e_15_on_a_log_grid():
    for i in range(601):
        x = 10.0 ** (-3.0 + 9.0 * i / 600)
        ref = _hurwitz_reference(2, x)
        assert abs(trigamma(x) - ref) <= 1e-15 * ref, x


def test_precision_config_defaults():
    config = PrecisionConfig()
    assert config.max_terms == 64
    assert config.target_abs_error == 1e-12
    assert config.method == "cvz"
    assert config.trace_enabled
    assert config == PrecisionConfig(64, 1e-12, "cvz", True)
    assert repr(config) == ("PrecisionConfig(max_terms=64, target_abs_error=1e-12,"
                            " method='cvz', trace_enabled=True)")


def test_precision_config_by_keyword():
    # perfbench/worker.py passes target_abs_error and trace_enabled.
    config = PrecisionConfig(max_terms=8, target_abs_error=1e-6,
                             method="euler", trace_enabled=False)
    assert (config.max_terms, config.target_abs_error, config.method,
            config.trace_enabled) == (8, 1e-6, "euler", False)
    assert config != PrecisionConfig(max_terms=8, target_abs_error=1e-6,
                                     method="euler")


def test_precision_config_is_an_immutable_tuple():
    config = PrecisionConfig(max_terms=8)
    assert config == (8, 1e-12, "cvz", True)
    assert hash(config) == hash(PrecisionConfig(max_terms=8))
    assert pickle.loads(pickle.dumps(config)) == config
    with pytest.raises(AttributeError):
        config.max_terms = 16
    with pytest.raises(AttributeError):
        config.extra = 1


@pytest.mark.parametrize("kwargs, message", [
    ({"max_terms": 0}, "max_terms must be >= 1"),
    ({"target_abs_error": 0.0}, "target_abs_error must be > 0"),
    ({"target_abs_error": -1e-9}, "target_abs_error must be > 0"),
    ({"method": "bogus"}, "unknown method 'bogus'"),
    ({"method": ["x"]}, r"unknown method \['x'\]"),
    ({"max_terms": 1.5}, "max_terms must be an integer, got 1.5"),
    ({"max_terms": 64.0}, "max_terms must be an integer, got 64.0"),
    ({"target_abs_error": math.nan}, "target_abs_error must be a finite real number, got nan"),
    ({"target_abs_error": "x"}, "target_abs_error must be a finite real number, got 'x'"),
])
def test_precision_config_rejects_bad_settings(kwargs, message):
    with pytest.raises(DomainError, match=message):
        PrecisionConfig(**kwargs)


def test_oracle_imports_nothing_it_checks():
    # The oracle is independent of the engine: of the package it reads only
    # the error types and the Hurwitz sum special._hurwitz.
    with open(oracle_module.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    package = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level}
    assert package == {"errors", "special"}
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                and any(alias.name.startswith("omega_zeta") for alias in node.names)]
