import ast
import math
import pickle

import mpmath as mp
import pytest

import omega_zeta.oracle as oracle_module
from omega_zeta import DomainError, PrecisionConfig, tail_power_sum, zeta_oracle

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
    with pytest.raises(DomainError, match="cutoff >= 0"):
        tail_power_sum(2, -5)


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
])
def test_precision_config_rejects_bad_settings(kwargs, message):
    with pytest.raises(DomainError, match=message):
        PrecisionConfig(**kwargs)


def test_oracle_imports_nothing_it_checks():
    # The oracle is independent of the engine: of the package it reads only
    # the error types and the Bernoulli table.
    with open(oracle_module.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    package = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level}
    assert package == {"errors", "special"}
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                and any(alias.name.startswith("omega_zeta") for alias in node.names)]
