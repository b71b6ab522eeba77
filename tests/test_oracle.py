import math

import mpmath as mp
import pytest

from omega_zeta import PrecisionConfig, tail_power_sum, zeta_oracle

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


def test_precision_config_defaults():
    config = PrecisionConfig()
    assert config.max_terms == 64
    assert config.method == "cvz"
    assert config.trace_enabled
