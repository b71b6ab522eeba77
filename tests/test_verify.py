"""The verify suites can fail: a nan or a 1e-12 relative perturbation of a
kernel makes at least one check read FAIL."""

import math
import sys

import pytest

from omega_zeta import ExpZetaSeries, accel, special, unity_product, verify, zeta3, zeta_series
from omega_zeta.verify import run_suite

# The memoized values built from the kernels: a perturbed kernel reaches the
# checks that read these only once they are emptied.
_CACHES = (zeta_series.zeta_term, accel._first_terms, zeta3.sine_term,
           zeta3.hyperbolic_term, zeta3.inner_double_sum, zeta3.beta_series_term)


def _clear_caches():
    for fn in _CACHES:
        fn.cache_clear()


@pytest.fixture
def fresh_caches():
    _clear_caches()
    yield
    _clear_caches()  # drop the values a patched kernel left behind


def _result(suite, name):
    (result,) = [r for r in run_suite(suite) if r.name == name]
    return result


def test_a_nan_series_value_fails_its_check(monkeypatch):
    original = verify.zeta_via_series

    def nan_at_five(m, config=None):
        rep = original(m, config)
        return rep._replace(value=math.nan) if m == 5 else rep

    monkeypatch.setattr(verify, "zeta_via_series", nan_at_five)
    result = _result("zeta", "series reproduces zeta(2..6)")
    assert not result.passed
    assert result.detail == "worst nan vs bound 2e-14"


def test_a_nan_route_fails_the_route_agreement(monkeypatch):
    original = verify.unity_gamma_product

    def nan_expzeta_at_four(m, z, route):
        if m == 4 and isinstance(route, ExpZetaSeries):
            return complex(math.nan, 0.0)
        return original(m, z, route)

    monkeypatch.setattr(verify, "unity_gamma_product", nan_expzeta_at_four)
    result = _result("phi", "three-route agreement")
    assert not result.passed
    assert result.detail == "worst nan vs bound 2e-13"


def _perturbed(fn):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if hasattr(out, "_replace"):  # sum_alternating's ConvergenceReport
            return out._replace(value=out.value * (1 + 1e-12))
        return out * (1 + 1e-12)
    return wrapper


@pytest.mark.parametrize("module, kernel", [
    (zeta_series, "zeta_term"), (accel, "sum_alternating"), (special, "log_gamma"),
    (special, "trigamma"), (unity_product, "product_coefficient"),
])
def test_a_perturbed_kernel_fails_a_check(monkeypatch, fresh_caches, module, kernel):
    # Wrapped wherever a package module binds it, as perfbench's tracer does,
    # so that calls from inside the package see the perturbation too.
    original = getattr(module, kernel)
    wrapper = _perturbed(original)
    for name, owner in list(sys.modules.items()):
        if name == "omega_zeta" or name.startswith("omega_zeta."):
            for attr, value in list(vars(owner).items()):
                if value is original:
                    monkeypatch.setattr(owner, attr, wrapper)
    assert [r for r in run_suite("all") if not r.passed]
    monkeypatch.undo()
    _clear_caches()
    results = run_suite("all")
    assert len(results) == 36
    assert [r for r in results if not r.passed] == []
