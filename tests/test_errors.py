"""Invalid input to a library call ends in a typed OmegaZetaError, which
the CLI maps to its exit code, never in a bare ValueError."""

import re
from decimal import Decimal
from functools import partial

import pytest

from omega_zeta import (
    DomainError,
    GammaProduct,
    PrecisionConfig,
    gamma_pfd_series,
    hyperbolic_term,
    inverse_square_series,
    modulus_product,
    p_poly,
    pfd_coefficients,
    product_coefficient,
    q_poly,
    roots_of_unity,
    series_coefficient,
    sine_term,
    sum_alternating,
    tail_power_sum,
    trigamma,
    unity_gamma_product,
    unity_product_pfd,
    zeta_oracle,
    zeta_term,
)
from omega_zeta.verify import run_suite
from omega_zeta.zeta3 import inner_double_sum

# (function, integer parameter, its least value, call taking that parameter)
_INDICES = [
    ("PrecisionConfig", "max_terms", 1, lambda v: PrecisionConfig(max_terms=v)),
    ("zeta_term", "m", 2, lambda v: zeta_term(v, 1)),
    ("zeta_term", "n", 1, lambda v: zeta_term(3, v)),
    ("roots_of_unity", "m", 2, roots_of_unity),
    ("unity_gamma_product", "m", 2, lambda v: unity_gamma_product(v, 0.5, GammaProduct())),
    ("series_coefficient", "m", 2, lambda v: series_coefficient(v, 2)),
    ("series_coefficient", "n", 1, lambda v: series_coefficient(3, v)),
    ("product_coefficient", "m", 2, lambda v: product_coefficient(v, 2)),
    ("product_coefficient", "n", 1, lambda v: product_coefficient(3, v)),
    ("unity_product_pfd", "m", 2, lambda v: unity_product_pfd(v, 0.5, 10)),
    ("unity_product_pfd", "n_terms", 1, lambda v: unity_product_pfd(3, 0.5, v)),
    ("modulus_product", "n_factors", 1, lambda v: modulus_product(1.0, 0.5, v)),
    ("gamma_pfd_series", "n_terms", 1, lambda v: gamma_pfd_series(1.5, 0.3, v, "euler")),
    ("inverse_square_series", "n_terms", 1, lambda v: inverse_square_series(0.5, v, "euler")),
    ("p_poly", "d", 1, p_poly),
    ("q_poly", "d", 1, q_poly),
    ("sine_term", "n", 1, sine_term),
    ("hyperbolic_term", "n", 1, hyperbolic_term),
    ("inner_double_sum", "n", 1, inner_double_sum),
    ("tail_power_sum", "cutoff", 0, lambda v: tail_power_sum(2, v)),
]


def _index_cases(name, least):
    """(value, message) for a float, a non-integral and a too-small `name`."""
    return [(3.0, f"{name} must be an integer, got 3.0"),
            (2.5, f"{name} must be an integer, got 2.5"),
            (least - 1, f"{name} must be >= {least}, got {least - 1}")]


_INDEX_CASES = [(f"{func}-{name}-{value!r}", partial(call, value), re.escape(message))
                for func, name, least, call in _INDICES
                for value, message in _index_cases(name, least)]


@pytest.mark.parametrize("call,message", [
    (lambda: sum_alternating([], "euler"), "empty term list"),
    (lambda: sum_alternating([1.0], "bogus"), "unknown method 'bogus'"),
    (lambda: sum_alternating([1.0], ["x"]), r"unknown method \['x'\]"),
    (lambda: pfd_coefficients([]), "need at least one node"),
    (lambda: unity_gamma_product(3, 0.3, "gamma"), "unknown route"),
    (lambda: run_suite("bogus"), "unknown suite"),
    *((call, message) for _, call, message in _INDEX_CASES),
], ids=["sum_alternating", "sum_alternating-method", "sum_alternating-unhashable-method",
        "pfd_coefficients", "unity_gamma_product", "run_suite",
        *(case_id for case_id, _, _ in _INDEX_CASES)])
def test_invalid_input_raises_typed_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


# Each of these does float arithmetic on its real argument, where a Decimal
# would end in Python's own TypeError: it is taken as its float, to the bit.
@pytest.mark.parametrize("call,x", [
    (lambda x: inverse_square_series(x, 16, "none"), "0.5"),
    (trigamma, "1.5"),
    (zeta_oracle, "3"),
    (lambda x: tail_power_sum(x, 5), "3"),
], ids=["inverse_square_series", "trigamma", "zeta_oracle", "tail_power_sum"])
def test_decimal_argument_returns_the_value_of_its_float(call, x):
    assert repr(call(Decimal(x))) == repr(call(float(Decimal(x))))


@pytest.mark.parametrize("term", [zeta_term, sine_term, hyperbolic_term, inner_double_sum],
                         ids=lambda term: term.__name__)
def test_cached_term_checks_its_index_cold_and_warm(term):
    # Once 3 is cached, 3.0 still reaches the check: zeta_term's cache is typed,
    # and a one-argument cache keys an int apart from a float.
    call = partial(term, 3) if term is zeta_term else term
    term.cache_clear()
    for _ in range(2):
        for value, message in _index_cases("n", 1):
            with pytest.raises(DomainError, match=re.escape(message)):
                call(value)
        call(3)
