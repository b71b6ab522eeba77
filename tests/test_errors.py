"""Invalid input to a library call ends in a typed OmegaZetaError, which
the CLI maps to its exit code, never in a bare ValueError."""

import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import partial

import pytest

from omega_zeta import (
    DomainError,
    GammaProduct,
    PrecisionConfig,
    gamma,
    gamma_pair,
    gamma_pfd_series,
    hyperbolic_term,
    inverse_square_series,
    log_cosh,
    log_gamma,
    log_sin,
    log_sinh,
    modulus_product,
    p_poly,
    pfd_coefficients,
    pfd_residual,
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


# (function, argument, call taking that argument, whether it must be real)
_ARGUMENTS = [
    ("zeta_oracle", "s", zeta_oracle, True),
    ("tail_power_sum", "p", lambda v: tail_power_sum(v, 5), True),
    ("inverse_square_series", "q", lambda v: inverse_square_series(v, 16, "euler"), True),
    ("gamma_pfd_series", "a", lambda v: gamma_pfd_series(v, 0.3, 16, "euler"), True),
    ("gamma_pfd_series", "z", lambda v: gamma_pfd_series(1.5, v, 16, "euler"), False),
    ("modulus_product", "a", lambda v: modulus_product(v, 0.3, 5), True),
    ("modulus_product", "z", lambda v: modulus_product(1.5, v, 5), False),
    ("gamma_pair", "a", lambda v: gamma_pair(v, 0.2), False),
    ("gamma_pair", "z", lambda v: gamma_pair(1.5, v), False),
    ("trigamma", "x", trigamma, True),
    ("log_sinh", "x", log_sinh, True),
    ("log_cosh", "x", log_cosh, True),
    ("log_gamma", "z", log_gamma, False),
    ("gamma", "z", gamma, False),
    ("log_sin", "z", log_sin, False),
    ("unity_gamma_product", "z", lambda v: unity_gamma_product(3, v, GammaProduct()), False),
    ("unity_product_pfd", "z", lambda v: unity_product_pfd(3, v, 10), False),
    ("pfd_coefficients", "node 1", lambda v: pfd_coefficients([1.0, v]), False),
    ("pfd_residual", "x", lambda v: pfd_residual(pfd_coefficients([1.0, 2.0]), v), False),
    ("PrecisionConfig", "target_abs_error", lambda v: PrecisionConfig(target_abs_error=v), True),
]

# Not a number (a numeric string neither), a complex number where a real one
# is needed, an int past the double range, and the non-finite floats.
_NOT_NUMBERS = [("str", "1"), ("bytes", b"1"), ("None", None), ("complex", 1j),
                ("int-past-double-range", 10 ** 400), ("nan", math.nan), ("inf", math.inf)]

_ARGUMENT_CASES = [
    pytest.param(call, value, f"{name} must be a finite {'real ' if real else ''}number, "
                 f"got {value!r}", id=f"{func}-{name}-{label}")
    for func, name, call, real in _ARGUMENTS
    for label, value in _NOT_NUMBERS
    if real or label != "complex"]


@pytest.mark.parametrize("call,value,message", _ARGUMENT_CASES)
def test_argument_that_is_not_a_finite_number_is_a_domain_error(call, value, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(value)


def test_int_too_long_to_print_is_named_by_its_size():
    # repr refuses an int of over 4300 digits; the message gives its bit length.
    with pytest.raises(DomainError, match=r"^s must be a finite real number, got an int of 16610 bits$"):
        zeta_oracle(10 ** 5000)
    with pytest.raises(DomainError, match=r"^m must be >= 2, got an int of 16610 bits$"):
        roots_of_unity(-10 ** 5000)


# Each of these does float arithmetic on its real argument, where a Decimal
# would end in Python's own TypeError: it is taken as its float, to the bit,
# and so is a Fraction.
@pytest.mark.parametrize("call,x", [
    (lambda x: inverse_square_series(x, 16, "none"), "0.5"),
    (trigamma, "1.5"),
    (zeta_oracle, "3"),
    (lambda x: tail_power_sum(x, 5), "3"),
    (log_sinh, "30"),
    (log_cosh, "30"),
    (lambda x: gamma_pair(x, 0.2), "1.5"),
    (lambda x: gamma_pfd_series(x, 0.3, 16, "euler"), "1.5"),
    (lambda x: modulus_product(x, 0.3, 10), "1.5"),
], ids=["inverse_square_series", "trigamma", "zeta_oracle", "tail_power_sum",
        "log_sinh", "log_cosh", "gamma_pair", "gamma_pfd_series", "modulus_product"])
def test_decimal_argument_returns_the_value_of_its_float(call, x):
    for number in (Decimal(x), Fraction(x)):
        assert repr(call(number)) == repr(call(float(number)))


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
