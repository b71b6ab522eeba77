"""Invalid input to a library call ends in a typed OmegaZetaError, which
the CLI maps to its exit code, never in a bare ValueError."""

import pytest

from omega_zeta import OmegaZetaError, pfd_coefficients, sum_alternating, unity_gamma_product
from omega_zeta.verify import run_suite


@pytest.mark.parametrize("call,message", [
    (lambda: sum_alternating([], "euler"), "empty term list"),
    (lambda: sum_alternating([1.0], "bogus"), "unknown method 'bogus'"),
    (lambda: sum_alternating([1.0], ["x"]), r"unknown method \['x'\]"),
    (lambda: pfd_coefficients([]), "need at least one node"),
    (lambda: unity_gamma_product(3, 0.3, "gamma"), "unknown route"),
    (lambda: run_suite("bogus"), "unknown suite"),
], ids=["sum_alternating", "sum_alternating-method", "sum_alternating-unhashable-method",
        "pfd_coefficients", "unity_gamma_product", "run_suite"])
def test_invalid_input_raises_typed_error(call, message):
    with pytest.raises(OmegaZetaError, match=message):
        call()
