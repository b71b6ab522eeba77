"""The package's public names are exactly the library modules' `__all__`
lists, so adding or removing a public name is always deliberate."""

import inspect

import omega_zeta
from omega_zeta import (
    accel,
    errors,
    gamma_pfd,
    oracle,
    pfd,
    special,
    unity_product,
    zeta3,
    zeta_series,
)
from omega_zeta.verify import CheckResult

LIBRARY_MODULES = (accel, gamma_pfd, oracle, pfd, special, unity_product,
                   zeta3, zeta_series)


def test_package_exports_exactly_the_modules_all():
    declared = set().union(*(module.__all__ for module in LIBRARY_MODULES))
    error_names = {name for name in vars(errors) if not name.startswith("_")}
    exported = {name for name, value in vars(omega_zeta).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported - error_names == declared


def test_records_are_named_tuples():
    # one mechanism: immutable, hashable, equal to a plain tuple of their fields
    for record in (omega_zeta.ConvergenceReport, omega_zeta.PrecisionConfig,
                   omega_zeta.PfdResult, CheckResult):
        assert issubclass(record, tuple) and record._fields
