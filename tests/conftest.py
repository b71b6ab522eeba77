"""The `pythonpath` setting in pyproject.toml reaches only the pytest
process; export the same source directory so that the CLI tests' child
processes (`python -m omega_zeta.cli`) import it without an install.
Also the fixture that captures the terms the Gamma series sum."""

import os
from pathlib import Path

import pytest

import omega_zeta.gamma_pfd as gamma_pfd_module
from omega_zeta.accel import sum_alternating

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def captured(monkeypatch):
    """Lists of terms that `gamma_pfd` passes to `sum_alternating`."""
    seen = []

    def capture(terms, method):
        seen.append(list(terms))
        return sum_alternating(terms, method)

    monkeypatch.setattr(gamma_pfd_module, "sum_alternating", capture)
    return seen
