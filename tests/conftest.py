"""The `pythonpath` setting in pyproject.toml reaches only the pytest
process; export the same source directory so that the CLI tests' child
processes (`python -m omega_zeta.cli`) import it without an install."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
