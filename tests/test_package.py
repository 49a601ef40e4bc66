import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import homotopt

MODULES = [m.name for m in pkgutil.iter_modules(homotopt.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", ["homotopt"] + [f"homotopt.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


def test_python_m_homotopt_runs_the_cli():
    src = str(Path(homotopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "homotopt", "scalar-demos"],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert "PASS" in result.stdout and "FAIL" not in result.stdout
