"""The demos import only names the package still has, and the quick ones
run.  Each `from streamformer... import name` must resolve; every demo
but 03, which trains for minutes, runs to exit 0 and prints something."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK = [p for p in DEMOS if not p.name.startswith("03_")]


def _package_imports(path):
    """(module, name, line) of every from-import of the package in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "streamformer"
            for alias in node.names]


def _resolves(module, name):
    """Whether `from module import name` would succeed: an attribute of
    the module, or a submodule of it."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    imports = _package_imports(path)
    assert imports, f"{path.name} imports nothing from streamformer"
    missing = [f"{path.name}:{line}: {module}.{name}"
               for module, name, line in imports
               if not _resolves(module, name)]
    assert not missing, missing


@pytest.mark.parametrize("path", QUICK, ids=[p.name for p in QUICK])
def test_quick_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
