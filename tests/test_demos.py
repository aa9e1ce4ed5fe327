"""The demos import only names the package still has.  They are parsed,
not run: each `from streamformer... import name` must resolve."""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
