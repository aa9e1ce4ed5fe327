"""The package runs on numpy and the standard library alone."""
import ast
import sys
from pathlib import Path

import streamformer

PACKAGE = Path(streamformer.__file__).parent
ALLOWED = {"numpy", "streamformer"}


def foreign_imports(root):
    """(file, module) of every import in the modules under root, at any
    depth of the code, that is not numpy, the standard library or the
    package itself (by name or relative)."""
    out = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            out += [(path.relative_to(root).as_posix(), name) for name in names
                    if name.split(".")[0] not in ALLOWED
                    and name.split(".")[0] not in sys.stdlib_module_names]
    return out


def test_package_imports_only_numpy_and_the_standard_library():
    assert foreign_imports(PACKAGE) == []


def test_foreign_import_check_bites(tmp_path):
    (tmp_path / "ok.py").write_text(
        "from __future__ import annotations\nimport json, numpy as np\n"
        "from numpy.linalg import norm\nfrom . import tensor\n")
    (tmp_path / "bad.py").write_text(
        "import os\n\ndef f():\n    import scipy.special\n"
        "    from torch import nn\n")
    assert foreign_imports(tmp_path) == [("bad.py", "scipy.special"),
                                         ("bad.py", "torch")]
