"""Every name a module imports is used in it.

A standard-library check, so the suite needs no linter: each module under
src/adol is parsed with ast, and a name that an import binds but the module
never references is reported.  The package __init__ imports in order to
re-export, so it is not scanned.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "adol"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_scanner_flags_only_unreferenced_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from typing import Callable, Sequence\n"
              "def f(x: Callable) -> None:\n"
              "    return np.sum(x)\n")
    assert unused_imports(source) == ["Sequence", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
