"""Every name a module imports is used in it, and every dataclass field is read.

Standard-library checks, so the suite needs no linter: each module under
src/adol is parsed with ast.  A name that an import binds but the module
never references is reported; the package __init__ imports in order to
re-export, so it is not scanned for that.  A dataclass field whose name is
never read as an attribute (`.field`) anywhere in the package is reported
too, unless it is allowed below with its reason.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "adol"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# fields that are set but never read, each with the reason it stays
UNREAD_FIELDS_ALLOWED = {
    "SmallParamReport.margin": "a report echoes its input",
}


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if getattr(d, "id", getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def unread_fields(sources: list[str]) -> list[str]:
    """Class.field for each dataclass field no source reads as `.field`."""
    trees = [ast.parse(s) for s in sources]
    fields, read = [], set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [(node.name, st.target.id) for st in node.body
                           if isinstance(st, ast.AnnAssign)
                           and isinstance(st.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in read)


def test_field_scanner_flags_only_unread_fields():
    source = ("from dataclasses import dataclass\n"
              "import dataclasses\n"
              "@dataclass(frozen=True)\n"
              "class A:\n"
              "    kept: int\n"
              "    dropped: float = 0.0\n"
              "@dataclasses.dataclass\n"
              "class B:\n"
              "    written: int\n"
              "class Plain:\n"
              "    ignored: int\n"
              "def f(a, b):\n"
              "    b.written = a.kept\n")
    assert unread_fields([source]) == ["A.dropped", "B.written"]


def test_every_dataclass_field_is_read():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unread_fields(sources) == sorted(UNREAD_FIELDS_ALLOWED)
