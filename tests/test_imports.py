"""Every name a module imports is used in it, every dataclass field is read,
and every private definition is referenced.

Standard-library checks, so the suite needs no linter: each module under
src/adol is parsed with ast.  A name that an import binds but the module
never references is reported; the package __init__ imports in order to
re-export, so it is not scanned for that.  A dataclass field whose name is
never read as an attribute (`.field`) anywhere in the package is reported
too, unless it is allowed below with its reason.  So is a module-level
`_private` function or class that nothing in the package references
outside its own definition, and so is a name in a library module's
`__all__` that no other module and no README python block reads, unless it
is allowed below with its reason.  The law of V's tables and cumulative
integrals are named in charfn alone.  Each dataclass that cli.py builds
by keyword gets every init field set there, and each defaulted parameter of
a public function is passed by a call outside its own module or by a README
python block.  Last, a fresh interpreter that
imports the CLI must not have loaded modules that no command needs, and
every function that the benchmark's tracer hooks is still defined, but for
the hooks known to be absent.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "adol"
README = SRC.parents[1] / "README.md"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# fields that are set but never read, each with the reason it stays
UNREAD_FIELDS_ALLOWED: dict[str, str] = {}


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


def _referenced(node: ast.AST) -> set[str]:
    """Every name that node reads, as a bare name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names |= {a.name for a in sub.names}
    return names


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """module.name for each module-level _private function or class that no
    top-level statement references, its own definition aside."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = _referenced(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.startswith("__"):
                defined.append((module, node.name))
                names.discard(node.name)
            used |= names
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_dead_definition_scanner_flags_only_unreferenced_privates():
    sources = {
        "a": ("import b\n"
              "def _called():\n"
              "    return _Kept()\n"
              "class _Kept:\n"
              "    pass\n"
              "def _recursive(n):\n"
              "    return _recursive(n - 1)\n"
              "def _left_over():\n"
              "    pass\n"
              "def public():\n"
              "    return _called() + b._by_attribute()\n"),
        "b": ("from a import _imported\n"
              "def _by_attribute():\n"
              "    pass\n"
              "def _imported():\n"
              "    pass\n"
              "def __dunder__():\n"
              "    pass\n"),
    }
    assert dead_definitions(sources) == ["a._left_over", "a._recursive"]


def test_every_private_definition_is_referenced():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_definitions(sources) == []


# the privates behind charfn's law of V (_v_law, _log_l): every other
# module reads V's step and L(t) through that law, never the tables
LAW_PRIVATES = {"_flow_tables", "_m_cum", "_nu_sq_cum"}


def law_leaks(sources: dict[str, str]) -> list[str]:
    """module.name for each LAW_PRIVATES name a module other than charfn
    references, as a bare name, an attribute or an import."""
    return sorted(f"{module}.{name}" for module, source in sources.items()
                  if module != "charfn"
                  for name in _referenced(ast.parse(source)) & LAW_PRIVATES)


def test_law_scanner_flags_only_references_outside_charfn():
    sources = {
        "charfn": ("def _m_cum(t):\n"
                   "    return t\n"
                   "tables = _flow_tables\n"),
        "pricing": "from .charfn import _v_law, _m_cum\n",
        "montecarlo": ("from . import charfn\n"
                       "x = charfn._nu_sq_cum(1.0)\n"),
        "cli": "doc = '_flow_tables'  # a string or a comment: _m_cum\n",
    }
    assert law_leaks(sources) == ["montecarlo._nu_sq_cum", "pricing._m_cum"]


def test_law_of_v_is_read_through_charfn_alone():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert law_leaks(sources) == []


def test_cli_import_loads_neither_executor_nor_logging():
    # `adol` runs as one short process per command, so every module the
    # import pulls in costs each run its start-up time and memory; the
    # Monte Carlo march's second half runs on a plain threading.Thread
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = ("import sys, adol.cli; print(sorted({'concurrent.futures', 'logging', "
             "'multiprocessing', 'mmap'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# hooks of perfbench/tracer.py whose function or cache the package no
# longer has; each reads 0 in the benchmark, with the reason it may
KNOWN_ABSENT_HOOKS = dict.fromkeys(
    ["pricing.fourier_price", "pricing.forward_cf", "montecarlo.mc_price",
     "numerics.integrate_ode", "charfn.cache.affine_unit_curve",
     "charfn.cache.green_build"], "ROADMAP item 1 drops them")


def test_no_live_tracer_hook_goes_absent():
    # a refactor that renamed or folded a hooked function once zeroed its
    # per-layer metric without a word; a hook may leave this set, not join it
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", SRC.parents[1] / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = {name for name, module, attr in tracer.HOOKS
              if getattr(importlib.import_module(module), attr, None) is None}
    charfn = importlib.import_module("adol.charfn")
    absent |= {f"charfn.cache.{cache}" for cache, attr in tracer.CACHES.items()
               if not hasattr(getattr(charfn, attr, None), "cache_info")}
    assert absent <= set(KNOWN_ABSENT_HOOKS)


# the dataclasses that cli.py builds by keyword, with their modules
CLI_BUILT = {"AdolModel": "model", "CorrectionConfig": "charfn",
             "FourierPricingSpec": "pricing", "McSpec": "montecarlo",
             "VarSwapSpec": "pricing"}


def call_keywords(source: str, names) -> dict[str, set[str]]:
    """For each of names, the keywords of every call to it in source."""
    found = {name: set() for name in names}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in found:
            found[node.func.id] |= {k.arg for k in node.keywords}
    return found


def test_keyword_scanner_collects_every_call():
    source = ("a = Spec(x=1)\n"
              "b = Spec(y=2, x=3)\n"
              "c = other.Spec(z=4)\n"
              "d = Other(w=5)\n")
    assert call_keywords(source, ["Spec", "Unused"]) == {"Spec": {"x", "y"}, "Unused": set()}


def test_every_setting_has_a_product_caller():
    # every init field of a dataclass that the command line builds is set
    # by it: a field no caller sets is a setting without a product user
    got = call_keywords((SRC / "cli.py").read_text(), CLI_BUILT)
    for name, module in CLI_BUILT.items():
        cls = getattr(importlib.import_module(f"adol.{module}"), name)
        assert got[name] == {f.name for f in dataclasses.fields(cls) if f.init}, name


def defaults_without_caller(functions: dict[str, tuple[str, inspect.Signature]],
                            sources: dict[str, str], examples: list[str]) -> list[str]:
    """module.function(param) for each defaulted parameter of `functions`
    (name -> defining module and signature) that no call passes, by
    position or by keyword, in another module's source or in an example."""
    passed = {name: set() for name in functions}
    for origin, source in [*sources.items(), *((None, example) for example in examples)]:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in functions or functions[name][0] == origin:
                continue
            bound = functions[name][1].bind_partial(
                *node.args, **{k.arg: k.value for k in node.keywords})
            passed[name] |= bound.arguments.keys()
    return sorted(f"{module}.{name}({param.name})"
                  for name, (module, sig) in functions.items()
                  for param in sig.parameters.values()
                  if param.default is not param.empty and param.name not in passed[name])


def test_default_scanner_flags_only_parameters_no_caller_passes():
    def f(a, b=1, c=2, *, d=3, e=4, g=5):
        pass

    sources = {
        "a": "f(0, 1, d=2)\n",  # its own module's calls do not count
        "b": "from .a import f\nf(0, 1)\n",
        "cli": "import a\na.f(0, e=9)\n",
    }
    examples = ["from adol.a import f\nf(0, g=1)\n"]
    assert defaults_without_caller({"f": ("a", inspect.signature(f))}, sources, examples) \
        == ["a.f(c)", "a.f(d)"]


def test_every_default_has_a_product_caller():
    # a defaulted parameter of a public function that neither the command
    # line, another module nor a README example passes is a setting without
    # a product user; the CLI's own functions are a front end, not library
    # surface
    sources = {p.stem: p.read_text() for p in MODULES}
    functions = {}
    for p in MODULES:
        if p.stem == "cli":
            continue
        module = importlib.import_module(f"adol.{p.stem}")
        functions |= {name: (p.stem, inspect.signature(getattr(module, name)))
                      for name in module.__all__
                      if inspect.isfunction(getattr(module, name))}
    examples = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert defaults_without_caller(functions, sources, examples) == []


# public names that no other module and no README example reads, each with
# the reason it stays public
PUBLIC_WITHOUT_READER = {
    "charfn.ResidualStats": "pde_residual returns it",
    "model.SmallParamReport": "small_param_check returns it",
    "montecarlo.PathStats": "mc_prices and mc_quadratic_variation return it",
    "montecarlo.simulate_q": "perfbench/mc_reference.py marches the Monte Carlo references with it",
}


def public_without_reader(sources: dict[str, str], examples: list[str]) -> list[str]:
    """module.name for each name in a library module's __all__ that no other
    module (cli included) and no example references."""
    refs = {module: _referenced(ast.parse(source)) for module, source in sources.items()}
    in_examples = set().union(*(_referenced(ast.parse(example)) for example in examples))
    unread = []
    for module, source in sources.items():
        if module == "cli":  # a front end: its __all__ is not library surface
            continue
        read = in_examples.union(*(names for other, names in refs.items() if other != module))
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
                unread += [f"{module}.{name}" for name in ast.literal_eval(node.value)
                           if name not in read]
    return sorted(unread)


def test_public_name_scanner_flags_only_names_without_a_reader():
    sources = {
        "a": ('__all__ = ["by_b", "by_cli", "in_example", "own_use", "unread"]\n'
              "def own_use():\n"
              "    return unread\n"),
        "b": ("from .a import by_b\n"
              '__all__ = ["Shown"]\n'),
        "cli": ("from . import a\n"
                "a.by_cli()\n"
                '__all__ = ["main"]\n'),
    }
    examples = ["from adol.a import in_example\nfrom adol.b import Shown\n"]
    assert public_without_reader(sources, examples) == ["a.own_use", "a.unread"]


def test_every_public_name_has_a_reader():
    sources = {p.stem: p.read_text() for p in MODULES}
    examples = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert public_without_reader(sources, examples) == sorted(PUBLIC_WITHOUT_READER)


def test_package_exports_the_union_of_module_exports():
    # each library module's __all__ is its public surface, and the package
    # re-exports exactly their union: no submodule names, no missing ones;
    # the CLI is a front end, not library surface
    import adol
    names = [name for p in MODULES if p.stem != "cli"
             for name in importlib.import_module(f"adol.{p.stem}").__all__]
    assert sorted(adol.__all__) == sorted(names)
    assert all(hasattr(adol, name) for name in names)
