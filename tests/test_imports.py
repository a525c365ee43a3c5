"""Every name a module imports is used there or re-exported, and every name
the package promises exists.

No linter ships with the project, so this walks the syntax tree of every
Python file under src/, tests/ and scripts/.  A name counts as used when it
is read anywhere in the module or listed in its __all__; a package
__init__ re-exports everything it imports.  The names the package promises
are each module's __all__ and the functions the benchmark's tracer wraps
(perfbench/tracing.py, read without importing it).
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
# a package __init__ re-exports what it imports
FILES = sorted(p for d in ("src", "tests", "scripts")
               for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of every import binding the module never uses."""
    tree = ast.parse(source)
    bound = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return [(line, name) for line, name in bound if name not in used]


def test_unused_imports_names_only_the_unused():
    source = ("import os.path\nimport json\nfrom math import pi, tau as t\n"
              "__all__ = ['t']\nprint(pi, os.sep)\n")
    assert unused_imports(source) == [(2, "json")]


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def traced_names():
    """(layer, name) of every function perfbench/tracing.py wraps."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(
        encoding="utf-8"))
    traced = next(node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED"
                          for t in node.targets))
    return [(layer, name)
            for layer, names in ast.literal_eval(traced).items()
            for name in names]


MODULES = sorted(p.stem for p in (ROOT / "src" / "infosched").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("layer,name", traced_names(),
                         ids=[".".join(pair) for pair in traced_names()])
def test_every_traced_name_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"infosched.{layer}"),
                            name, None))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"infosched.{module}")
    exported = getattr(mod, "__all__", ())
    assert [n for n in exported if not hasattr(mod, n)] == []
