"""Every name a module imports is used there or re-exported, every name
the package promises exists, each has one import path, every function,
class and method the package defines is run by something, and every
module-level UPPER_CASE constant under src/ or scripts/ is read by code
there.

No linter ships with the project, so this walks the syntax tree of every
Python file under src/, tests/ and scripts/.  A name counts as used when it
is read anywhere in the module or listed in its __all__.  The names the
package promises are each module's __all__ and the functions the
benchmark's tracer wraps (perfbench/tracing.py, read without importing it).
A public name is imported from the module that defines it: the package root
binds only __version__, and `from infosched import X` names a submodule.
A top-level definition of the package, and each non-dunder method of its
top-level classes, is read by code under src/ outside its own body, or
wrapped by the tracer; a name only scripts or tests read belongs with them,
not in the package.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "scripts")
               for p in (ROOT / d).rglob("*.py"))


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


def test_package_root_binds_only_the_version():
    tree = ast.parse((ROOT / "src" / "infosched" / "__init__.py").read_text(
        encoding="utf-8"))
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom))
                   for node in ast.walk(tree))
    bound = [target.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets]
    assert bound == ["__version__"]
    assert all(isinstance(node, (ast.Expr, ast.Assign)) for node in tree.body)


def root_imports(source, package=False):
    """Names imported from the package root: `from infosched import X`, and
    `from . import X` in a module of the package."""
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and ((node.level == 0 and node.module == "infosched")
                 or (package and node.level == 1 and node.module is None))
            for a in node.names]


def test_root_imports_names_only_root_imports():
    source = ("from infosched import cli, model as m\nfrom . import bounds\n"
              "from infosched.model import Instance\nimport infosched.cdkf\n")
    assert root_imports(source) == ["cli", "model"]
    assert root_imports(source, package=True) == ["cli", "model", "bounds"]


ROOTED = sorted(p for d in ("src", "tests", "scripts", "perfbench")
                for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", ROOTED,
                         ids=[str(p.relative_to(ROOT)) for p in ROOTED])
def test_package_root_imports_name_submodules(path):
    package = path.parent == ROOT / "src" / "infosched"
    names = root_imports(path.read_text(encoding="utf-8"), package)
    assert [n for n in names if n not in MODULES] == []


def read_names(tree):
    """Every name and attribute that the syntax tree reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def dead_definitions(modules, traced):
    """(module, name) of every top-level function or class of modules
    ({module: source}), and (module, "Class.method") of every non-dunder
    method of a top-level class, that no code in modules reads outside its
    own body, and that traced ((module, name) pairs) lacks."""
    read, defined = set(), []
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            parts = [stmt]
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                parts = (stmt.decorator_list + stmt.bases + stmt.keywords
                         + stmt.body)
            for part in parts:
                names = read_names(part)
                names.discard(getattr(stmt, "name", None))
                if part is not stmt and isinstance(part, ast.FunctionDef) \
                        and not part.name.startswith("__"):
                    defined.append((module, f"{stmt.name}.{part.name}"))
                    names.discard(part.name)
                read |= names
    return [pair for pair in defined
            if pair[1].split(".")[-1] not in read and pair not in traced]


def test_dead_definitions_names_only_the_unread():
    modules = {"m": ("def used(): pass\ndef dead(): dead()\n"
                     "class Traced: pass\ndef called(): pass\nused()\n"
                     "class C:\n    def __init__(self): self.kept()\n"
                     "    def kept(self): pass\n"
                     "    @property\n    def size(self): pass\n"
                     "    def gone(self): return self.gone()\n"),
               "n": "import m\nm.called()\nm.C().size\n"}
    assert dead_definitions(modules, {("m", "Traced")}) == [
        ("m", "dead"), ("m", "C.gone")]


def test_every_definition_is_run_by_something():
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in (ROOT / "src").rglob("*.py")}
    assert dead_definitions(modules, set(traced_names())) == []


def unread_constants(sources):
    """(module, name) of every module-level UPPER_CASE constant of sources
    ({module: source}) that no source reads.  An assignment stores its
    targets, so a constant counts as read only where it is loaded."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                       else [])
            defined += [(module, node.id) for target in targets
                        for node in ast.walk(target)
                        if isinstance(node, ast.Name) and node.id.isupper()]
        read |= {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 or (isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load))}
    return [pair for pair in defined if pair[1] not in read]


def test_unread_constants_names_only_the_unread():
    sources = {"m": ("LIMIT = 3\nTOL: float = 1e-9\nLO, HI = 0, 1\n"
                     "lower = 2\nDEAD = 4\n__all__ = []\n"
                     "def f(x=LO):\n    return x < LIMIT\n"),
               "n": "import m\nprint(m.TOL, HI)\n"}
    assert unread_constants(sources) == [("m", "DEAD")]


def test_every_constant_is_read_by_something():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for d in ("src", "scripts") for p in (ROOT / d).rglob("*.py")}
    assert unread_constants(sources) == []
