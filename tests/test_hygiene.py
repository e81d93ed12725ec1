"""Source hygiene checks that need no lint tool."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "artikit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unused_private_names(source: str) -> list:
    """Module-level private functions, classes and variables never read."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        defined[n.id] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(
        (line, name) for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def private_imports(source: str) -> list:
    """Private names a module takes from another artikit module: imported by
    name, or read as an attribute of an artikit module it imports."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "artikit"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
                elif node.module is None or node.module == "artikit":
                    modules.add(alias.asname or alias.name)
    found += [(n.lineno, f"{n.value.id}.{n.attr}") for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules
              and n.attr.startswith("_") and not n.attr.startswith("__")]
    return sorted(found)


def test_private_imports_are_detected():
    src = ("from . import jsonio, lie as L\nfrom .trackio import _require, lift_track\n"
           "from artikit.bounds import _x\nfrom os import _exit\n"
           "jsonio._private(L.exp_map, L.__doc__)\nL._q\n")
    assert private_imports(src) == [(2, "_require"), (3, "_x"), (5, "jsonio._private"), (6, "L._q")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_from_other_modules(path):
    assert private_imports(path.read_text()) == []


def test_unused_imports_are_detected():
    src = "import os\nimport sys\nfrom a import b, c as d\nprint(sys, d)\n"
    assert unused_imports(src) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_private_names_are_detected():
    src = (
        "_A = 1\n_B, c = 2, 3\n__all__ = []\n"
        "def _f():\n    return _A\n"
        "def _g():\n    pass\n"
        "class _C:\n    pass\n"
        "def h():\n    return _f()\n"
    )
    assert unused_private_names(src) == [(2, "_B"), (6, "_g"), (8, "_C")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_module_names(path):
    assert unused_private_names(path.read_text()) == []


def test_import_loads_no_scipy():
    """The runtime needs numpy and orjson only: scipy is a test dependency,
    and importing it would cost every command line call its start-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    code = "import sys, artikit, artikit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
