"""Every module of craterpipe uses each name it imports, and every function
reads each parameter it takes.

A name counts as used when the module reads it anywhere (an attribute
access on it included) or lists it in __all__. The package's __init__.py
only re-exports, so it is left out. A parameter counts as read when the
function's body, nested functions included, reads its name; an abstract
method, which has no body to read it, is exempt, and so is a lambda.
"""

import ast
from pathlib import Path

import pytest

import craterpipe

MODULES = sorted(p for p in Path(craterpipe.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the module imports but never reads nor lists in __all__, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_names_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import os.path\n"
        "from .a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "def f(x: d) -> None:\n"
        "    return np.zeros(x)\n"
    )
    assert unused_imports(source) == ["os", "os", "b"]


def unread_parameters(source: str) -> list[str]:
    """function.parameter for each parameter a def never reads, in source order."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(getattr(d, "id", getattr(d, "attr", None)) == "abstractmethod" for d in node.decorator_list):
            continue
        args = node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg] if a]
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{node.name}.{name}" for name in params if name not in read]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_function_reads_every_parameter_it_takes(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameters_finds_parameters_never_read():
    source = (
        "import abc\n"
        "def f(a, b, *args, c=1, **kw):\n"
        "    def g(d):\n"
        "        return a + kw['x']\n"
        "    return g\n"
        "class C:\n"
        "    @abc.abstractmethod\n"
        "    def h(self, e): ...\n"
        "    def i(self, f):\n"
        "        self.f = 1\n"
    )
    assert unread_parameters(source) == ["f.b", "f.args", "f.c", "g.d", "i.f"]
