"""Every module of craterpipe uses each name it imports.

A name counts as used when the module reads it anywhere (an attribute
access on it included) or lists it in __all__. The package's __init__.py
only re-exports, so it is left out.
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
