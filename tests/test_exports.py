"""The public surface: every exported name resolves.

A name left in an __all__ after its definition is deleted passes every
other test, because nothing imports it by name; a star import fails on it.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import craterpipe

MODULES = sorted(m.name for m in pkgutil.iter_modules(craterpipe.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"craterpipe.{name}")
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"craterpipe.{name}.__all__ names undefined {missing}"
    namespace = {}
    exec(f"from craterpipe.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(craterpipe.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert "pixel_to_meter_xy" in imported and "meter_to_pixel_xy" in imported
    missing = [n for n in imported if not hasattr(craterpipe, n)]
    assert not missing, f"craterpipe does not provide {missing}"

