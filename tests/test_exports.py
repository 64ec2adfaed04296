"""Every exported name exists, and the package re-exports only exported names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import quditpure

MODULES = sorted(info.name for info in pkgutil.iter_modules(quditpure.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_bound(module):
    mod = importlib.import_module(f"quditpure.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(quditpure.__file__).read_text())
    imports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imports
    stale = [
        f"{module}.{name}" for module, name in imports
        if name not in importlib.import_module(f"quditpure.{module}").__all__
    ]
    assert stale == []
