"""Every exported name exists, and the package re-exports only exported names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dehnfill

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(dehnfill.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"dehnfill.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_reexports_are_in_module_all():
    tree = ast.parse(Path(dehnfill.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"dehnfill.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == [], node.module
