"""Every exported name exists, the package re-exports only exported names,
every exception class is raised somewhere, and the modules that need no
array arithmetic do not import numpy."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import dehnfill
from dehnfill import certificates, envelope, errors, packing

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


def test_every_error_class_is_raised():
    raised = set()
    for path in Path(dehnfill.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    defined = [
        name for name, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__ and issubclass(cls, BaseException)
    ]
    assert defined
    assert [name for name in defined if name not in raised] == []


@pytest.mark.parametrize("name", [
    "certificates", "cli", "envelope", "errors", "packing", "slope_lattice", "torus_geometry",
])
def test_scalar_modules_do_not_import_numpy(name):
    path = Path(dehnfill.__file__).with_name(f"{name}.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported


def test_envelope_formulas_are_defined_once():
    for name in ("_dv_upper_from_z", "_dv_lower_from_z", "_area_from_z"):
        assert getattr(certificates, name) is getattr(envelope, name)
        assert getattr(envelope, name).__module__ == "dehnfill.envelope"
    assert certificates.Z0 is packing.Z0
    assert [n for n in ("H_prime", "G", "Gtilde") if hasattr(envelope, n)] == []
