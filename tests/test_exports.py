"""Every exported name exists and has a caller outside its module, every
function, class, method and module-level name in the package is read by
the code that ships or runs it, the package re-exports only exported
names, every exception class is raised somewhere, the modules that need no
array arithmetic do not import numpy, certificates, cli and packing do not
import dataclasses, cli reads nothing back out of argparse's internals, and
certificates alone writes JSON text."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import dehnfill
from dehnfill import certificates, envelope, errors, packing

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(dehnfill.__path__))
ROOT = Path(__file__).resolve().parents[1]

#: Exported names with no caller outside their module, each with its reason.
UNCALLED = {
    "mode_min_eigenvalue": "the per-mode eigenvalue whose minimum exact_min_b returns",
    "random_modes": "the draw that random_form makes; scan_min_b repeats its _draw in blocks",
    "EnvelopeBounds": "the return type of envelope_bounds",
    "FillingCertificate": "the return type of certify and full_certificate",
    "main": "console-script entry point in pyproject.toml",
}


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


def _dehnfill_imports(tree):
    """The local name of each name a source imports from dehnfill (``from
    dehnfill... import X``, or a relative import inside the package), and
    the name it imports."""
    return {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or node.module.split(".")[0] == "dehnfill") for alias in node.names
    }


def _referenced_names(source):
    """Every attribute a source reads, and every bare name it reads that it
    also imports from dehnfill (``from dehnfill... import X``, or a relative
    import inside the package): a name it defines itself is not a caller."""
    tree = ast.parse(source)
    imported = _dehnfill_imports(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in imported:
            names.add(imported[node.id])
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_a_local_name_is_not_a_caller():
    local = "def H(z):\n    return z\n\nH(0.5)\n"
    assert "H" not in _referenced_names(local)
    assert "H" in _referenced_names("from dehnfill.envelope import H\n\nH(0.5)\n")
    assert "H" in _referenced_names("from .envelope import H as area\n\narea(0.5)\n")
    assert "H" in _referenced_names("from dehnfill import envelope\n\nenvelope.H(0.5)\n")


def test_every_public_name_has_a_caller():
    """An exported name is used in src/, demos/ or perfbench/ outside its own
    module and the package's re-exports (read as an attribute, or as a bare
    name imported from dehnfill), or is listed in UNCALLED."""
    init = Path(dehnfill.__file__).resolve()
    names = {
        path.resolve(): _referenced_names(path.read_text(encoding="utf-8"))
        for d in ("src", "demos", "perfbench") for path in (ROOT / d).rglob("*.py")
    }
    uncalled = []
    for name in MODULES:
        module = importlib.import_module(f"dehnfill.{name}")
        own = Path(module.__file__).resolve()
        used = set().union(*(v for path, v in names.items() if path not in (own, init)))
        uncalled += [n for n in getattr(module, "__all__", ()) if n not in used]
    assert sorted(uncalled) == sorted(UNCALLED)


def _definitions(tree, prefix):
    """(qualified name, name) of every function, class and method in a module,
    at any depth, and of every name a module-level statement assigns; dunder
    names, which Python itself reads, are left out."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((prefix + node.name, node.name))
            found += _definitions(node, prefix + node.name + ".")
        elif prefix.count(".") == 1 and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(prefix + t.id, t.id) for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
        elif not isinstance(node, ast.expr):  # if, try, with and the like at any level
            found += _definitions(node, prefix)
    return [(qual, name) for qual, name in found if not name.startswith("__")]


def _reads(tree, own):
    """Every name a source reads: an attribute not assigned to, a string
    constant equal to a name (perfbench patches functions by name; a
    module's __all__ does not count), a bare name imported from dehnfill and,
    in the module's own file (own), any bare name it loads."""
    exported = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
                for node in ast.walk(stmt.value)}
    imported = _dehnfill_imports(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in exported:
            names.add(node.value)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if own:
                names.add(node.id)
            elif node.id in imported:
                names.add(imported[node.id])
    return names


def _unread_definitions(root):
    """Each definition under root/src/dehnfill that nothing in src/, demos/ or
    perfbench/ reads, tests aside, as module.qualified_name."""
    package = root / "src" / "dehnfill"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for d in ("src", "demos", "perfbench") for path in sorted((root / d).rglob("*.py"))}
    shared = set().union(*(_reads(tree, own=False) for tree in trees.values()))
    unread = []
    for path in sorted(package.glob("*.py")):
        read = shared | _reads(trees[path], own=True)
        unread += [qual for qual, name in _definitions(trees[path], path.stem + ".")
                   if name not in read]
    return unread


def test_definitions_from_its_own_source():
    tree = ast.parse(
        "X, (Y, _z) = 1, (2, 3)\n__all__ = ['f']\nif X:\n    W: int = 4\n"
        "class K:\n    V = 5\n    def m(self):\n        def inner():\n            pass\n"
        "def f():\n    U = 6\n"
    )
    assert _definitions(tree, "mod.") == [
        ("mod.X", "X"), ("mod.Y", "Y"), ("mod._z", "_z"), ("mod.W", "W"), ("mod.K", "K"),
        ("mod.K.m", "m"), ("mod.K.m.inner", "inner"), ("mod.f", "f"),
    ]


def test_what_counts_as_a_read():
    tree = ast.parse(
        "__all__ = ['exported']\nfrom dehnfill.cli import run\nobj.attr\nobj.stored = 1\n"
        "setattr(obj, 'patched', run)\nlocal(run)\n"
    )
    assert _reads(tree, own=False) == {"run", "attr", "patched"}
    assert _reads(tree, own=True) == {"run", "attr", "patched", "obj", "setattr", "local"}


def test_every_definition_is_read():
    """Every function, class, method and module-level name in src/dehnfill is
    read somewhere in src/, demos/ or perfbench/ other than its own
    definition: a name that only tests read is not part of the program."""
    assert _unread_definitions(ROOT) == []


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


def _imported_names(node):
    """The dotted names an absolute import statement binds or reads from:
    ``import a.b`` gives a.b, ``from a.b import c`` gives a.b and a.b.c."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
    return []


def _imported_modules(name):
    """The top-level packages that module dehnfill.<name> imports."""
    tree = ast.parse(Path(dehnfill.__file__).with_name(f"{name}.py").read_text(encoding="utf-8"))
    return {imported.split(".")[0] for node in ast.walk(tree) for imported in _imported_names(node)}


@pytest.mark.parametrize("name", [name for name in MODULES if name != "weitzenboeck"])
def test_scalar_modules_do_not_import_numpy(name):
    assert "numpy" not in _imported_modules(name)


@pytest.mark.parametrize("name", ["certificates", "cli", "packing"])
def test_results_are_not_dataclasses(name):
    """Every record that certificates returns, and cli reads, is a NamedTuple,
    and packing's numbers are plain module constants."""
    assert "dataclasses" not in _imported_modules(name)


def test_json_text_is_written_in_one_module():
    """certificates._json, the standard library's encoder, writes every
    certificate and report: certificates is the one module of dehnfill that
    imports json in any form, no module imports json.encoder (a hand-written
    writer's parts), and cli imports nothing from json and defines no _json."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(dehnfill.__file__).parent.glob("*.py")}
    imports = {(module, name) for module, tree in trees.items() for node in ast.walk(tree)
               for name in _imported_names(node) if name.split(".")[0] == "json"}
    assert {module for module, _ in imports} == {"certificates"}
    assert {name for _, name in imports if name.split(".")[:2] == ["json", "encoder"]} == set()
    assert "json" not in _imported_modules("cli")
    cli_nodes = list(ast.walk(trees["cli"]))
    defined = {node.name for node in cli_nodes if isinstance(node, ast.FunctionDef)}
    defined |= {node.id for node in cli_nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert "_json" not in defined


def test_envelope_formulas_are_defined_once():
    for name in ("_dv_upper_from_z", "_dv_lower_from_z", "_area_from_z"):
        assert getattr(certificates, name) is getattr(envelope, name)
        assert getattr(envelope, name).__module__ == "dehnfill.envelope"
    assert certificates.Z0 is packing.Z0
    assert [n for n in ("H_prime", "G", "Gtilde") if hasattr(envelope, n)] == []


#: Private attributes that cli reads of argparse or of its parsers, each with its reason.
ARGPARSE_PRIVATE = {
    "_check_value": "the leading-'--' refusal runs argparse's own check on the command "
                    "name, so the message is argparse's",
}


def test_cli_reads_its_commands_from_its_own_table():
    """cli declares each command and option once, in a table that both argparse
    and its fast reader read, so it reads nothing back out of argparse: no
    private attribute of the argparse module, and no _actions, _defaults or
    _option_string_actions of a parser.  A private attribute of a dehnfill
    module is cli's own package; every other one is listed above."""
    tree = ast.parse(Path(dehnfill.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    read = {  # (the name an attribute is read from, or None, and the attribute)
        (node.value.id if isinstance(node.value, ast.Name) else None, node.attr)
        for node in ast.walk(tree) if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.startswith("__")
    }
    assert {attr for owner, attr in read if owner == "argparse"} == set()
    assert {attr for _, attr in read} & {"_actions", "_defaults", "_option_string_actions"} == set()
    assert {attr for owner, attr in read if owner not in MODULES} == set(ARGPARSE_PRIVATE)
