"""Tests for the package's export lists and its module layering."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import springback
from springback.penalties import ThresholdParams
from springback.solvers import SolverOptions


def test_export_lists_resolve():
    exported = set()
    for info in pkgutil.iter_modules(springback.__path__):
        mod = importlib.import_module(f"springback.{info.name}")
        # a module without an export list (errors) exports its public names
        names = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
        missing = [n for n in names if not hasattr(mod, n)]
        assert not missing, (info.name, missing)
        exported.update(names)
    public = [
        n for n, obj in vars(springback).items()
        if not n.startswith("_") and not inspect.ismodule(obj)
    ]
    # the package re-exports only names that some module exports
    assert sorted(set(public) - exported) == []


# Package modules each module imports.  Lower layers never import upper ones:
# in particular the solvers evaluate no recovery theory (bounds).
LAYERS = {
    "errors": set(),
    "linalg": {"errors"},
    "penalties": {"errors", "linalg"},
    "sensing": {"errors", "linalg"},
    "bounds": {"errors", "linalg", "penalties"},
    "solvers": {"errors", "linalg", "penalties"},
    "bench": {"errors", "penalties", "sensing", "solvers"},
    "cli": {"bench", "bounds", "errors", "penalties", "sensing", "solvers"},
    "__init__": {"bench", "bounds", "errors", "penalties", "sensing", "solvers"},
}


def _package_imports(path: Path) -> set[str]:
    """Sibling modules named by the relative imports of one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import x
                names.update(alias.name for alias in node.names)
    return names


def test_module_layering():
    root = Path(springback.__file__).parent
    found = {p.stem: _package_imports(p) for p in sorted(root.glob("*.py"))}
    assert sorted(found) == sorted(LAYERS)
    for module, imports in found.items():
        assert imports == LAYERS[module], module


def _attributes_read(tree: ast.AST, name: str, skip_class: str) -> set[str]:
    """Attributes read as ``<name>.<attr>`` outside the class ``skip_class``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == skip_class:
            continue
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == name
        ):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


# Every setting some solver or penalty reads; a field nothing reads is dead.
@pytest.mark.parametrize(
    "cls, name", [(SolverOptions, "opts"), (ThresholdParams, "params")]
)
def test_every_setting_is_read(cls, name):
    root = Path(springback.__file__).parent
    read = set()
    for path in sorted(root.glob("*.py")):
        read |= _attributes_read(ast.parse(path.read_text()), name, cls.__name__)
    fields = {f.name for f in dataclasses.fields(cls)}
    assert sorted(fields - read) == []
