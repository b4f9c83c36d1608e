"""Tests for the package's export lists and its module layering."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import springback
from springback.bench import preset_spec, run_trial
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


def test_benchmark_tracer_finds_every_span():
    # perfbench/tracing.py wraps the package's functions by name and reads
    # admm_subproblem's warm= keyword and AdmmState.iterations; a name it
    # cannot find is reported absent, not raised
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(springback)
        run_trial(preset_spec("fig8", trials=1), 0, 0)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    admm = [s for s in tracer.spans if s[tracing.NAME] == "solvers.admm_subproblem"]
    assert admm and all(s[tracing.VALUE] is not None for s in admm)
    assert sum(s[tracing.VALUE][0] for s in admm) > 0


def test_failing_property_test_fails_alone(tmp_path):
    # Hypothesis writes a patch for a failing @given test through libcst,
    # whose import raises a DeprecationWarning from mypy_extensions; the
    # project's filterwarnings must not turn that into an INTERNALERROR that
    # stops the whole test run
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 10\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
