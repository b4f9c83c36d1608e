"""Tests for the package's export lists and its module layering."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import springback
from springback.bench import ExperimentSpec, preset_spec, run_trial
from springback.penalties import ThresholdParams
from springback.sensing import EnsembleSpec, SignalSpec
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


def test_finiteness_rule_is_written_once():
    # "positive (or nonnegative) and finite" is errors.check_positive's rule;
    # a module that raises its message itself keeps a copy of that rule
    root = Path(springback.__file__).parent
    copies = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and any(isinstance(c, ast.Constant) and "and finite" in str(c.value) for c in ast.walk(node))
    ]
    assert copies == []


def test_no_module_imports_scipy_at_module_level():
    # scipy's LAPACK is loaded where the first factor is built
    # (linalg._lapack), so a process that builds none, such as a sweep's
    # own, never loads it
    root = Path(springback.__file__).parent
    for path in sorted(root.glob("*.py")):
        imported = []
        stack = list(ast.parse(path.read_text()).body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append(node.module)
            stack.extend(ast.iter_child_nodes(node))
        assert [name for name in imported if name.split(".")[0] == "scipy"] == [], path.name


# Imports the package and its CLI, runs one mixed fig8 unit through
# run_experiment, then one trial in this process; prints whether scipy.linalg
# was loaded after each, and whether this process had loaded its LAPACK.
_FRESH_SWEEP = """\
import sys
from dataclasses import replace

sys.path.insert(0, sys.argv[1])
import springback.cli
from springback import bench, linalg

spec = bench.preset_spec("fig8", trials=1)
bench.run_experiment(replace(spec, sweep_values=spec.sweep_values[:1]))
print("scipy.linalg" in sys.modules, linalg._lapack.cache_info().currsize)
bench.run_trial(spec, 0, 0)
print("scipy.linalg" in sys.modules, linalg._lapack.cache_info().currsize)
"""


def test_a_sweeps_own_process_never_loads_scipy_linalg():
    # the lanes build every factor of a sweep, so the caller, which only
    # imports the package, reads specs and writes records, loads no LAPACK;
    # its first in-process factor loads scipy's _flapack alone, and no
    # process imports scipy.linalg
    src = str(Path(springback.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _FRESH_SWEEP, src], capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "0", "False", "1"]


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
    "cls, name",
    [
        (SolverOptions, "opts"),
        (ThresholdParams, "params"),
        (ExperimentSpec, "spec"),
        (EnsembleSpec, "spec"),
        (SignalSpec, "spec"),
    ],
)
def test_every_setting_is_read(cls, name):
    root = Path(springback.__file__).parent
    read = set()
    for path in sorted(root.glob("*.py")):
        read |= _attributes_read(ast.parse(path.read_text()), name, cls.__name__)
    fields = {f.name for f in dataclasses.fields(cls)}
    assert sorted(fields - read) == []


_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _assigned(node: ast.stmt) -> set[str]:
    """Names a top-level statement binds by assignment."""
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _names_read(tree: ast.Module) -> set[str]:
    """Names read bare or as ``<module>.<name>``, except in the value of the
    top-level assignment that binds them."""
    found = set()
    for top in tree.body:
        own = _assigned(top)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
    return found


def test_every_module_constant_is_read():
    # an upper-case name a module assigns at its top level is a setting or a
    # table; one that no code in the package reads is dead
    root = Path(springback.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    read = set().union(*map(_names_read, trees.values()))
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in sorted(set().union(*map(_assigned, tree.body)) - read)
        if _CONSTANT.fullmatch(name)
    ]
    assert unread == []


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
