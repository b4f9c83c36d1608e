"""Tests for the package's export lists."""

import importlib
import inspect
import pkgutil

import springback


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
