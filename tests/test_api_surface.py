"""The library's public names and the functions the benchmark traces all resolve.

Deleting or renaming one fails here, before a traced bench run would.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import axialq

MODULES = [m.name for m in pkgutil.iter_modules(axialq.__path__)]
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"axialq.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_exist():
    tree = ast.parse(inspect.getsource(axialq))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"axialq.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(axialq, alias.name) is getattr(module, alias.name)


def test_bench_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for name, *_ in layers.TARGETS:
        layer, *path = name.split(".")
        owner = importlib.import_module(f"axialq.{layer}")
        if len(path) == 2:
            owner = getattr(owner, path[0], None)
        assert owner is not None and path[-1] in vars(owner), name
