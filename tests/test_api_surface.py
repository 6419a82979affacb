"""The library's public names and the functions the benchmark traces all resolve.

Deleting or renaming one fails here, before a traced bench run would.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

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


ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_public_names_have_a_caller():
    """Every name in a module's __all__ is read in src/axialq or named in bench/*.py
    (the bench names functions in strings), so no public function serves only tests."""
    read = set()
    for path in (ROOT / "src" / "axialq").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    read |= set(re.findall(r"\w+", "\n".join(p.read_text() for p in BENCH.glob("*.py"))))
    unreached = {f"{name}.{n}" for name in MODULES
                 for n in getattr(importlib.import_module(f"axialq.{name}"), "__all__", ())
                 if n not in read}
    assert unreached == set()


def test_public_methods_have_a_caller():
    """Every public method or property of a class that axialq defines and a module's __all__
    names is read in src/axialq or named in bench/*.py; NamedTuple fields are data."""
    read = set()
    for path in (ROOT / "src" / "axialq").glob("*.py"):
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute)}
    read |= set(re.findall(r"\w+", "\n".join(p.read_text() for p in BENCH.glob("*.py"))))
    kinds = (property, classmethod, staticmethod, type(lambda: 0))
    unreached = set()
    for name in MODULES:
        module = importlib.import_module(f"axialq.{name}")
        for n in getattr(module, "__all__", ()):
            cls = getattr(module, n)
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                unreached |= {f"{name}.{n}.{m}" for m, attr in vars(cls).items()
                              if not m.startswith("_") and isinstance(attr, kinds)
                              and m not in read}
    assert unreached == set()


# the package __init__ imports only to re-export; test_package_reexports_exist covers it
SOURCES = [p for p in sorted((ROOT / "src" / "axialq").glob("*.py")) if p.name != "__init__.py"] \
    + sorted((ROOT / "tests").glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, plus `__all__` and parameters (a test's
    parameter may name a fixture that an import provides)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    assert {n: line for n, line in _imported_names(tree).items() if n not in used} == {}
