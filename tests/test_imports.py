"""Each katoforge module imports on its own, before the package's
``__init__`` has imported the rest, so an import cycle between modules
(such as gf -> poly -> mpoly) fails here."""

import ast
import functools
import os
import pathlib
import subprocess
import sys

import pytest

import katoforge

SRC = pathlib.Path(katoforge.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py")
                 if path.stem != "__init__")

# registers the package without running its __init__, then imports one module
CODE = ("import importlib, sys, types\n"
        "pkg = types.ModuleType('katoforge')\n"
        "pkg.__path__ = [{src!r}]\n"
        "sys.modules['katoforge'] = pkg\n"
        "importlib.import_module('katoforge.{name}')\n")


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    out = subprocess.run(
        [sys.executable, "-c", CODE.format(src=str(SRC), name=name)],
        env=dict(os.environ, PYTHONPATH=""), capture_output=True, text=True,
        timeout=60)
    assert out.returncode == 0, out.stderr


@functools.cache
def _trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _loaded_names(tree):
    """Names read in tree, as plain names or as attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_library_imports_are_used():
    unused = []
    for name, tree in _trees().items():
        if name == "__init__":
            continue
        used = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused, unused


def test_private_names_are_referenced():
    """Every private top-level def, class or assignment in the library is
    read somewhere in it, so dead helpers do not accumulate."""
    trees = _trees()
    referenced = set()
    for tree in trees.values():
        referenced |= _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{name}: {d}" for d in defined
                     if d.startswith("_") and not d.startswith("__")
                     and d not in referenced]
    assert not dead, dead


def test_one_binary_powering_loop():
    """binary_power is the only library function that right-shifts a value
    in a loop, so every ring's powers and multiples go through it."""
    shifting = []
    for name, tree in _trees().items():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for loop in ast.walk(func):
                if isinstance(loop, (ast.While, ast.For)) and any(
                        isinstance(node, ast.AugAssign)
                        and isinstance(node.op, ast.RShift)
                        for node in ast.walk(loop)):
                    shifting.append(f"{name}.{func.name}")
                    break
    assert shifting == ["power.binary_power"], shifting


def test_field_elements_compute_through_the_tables():
    """GFElem reads no coefficient vector: every operation is a read of the
    field's code tables, so there is no second, digit-by-digit path."""
    tree = _trees()["gf"]
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "GFElem")
    readers = sorted({func.name for func in cls.body
                      if isinstance(func, ast.FunctionDef)
                      for node in ast.walk(func)
                      if isinstance(node, ast.Attribute)
                      and node.attr == "coeffs"
                      and isinstance(node.ctx, ast.Load)})
    assert not readers, readers
