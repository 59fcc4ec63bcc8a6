"""Each katoforge module imports on its own, before the package's
``__init__`` has imported the rest, so an import cycle between modules
(such as gf -> poly -> mpoly) fails here."""

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
