"""Every demo prints exactly its golden output (tests/golden/demos)."""

import os
import pathlib
import subprocess
import sys

import pytest

import katoforge

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_matches_golden(demo):
    src = os.path.dirname(os.path.dirname(katoforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, str(demo)], env=env,
                         capture_output=True, check=True, timeout=120)
    assert out.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
