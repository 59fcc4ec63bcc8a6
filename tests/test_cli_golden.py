"""The CLI's stdout on demos/session.kf (text and --json) and on
``selftest --seed 0``, byte for byte, against tests/golden/cli: a refactor
below the CLI must leave every printed value unchanged."""

import os
import pathlib
import subprocess
import sys

import pytest

import katoforge
from katoforge.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SESSION = str(ROOT / "demos" / "session.kf")
GOLDEN = ROOT / "tests" / "golden" / "cli"


@pytest.mark.parametrize("golden,argv", [
    ("session.txt", [SESSION]),
    ("session_json.txt", ["--json", SESSION]),
    ("selftest_seed0.txt", ["selftest", "--seed", "0"]),
])
def test_cli_stdout_matches_golden(capsys, golden, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(katoforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "katoforge", SESSION],
                         env=env, capture_output=True, check=True, timeout=120)
    assert out.stdout == (GOLDEN / "session.txt").read_bytes()
