"""The CLI's stdout on demos/session.kf (text and --json) and on the error
script tests/golden/cli/errors.kf (--keep-going, text and --json), byte for
byte, against tests/golden/cli: a refactor below the CLI must leave every
printed value and error unchanged."""

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
ERRORS = str(GOLDEN / "errors.kf")


@pytest.mark.parametrize("golden,argv", [
    ("session.txt", [SESSION]),
    ("session_json.txt", ["--json", SESSION]),
])
def test_cli_stdout_matches_golden(capsys, golden, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("golden,argv", [
    ("errors.txt", ["--keep-going", ERRORS]),
    ("errors_json.txt", ["--keep-going", "--json", ERRORS]),
])
def test_cli_errors_match_golden(capsys, golden, argv):
    assert main(argv) == 1
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


def test_python_dash_m_runs_the_cli(tmp_path):
    # a run writes no structure files: the directory KATOFORGE_CACHE names
    # stays empty
    src = os.path.dirname(os.path.dirname(katoforge.__file__))
    env = dict(os.environ, PYTHONPATH=src, KATOFORGE_CACHE=str(tmp_path))
    out = subprocess.run([sys.executable, "-m", "katoforge", SESSION],
                         env=env, capture_output=True, check=True, timeout=120)
    assert out.stdout == (GOLDEN / "session.txt").read_bytes()
    assert os.listdir(tmp_path) == []
