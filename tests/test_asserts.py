"""``python -O`` strips asserts, so a library invariant guarded by one is
unchecked there; the count may only go down."""

import ast
import pathlib

import katoforge

from conftest import run_optimized

# asserts left in src/katoforge; lower this when one becomes a typed error
MAX_ASSERTS = 0


def test_assert_count_only_goes_down():
    src = pathlib.Path(katoforge.__file__).parent
    count = sum(isinstance(node, ast.Assert)
                for path in sorted(src.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text())))
    assert count <= MAX_ASSERTS


def test_former_asserts_raise_typed_errors_when_optimized():
    # each of these hung, built the wrong object, returned a wrong value or
    # died with an AttributeError while an assert guarded it
    code = (
        "from katoforge import (ASExtension, KatoforgeError, Laurent,\n"
        "                       WittVector, func_field, gf, witt_as_solve,\n"
        "                       witt_to_int)\n"
        "F2, F4 = gf(2), gf(2, 2)\n"
        "ext = ASExtension(func_field(F2, ('t',)))\n"
        "t = Laurent.monomial(F2, F2.one, 1)\n"
        "cases = [\n"
        "    ('descend', lambda: ext.descend_rf(ext.u)),\n"
        "    ('two-variable',\n"
        "     lambda: ASExtension(func_field(F2, ('x', 'y')))),\n"
        "    ('witt_to_int', lambda: witt_to_int(WittVector(2, (F4.gen,)))),\n"
        "    ('as_solve', lambda: witt_as_solve(WittVector(2, (t, t)))),\n"
        "]\n"
        "for name, call in cases:\n"
        "    try:\n"
        "        print(name, 'returned', call())\n"
        "    except KatoforgeError as exc:\n"
        "        print(name, type(exc).__name__)\n")
    assert run_optimized(code) == ("descend ConfigMismatch\n"
                                   "two-variable UnsupportedField\n"
                                   "witt_to_int UnsupportedField\n"
                                   "as_solve UnsupportedField\n")
