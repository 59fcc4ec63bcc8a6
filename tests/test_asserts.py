"""``python -O`` strips asserts, so a library invariant guarded by one is
unchecked there; the count may only go down."""

import ast
import pathlib

import katoforge

# asserts left in src/katoforge; lower this when one becomes a typed error
MAX_ASSERTS = 12


def test_assert_count_only_goes_down():
    src = pathlib.Path(katoforge.__file__).parent
    count = sum(isinstance(node, ast.Assert)
                for path in sorted(src.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text())))
    assert count <= MAX_ASSERTS
