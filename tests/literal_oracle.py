"""A slow oracle for rational-function literals in scripts: seeded
expression trees over F_q(x_1..x_k), printed as script text and evaluated
with RatFunc's own operators.

The CLI evaluates a division-free subexpression as a polynomial and builds
one normalized RatFunc at each division; the oracle never does.  Leaves are
the field's variables, ``z`` over GF(p^e) with e > 1, the integers 0..6 and
the printed forms of random rational functions; the operators are
``+ - * /``, unary minus and ``^`` with exponents -2..3.  The text uses the
fewest parentheses the grammar needs, with a few more at random, so the
precedence of the reader is checked too.  A tree whose evaluation raises
expects the CLI to print that message.
"""

import io
import math
import random

from katoforge import KatoforgeError, func_field, gf
from katoforge.cli import MAX_POWER_TERMS, Session, run_script, run_statement

from conftest import random_ratfunc

# (declaration, (p, e) of the coefficient field, variables)
FIELDS = (("GF(2)(t)", (2, 1), ("t",)), ("GF(3)(x, y)", (3, 1), ("x", "y")),
          ("GF(2,2)(t)", (2, 2), ("t",)),
          ("GF(5)(a, b, c)", (5, 1), ("a", "b", "c")))

ATOM, POWER, UNARY, TERM, SUM = 5, 4, 3, 2, 1   # how tightly a text binds


def _power(v, e):
    """v ** e, or the CLI's refusal when the numerator or denominator could
    pass MAX_POWER_TERMS terms (README, "Command line")."""
    terms = max(math.prod(abs(e) * f.degree_in(j) + 1 for j in range(f.nvars))
                for f in (v.num, v.den))
    if terms > MAX_POWER_TERMS:
        raise KatoforgeError(f"power with more than {MAX_POWER_TERMS} terms")
    return v ** e


def _apply(fn, *args):
    """fn(*args) for values; the first error message among args, or the one
    fn raises, otherwise.  The CLI reads left to right, so the first error
    in argument order is the one it prints."""
    for a in args:
        if isinstance(a, str):
            return a
    try:
        return fn(*args)
    except KatoforgeError as exc:
        return str(exc)


def random_tree(rng, K, depth):
    """(text, how tightly it binds, value): the value is the RatFunc the
    text denotes, or the message evaluating it raises."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(4)
        if kind == 0:
            name = rng.choice(K.vars)
            return name, ATOM, K.var(name)
        if kind == 1 and K.base.e > 1:
            return "z", ATOM, K.const(K.base.gen)
        if kind <= 1:
            n = rng.randint(0, 6)
            return str(n), ATOM, K.const(n)
        v = random_ratfunc(rng, K, max_deg=2, max_terms=2)
        return f"({v!r})", ATOM, v

    def operand(least):
        text, binds, v = random_tree(rng, K, depth - 1)
        if binds < least or rng.random() < 0.1:
            text = f"({text})"
        return text, v

    op = rng.choice("+-*/^~")
    if op == "^":
        (a, v), e = operand(POWER), rng.randint(-2, 3)
        return f"{a}^{e}", POWER, _apply(_power, v, e)
    if op == "~":
        a, v = operand(UNARY)
        return f"-{a}", UNARY, _apply(lambda x: -x, v)
    binds = SUM if op in "+-" else TERM
    (a, v), (b, w) = operand(binds), operand(binds + 1)
    fn = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
          "*": lambda x, y: x * y, "/": lambda x, y: x / y}[op]
    return f"{a}{op}{b}", binds, _apply(fn, v, w)


def literal_inputs(count, seed):
    """[(declaration, field, [(text, expected)])]: count trees of depth up
    to 3 over each field of FIELDS."""
    rng = random.Random(seed)
    out = []
    for spec, (p, e), vars in FIELDS:
        K = func_field(gf(p, e), vars)
        out.append((spec, K, [random_tree(rng, K, 3)[::2]
                              for _ in range(count)]))
    return out


def check_literals(inputs):
    """AssertionError unless `let value = <text>` binds the expected value
    and prints it, or prints the expected message as one error line."""
    for spec, K, trees in inputs:
        script = [f"field F = {spec}"] + [f"let value = {t}" for t, _ in trees]
        buf = io.StringIO()
        run_script("\n".join(script), keep_going=True, out=buf)
        printed = buf.getvalue().splitlines()[1:]
        session = Session()
        run_statement(script[0], 1, session, lambda *a: None)
        for n, ((text, want), line) in enumerate(zip(trees, printed), 2):
            if isinstance(want, str):
                assert line == f"error: line {n}: {want}", (spec, text, line)
                continue
            assert line == f"let: {want!r}", (spec, text, line)
            run_statement(script[n - 1], n, session, lambda *a: None)
            assert session.values["value"][1] == want, (spec, text)
        assert len(printed) == len(trees), spec
