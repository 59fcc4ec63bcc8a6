"""Slow oracles for literals in scripts: rational functions and
differential forms.

Rational functions: seeded expression trees over F_q(x_1..x_k), printed as
script text and evaluated with RatFunc's own operators.

The CLI evaluates a division-free subexpression as a polynomial and builds
one normalized RatFunc at each division; the oracle never does.  Leaves are
the field's variables, ``z`` over GF(p^e) with e > 1, the integers 0..6 and
the printed forms of random rational functions; the operators are
``+ - * /``, unary minus and ``^`` with exponents -2..3.  The text uses the
fewest parentheses the grammar needs, with a few more at random, so the
precedence of the reader is checked too.  A tree whose evaluation raises
expects the CLI to print that message.

Forms: seeded 1-forms and 2-forms built with ``form_from_terms``, some of
them closed (``cartier_inv`` images, and every form of top degree), are
printed and read back; the form read must equal the one printed, and
``cartier`` and ``nu`` on the text must answer what the library answers
on the form.  The CLI reads ``dx`` as a basis form and scales it, with no
derivative; the library builds the form from its coefficients directly.
"""

import io
import math
import random

from katoforge import KatoforgeError, dlog, form_from_terms, func_field, gf
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


# (declaration, (p, e) of the coefficient field, variables) for forms
FORM_FIELDS = (("GF(2)(x, y)", (2, 1), ("x", "y")),
               ("GF(3)(x, y)", (3, 1), ("x", "y")),
               ("GF(2,2)(x, y)", (2, 2), ("x", "y")),
               ("GF(3)(t)", (3, 1), ("t",)))


def form_inputs(count, seed):
    """[(declaration, field, [form])]: count nonzero forms over each field
    of FORM_FIELDS, of a degree from 1 to the number of variables, each
    form_from_terms of one or two index tuples in any order.  A quarter
    are form_from_terms of the terms of a wedge of dlogs instead, which is
    logarithmic, and a third of the other 1-forms are replaced by their
    closed cartier_inv image."""
    rng = random.Random(seed)
    out = []
    for spec, (p, e), vars in FORM_FIELDS:
        K = func_field(gf(p, e), vars)

        def rf():
            return random_ratfunc(rng, K, max_deg=2, max_terms=2)
        forms = []
        while len(forms) < count:
            degree = rng.randint(1, K.k)
            if rng.random() < 1 / 4:
                log = dlog(rf())
                for _ in range(degree - 1):
                    log = log.wedge(dlog(rf()))
                w = form_from_terms(K, degree, log.terms)
            else:
                w = form_from_terms(K, degree, {
                    tuple(rng.sample(range(K.k), degree)): rf()
                    for _ in range(rng.randint(1, 2))})
                if degree == 1 and rng.random() < 1 / 3:
                    w = w.cartier_inv()
            if not w.is_zero():
                forms.append(w)
        out.append((spec, K, forms))
    return out


def check_forms(inputs):
    """AssertionError unless `let w = <form>` prints the form and binds an
    equal one, and `cartier <form>` and `nu <form>` print the library's
    answers for it (for cartier, the message it raises on a form that is
    not closed)."""
    for spec, K, forms in inputs:
        script, expected = [f"field F = {spec}"], []
        for w in forms:
            script += [f"let w = {w!r}", f"cartier {w!r}", f"nu {w!r}"]
            try:
                cartier = f"cartier: {w.cartier()!r}"
            except KatoforgeError as exc:
                cartier = f"error: line {len(script) - 1}: {exc}"
            expected += [f"let: {w!r}", cartier, f"nu: {w.is_logarithmic()}"]
        buf = io.StringIO()
        run_script("\n".join(script), keep_going=True, out=buf)
        printed = buf.getvalue().splitlines()[1:]
        assert len(printed) == len(expected), spec
        for line, want, text in zip(printed, expected, script[1:]):
            assert line == want, (spec, text, line)
        session = Session()
        run_statement(script[0], 1, session, lambda *a: None)
        for n, w in enumerate(forms):
            run_statement(script[1 + 3 * n], 2 + 3 * n, session,
                          lambda *a: None)
            assert session.values["w"][1] == w, (spec, w)
