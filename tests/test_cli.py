import errno
import io
import json
import os
import random
import re
import shutil
from itertools import combinations

import pytest

from katoforge import (DiffForm, HClass, Laurent, MilnorElement, WittVector,
                       dlog, func_field, gf, laurent_field, witt)
from katoforge.cli import (MAX_NESTING, MAX_POWER_BITS, MAX_POWER_TERMS,
                           Parser, Session, cache_clear, cache_verify,
                           cache_warm, main, run_script, run_statement,
                           tokenize)

from conftest import random_ratfunc


def _parse_value(text, session, fieldname=None):
    p = Parser(tokenize(text, 1), session, 1, fieldname)
    v = p._coerce(p.expr())
    assert p.done(), f"trailing tokens in {text!r}"
    return v


def _session_with(*specs):
    s = Session()
    src = "\n".join(f"field {n} = {spec}" for n, spec in specs)
    rc = run_script(src, out=io.StringIO())
    assert rc == 0
    # rebuild: run_script uses its own session, so declare again by hand
    s = Session()
    for n, spec in specs:
        run_statement(f"field {n} = {spec}", 1, s, lambda *a: None)
    return s


def test_roundtrip_ratfunc_and_consts(rng):
    s = _session_with(("F", "GF(2)(t)"), ("G", "GF(3,2)(x, y)"))
    K = s.fields["F"]
    for _ in range(25):
        v = random_ratfunc(rng, K)
        assert _parse_value(repr(v), s, "F") == v
    G = s.fields["G"]
    for _ in range(25):
        v = random_ratfunc(rng, G, max_deg=2)
        assert _parse_value(repr(v), s, "G") == v


def test_roundtrip_laurent():
    s = _session_with(("K", "GF(2)((t))"))
    F2 = gf(2)
    v = Laurent(F2, -2, [F2.one, F2.zero, F2.one], 5)
    s.precision = 5
    got = _parse_value(repr(v), s, "K")
    assert got.val == v.val and got.coeffs == v.coeffs and got.prec == v.prec
    z = Laurent.zero(F2, 7)
    assert repr(z) == "O(t^7)"
    got = _parse_value(repr(z), s, "K")
    assert got.is_zero() and got.prec == 7


def test_roundtrip_witt_and_class(rng):
    s = _session_with(("F", "GF(2)(t)"))
    K = s.fields["F"]
    for _ in range(15):
        w = WittVector(2, (random_ratfunc(rng, K), random_ratfunc(rng, K)))
        assert _parse_value(repr(w), s, "F") == w
        b = random_ratfunc(rng, K)
        if b.is_zero():
            continue
        # degree 1, and degree 0, which prints as [ w | )
        for c in (HClass.build(K, w, (b,)), HClass.build(K, w, ())):
            got = _parse_value(repr(c), s, "F")
            if c.terms:
                assert (got.degree, got.terms) == (c.degree, c.terms)


def test_roundtrip_milnor_and_forms(rng):
    s = _session_with(("G", "GF(3)(x, y)"))
    G = s.fields["G"]
    x, y = G.var("x"), G.var("y")
    m = MilnorElement.symbol(G, [x, y]) + \
        MilnorElement.symbol(G, [x + y, y], 2)
    got = _parse_value(repr(m), s, "G")
    assert got.terms == m.terms
    w = dlog(x).wedge(dlog(y))
    assert _parse_value(repr(w), s, "G") == w
    f = DiffForm(G, 1, {(0,): x / (y + G.one)})
    assert _parse_value(repr(f), s, "G") == f


def _random_series(rng, F, nonzero=False):
    """A series over F with valuation in [-6, 3]; its precision may be
    negative, and it may be zero to that precision unless nonzero is set."""
    els = list(F.elements())
    n = rng.randint(1 if nonzero else 0, 6)
    coeffs = [rng.choice(els) for _ in range(n)]
    if nonzero:
        coeffs[0] = rng.choice(els[1:])
    val = rng.randint(-6, 3)
    return Laurent(F, val, coeffs, val + rng.randint(n if nonzero else 0,
                                                     n + 2))


def _function_field_values(rng, K):
    """Rational functions, forms of every degree (sums of 1-forms, dlog
    wedges, f dx^dy) and Milnor sums with integer coefficients over K."""
    def rf():
        return random_ratfunc(rng, K, max_deg=2, max_terms=2)
    values = [rf()]
    for degree in range(1, K.k + 1):
        indices = list(combinations(range(K.k), degree))
        chosen = rng.sample(indices, rng.randint(1, len(indices)))
        values.append(DiffForm(K, degree, {I: rf() for I in chosen}))
    a, b = rf(), rf()
    if not (a.is_zero() or b.is_zero()):
        values.append(dlog(a).wedge(dlog(b)))
        values.append(MilnorElement.symbol(K, [a, b], rng.randint(2, 5))
                      - MilnorElement.symbol(K, [b, K.var(K.vars[0])],
                                             rng.randint(1, 3)))
        values.append(MilnorElement.symbol(K, [a], -1)
                      + MilnorElement.symbol(K, [b], rng.randint(1, 4)))
    # a zero form or Milnor sum prints as 0, which reads back as a function
    return [v for v in values if repr(v) != "0"]


@pytest.mark.parametrize("spec,p,e,local", [
    ("GF(2,2)", 2, 2, False), ("GF(3,2)", 3, 2, False),
    ("GF(2,3)", 2, 3, False), ("GF(2,2)((t))", 2, 2, True),
    ("GF(3)((t))", 3, 1, True), ("GF(2)(x,y)", 2, 1, False),
    ("GF(3)(x,y)", 3, 1, False), ("GF(2,2)(x,y,w)", 2, 2, False),
])
def test_printed_values_read_back(spec, p, e, local):
    """``let x = <printed value>`` rebuilds the value and prints it again,
    for constants, series, Witt vectors and classes, and over F_q(x, ...)
    for rational functions, differential forms and Milnor symbols."""
    rng = random.Random(spec)
    F = gf(p, e)
    K = laurent_field(F) if local else F
    vars = re.fullmatch(r"GF\([\d,]+\)\(([a-z,]+)\)", spec)
    values = []
    if vars:
        K = func_field(F, tuple(vars[1].split(",")))
        for _ in range(6):
            values += _function_field_values(rng, K)

    def element(nonzero=False):
        if local:
            return _random_series(rng, F, nonzero)
        els = list(F.elements())
        return rng.choice(els[1:] if nonzero else els)

    for _ in range(0 if values else 12):
        values.append(element())
        w = WittVector(p, tuple(element() for _ in range(rng.randint(1, 2))))
        values.append(w)
        c = HClass.build(K, w, (element(nonzero=True),))
        # a zero class prints as 0, which reads back as a field element
        values += [x for x in (c, -c, c.int_mul(rng.randint(2, p * p)))
                   if x.terms]
    script = "\n".join([f"field F = {spec}"]
                       + [f"let x{n} = {v!r}" for n, v in enumerate(values)])
    assert _let_results(script, False)[1:] == [repr(v) for v in values]
    s = Session()
    for n, line in enumerate(script.splitlines(), 1):
        run_statement(line, n, s, lambda *a: None)
    for n, v in enumerate(values):
        got = s.values[f"x{n}"][1]
        assert (got.terms == v.terms if isinstance(v, (HClass, MilnorElement))
                else got == v), (v, got)


def test_negated_teichmueller_match_prints_zero():
    """-[ [2*t] | t ) over GF(3)(t) is [ [t] | t ), a Teichmueller match:
    it prints 0, as the class typed in directly and 0*c - c do."""
    script = ("field F = GF(3)(t)\n"
              "let c = [ [2*t] | t )\n"
              "let x = -[ [2*t] | t )\n"
              "let y = [ [t] | t )\n"
              "let z = 0*c - c\n")
    assert _let_results(script, False)[1:] == ["[ [2*t] | t )", "0", "0",
                                               "0"]


def test_json_deterministic():
    script = """
field F = GF(2)(t)
recip [ [1/t] | 1+t )
zero [ [t^2+t] | t )
dsym {t, t+1}
field L = GF(2)(u)
recip [ [u] | u^2+u+1 )
"""
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        rc = run_script(script, json_mode=True, out=buf)
        assert rc == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    lines = [json.loads(ln) for ln in outs[0].splitlines()]
    recip = next(l for l in lines if l["op"] == "recip")
    assert recip["result"]["ok"] is True
    assert recip["result"]["table"] == [
        {"place": "t", "inv": 1, "mod": 2},
        {"place": "t+1", "inv": 1, "mod": 2},
        {"place": "inf", "inv": 0, "mod": 2},
    ]


def test_error_reporting():
    buf = io.StringIO()
    rc = run_script("field F = GF(2)(t)\nlet x = (t", out=buf)
    assert rc == 1
    assert "line 2" in buf.getvalue()
    buf = io.StringIO()
    rc = run_script("field F = GF(2)(t)\nlet x = nosuch\nlet y = t",
                    keep_going=True, out=buf)
    assert rc == 1
    assert "let: t" in buf.getvalue()     # kept going past the error


@pytest.mark.parametrize("line", [
    "field G = GF(2)(t) junk here",
    "field G = GF(2)((t)) t",
    "recip [ [1/t] | 1+t ) junk",
    "inv [ [1/t] | 1+t ) junk at t",
    "inv [ [1/t] | 1+t ) at t junk",
    "zero [ [1/t] | 1+t ) )",
    "dsym {t} in",
    "dsym {t} t in F",
    "cartier dt t",
    "nu dt 1",
])
def test_statements_consume_their_line(line):
    for json_mode in (False, True):
        buf = io.StringIO()
        rc = run_script(f"field F = GF(2)(t)\n{line}", json_mode=json_mode,
                        out=buf)
        assert rc == 1
        last = buf.getvalue().splitlines()[-1]
        assert "line 2" in last and "trailing tokens" in last, last


@pytest.mark.parametrize("spec,line,message", [
    ("GF(2)(x,y)", "dsym {dx, x}",
     "a symbol needs field elements, not a differential form"),
    ("GF(2)(x,y)", "let a = {x, y} * {x, y}",
     "cannot multiply a symbol by a symbol"),
    ("GF(2)(x,y)", "let a = dx*dy",
     "cannot multiply a differential form by a differential form"),
    ("GF(2)(x,y)", "let a = dx/dy",
     "cannot divide a differential form by a differential form"),
    ("GF(2)(x,y)", "let a = dx/x",
     "cannot divide a differential form by a field element"),
    ("GF(2)(x,y)", "let a = [dx]",
     "a Witt vector needs field elements, not a differential form"),
    ("GF(2)((t))", "let k = [t] ^ 2", "cannot raise a Witt vector to a power"),
    ("GF(2)(t)", "cartier dt dt",
     "col 12: juxtaposed differentials: write dx^dy for their wedge"),
    ("GF(2)(x,y)", "cartier x dx dy",
     "col 14: juxtaposed differentials: write dx^dy for their wedge"),
    ("GF(2)(t)", "set precision 0", "set precision needs N >= 1"),
    ("GF(2)(t)", "set level 0", "set level needs i >= 1"),
])
def test_operation_errors_are_script_errors(spec, line, message):
    text = f"field F = {spec}\n{line}\nlet ok = 1"
    buf = io.StringIO()
    assert run_script(text, keep_going=True, out=buf) == 1
    err, ok = buf.getvalue().splitlines()[1:]
    sep = " " if message.startswith("col") else ": "
    assert err == f"error: line 2{sep}{message}" and ok.startswith("let: 1")
    buf = io.StringIO()
    assert run_script(text, json_mode=True, keep_going=True, out=buf) == 1
    err, ok = (json.loads(ln) for ln in buf.getvalue().splitlines()[1:])
    assert err["op"] == "error" and err["line"] == 2
    assert err["message"].endswith(message) and ok["op"] == "let"


def _let_results(text, json_mode):
    buf = io.StringIO()
    assert run_script(text, json_mode=json_mode, out=buf) == 0
    if json_mode:
        return [json.loads(ln)["result"] for ln in buf.getvalue().splitlines()]
    return [ln.split(": ", 1)[1] for ln in buf.getvalue().splitlines()]


@pytest.mark.parametrize("json_mode", [False, True])
def test_negative_precision_parses_back(json_mode):
    # a series known only modulo t^N with N < 0 prints as O(t^N)
    head = "field L = GF(2)((t))\nlet d = (t^-40 + O(t^2))^3"
    printed = _let_results(head, json_mode)[-1]
    assert printed == "t^-120 + O(t^-78)"
    script = f"{head}\nlet e = {printed}\nlet z = O(t^-3)"
    assert _let_results(script, json_mode)[1:] == [printed, printed,
                                                   "O(t^-3)"]
    s = Session()
    for n, line in enumerate(script.splitlines(), 1):
        run_statement(line, n, s, lambda *a: None)
    assert s.values["e"] == s.values["d"]
    assert s.values["z"][1].prec == -3


def test_script_file_and_precision_checks(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.kf")]) == 1
    err = capsys.readouterr().err
    assert "cannot read" in err and "missing.kf" in err
    assert "Traceback" not in err
    script = tmp_path / "s.kf"
    script.write_text("field F = GF(2)((t))\nlet a = 1/(1+t)\n")
    for bad in ("-3", "0", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["--precision", bad, str(script)])
        assert exc.value.code == 2
        assert "N >= 1" in capsys.readouterr().err
    assert main(["--precision", "3", str(script)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "let: 1 + t + t^2 + O(t^3)"


def test_field_declaration_checks():
    buf = io.StringIO()
    assert run_script("field F = GF(2)(t, t)", out=buf) == 1
    assert "repeated variable" in buf.getvalue()
    # series print in t, so a Laurent field in x could not read its output
    buf = io.StringIO()
    assert run_script("field G = GF(2)((x))\nlet a = x", out=buf,
                      keep_going=True) == 1
    lines = buf.getvalue().splitlines()
    assert lines[0] == "error: line 1: the Laurent field's variable must be t"


# one case per branch of the field declaration, then the usage errors of
# the statements that check their own shape
@pytest.mark.parametrize("line,message", [
    ('field F = GF', ': unexpected end of field declaration'),
    ('field F = Gf(2)', ': field declarations start with GF'),
    ('field F = GF[2]', ": expected '(' after GF"),
    ('field F = GF(x)', ': GF needs a prime'),
    ('field F = GF(2, x)', ': GF(p, e) needs an integer degree'),
    ('field F = GF(2]', ": expected ')' in GF(...)"),
    ('field F = GF(2)[t]', ": expected '(' for variables"),
    ('field F = GF(2)((1))', ': expected a variable name'),
    ('field F = GF(2)((t)', ": expected '))' closing the Laurent field"),
    ('field F = GF(2)((t]', ": expected '))' closing the Laurent field"),
    ('field F = GF(2)((t)]', ": expected '))' closing the Laurent field"),
    ('field F = GF(2)(1)', ': expected a variable name'),
    ('field F = GF(2)(t u)', ": expected ',' or ')'"),
    ('field F = GF(2)(t, u', ': unexpected end of field declaration'),
    ('field F = GF(2)(t) u', ': trailing tokens after field declaration'),
    ('field F = GF(2)((t)) u', ': trailing tokens after field declaration'),
    ('field', ': usage: field <name> = GF(p[,e])[(vars)]'),
    ('field F', ': usage: field <name> = GF(p[,e])[(vars)]'),
    ('field F =', ': usage: field <name> = GF(p[,e])[(vars)]'),
    ('field F GF(2)', ': usage: field <name> = GF(p[,e])[(vars)]'),
    ('field = GF(2)', ': usage: field <name> = GF(p[,e])[(vars)]'),
    ('field 1 = GF(2)', ': usage: field <name> = GF(p[,e])[(vars)]'),
    ('set', ': usage: set level|precision <int>'),
    ('set level', ': usage: set level|precision <int>'),
    ('set level x', ': usage: set level|precision <int>'),
    ('set foo 1', ': usage: set level|precision <int>'),
    ('set level 1 2', ': usage: set level|precision <int>'),
    ('set 2 level', ': usage: set level|precision <int>'),
    ('let', ': usage: let <name> = <expr>'),
    ('let a', ': usage: let <name> = <expr>'),
    ('let a =', ': usage: let <name> = <expr>'),
    ('let 1 = 2', ': usage: let <name> = <expr>'),
    ('let a b = 3', ': usage: let <name> = <expr>'),
    ('inv [ [1/t] | 1+t )', ': usage: inv <class> at <place>'),
    ('inv', ': usage: inv <class> at <place>'),
    ('1 + t', ': statements start with a keyword, got 1'),
    ('frobnicate t', ": unknown statement 'frobnicate'"),
])
def test_declaration_and_usage_errors(line, message):
    text = f"field F = GF(2)(t)\n{line}\nlet ok = 1"
    for json_mode in (False, True):
        buf = io.StringIO()
        assert run_script(text, json_mode=json_mode, keep_going=True,
                          out=buf) == 1
        err, ok = buf.getvalue().splitlines()[1:]
        if json_mode:
            assert json.loads(err) == {"op": "error", "line": 2,
                                       "message": "line 2" + message}
            assert json.loads(ok)["result"] == "1"
        else:
            assert (err, ok) == ("error: line 2" + message, "let: 1")


# '²' is a digit to str.isdigit but not to int, and '½' numeric: both
# start names, as they continue one in 't²'; '٣' is an Arabic-Indic 3
@pytest.mark.parametrize("line,printed", [
    ("let a = ²", "error: line 2 col 9: unknown name '²'"),
    ("let a = 2²", "error: line 2: trailing tokens after expression"),
    ("let a = ½", "error: line 2 col 9: unknown name '½'"),
    ("let a = ٣", "let: 1"),
    ("let a = é", "error: line 2 col 9: unknown name 'é'"),
    ("let a =\u00a0t", "error: line 2 col 8: unexpected character '\\xa0'"),
])
def test_odd_characters_print_errors(line, printed):
    text = f"field F = GF(2)(t)\n{line}"
    buf = io.StringIO()
    run_script(text, out=buf)
    assert buf.getvalue().splitlines()[1] == printed
    buf = io.StringIO()
    run_script(text, json_mode=True, out=buf)
    obj = json.loads(buf.getvalue().splitlines()[1])
    if printed.startswith("error: "):
        assert obj == {"op": "error", "line": 2,
                       "message": printed[len("error: "):]}
    else:
        assert obj["result"] == printed[len("let: "):]


@pytest.mark.parametrize("opener,closer,answer", [
    ("(", ")", "let: t"),
    ("[", "]", "error: line 2: a Witt vector needs field elements, "
               "not a Witt vector"),
    ("{", "}", "error: line 2: a symbol needs field elements, not a symbol"),
])
def test_nesting_is_bounded(opener, closer, answer):
    def last_line(depth):
        buf = io.StringIO()
        run_script(f"field F = GF(2)(t)\nlet a = "
                   f"{opener * depth}t{closer * depth}", out=buf)
        return buf.getvalue().splitlines()[-1]

    assert last_line(MAX_NESTING) == answer
    # the opener one level too deep is character 9 + MAX_NESTING
    assert last_line(MAX_NESTING + 1) == \
        f"error: line 2 col {9 + MAX_NESTING}: brackets nest deeper " \
        f"than {MAX_NESTING}"
    assert last_line(3000).endswith(f"brackets nest deeper than "
                                    f"{MAX_NESTING}")


def test_minus_signs_do_not_recurse():
    buf = io.StringIO()
    text = "field F = GF(3)(t)\n" + "\n".join(
        f"let a{n} = {'-' * n}t" for n in (2, 3000, 3001))
    assert run_script(text, out=buf) == 0
    assert buf.getvalue().splitlines()[1:] == ["let: t", "let: t",
                                               "let: 2*t"]


def test_powers_are_bounded():
    """An integer power stays an exact integer below 2^MAX_POWER_BITS; a
    power of a rational function is refused when its numerator or
    denominator could pass MAX_POWER_TERMS terms.  Refusals are one error
    line each and answer at once, whatever the exponent's size; powers of
    field elements and series are not bounded."""
    assert (MAX_POWER_BITS, MAX_POWER_TERMS) == (4096, 2048)
    # 3^2584 < 2^4096 <= 3^2585; (t^2+t+2)^1023 has degree 2046
    text = ("field F = GF(3)(t)\n"
            "let s = 3^2584 * {t, t+1}\n"
            "let a = 3^2585 * {t, t+1}\n"
            "let b = 3^999999999999\n"
            "let c = (t^2+t+2)^1023\n"
            "let d = (t^2+t+2)^1024\n"
            "let e = (t/(t^2+t+2))^-1024\n"
            "let f = (-1)^999999999999 + 0^999999999999 + 1^999999999999\n"
            "let g = 2^-999999999999\n"
            "field G = GF(101)(x, y)\n"
            "let h = (x+y+1)^44\n"
            "let i = (x+y+1)^45\n"
            "field L = GF(2)((t))\n"
            "let j = (t^-1+t)^1048576\n"
            "field K = GF(2,2)(t)\n"
            "let k = z^1000000000000")
    buf = io.StringIO()
    assert run_script(text, out=buf, keep_going=True) == 1
    lines = buf.getvalue().splitlines()
    assert lines[1] == f"let: {3 ** 2584}*{{t, t+1}}"
    too_big = "integer power of 4096 bits or more"
    too_many = "power with more than 2048 terms"
    assert lines[2:4] == [f"error: line 3: {too_big}",
                          f"error: line 4: {too_big}"]
    assert lines[4].startswith("let: t^2046+")
    assert lines[5:7] == [f"error: line 6: {too_many}",
                          f"error: line 7: {too_many}"]
    assert lines[7:9] == ["let: 0", "let: 2"]
    assert lines[10].startswith("let: x^44+")
    assert lines[11] == f"error: line 12: {too_many}"
    assert lines[13] == "let: t^-1048576 + O(t^-1048505)"
    assert lines[15] == "let: z"
    assert len(lines) == 16


@pytest.mark.parametrize("json_mode", [False, True])
def test_integer_literals_are_bounded(json_mode):
    """An integer literal stays below 2^MAX_POWER_BITS, as an integer power
    does, so every integer a script prints reads back; a run of 4,301
    digits, past what int() converts, is one error line, not a
    traceback."""
    big = str(2 ** MAX_POWER_BITS - 1)
    text = ("field F = GF(2)(t)\n"
            f"let a = {'1' * 4301}\n"
            f"let b = {2 ** MAX_POWER_BITS}\n"
            f"let c = {big} * {{t, t+1}}\n"
            "let d = 7")
    buf = io.StringIO()
    assert run_script(text, json_mode=json_mode, keep_going=True,
                      out=buf) == 1
    lines = buf.getvalue().splitlines()
    message = "col 9: integer of 4096 bits or more"
    if json_mode:
        rows = [json.loads(ln) for ln in lines]
        assert rows[1:3] == [{"op": "error", "line": n,
                              "message": f"line {n} {message}"}
                             for n in (2, 3)]
        assert [r["result"] for r in rows[3:]] == [f"{big}*{{t, t+1}}",
                                                   "1"]
    else:
        assert lines[1:] == [f"error: line 2 {message}",
                             f"error: line 3 {message}",
                             f"let: {big}*{{t, t+1}}", "let: 1"]


def test_teichmueller_relation_drops_the_uniformizer_at_any_precision():
    """Over F_q((t)) the coordinate t + O(t^5) and the entry t + O(t^9)
    are the one uniformizer t, so [t | t) is a relation and prints 0; a
    unit known to different precisions stays a term."""
    buf = io.StringIO()
    assert run_script("field L = GF(2)((t))\n"
                      "let c = [ [t + O(t^5)] | t + O(t^9) )\n"
                      "zero c\n"
                      "let u = [ [1 + t + O(t^5)] | 1 + t + O(t^9) )",
                      out=buf) == 0
    assert buf.getvalue().splitlines()[1:] == [
        "let: 0", "zero: True",
        "let: [ [1 + t + O(t^5)] | 1 + t + O(t^9) )"]


def test_zero_coordinates_known_below_the_residue_keep_their_term():
    """A coordinate zero only to O(t^0) is no evidence of a zero term:
    the term prints, and inv and zero refuse it alike; zero to O(t^1) it
    is dropped.  recip on a class over F_2(x, y) is refused by name."""
    buf = io.StringIO()
    assert run_script("field L = GF(3)((t))\n"
                      "let c = [ [O(t^0)] | t + O(t^3) )\n"
                      "inv c at t\n"
                      "zero c\n"
                      "let d = [ [O(t^1)] | t + O(t^3) )\n"
                      "field K = GF(2)(x, y)\n"
                      "recip [ [1/x] | y )",
                      keep_going=True, out=buf) == 1
    short = ("Witt coordinate 0 known to O(t^0); the level-1 residue reads "
             "it to O(t^1)")
    assert buf.getvalue().splitlines()[1:] == [
        "let: [ [O(t^0)] | t + O(t^3) )",
        f"error: line 3: {short}", f"error: line 4: {short}", "let: 0",
        "field: GF(2)(x, y)",
        "error: line 7: classes over GF(2)(x, y) have no invariants, "
        "which cover GF(q), F_q(t) and F_q((t)); zero tests answer above "
        "degree 2"]


ABOVE_THE_P_RANK = ("field F = GF(2)(t)\n"
                    "zero [ [t] | t, t+1 )\n"
                    "field L = GF(2)((t))\n"
                    "zero [ [1] | t, 1+t )\n"
                    "field K = GF(2)(x, y)\n"
                    "zero [ [1/x] | x, y, x+y )\n")


def test_zero_tests_above_the_p_rank_answer():
    """Degree 2 over F_2(t) and F_2((t)), whose p-rank is 1, and degree 3
    over F_2(x, y), whose p-rank is 2, are zero by theorem."""
    buf = io.StringIO()
    assert run_script(ABOVE_THE_P_RANK, out=buf) == 0
    lines = buf.getvalue().splitlines()
    assert lines[1::2] == ["zero: True"] * 3
    buf = io.StringIO()
    assert run_script(ABOVE_THE_P_RANK, json_mode=True, out=buf) == 0
    rows = [json.loads(ln) for ln in buf.getvalue().splitlines()]
    assert [row["result"] for row in rows if row["op"] == "zero"] == \
        [True] * 3


DEGREE_ZERO = ("field F = GF(2)(t)\n"
               "zero [ [1/t] | )\n"
               "zero [ [1/t^2 + 1/t] | )\n"
               "zero [ [1] | )\n"
               "zero [ [1/(t^2+t+1)^2 + 1/(t^2+t+1)] | )\n"
               "field G = GF(2, 2)(t)\n"
               "zero [ [1] | )\n"
               "zero [ [z] | )\n"
               "field L = GF(2)((t))\n"
               "zero [ [t^-1 + O(t^4)] | )\n"
               "zero [ [t^-2 + t^-1 + O(t^4)] | )\n")


def test_degree_zero_classes_are_written_and_tested():
    """[ w | ) is a degree-0 class: a simple pole is wild, a wp-image
    (1/t^2 + 1/t = wp(1/t), at t and at the degree-2 place t^2+t+1) is
    zero, and a constant is zero when its trace is: Tr 1 = 1 over F_2,
    0 over F_4, and Tr z = 1."""
    buf = io.StringIO()
    assert run_script(DEGREE_ZERO, out=buf) == 0
    answers = [ln for ln in buf.getvalue().splitlines() if ln[:5] == "zero:"]
    assert answers == [f"zero: {x}" for x in (False, True, False, True,
                                                True, False, False, True)]


def test_demo_05_residue_part_reads_back():
    """The residue part demo 05 prints over GF(4) is a class literal."""
    golden = os.path.join(os.path.dirname(__file__), "golden", "demos",
                          "05_local_field_decomposition.txt")
    with open(golden) as fh:
        line = next(ln for ln in fh if ln.startswith("residue part:"))
    text = line.split(":", 1)[1].strip()
    assert text == "[ [0, z+1] | )"
    got = _parse_value(text, _session_with(("F", "GF(2,2)")), "F")
    assert (got.degree, repr(got)) == (0, text)


def test_level_2_past_the_prime_bound_is_refused(monkeypatch):
    def refuse(p, i):
        raise AssertionError(f"generated W_{i} over F_{p}")

    monkeypatch.setattr(witt, "_generate", refuse)
    buf = io.StringIO()
    run_script("field F = GF(1000003)(t)\nlet w = [t, t] + [t, t]", out=buf)
    assert buf.getvalue().splitlines()[-1] == (
        "error: line 2: universal polynomials for p=1000003, i=2 exceed "
        "the bound (max i=1)")


def test_error_location_printed_once():
    buf = io.StringIO()
    run_script("field F = GF(2)(t)\nlet a = q", out=buf)
    # columns count from 1: q is the ninth character
    assert buf.getvalue().splitlines()[-1] == \
        "error: line 2 col 9: unknown name 'q'"
    buf = io.StringIO()
    run_script("field F = GF(2)(t)\nlet a = q", json_mode=True, out=buf)
    assert json.loads(buf.getvalue().splitlines()[-1]) == {
        "op": "error", "line": 2, "message": "line 2 col 9: unknown name 'q'"}
    buf = io.StringIO()         # errors outside the parser gain the line
    run_script("field F = GF(2)(t)\nlet a = 1/(t-t)", out=buf)
    assert buf.getvalue().splitlines()[-1].startswith("error: line 2: ")


def test_empty_input():
    buf = io.StringIO()
    assert run_script("", out=buf) == 0
    assert buf.getvalue() == ""


def test_cache_cycle(tmp_path):
    cdir = str(tmp_path)
    names = cache_warm(cdir, [(2, 2), (3, 1)])
    assert names == ["wittpoly-v1-p2-i1.txt", "wittpoly-v1-p2-i2.txt",
                     "wittpoly-v1-p3-i1.txt"]
    assert sorted(os.listdir(cdir)) == sorted(names)
    assert cache_verify(cdir) == sorted(names)
    # corruption is caught and named
    path = os.path.join(cdir, names[1])
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("-1", "-3", 1))
    from katoforge import VerifyMismatch
    with pytest.raises(VerifyMismatch) as exc:
        cache_verify(cdir)
    assert names[1] in str(exc.value)
    removed = cache_clear(cdir)
    assert removed == sorted(names)
    assert os.listdir(cdir) == []


def test_cache_errors_are_reported(tmp_path, capsys):
    from katoforge import CorruptCache
    cdir = str(tmp_path)
    # W_3 over F_11 is past max_structure_level(11)
    assert main(["cache", "warm", "--cache-dir", cdir, "--pairs", "11:3"]) == 1
    assert "exceed the bound" in capsys.readouterr().err
    (tmp_path / "wittpoly-v1-p2-i1.txt").write_bytes(b"\x00garbage\xff\n")
    with pytest.raises(CorruptCache):
        cache_verify(cdir)
    assert main(["cache", "verify", "--cache-dir", cdir]) == 1
    assert "wittpoly-v1-p2-i1.txt" in capsys.readouterr().err


@pytest.mark.parametrize("action,is_file,err", [
    ("verify", False, errno.ENOENT),
    ("clear", False, errno.ENOENT),
    ("warm", True, errno.EEXIST),
], ids=["verify-missing", "clear-missing", "warm-on-a-file"])
def test_cache_on_a_bad_directory(tmp_path, capsys, action, is_file, err):
    path = tmp_path / "cache"
    if is_file:
        path.write_text("")
    assert main(["cache", action, "--cache-dir", str(path)]) == 1
    assert capsys.readouterr().err \
        == f"katoforge: cache: {path}: {os.strerror(err)}\n"


@pytest.mark.parametrize("pairs,bad", [("2", "2"), ("2:x", "2:x"),
                                       ("2:3,", ""), ("2:3,3:1:4", "3:1:4")])
def test_malformed_pairs_are_usage_errors(tmp_path, capsys, pairs, bad):
    with pytest.raises(SystemExit) as exc:
        main(["cache", "warm", "--cache-dir", str(tmp_path), "--pairs", pairs])
    assert exc.value.code == 2
    assert f"{bad!r} is not a pair p:max_i" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_main_entry(tmp_path, capsys):
    script = tmp_path / "s.kf"
    script.write_text("field F = GF(2)(t)\ninv [ [1/t] | 1+t ) at t\n")
    rc = main(["--json", "--script", str(script)])
    out = capsys.readouterr().out
    assert rc == 0
    objs = [json.loads(ln) for ln in out.splitlines()]
    assert objs[-1]["result"] == {"place": "t", "inv": 1, "mod": 2}
    rc = main(["selftest", "--seed", "5"])
    assert rc == 0



@pytest.mark.parametrize("flag,command,check", [
    (["--json"], ["run", "s.kf"], lambda out: out.startswith('{"field"')),
    (["--precision", "3"], ["run", "s.kf"],
     lambda out: out.endswith("let: 1 + t + t^2 + O(t^3)\n")),
    (["--seed", "7"], ["selftest"], lambda out: out == "seed 7\n"),
    (["--cache-dir", "cache"], ["cache", "warm", "--pairs", "2:1"],
     lambda out: out == "wittpoly-v1-p2-i1.txt\n"),
], ids=["json", "precision", "seed", "cache-dir"])
def test_flags_before_and_after_the_subcommand(flag, command, check, tmp_path,
                                               monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KATOFORGE_CACHE", raising=False)
    monkeypatch.setattr("katoforge.cli.selftest",
                        lambda seed: print("seed", seed) or 0)
    (tmp_path / "s.kf").write_text("field F = GF(2)((t))\nlet a = 1/(1+t)\n")
    runs = [flag + command, command[:1] + flag + command[1:]]
    if command[0] == "run":
        runs.append(flag + command[1:])
    outs = set()
    for argv in runs:
        shutil.rmtree("cache", ignore_errors=True)
        assert main(argv) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1 and check(outs.pop())
