"""Line-oriented expression language and batch runner.

Statements (one per line, ``#`` comments):

    field F = GF(2)(t)          declare GF(q), GF(q)(vars), or GF(q)((t))
    let a = (t^2+t)/(t+1)       bind a value in the current field
    dsym {t, t+1} [in F]        differential symbol of a Milnor element
    inv [ [1/t] | 1+t ) at t    local invariant of a degree-1 class
    recip [ [1/t] | 1+t )       full invariant table and reciprocity sum
    zero <class>                zero test on the supported field classes
    cartier <form>              Cartier operator of a closed form
    nu <form>                   logarithmic-form membership test
    set level <i>               level that class literals are shifted up to
    set precision <N>           default Laurent precision

Expressions cover field arithmetic (+ - * / ^), Witt literals ``[a0, a1]``,
symbols ``{a, b}``, classes ``[ w | b1, b2 )``, differential forms written
``f dt`` / ``x/(y+1) dx^dy``, and Laurent literals ``t^-2 + 1 + O(t^5)``.
``--json`` turns every result into one deterministic JSON object per line.

A line is cut into tokens by one pattern (``_TOKEN``) and each statement
reads its tokens through one ``Cursor``; ``Parser`` is the cursor that
knows the grammar.  Brackets nest at most ``MAX_NESTING`` deep, integer
literals and powers are bounded by ``MAX_POWER_BITS``, and powers also by
``MAX_POWER_TERMS``.  Bad input
raises a ``KatoforgeError``, which ``run_script`` prints as one line
``error: line N ...``.
"""

import argparse
import json
import math
import operator
import os
import random
import re
import sys
import tempfile

from .errors import (ConfigMismatch, CorruptCache, KatoforgeError,
                     ScriptError, UnknownName, VerifyMismatch)
from .forms import DiffForm, d_of_function
from .gf import GF, gf
from .kato import (HClass, LaurentField, laurent_field, level_shift,
                   local_invariant, reciprocity_check, h_zero_test)
from .laurent import Laurent
from .milnor import MilnorElement, d_symbol
from .mpoly import MPoly
from .places import Place, residue_table
from .poly import Poly, to_dense
from .rational import FuncField, RatFunc, func_field
from .witt import WittStructure, WittVector, witt_structure

# ----------------------------------------------------- lexer, cursor ----

# a digit is what int() reads, any Unicode decimal digit; a name is a run of
# word characters that does not start with one, so '²' and 't²' are names;
# whitespace is space and tab, and any other character is an error
_TOKEN = re.compile(r"""[ \t]+ | (?P<int>\d+) | (?P<name>[^\W\d]\w*)
                        | (?P<punct>[][(){},|+*/^=-]) | (?P<comment>\#)
                        | (?P<bad>.)""", re.S | re.X)


def tokenize(line, lineno):
    """The (kind, value, column from 0) tokens of line before any comment;
    a punctuation token is its own kind."""
    out = []
    for m in _TOKEN.finditer(line):
        kind, text, col = m.lastgroup, m.group(), m.start()
        if kind == "comment":
            break
        if kind == "bad":
            raise ScriptError(f"unexpected character {text!r}", lineno,
                              col + 1)
        if kind == "int":
            # a literal stays below 2^MAX_POWER_BITS, as an integer power
            # does; a run of more digits than that has bits is not read
            n = int(text) if len(text) <= MAX_POWER_BITS else None
            if n is None or n.bit_length() > MAX_POWER_BITS:
                raise ScriptError(f"integer of {MAX_POWER_BITS} bits or "
                                  f"more", lineno, col + 1)
            out.append(("int", n, col))
        elif kind == "name":
            out.append(("name", text, col))
        elif kind == "punct":
            out.append((text, text, col))
    return out


class Cursor:
    """Reads a statement's tokens front to back."""

    what = "statement"      # running out of tokens: "unexpected end of <what>"

    def __init__(self, tokens, lineno):
        self.toks = tokens
        self.pos = 0
        self.lineno = lineno

    def peek(self, k=0):
        if self.pos + k < len(self.toks):
            return self.toks[self.pos + k]
        return (None, None, None)

    def next(self):
        t = self.peek()
        if t[0] is None:
            raise ScriptError(f"unexpected end of {self.what}", self.lineno)
        self.pos += 1
        return t

    def take(self, kind):
        """The next token, consumed, if it is of kind; None otherwise."""
        t = self.peek()
        if t[0] != kind:
            return None
        self.pos += 1
        return t

    def expect(self, kind, message=None):
        """The next token, which must be of kind: ScriptError otherwise,
        with message if given, else naming the token at its column."""
        t = self.next()
        if t[0] != kind:
            if message:
                raise ScriptError(message, self.lineno)
            raise ScriptError(f"expected {kind!r}, got {t[1]!r}",
                              self.lineno, t[2] + 1)
        return t

    def rest(self):
        """The unread tokens, all consumed."""
        toks, self.pos = self.toks[self.pos:], len(self.toks)
        return toks

    def done(self):
        return self.pos >= len(self.toks)

    def whole(self, parse):
        """parse(), which must consume the rest of the statement."""
        v = parse()
        if not self.done():
            raise ScriptError("trailing tokens after expression", self.lineno)
        return v


# ----------------------------------------------------------- session ----

_KINDS = ((MilnorElement, "a symbol"), (HClass, "a class"),
          (WittVector, "a Witt vector"), (DiffForm, "a differential form"))
_ELEMENT = "a field element"
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}

# how deep (...), [...] and {...} may nest.  A level costs the parser five
# interpreter frames, seven for [ and {, so 100 levels of [ run under a
# recursion limit of about 720 and leave the rest of the default 1000 to
# the caller and to the arithmetic of the innermost level
MAX_NESTING = 100

# how large a power may get.  An integer power is computed in Z (it may
# multiply a symbol or a class, whose coefficient prints exactly), so it
# stays below 2^MAX_POWER_BITS, well inside the digits Python converts to a
# string.  A power of a rational function in k variables is refused when
# its numerator or denominator can have more than MAX_POWER_TERMS terms,
# the product over the variables of (degree in it + 1): in one variable a
# degree below MAX_POWER_TERMS, which schoolbook products reach in about
# 0.2 s, and in two a degree near 45 in each
MAX_POWER_BITS = 4096
MAX_POWER_TERMS = 2048


def _power_terms(r, e):
    """The most terms the numerator or denominator of r^e can have: the
    product over the variables of (|e| times the degree in it, + 1)."""
    return max(math.prod(abs(e) * f.degree_in(j) + 1 for j in range(f.nvars))
               for f in (r.num, r.den))


def _kind(v):
    """The kind of a value, as error messages name it."""
    return next((name for cls, name in _KINDS if isinstance(v, cls)),
                _ELEMENT)


class Session:
    def __init__(self, precision=16):
        self.fields = {}
        self.values = {}           # name -> (field name, value)
        self.current = None
        self.level = 1
        self.precision = precision

    def field(self, name, lineno=None):
        if name not in self.fields:
            raise UnknownName(f"unknown field {name!r}", lineno)
        return self.fields[name]


class Parser(Cursor):
    def __init__(self, tokens, session, lineno, fieldname=None):
        super().__init__(tokens, lineno)
        self.session = session
        self.depth = 0             # brackets open around the next token
        self.fieldname = fieldname or session.current
        if self.fieldname is None:
            raise ScriptError("no field declared yet", lineno)
        self.field = session.field(self.fieldname, lineno)

    # -- value coercion inside the current field --

    def _series(self, c, n):
        """c t^n in the Laurent field at a generous working precision;
        `let` truncates to the session's."""
        return Laurent.monomial(self.field.base, c, n,
                                4 * self.session.precision + 8)

    def _const(self, n):
        f = self.field
        if isinstance(f, GF):
            return f.elem(n)
        if isinstance(f, FuncField):
            return f.const(n)
        return self._series(f.base.elem(n), 0)

    def _coerce(self, v):
        if isinstance(v, int):
            return self._const(v)
        return v

    def _name_value(self, name, col):
        f = self.field
        if name in self.session.values:
            fname, v = self.session.values[name]
            if fname != self.fieldname:
                raise ScriptError(
                    f"{name!r} belongs to field {fname!r}", self.lineno, col)
            return v
        if isinstance(f, FuncField):
            if name in f.vars:
                return f.var(name)
            if name == "z" and f.base.e > 1:
                return f.const(f.base.gen)
        if isinstance(f, GF) and name == "z" and f.e > 1:
            return f.gen
        if isinstance(f, LaurentField):
            if name == f.var:
                return self._series(f.base.one, 1)
            if name == "z" and f.base.e > 1:
                return self._series(f.base.gen, 0)
        raise UnknownName(f"unknown name {name!r}", self.lineno, col)

    def _is_diff_start(self, k=0):
        """Whether a differential (d(x), or dx for a variable x) starts
        k tokens ahead."""
        kind, val, _ = self.peek(k)
        if kind != "name":
            return False
        if val == "d" and self.peek(k + 1)[0] == "(":
            return True
        return (len(val) > 1 and val[0] == "d"
                and isinstance(self.field, FuncField)
                and val[1:] in self.field.vars)

    # -- grammar --

    def expr(self):
        v = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            v = self._binary(op, v, self.term())
        return v

    def term(self):
        v = self.unary()
        while True:
            kind = self.peek()[0]
            if kind in ("*", "/"):
                self.next()
                v = self._binary(kind, v, self.unary())
            elif self._is_diff_start():
                if isinstance(v, DiffForm):
                    raise ScriptError("juxtaposed differentials: write "
                                      "dx^dy for their wedge", self.lineno,
                                      self.peek()[2] + 1)
                v = self._binary("*", v, self.diff_product())
            else:
                return v

    def _binary(self, op, a, b):
        """a op b for op in + - * /; ScriptError naming the operation
        unless the kinds of a and b support it.  Integers multiply
        symbols, classes and Witt vectors; field elements multiply forms."""
        ka, kb = _kind(a), _kind(b)
        if ka == kb == _ELEMENT:
            return _OPS[op](self._coerce(a), self._coerce(b))
        if ka == kb and (op in "+-" or op == "*" and ka == "a Witt vector"):
            return _OPS[op](a, b)
        if op == "*" and _ELEMENT in (ka, kb):
            x, c = (b, a) if ka == _ELEMENT else (a, b)
            if isinstance(x, DiffForm):
                return x.scale(self._coerce(c))
            if isinstance(c, int):
                return x.int_mul(c)
        verb = {"+": f"add {ka} and {kb}", "-": f"subtract {kb} from {ka}",
                "*": f"multiply {ka} by {kb}", "/": f"divide {ka} by {kb}"}
        raise ScriptError(f"cannot {verb[op]}", self.lineno)

    def _element(self, v, what):
        """v coerced into the field; ScriptError unless it is an element."""
        if _kind(v) != _ELEMENT:
            raise ScriptError(f"{what} needs field elements, not {_kind(v)}",
                              self.lineno)
        return self._coerce(v)

    def _exprs(self, what=None):
        """One or more comma-separated expressions, each a field element
        of `what` if that is given."""
        vs = []
        while not vs or self.take(","):
            v = self.expr()
            vs.append(v if what is None else self._element(v, what))
        return vs

    def unary(self):
        minus = 0
        while self.take("-"):
            minus += 1
        v = self.power()
        for _ in range(minus):
            v = -v
        return v

    def signed_int(self):
        sign = -1 if self.take("-") else 1
        return self.expect("int")[1] * sign

    def power(self):
        v = self.atom()
        while self.take("^"):
            if isinstance(v, DiffForm):
                w = self.atom()
                if not isinstance(w, DiffForm):
                    raise ScriptError("wedge needs a differential",
                                      self.lineno)
                v = v.wedge(w)
                continue
            e = self.signed_int()
            if _kind(v) != _ELEMENT:
                raise ScriptError(f"cannot raise {_kind(v)} to a power",
                                  self.lineno)
            if isinstance(v, int) and e >= 0:
                if abs(v) > 1 and e * math.log2(abs(v)) >= MAX_POWER_BITS:
                    raise ScriptError(f"integer power of {MAX_POWER_BITS} "
                                      f"bits or more", self.lineno)
                v = v ** e
                continue
            v = self._coerce(v)
            if isinstance(v, RatFunc) and _power_terms(v, e) > MAX_POWER_TERMS:
                raise ScriptError(f"power with more than {MAX_POWER_TERMS} "
                                  f"terms", self.lineno)
            v = v ** e
        return v

    def atom(self):
        kind, val, col = self.peek()
        if kind == "int":
            self.next()
            return val
        if kind in ("(", "{", "["):
            if self.depth == MAX_NESTING:
                raise ScriptError(f"brackets nest deeper than {MAX_NESTING}",
                                  self.lineno, col + 1)
            self.depth += 1
            if kind == "(":
                self.next()
                v = self.expr()
                self.expect(")")
            else:
                v = self.symbol_lit() if kind == "{" else self.bracket_lit()
            self.depth -= 1
            return v
        if kind == "name":
            if val == "O" and self.peek(1)[0] == "(":
                return self.precision_lit()
            if self._is_diff_start():
                return self.diff_product()
            self.next()
            return self._name_value(val, col + 1)
        raise ScriptError(f"unexpected token {val!r}", self.lineno,
                          col + 1 if col is not None else None)

    def precision_lit(self):
        # O(t^N): the zero element known modulo t^N
        self.expect("name")
        self.expect("(")
        f = self.field
        if not isinstance(f, LaurentField):
            raise ScriptError("O(...) needs a Laurent field", self.lineno)
        nm = self.expect("name")
        if nm[1] != f.var:
            raise ScriptError(f"expected {f.var!r} inside O(...)", self.lineno)
        n = self.signed_int() if self.take("^") else 1
        self.expect(")")
        return Laurent.zero(f.base, n)

    def diff_product(self):
        form = self.diff_atom()
        while self.peek()[0] == "^" and self._is_diff_start(1):
            self.next()
            form = form.wedge(self.diff_atom())
        return form

    def diff_atom(self):
        kind, val, col = self.next()
        f = self.field
        if not isinstance(f, FuncField):
            raise ScriptError("differentials need a function field",
                              self.lineno, col + 1)
        if val == "d" and self.take("("):
            var = self.expect("name")[1]
            self.expect(")")
        else:
            var = val[1:]
        if var not in f.vars:
            raise ScriptError(f"unknown variable {var!r}", self.lineno)
        return d_of_function(f.var(var))

    def symbol_lit(self):
        self.expect("{")
        entries = self._exprs("a symbol")
        self.expect("}")
        if not isinstance(self.field, FuncField):
            raise ScriptError("symbols need a function field", self.lineno)
        return MilnorElement.symbol(self.field, entries)

    def bracket_lit(self):
        self.expect("[")
        entries = self._exprs()
        if self.take("]"):
            return self._witt_from(entries)
        if self.take("|"):
            w = self._witt_value(entries)
            # an immediate ')' is a degree-0 class, as HClass prints it
            bs = [] if self.peek()[0] == ")" else self._exprs("a class")
            self.expect(")")
            h = HClass.build(self.field, w, bs)
            if self.session.level > h.level:
                h = level_shift(h, self.session.level)
            return h
        raise ScriptError("expected ']' or '|' in bracket literal",
                          self.lineno)

    def _witt_from(self, entries):
        f = self.field
        p = f.p if isinstance(f, GF) else f.base.p
        return WittVector(p, [self._element(e, "a Witt vector")
                              for e in entries])

    def _witt_value(self, entries):
        if len(entries) == 1 and isinstance(entries[0], WittVector):
            return entries[0]
        return self._witt_from(entries)

    def place_expr(self):
        kind, val, col = self.peek()
        if kind == "name" and val == "inf":
            self.next()
            return Place.infinity()
        v = self._coerce(self.expr())
        if isinstance(v, Laurent):
            if v.val == 1 and v.coeffs == (v.ring.one,):
                return Place(Poly.x(v.ring), self.field.var)
            raise ScriptError("the Laurent field carries the place (t) only",
                              self.lineno, col + 1)
        if not isinstance(v, RatFunc) or not v.den.is_const():
            raise ScriptError("a place is a monic irreducible polynomial "
                              "or 'inf'", self.lineno, col + 1)
        try:
            return Place.finite(to_dense(v.num), v.field.vars[0])
        except ConfigMismatch:
            raise ScriptError(f"{v!r} is not irreducible", self.lineno,
                              col + 1) from None


# ------------------------------------------------------------ runner ----

def _field_spec(cur):
    """Read GF(p[,e]) [(vars) | ((t))] off cur, which it must empty."""
    cur.what = "field declaration"
    if cur.next()[:2] != ("name", "GF"):
        raise ScriptError("field declarations start with GF", cur.lineno)
    cur.expect("(", "expected '(' after GF")
    p = cur.expect("int", "GF needs a prime")[1]
    e = cur.expect("int", "GF(p, e) needs an integer degree")[1] \
        if cur.take(",") else 1
    cur.expect(")", "expected ')' in GF(...)")
    base = gf(p, e)
    if cur.done():
        return base
    cur.expect("(", "expected '(' for variables")
    if cur.take("("):
        var = cur.expect("name", "expected a variable name")[1]
        if cur.next()[0] != ")" or not cur.take(")"):
            raise ScriptError("expected '))' closing the Laurent field",
                              cur.lineno)
        if var != "t":
            # series print in t, so values in another name would not parse
            raise ScriptError("the Laurent field's variable must be t",
                              cur.lineno)
        fld = laurent_field(base)
    else:
        vars = [cur.expect("name", "expected a variable name")[1]]
        while not cur.take(")"):
            cur.expect(",", "expected ',' or ')'")
            vars.append(cur.expect("name", "expected a variable name")[1])
        fld = func_field(base, tuple(vars))
    if not cur.done():
        raise ScriptError("trailing tokens after field declaration",
                          cur.lineno)
    return fld


def _binding(cur, usage):
    """The name in `<name> = <something>`, read off cur; ScriptError usage
    unless a name, '=' and at least one more token follow."""
    name = cur.take("name")
    if not name or not cur.take("=") or cur.done():
        raise ScriptError(usage, cur.lineno)
    return name[1]


def _recip_result(c):
    ok, table = reciprocity_check(c)
    mod = table[0].modulus if table else 0
    return {"table": [inv.as_json_obj() for inv in table],
            "sum": sum(i.value for i in table) % mod if table else 0,
            "ok": ok}


# statement -> (kind of its operand, what messages call that kind, the
# operand's key among the inputs, the result); the results call the library
# through this module's globals, where a wrapper around them takes effect
_OPERAND_STATEMENTS = {
    "dsym": (MilnorElement, "a symbol", "symbol",
             lambda s: repr(d_symbol(s))),
    "recip": (HClass, "a class", "class", _recip_result),
    "zero": (HClass, "a class", "class", lambda c: h_zero_test(c)),
    "cartier": (DiffForm, "a differential form", "form",
                lambda w: repr(w.cartier())),
    "nu": (DiffForm, "a differential form", "form",
           lambda w: w.is_logarithmic()),
}


def _operand(toks, session, lineno, stmt, kind, what, fieldname=None):
    """The value of toks read as one whole expression; ScriptError
    "<stmt> needs <what>" unless it is an instance of kind."""
    p = Parser(toks, session, lineno, fieldname)
    v = p.whole(p.expr)
    if not isinstance(v, kind):
        raise ScriptError(f"{stmt} needs {what}", lineno)
    return v


def run_statement(line, lineno, session, emit):
    cur = Cursor(tokenize(line, lineno), lineno)
    if cur.done():
        return
    kind, val, _ = cur.next()
    if kind != "name":
        raise ScriptError(f"statements start with a keyword, got {val!r}",
                          lineno)
    if val == "field":
        name = _binding(cur, "usage: field <name> = GF(p[,e])[(vars)]")
        fld = _field_spec(cur)
        session.fields[name] = fld
        session.current = name
        emit("field", {"name": name}, repr(fld), session)
        return
    if val == "set":
        setting, n = cur.take("name"), cur.take("int")
        if (not setting or setting[1] not in ("level", "precision") or not n
                or not cur.done()):
            raise ScriptError("usage: set level|precision <int>", lineno)
        setting, n = setting[1], n[1]
        if n < 1:
            bound = "N" if setting == "precision" else "i"
            raise ScriptError(f"set {setting} needs {bound} >= 1", lineno)
        setattr(session, setting, n)
        emit("set", {setting: n}, "ok", session)
        return
    if val == "let":
        name = _binding(cur, "usage: let <name> = <expr>")
        p = Parser(cur.rest(), session, lineno)
        v = p._coerce(p.whole(p.expr))
        if isinstance(v, Laurent) and v.prec > session.precision:
            v = v.truncate(session.precision)
        session.values[name] = (session.current, v)
        emit("let", {"name": name}, repr(v), session)
        return
    toks = cur.rest()
    if val == "inv":
        at = next((k for k, t in enumerate(toks) if t[:2] == ("name", "at")),
                  None)
        if at is None:
            raise ScriptError("usage: inv <class> at <place>", lineno)
        c = _operand(toks[:at], session, lineno, val, HClass, "a class")
        pp = Parser(toks[at + 1:], session, lineno)
        place = pp.whole(pp.place_expr)
        emit("inv", {"class": repr(c), "place": repr(place)},
             local_invariant(c, place).as_json_obj(), session)
        return
    if val not in _OPERAND_STATEMENTS:
        raise ScriptError(f"unknown statement {val!r}", lineno)
    cls, what, key, result = _OPERAND_STATEMENTS[val]
    fieldname = None
    if val == "dsym" and len(toks) >= 2 and toks[-2][:2] == ("name", "in"):
        fieldname, toks = toks[-1][1], toks[:-2]
    v = _operand(toks, session, lineno, val, cls, what, fieldname)
    emit(val, {key: repr(v)}, result(v), session)


def run_script(text, json_mode=False, precision=16, keep_going=False,
               out=None):
    out = out or sys.stdout
    session = Session(precision=precision)
    errors = 0

    def emit(op, inputs, result, session):
        if json_mode:
            obj = {"op": op, "inputs": inputs, "result": result,
                   "level": session.level, "field": session.current}
            out.write(json.dumps(obj, sort_keys=True,
                                 separators=(",", ":")) + "\n")
        else:
            if isinstance(result, (dict, list)):
                result = json.dumps(result, sort_keys=True)
            out.write(f"{op}: {result}\n")

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        try:
            run_statement(line, lineno, session, emit)
        except KatoforgeError as exc:
            errors += 1
            if json_mode:
                out.write(json.dumps({"op": "error", "line": lineno,
                                      "message": str(exc)},
                                     sort_keys=True,
                                     separators=(",", ":")) + "\n")
            elif isinstance(exc, ScriptError) and exc.line is not None:
                out.write(f"error: {exc}\n")      # carries its location
            else:
                out.write(f"error: line {lineno}: {exc}\n")
            if not keep_going:
                return 1
    return 1 if errors else 0


# ------------------------------------------------------------- cache ----

# The library generates Witt structures in memory and reads no file; this
# sub-command alone writes, checks and deletes their text form
# (``WittStructure.to_text``), one file ``wittpoly-v1-p{p}-i{i}.txt`` each:
#
#     WITTPOLY v1 p=<p> i=<i>
#     POLY S 0
#     <coefficient> <2i exponents: a_0..a_{i-1} b_0..b_{i-1}>
#     ...
#     POLY P 0
#     ...
#     POLY N 0        (negation; derived, stored for completeness)

_CACHE_NAME = re.compile(r"wittpoly-v1-p(\d+)-i(\d+)\.txt")


def _cache_filename(p, i):
    return f"wittpoly-v1-p{p}-i{i}.txt"


def _atomic_write(path, text):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=".wittpoly-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def verify_cache_file(path):
    """Check a structure file against the generated structure for the
    (p, i) its name gives: CorruptCache if the name or the file is
    malformed, VerifyMismatch if the file differs from the generated
    text."""
    name = _CACHE_NAME.fullmatch(os.path.basename(path))
    if name is None:
        raise CorruptCache(f"not a structure file name: {path}")
    p, i = int(name[1]), int(name[2])
    expected = witt_structure(p, i).to_text()
    with open(path, errors="replace") as fh:
        text = fh.read()
    try:
        WittStructure.from_text(text, p, i)
    except CorruptCache as exc:
        raise CorruptCache(f"{path}: {exc}") from None
    if text != expected:
        raise VerifyMismatch(path)


def cache_warm(cdir, pairs):
    os.makedirs(cdir, exist_ok=True)
    report = []
    for p, imax in pairs:
        for i in range(1, imax + 1):
            name = _cache_filename(p, i)
            _atomic_write(os.path.join(cdir, name),
                          witt_structure(p, i).to_text())
            report.append(name)
    return report


def cache_verify(cdir):
    report = []
    for name in sorted(os.listdir(cdir)):
        if name.startswith("wittpoly-v1-"):
            verify_cache_file(os.path.join(cdir, name))
            report.append(name)
    return report


def cache_clear(cdir):
    removed = []
    for name in sorted(os.listdir(cdir)):
        if name.startswith("wittpoly-v1-"):
            os.unlink(os.path.join(cdir, name))
            removed.append(name)
    return removed


# ---------------------------------------------------------- selftest ----

def _random_poly(rng, F, max_deg, terms):
    """A random univariate MPoly over the prime field F, possibly zero."""
    return MPoly(F, 1, {(rng.randint(0, max_deg),): rng.choice([F.zero, F.one])
                        for _ in range(terms)})


def selftest(seed=0, out=None):
    out = out or sys.stdout
    rng = random.Random(seed)
    failures = 0

    def check(name, ok):
        nonlocal failures
        out.write(f"selftest {name}: {'PASS' if ok else 'FAIL'}\n")
        if not ok:
            failures += 1

    F4 = gf(2, 2)
    ok = True
    els = list(F4.elements())
    for _ in range(50):
        a, b, c = (rng.choice(els) for _ in range(3))
        ok &= (a + b) * c == a * c + b * c
    check("field-laws", ok)

    ok = True
    for _ in range(20):
        u = WittVector(2, tuple(rng.choice(els) for _ in range(2)))
        v = WittVector(2, tuple(rng.choice(els) for _ in range(2)))
        w = WittVector(2, tuple(rng.choice(els) for _ in range(2)))
        ok &= (u + v) + w == u + (v + w)
        ok &= u * (v + w) == u * v + u * w
    check("witt-laws", ok)

    F2 = gf(2)
    K = func_field(F2, ("t",))
    ok = True
    for _ in range(10):
        num, den = _random_poly(rng, F2, 3, 3), _random_poly(rng, F2, 3, 3)
        if num.is_zero() or den.is_zero():
            continue
        tot = F2.zero
        for _, v in residue_table(K.from_poly(num, den)):
            tot = tot + v
        ok &= not tot
    check("residue-theorem", ok)

    ok = True
    for _ in range(5):
        pieces = []
        for _ in range(2):
            num, den = _random_poly(rng, F2, 2, 2), _random_poly(rng, F2, 2, 2)
            if num.is_zero() or den.is_zero():
                continue
            pieces.append(K.from_poly(num, den))
        if len(pieces) < 2:
            continue
        w = WittVector(2, (pieces[0],))
        c = HClass.build(K, w, (pieces[1],))
        okr, _ = reciprocity_check(c)
        ok &= okr
    check("reciprocity", ok)
    return 1 if failures else 0


# -------------------------------------------------------------- main ----

def _parse_pairs(text):
    """``p:max_i,...`` -> [(p, max_i)]; a malformed pair is a usage error."""
    pairs = []
    for part in text.split(","):
        try:
            p, imax = (int(x) for x in part.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{part!r} is not a pair p:max_i") from None
        pairs.append((p, imax))
    return pairs


def _precision(text):
    """A series precision N >= 1; anything else is a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"precision must be an integer N >= 1, not {text!r}")
    return n


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # the flags may stand before or after a sub-command; only the namespace
    # passed to parse_args holds defaults, so the sub-command's copy of the
    # flags cannot overwrite a value given before it
    common = argparse.ArgumentParser(prog="katoforge", add_help=False,
                                     exit_on_error=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true")
    common.add_argument("--script", metavar="FILE")
    common.add_argument("--cache-dir", metavar="DIR")
    common.add_argument("--precision", type=_precision, metavar="N")
    common.add_argument("--keep-going", action="store_true")
    common.add_argument("--seed", type=int)
    defaults = argparse.Namespace(
        json=False, script=None, cache_dir=os.environ.get("KATOFORGE_CACHE"),
        precision=16, keep_going=False, seed=0)
    ap = argparse.ArgumentParser(
        prog="katoforge",
        description="exact characteristic-p computer algebra",
        parents=[common])
    sub = ap.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run a script (default)",
                          parents=[common])
    runp.add_argument("file", nargs="?")
    cachep = sub.add_parser("cache", help="manage the Witt structure cache",
                            parents=[common])
    cachep.add_argument("action", choices=("warm", "verify", "clear"))
    cachep.add_argument("--pairs", default="2:3,3:3", type=_parse_pairs,
                        help="comma list of p:max_i to warm")
    sub.add_parser("selftest", help="run the randomized self test",
                   parents=[common])

    # the first word that is no flag or flag value names the sub-command;
    # any other word is a script, so the sub-command is an implicit run
    try:
        rest = common.parse_known_args(argv)[1]
    except argparse.ArgumentError as exc:
        ap.error(str(exc))
    first = next((tok for tok in rest if not tok.startswith("-")), None)
    if first is not None and first not in ("run", "cache", "selftest"):
        argv = ["run"] + argv
    args = ap.parse_args(argv, defaults)

    if args.command == "cache":
        cdir = args.cache_dir
        if not cdir:
            ap.error("cache management needs --cache-dir or KATOFORGE_CACHE")
        try:
            if args.action == "warm":
                for name in cache_warm(cdir, args.pairs):
                    print(name)
            elif args.action == "verify":
                for name in cache_verify(cdir):
                    print(f"{name}: match")
            else:
                for name in cache_clear(cdir):
                    print(f"{name}: removed")
        except KatoforgeError as exc:
            print(exc, file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"katoforge: cache: {exc.filename or cdir}: {exc.strerror}",
                  file=sys.stderr)
            return 1
        return 0

    if args.command == "selftest":
        return selftest(seed=args.seed)

    path = args.script or (args.file if args.command == "run" else None)
    if path:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"katoforge: cannot read {path}: {exc.strerror}",
                  file=sys.stderr)
            return 1
    else:
        text = sys.stdin.read()
    return run_script(text, json_mode=args.json, precision=args.precision,
                      keep_going=args.keep_going)


if __name__ == "__main__":
    sys.exit(main())
