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
    set precision <N>           Laurent precision N, 16 until set

Expressions cover field arithmetic (+ - * / ^), Witt literals ``[a0, a1]``,
symbols ``{a, b}``, classes ``[ w | b1, b2 )``, differential forms written
``f dt`` / ``x/(y+1) dx^dy``, and Laurent literals ``t^-2 + 1 + O(t^5)``.
``--json`` turns every result into one deterministic JSON object per line.

A line is cut into tokens by one pattern (``_TOKEN``) and each statement
reads its tokens through one ``Cursor``; ``Parser`` is the cursor that
knows the grammar.  Brackets nest at most ``MAX_NESTING`` deep, integer
literals and powers are bounded by ``MAX_POWER_BITS``, powers also by
``MAX_POWER_TERMS``, and the series precision N by ``MAX_PRECISION``.  A
session starts at N = ``DEFAULT_PREC``; ``set precision`` is the one place
N is set and the one check of its bound.  Bad input raises a
``KatoforgeError``, which ``run_script`` prints as one line
``error: line N ...``.

Over F_q(vars) a literal is polynomial arithmetic (``MPoly``, no GCD) until
a ``/``, which builds one normalized ``RatFunc``, a name bound by ``let``,
a negative power or the end of the expression; ``MAX_POWER_TERMS`` counts
a polynomial's terms as it counts a numerator's.  A variable of the current
field reads as that variable before any name bound by ``let``, and ``let``
refuses to bind it, so printed values read back.  A differential ``dx`` or
``d(x)`` is the basis form dx itself, ``DiffForm(F, 1, {(j,): F.one})``,
with no derivative taken, and ``c dx`` scales it by c.
"""

import argparse
import json
import math
import operator
import os
import re
import sys

from .errors import ConfigMismatch, KatoforgeError, ScriptError, UnknownName
from .forms import DiffForm
from .gf import GF, gf
from .kato import (HClass, LaurentField, _invariant_field_kind,
                   _is_uniformizer, _t_place, laurent_field, level_shift,
                   local_invariant, reciprocity_check, h_zero_test)
from .laurent import DEFAULT_PREC, Laurent
from .milnor import MilnorElement, d_symbol
from .mpoly import MPoly
from .places import Place
from .poly import to_dense
from .rational import FuncField, RatFunc, func_field
from .witt import WittVector

# ----------------------------------------------------- lexer, cursor ----

# a digit is what int() reads, any Unicode decimal digit; a name is a run of
# word characters that does not start with one, so '²' and 't²' are names;
# whitespace is space and tab, and any other character is an error.  A match
# is one token and the whitespace after it, so blanks cost no match of their
# own; tokenize skips the blanks before the first token
_TOKEN = re.compile(r"""(?: (?P<int>\d+) | (?P<name>[^\W\d]\w*)
                        | (?P<punct>[][(){},|+*/^=-]) | (?P<comment>\#)
                        | (?P<bad>.) ) [ \t]*""", re.S | re.X)


def tokenize(line, lineno):
    """The (kind, value, column from 0) tokens of line before any comment;
    a punctuation token is its own kind."""
    out = []
    for m in _TOKEN.finditer(line, len(line) - len(line.lstrip(" \t"))):
        kind = m.lastgroup
        text = m[kind]
        if kind == "comment":
            break
        if kind == "bad":
            raise ScriptError(f"unexpected character {text!r}", lineno,
                              m.start() + 1)
        if kind == "int":
            # a literal stays below 2^MAX_POWER_BITS, as an integer power
            # does; a run of more digits than that has bits is not read
            n = int(text) if len(text) <= MAX_POWER_BITS else None
            if n is None or n.bit_length() > MAX_POWER_BITS:
                raise ScriptError(f"integer of {MAX_POWER_BITS} bits or "
                                  f"more", lineno, m.start() + 1)
            out.append(("int", n, m.start()))
        else:
            out.append((text if kind == "punct" else kind, text, m.start()))
    return out


_END = (None, None, None)      # what peek reads past the last token


class Cursor:
    """Reads a statement's tokens front to back."""

    what = "statement"      # running out of tokens: "unexpected end of <what>"

    def __init__(self, tokens, lineno):
        # two _END entries, so peek(1) at the end reads no further
        self.toks = tokens + [_END, _END]
        self.end = len(tokens)
        self.pos = 0
        self.lineno = lineno

    def peek(self, k=0):
        return self.toks[self.pos + k]

    def next(self):
        t = self.toks[self.pos]
        if t is _END:
            raise ScriptError(f"unexpected end of {self.what}", self.lineno)
        self.pos += 1
        return t

    def take(self, kind):
        """The next token, consumed, if it is of kind; None otherwise."""
        t = self.toks[self.pos]
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
        toks, self.pos = self.toks[self.pos:self.end], self.end
        return toks

    def done(self):
        return self.pos >= self.end

    def whole(self, parse):
        """parse(), which must consume the rest of the statement."""
        v = parse()
        if not self.done():
            raise ScriptError("trailing tokens after expression", self.lineno)
        return v


# ----------------------------------------------------------- session ----

_KINDS = {MilnorElement: "a symbol", HClass: "a class",
          WittVector: "a Witt vector", DiffForm: "a differential form"}
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

# the largest series precision `set precision` accepts.
# Literals are computed to 4N + 8 coefficients before `let` cuts them to N,
# and a division runs its recurrence over all of them: over GF(2)((t)) one
# 1/(1+t) takes 14 s at N = 5,000,000, and `let a = t^-1` at
# N = 1,000,000,000 would run it over 4 * 10^9 coefficients.  A script of
# two divisions and zero tests and invariants at levels 1 and 3 takes
# 0.35 s at 16,384 and 1.2 s at 65,536 (2 vCPUs, Python 3.11.7)
MAX_PRECISION = 65536


def _power_terms(r, e):
    """The most terms r^e, or its numerator or denominator, can have: the
    product over the variables of (|e| times the degree in it, + 1).  The
    degrees are the column maxima of the exponent tuples."""
    return max(math.prod(abs(e) * d + 1 for d in map(max, zip(*f.terms)))
               for f in ((r.num, r.den) if isinstance(r, RatFunc) else (r,)))


def _kind(v):
    """The kind of a value, as error messages name it."""
    return _KINDS.get(type(v), _ELEMENT)


class Session:
    def __init__(self):
        self.fields = {}
        self.values = {}           # name -> (field name, value)
        self.current = None
        self.level = 1
        self.precision = DEFAULT_PREC

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
        # the coefficient field: GF(q) itself, or that of F_q(vars), F_q((t))
        self.base = getattr(self.field, "base", self.field)

    # -- value coercion inside the current field --

    def _series(self, c, n):
        """c t^n in the Laurent field at a generous working precision;
        `let` truncates to the session's."""
        return Laurent.monomial(self.field.base, c, n,
                                4 * self.session.precision + 8)

    def _const(self, c):
        """c, an integer or a base field element, in the field."""
        f = self.field
        if isinstance(f, FuncField):
            return MPoly.const(f.base, f.k, c)
        if isinstance(f, GF):
            return f.elem(c)
        return self._series(f.base.elem(c), 0)

    def _coerce(self, v):
        """v in the field, where a polynomial is a RatFunc."""
        if isinstance(v, int):
            v = self._const(v)
        if isinstance(v, MPoly):
            return RatFunc(self.field, v, self.field.one.den, _norm=False)
        return v

    def variable(self, name):
        """name as a variable of the field, or None if it is not one."""
        f = self.field
        if isinstance(f, FuncField) and name in f.vars:
            return MPoly.var(f.base, f.k, f.vars.index(name))
        if isinstance(f, LaurentField) and name == f.var:
            return self._series(f.base.one, 1)
        return None

    def _name_value(self, name, col):
        """A variable of the field, else z, the generator of GF(p^e) for
        e > 1, else a value bound by `let`."""
        v = self.variable(name)
        if v is not None:
            return v
        if name == "z" and self.base.e > 1:
            return self._const(self.base.gen)
        if name in self.session.values:
            fname, v = self.session.values[name]
            if fname != self.fieldname:
                raise ScriptError(
                    f"{name!r} belongs to field {fname!r}", self.lineno, col)
            return v
        raise UnknownName(f"unknown name {name!r}", self.lineno, col)

    def _is_diff_start(self, name):
        """Whether a differential (d(x), or dx for a variable x) starts
        at the next token, which is the name `name`."""
        return name[0] == "d" and (
            name == "d" and self.peek(1)[0] == "(" or
            isinstance(self.field, FuncField) and name[1:] in self.field.vars)

    # -- grammar --

    def expr(self, sums=True):
        """A sum of terms, or with sums false one term."""
        v = self.unary()
        toks = self.toks
        while True:
            kind, val, col = toks[self.pos]
            if kind in ("*", "/") or sums and kind in ("+", "-"):
                self.pos += 1
                v = self._binary(kind, v, self.unary() if kind in ("*", "/")
                                 else self.expr(False))
            elif kind == "name" and self._is_diff_start(val):
                if isinstance(v, DiffForm):
                    raise ScriptError("juxtaposed differentials: write "
                                      "dx^dy for their wedge", self.lineno,
                                      col + 1)
                v = self._binary("*", v, self.power())
            else:
                return v

    def _binary(self, op, a, b):
        """a op b for op in + - * /; ScriptError naming the operation
        unless the kinds of a and b support it.  Integers multiply
        symbols, classes and Witt vectors; field elements multiply forms."""
        ka, kb = _kind(a), _kind(b)
        if ka == kb == _ELEMENT:
            # integers are constants of the field, and polynomials stay
            # polynomials, with no GCD, until a division; a zero divisor is
            # left to RatFunc's own refusal
            x = self._const(a) if isinstance(a, int) else a
            y = self._const(b) if isinstance(b, int) else b
            if isinstance(x, MPoly) and isinstance(y, MPoly):
                if op != "/":
                    return _OPS[op](x, y)
                if not y.is_zero():
                    return RatFunc(self.field, x, y)
            return _OPS[op](self._coerce(x), self._coerce(y))
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
        if self.toks[self.pos][0] != "-":
            return self.power()
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
        toks = self.toks
        while toks[self.pos][0] == "^":
            self.pos += 1
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
            v = self._coerce(v) if e < 0 else v
            if isinstance(v, (RatFunc, MPoly)) and \
                    _power_terms(v, e) > MAX_POWER_TERMS:
                raise ScriptError(f"power with more than {MAX_POWER_TERMS} "
                                  f"terms", self.lineno)
            v = v ** e
        return v

    def atom(self):
        kind, val, col = self.toks[self.pos]
        if kind == "int":
            self.pos += 1
            return val
        if kind == "name":
            if val == "O" and self.peek(1)[0] == "(":
                return self.precision_lit()
            if self._is_diff_start(val):
                return self.diff_atom()
            self.pos += 1
            return self._name_value(val, col + 1)
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
        if kind is None:
            self.next()     # raises: unexpected end of statement
        raise ScriptError(f"unexpected token {val!r}", self.lineno, col + 1)

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
        return DiffForm(f, 1, {(f.vars.index(var),): f.one})

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
            w = entries[0] if len(entries) == 1 and isinstance(
                entries[0], WittVector) else self._witt_from(entries)
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
        return WittVector(self.base.p, [self._element(e, "a Witt vector")
                                        for e in entries])

    def place_expr(self):
        _invariant_field_kind(self.field)    # F_q(x_1..x_k), k > 1: no places
        kind, val, col = self.peek()
        if kind == "name" and val == "inf":
            self.next()
            return Place.infinity()
        v = self._coerce(self.expr())
        if isinstance(v, Laurent):
            if _is_uniformizer(v):
                return _t_place(self.field)
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
        if e > 1 and "z" in vars:
            # z prints elements of GF(p^e), so values in a variable z
            # would not read back
            raise ScriptError(f"a field variable cannot be 'z', the "
                              f"generator of GF({p}^{e})", cur.lineno)
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
        if setting == "precision" and n > MAX_PRECISION:
            raise ScriptError(f"set precision needs N <= {MAX_PRECISION}",
                              lineno)
        setattr(session, setting, n)
        emit("set", {setting: n}, "ok", session)
        return
    if val == "let":
        name = _binding(cur, "usage: let <name> = <expr>")
        p = Parser(cur.rest(), session, lineno)
        if p.variable(name) is not None:
            raise ScriptError(f"let cannot bind {name!r}, a variable of "
                              f"field {session.current!r}", lineno)
        if name == "z" and p.base.e > 1:
            raise ScriptError(f"let cannot bind 'z', the generator of "
                              f"{p.base!r}", lineno)
        v = p._coerce(p.whole(p.expr))
        if isinstance(v, Laurent) and v.prec > session.precision:
            v = v.truncate(session.precision)
        session.values[name] = (session.current, v)
        emit("let", {"name": name}, repr(v), session)
        return
    toks = cur.rest()
    if val == "inv":
        at = next((k for k, t in enumerate(toks)
                   if t[1] == "at" and t[0] == "name"), None)
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


# one --json line: what json.dumps(obj, sort_keys=True, separators=(",", ":"))
# writes, with the encoder built once
_json_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def run_script(text, json_mode=False, keep_going=False, out=None):
    out = out or sys.stdout
    session = Session()
    errors = 0

    def emit(op, inputs, result, session):
        if json_mode:
            obj = {"op": op, "inputs": inputs, "result": result,
                   "level": session.level, "field": session.current}
            out.write(_json_line(obj) + "\n")
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
                out.write(_json_line({"op": "error", "line": lineno,
                                      "message": str(exc)}) + "\n")
            elif isinstance(exc, ScriptError) and exc.line is not None:
                out.write(f"error: {exc}\n")      # carries its location
            else:
                out.write(f"error: line {lineno}: {exc}\n")
            if not keep_going:
                return 1
    return 1 if errors else 0


# -------------------------------------------------------------- main ----

def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="katoforge",
        description="exact characteristic-p computer algebra")
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--keep-going", action="store_true")
    ap.add_argument("file", nargs="?", help="script to run (default: stdin)")
    args = ap.parse_args(argv)

    if args.file:
        try:
            with open(args.file) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"katoforge: cannot read {args.file}: {exc.strerror}",
                  file=sys.stderr)
            return 1
    else:
        text = sys.stdin.read()
    try:
        rc = run_script(text, json_mode=args.json, keep_going=args.keep_going)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
