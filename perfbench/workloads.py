"""The four benchmark workloads: seeded inputs, the timed operation, and
an exact oracle for every result.

Each workload turns a seed into a stream of *specs*: plain tuples of ints
and strings that describe one operation's inputs.  A spec is built into
library objects outside the timed region, the operation runs the library
calls (timed), and the oracle checks the outputs (untimed).  Specs, not
library objects, are hashed into the run's input fingerprint, so the
fingerprint does not depend on how the library prints its values.

The stream is stratified: every cycle runs each cell (field, level, ...)
exactly its weight in times, in an order shuffled by the seed, so the mix of
expensive and cheap operations is the same in every run and only the inputs
inside each cell vary with the seed.

Library functions are looked up through their modules at call time, so the
traced run's wrappers see every call made here.
"""

import io
import json
import random

import katoforge as kf
import katoforge.cli


class CheckFailed(Exception):
    """An operation's output disagreed with the oracle."""


# ------------------------------------------------------- raw inputs ----

def _rand_elem(rng, p, e, nonzero=False):
    while True:
        c = tuple(rng.randrange(p) for _ in range(e))
        if any(c) or not nonzero:
            return c


def _rand_mpoly(rng, p, e, nvars, max_deg, max_terms):
    """Sparse polynomial spec ((mono, coeffs), ...) with at least one term."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[mono] = _rand_elem(rng, p, e, nonzero=True)
    return tuple(sorted(terms.items()))


def _rand_poly(rng, p, e, deg):
    """Univariate spec of exactly the given degree, other terms random."""
    terms = [((deg,), _rand_elem(rng, p, e, nonzero=True))]
    for d in range(deg):
        c = _rand_elem(rng, p, e)
        if any(c):
            terms.append(((d,), c))
    return tuple(sorted(terms))


def _rand_ratfunc(rng, p, e, nvars, max_deg, max_terms=2, den_deg=None):
    den_deg = max_deg if den_deg is None else den_deg
    return (_rand_mpoly(rng, p, e, nvars, max_deg, max_terms),
            _rand_mpoly(rng, p, e, nvars, den_deg, max_terms))


def _mpoly(F, nvars, spec):
    return kf.MPoly(F, nvars, {mono: F.elem(list(c)) for mono, c in spec})


def _ratfunc(K, spec):
    num, den = spec
    return K.from_poly(_mpoly(K.base, K.k, num), _mpoly(K.base, K.k, den))


def _laurent(F, spec, prec):
    val, coeffs = spec
    return kf.Laurent(F, val, [F.elem(list(c)) for c in coeffs], prec)


def _stream(workload, label):
    rng = random.Random(f"perfbench:{workload.name}:{label}")
    cycle = [cell for cell, weight in workload.cells for _ in range(weight)]
    while True:
        order = list(cycle)
        rng.shuffle(order)
        for cell in order:
            yield workload.spec(rng, cell)


def spec_stream(workload, seed):
    """Specs of the timed pass."""
    return _stream(workload, f"seed={seed}")


def warmup_stream(workload, seed):
    """Specs of the warm-up pass: a different seed from the timed pass."""
    return _stream(workload, f"warmup-seed={seed}")


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _level_cells(fields, weights, suffix=(), top=None):
    """(p, e, level, *suffix) cells, with level capped per field by top."""
    top = top or {}
    return [((p, e, lvl) + suffix, w) for p, e in fields
            for lvl, w in weights.items() if lvl <= top.get((p, e), 4)]


def _witt_structures(pairs):
    for p, top in pairs:
        for i in range(1, top + 1):
            kf.witt_structure(p, i)


# -------------------------------------------------- forms_cartier ----

class FormsCartier:
    """Random 1-forms over F_2(x,y), F_3(x,y), F_4(x,y) and F_p(t): the
    Cartier identities, the exactness/fixed-point equivalence, and the
    differential symbol with the logarithmic-form test on its images."""

    name = "forms_cartier"
    cells = [((2, 1, ("x", "y")), 3), ((3, 1, ("x", "y")), 3),
             ((2, 2, ("x", "y")), 3), ((2, 1, ("t",)), 1),
             ((3, 1, ("t",)), 1)]
    trace_rate = 30.0     # operations per second the traced pass is sized for

    def setup(self):
        for (p, e, vars), _ in self.cells:
            kf.func_field(kf.gf(p, e), vars)

    def spec(self, rng, cell):
        p, e, vars = cell
        k = len(vars)

        def rf():
            return _rand_ratfunc(rng, p, e, k, max_deg=2)
        form = {}
        for _ in range(rng.randint(1, 2)):
            form[(rng.randrange(k),)] = rf()
        return ("forms", p, e, vars, tuple(sorted(form.items())), rf(), rf(),
                rf(), rng.randrange(2))

    def build(self, spec):
        _, p, e, vars, form, f, a, b, sample = spec
        K = kf.func_field(kf.gf(p, e), vars)
        w = kf.form_from_terms(K, 1, {I: _ratfunc(K, c) for I, c in form})
        return K, w, _ratfunc(K, f), _ratfunc(K, a), _ratfunc(K, b), sample

    def run(self, inputs):
        K, w, f, a, b, sample = inputs
        ci = w.cartier_inv()
        inverse_ok = ci.cartier() == w
        exact_ok = (ci + kf.d_of_function(f)).cartier() == w
        s = ci if sample else w
        lhs = (s.cartier_inv() - s).is_exact()
        rhs = s.is_closed() and s.cartier() == s
        one_minus = K.one - a
        steinberg = (one_minus.is_zero() or kf.d_symbol(
            kf.MilnorElement.symbol(K, [a, one_minus])).is_zero())
        sym = kf.MilnorElement.symbol
        bilinear = kf.d_symbol(sym(K, [a * b, b]) - sym(K, [a, b])
                               - sym(K, [b, b])).is_zero()
        img = kf.d_symbol(sym(K, [a, b]))
        logarithmic = img.is_zero() or img.is_logarithmic()
        return inverse_ok, exact_ok, lhs, rhs, steinberg, bilinear, logarithmic

    def check(self, inputs, out):
        inverse_ok, exact_ok, lhs, rhs, steinberg, bilinear, logarithmic = out
        _require(inverse_ok, "C(C^-1 w) != w")
        _require(exact_ok, "C(C^-1 w + df) != w")
        _require(lhs == rhs, "is_exact(C^-1 s - s) disagrees with "
                             "(s closed and C s = s)")
        _require(steinberg, "d_symbol{a, 1-a} != 0")
        _require(bilinear, "d_symbol{ab,b} - {a,b} - {b,b} != 0")
        _require(logarithmic, "nu rejects d_symbol{a, b}")


# --------------------------------------------------- recip_global ----

def _residue_trace(g, place):
    """Tr_{k(v)/F_p} Res_v(g dt): the level-1 invariant by another path."""
    ctx = kf.place_context(g.field, place)
    return ctx.res_field.trace_int(ctx.residue(g))


class RecipGlobal:
    """Degree-1 classes (w | b) over F_2(t), F_3(t), F_4(t) and their full
    invariant tables.  Level 4 runs over F_2(t) only: one level-4 class
    takes up to 0.8 s over F_4(t) and 2 to 30 s over F_3(t), so a handful
    of them would make up most of a run."""

    name = "recip_global"
    fields = [(2, 1), (3, 1), (2, 2)]
    cells = (_level_cells(fields, {1: 4, 2: 3, 3: 2, 4: 1},
                          top={(3, 1): 3, (2, 2): 3})
             + [("worked", 1)])
    trace_rate = 50.0
    # [1/t | 1+t) over F_2(t): table {t: 1, t+1: 1, inf: 0}
    WORKED = ("recip", 2, 1, 1, (((((0,), (1,)),), (((1,), (1,)),)),),
              ((((0,), (1,)), ((1,), (1,))), (((0,), (1,)),)))

    def setup(self):
        for p, e in self.fields:
            F = kf.gf(p, e)
            kf.func_field(F, ("t",))
            for lvl in range(1, 5):
                kf.galois_ring(F, lvl)
        _witt_structures([(2, 4), (3, 3)])

    def spec(self, rng, cell):
        if cell == "worked":
            return self.WORKED
        p, e, lvl = cell
        # poles at finite places come from coordinate 0 only, and b is a
        # polynomial: rational higher coordinates and denominators in b
        # spread one cell's costs over two orders of magnitude
        deg = 2 if lvl <= 2 else 1
        coords = tuple(_rand_ratfunc(rng, p, e, 1, max_deg=deg,
                                     den_deg=0 if j else 1)
                       for j in range(lvl))
        one = (((0,), (1,) + (0,) * (e - 1)),)
        return ("recip", p, e, lvl, coords,
                (_rand_poly(rng, p, e, rng.randint(1, 3)), one))

    def build(self, spec):
        _, p, e, lvl, coords, b = spec
        K = kf.func_field(kf.gf(p, e), ("t",))
        w = kf.WittVector(p, tuple(_ratfunc(K, c) for c in coords))
        return K, w, _ratfunc(K, b), spec

    def run(self, inputs):
        K, w, b, _ = inputs
        c = kf.HClass.build(K, w, (b,))
        return kf.reciprocity_check(c)

    def check(self, inputs, out):
        K, w, b, spec = inputs
        ok, table = out
        p, level = w.p, w.level
        mod = p ** level
        _require(ok, "invariants do not sum to 0")
        _require(sum(inv.value for inv in table) % mod == 0,
                 "reported ok but the sum is nonzero")
        _require(all(inv.modulus == mod for inv in table), "wrong modulus")
        got = {inv.place: inv.value for inv in table}
        if spec == self.WORKED:
            _require({repr(pl): v for pl, v in got.items()}
                     == {"t": 1, "t+1": 1, "inf": 0},
                     "worked class table != {t:1, t+1:1, inf:0}")
        # level 1 by residues: inv mod p = Tr Res(w_0 dlog b) at every place
        g = w.coords[0] * b.derivative(0) / b
        for place, value in got.items():
            _require(value % p == _residue_trace(g, place),
                     f"inv mod p at {place!r} disagrees with Tr Res")
        if level > 1:
            # truncating w to level-1 reduces the invariant mod p^(level-1)
            low = kf.HClass.build(K, w.truncate(level - 1), (b,))
            _, low_table = kf.reciprocity_check(low)
            low_got = {inv.place: inv.value for inv in low_table}
            for place in set(got) | set(low_got):
                _require(got.get(place, 0) % (mod // p)
                         == low_got.get(place, 0),
                         f"truncation mismatch at {place!r}")


# --------------------------------------------------- local_decomp ----

class LocalDecomp:
    """Classes (u + wp(y) | t^j * unit) over F_q((t)), q in {2, 3, 4, 8},
    with u integral: the residue decomposition, the local invariant against
    the residue trace and the value read off u, and Artin-Schreier-Witt
    solving of the residue vector.  Wild cells add c t^-m (p does not divide
    m) to coordinate 0, which must raise WildClass."""

    name = "local_decomp"
    fields = [(2, 1), (3, 1), (2, 2), (2, 3)]
    # one wild class at levels 1 and 2 per field in each cycle
    # F_3((t)) stops at level 2: level 3 needs precision O(t^120) and takes
    # 0.1 to 0.3 s per class.  Level 4 runs over F_2((t)) only: its classes
    # take 30 to 300 ms, and with one per field in a cycle of 41 the 95th
    # percentile fell inside their spread and moved by 12 % between seeds.
    cells = (_level_cells(fields, {1: 3, 2: 3, 3: 2, 4: 1}, (False,),
                          top={(3, 1): 2, (2, 2): 3, (2, 3): 3})
             + _level_cells(fields, {1: 1, 2: 1}, (True,)))
    trace_rate = 70.0

    def setup(self):
        for p, e in self.fields:
            F = kf.gf(p, e)
            kf.laurent_field(F)
            for lvl in range(1, 5):
                kf.galois_ring(F, lvl)
        _witt_structures([(2, 4), (3, 2)])

    def spec(self, rng, cell):
        p, e, lvl, wild = cell
        # wp(y) raises the pole order to p^level; below this precision
        # the Witt arithmetic runs out of known coefficients
        prec = 12 + 4 * p ** lvl

        def series(val, n, nonzero_lead=False):
            lead = _rand_elem(rng, p, e, nonzero=nonzero_lead)
            return (val, (lead,) + tuple(_rand_elem(rng, p, e)
                                         for _ in range(n - 1)))
        u = tuple(series(rng.randint(0, 2), 3) for _ in range(lvl))
        y0 = series(-1, 1, nonzero_lead=True)
        unit = (0, ((1,) + (0,) * (e - 1),)
                + tuple(_rand_elem(rng, p, e) for _ in range(3)))
        j = rng.randint(-2, 2)
        extra = None
        if wild:
            # (w | t^j u) = j (w | t) + (w | u): with p | j and u = 1 the
            # class is zero however wild w is, so keep j prime to p
            j = rng.choice([j for j in (-2, -1, 1, 2) if j % p])
            m = rng.choice([m for m in range(1, 2 * p + 1) if m % p])
            extra = (-m, (_rand_elem(rng, p, e, nonzero=True),))
        return ("local", p, e, lvl, prec, u, y0, unit, j, extra)

    def build(self, spec):
        _, p, e, lvl, prec, u, y0, unit, j, extra = spec
        F = kf.gf(p, e)
        LF = kf.laurent_field(F)
        zero = kf.Laurent.zero(F, prec)
        uw = kf.WittVector(p, tuple(_laurent(F, s, prec) for s in u))
        y = kf.WittVector(p, (_laurent(F, y0, prec),) + (zero,) * (lvl - 1))
        w = uw + y.wp()
        if extra is not None:
            w = kf.WittVector(p, (w.coords[0] + _laurent(F, extra, prec),)
                              + w.coords[1:])
        b = _laurent(F, unit, prec).shift(j)
        return LF, w, b, uw, j, extra is not None

    def run(self, inputs):
        LF, w, b, _, _, _ = inputs
        c = kf.HClass.build(LF, w, (b,))
        try:
            _, resid = kf.decompose_local(c)
        except kf.WildClass as exc:
            return "wild", exc
        F = LF.base
        place = kf.Place(kf.Poly.x(F), LF.var)
        inv = kf.local_invariant(c, place)
        total = kf.WittVector(w.p, (F.zero,) * w.level)
        for v, _ in resid.terms:
            total = total + v
        trace = total.trace_int()
        return "ok", inv, total, trace, kf.witt_as_solve(total)

    def check(self, inputs, out):
        LF, w, b, uw, j, wild = inputs
        if wild:
            _require(out[0] == "wild", "ramified class did not raise "
                                       "WildClass")
            return
        _require(out[0] == "ok", f"unramified class raised {out[1]!r}")
        _, inv, total, trace, sol = out
        u0 = kf.WittVector(w.p, [a.coeff(0) for a in uw.coords])
        expect = u0.int_mul(j).trace_int()
        _require(inv.value == trace, "local invariant != trace of residue")
        _require(trace == expect, "trace of residue != j * Tr(u(0))")
        _require((sol is None) == (trace != 0),
                 "witt_as_solve solvability != (trace == 0)")
        _require(sol is None or sol.wp() == total, "F(s) - s != residue")


# ------------------------------------------------------- cli_batch ----

def _fmt_field(p, e, vars):
    q = f"GF({p})" if e == 1 else f"GF({p},{e})"
    return f"{q}({', '.join(vars)})"


class CliBatch:
    """Small generated scripts through run_script(json_mode=True), one
    script per operation; every printed result is compared with the
    library call on the object whose repr the script used."""

    name = "cli_batch"
    cells = [((2, 1, ("t",), 1), 2), ((2, 1, ("t",), 2), 2),
             ((3, 1, ("t",), 1), 2), ((3, 1, ("t",), 2), 1),
             ((2, 2, ("t",), 1), 1), ((2, 2, ("t",), 2), 1),
             ((2, 1, ("x", "y"), 1), 2), ((3, 1, ("x", "y"), 1), 1)]
    trace_rate = 40.0

    def setup(self):
        for (p, e, vars, _), _ in self.cells:
            kf.func_field(kf.gf(p, e), vars)
        _witt_structures([(2, 2), (3, 2)])

    def spec(self, rng, cell):
        p, e, vars, lvl = cell
        k = len(vars)

        def rf():
            return _rand_ratfunc(rng, p, e, k, max_deg=2)
        stmts = [("let", rf()), ("dsym", rf())]
        form = tuple(sorted({(rng.randrange(k),): rf()
                             for _ in range(rng.randint(1, 2))}.items()))
        stmts.append(("cartier", form))
        stmts.append(("nu", form, rng.randrange(2)))
        if k == 1:
            place = rng.choice(["inf"] + list(range(p)))
            stmts.append(("inv", rf(), rf(), place))
            stmts.append(("recip", tuple(rf() for _ in range(lvl)), rf()))
            stmts.append(("zero", rf(), rf()))
        return ("cli", p, e, vars, lvl, tuple(stmts))

    def build(self, spec):
        """The script text and, per printed line, the expected result."""
        _, p, e, vars, lvl, stmts = spec
        K = kf.func_field(kf.gf(p, e), vars)
        lines = [f"field F = {_fmt_field(p, e, vars)}",
                 f"set level {lvl}"]
        expect = [repr(K), "ok"]
        a = None
        for st in stmts:
            kind = st[0]
            if kind == "let":
                a = _ratfunc(K, st[1])
                lines.append(f"let a = {a!r}")
                expect.append(repr(a))
            elif kind == "dsym":
                b = _ratfunc(K, st[1])
                lines.append(f"dsym {{a, {b!r}}}")
                expect.append(("dsym", K, a, b))
            elif kind == "cartier":
                w = kf.form_from_terms(K, 1, {I: _ratfunc(K, c)
                                              for I, c in st[1]})
                closed = w.cartier_inv()
                lines.append(f"cartier {closed!r}")
                expect.append(("cartier", closed))
            elif kind == "nu":
                w = kf.form_from_terms(K, 1, {I: _ratfunc(K, c)
                                              for I, c in st[1]})
                if st[2] and not kf.dlog(a).is_zero():
                    w = kf.dlog(a)     # a logarithmic form: nu is true
                lines.append(f"nu {w!r}")
                expect.append(("nu", w))
            elif kind == "inv":
                c, d = _ratfunc(K, st[1]), _ratfunc(K, st[2])
                place = st[3]
                if place == "inf":
                    pl = kf.Place.infinity()
                else:
                    F = K.base
                    pl = kf.Place(kf.Poly(F, [F.elem(place), F.one]), "t")
                lines.append(f"inv [ [{c!r}] | {d!r} ) at {pl!r}")
                expect.append(("inv", K, (c,), d, lvl, pl))
            elif kind == "recip":
                cs = tuple(_ratfunc(K, x) for x in st[1])
                d = _ratfunc(K, st[2])
                lines.append("recip [ [" + ", ".join(map(repr, cs))
                             + f"] | {d!r} )")
                expect.append(("recip", K, cs, d, lvl))
            elif kind == "zero":
                c, d = _ratfunc(K, st[1]), _ratfunc(K, st[2])
                lines.append(f"zero [ [{c!r}] | {d!r} )")
                expect.append(("zero", K, (c,), d, lvl))
        return "\n".join(lines) + "\n", expect

    def run(self, inputs):
        text, _ = inputs
        buf = io.StringIO()
        rc = katoforge.cli.run_script(text, json_mode=True, out=buf)
        return rc, buf.getvalue()

    @staticmethod
    def _klass(K, coords, d, lvl):
        h = kf.HClass.build(K, kf.WittVector(K.base.p, coords), (d,))
        return kf.level_shift(h, lvl) if lvl > h.level else h

    def _expected(self, e):
        if isinstance(e, str):
            return e
        kind = e[0]
        if kind == "dsym":
            _, K, a, b = e
            return repr(kf.d_symbol(kf.MilnorElement.symbol(K, [a, b])))
        if kind == "cartier":
            return repr(e[1].cartier())
        if kind == "nu":
            return e[1].is_logarithmic()
        if kind == "inv":
            _, K, cs, d, lvl, pl = e
            return kf.local_invariant(self._klass(K, cs, d, lvl),
                                      pl).as_json_obj()
        if kind == "recip":
            _, K, cs, d, lvl = e
            ok, table = kf.reciprocity_check(self._klass(K, cs, d, lvl))
            mod = table[0].modulus if table else 0
            return {"table": [inv.as_json_obj() for inv in table],
                    "sum": sum(i.value for i in table) % mod if table else 0,
                    "ok": ok}
        _, K, cs, d, lvl = e
        return kf.h_zero_test(self._klass(K, cs, d, lvl))

    def check(self, inputs, out):
        text, expect = inputs
        rc, printed = out
        _require(rc == 0, f"run_script returned {rc}: {printed[-300:]!r}")
        rows = [json.loads(ln) for ln in printed.splitlines()]
        _require(len(rows) == len(expect),
                 f"{len(rows)} result lines for {len(expect)} statements")
        for lineno, (row, e) in enumerate(zip(rows, expect), start=1):
            want = json.loads(json.dumps(self._expected(e)))
            _require(row["result"] == want,
                     f"line {lineno}: printed {row['result']!r}, "
                     f"library gives {want!r}")


WORKLOADS = {w.name: w for w in (FormsCartier(), RecipGlobal(), LocalDecomp(),
                                 CliBatch())}
