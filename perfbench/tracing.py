"""Spans and counts at the library's layer boundaries, from outside it.

The tracer wraps public functions and methods of each katoforge module.
While installed, every wrapped call records a span (name, start, end,
parent span, operation id); the hottest element operations (GFElem and
GRElem addition and multiplication) are only counted, so their time stays
in the self time of whichever layer called them.  Nothing in the library is
edited: wrappers replace class attributes and the module globals that refer
to a wrapped function, and ``uninstall`` puts the originals back.

A span's self time is its duration minus the durations of its direct
children.  A layer is a module; its self time is the sum over its spans.
"""

import importlib
import sys
import time

from katoforge.errors import KatoforgeError

LAYERS = ("gf", "poly", "mpoly", "rational", "laurent", "places", "gring",
          "witt", "forms", "milnor", "kato", "cli")

# (span name, module, class or None, attribute): plain spans
SPANS = [
    ("gf.field", "gf", None, "gf"),
    ("gf.trace_int", "gf", "GF", "trace_int"),
    ("gf.artin_schreier_solve", "gf", "GF", "artin_schreier_solve"),
    ("poly.mul", "poly", "Poly", "__mul__"),
    ("poly.divmod", "poly", "Poly", "divmod"),
    ("poly.gcd", "poly", "Poly", "gcd"),
    ("poly.powmod", "poly", "Poly", "powmod"),
    ("poly.shift", "poly", "Poly", "shift"),
    ("poly.factor", "poly", None, "factor"),
    ("poly.is_irreducible", "poly", None, "is_irreducible"),
    ("mpoly.mul", "mpoly", "MPoly", "__mul__"),
    ("mpoly.divmod_exact", "mpoly", "MPoly", "divmod_exact"),
    ("rational.p_power_decompose", "rational", None, "p_power_decompose"),
    ("rational.derivative", "rational", "RatFunc", "derivative"),
    ("rational.pow", "rational", "RatFunc", "__pow__"),
    ("laurent.inverse", "laurent", "Laurent", "inverse"),
    ("laurent.pow", "laurent", "Laurent", "__pow__"),
    ("laurent.dlog", "laurent", "Laurent", "dlog"),
    ("places.context", "places", "PlaceContext", "__init__"),
    ("places.expand", "places", "PlaceContext", "expand"),
    ("places.residue", "places", "PlaceContext", "residue"),
    ("places.support_places", "places", None, "support_places"),
    ("places.place_order", "places", None, "place_order"),
    ("gring.teich", "gring", "GaloisRing", "teich"),
    ("gring.inv", "gring", "GaloisRing", "inv"),
    ("gring.div_exact_p", "gring", "GaloisRing", "div_exact_p"),
    ("gring.p_adic_digits", "gring", "GaloisRing", "p_adic_digits"),
    ("gring.from_digits", "gring", "GaloisRing", "from_digits"),
    ("witt.structure", "witt", None, "witt_structure"),
    ("witt.as_solve", "witt", None, "witt_as_solve"),
    ("witt.int_mul", "witt", "WittVector", "int_mul"),
    ("witt.trace_int", "witt", "WittVector", "trace_int"),
    ("witt.to_galois_ring", "witt", "WittVector", "to_galois_ring"),
    ("witt.from_galois_ring", "witt", None, "from_galois_ring"),
    ("forms.d", "forms", "DiffForm", "d"),
    ("forms.cartier", "forms", "DiffForm", "cartier"),
    ("forms.cartier_inv", "forms", "DiffForm", "cartier_inv"),
    ("forms.wedge", "forms", "DiffForm", "wedge"),
    ("forms.is_exact", "forms", "DiffForm", "is_exact"),
    ("forms.is_logarithmic", "forms", "DiffForm", "is_logarithmic"),
    ("forms.d_of_function", "forms", None, "d_of_function"),
    ("forms.dlog", "forms", None, "dlog"),
    ("milnor.d_symbol", "milnor", None, "d_symbol"),
    ("milnor.symbol_expand", "milnor", None, "symbol_expand"),
    ("kato.build", "kato", "HClass", "build"),
    ("kato.local_symbol", "kato", None, "local_symbol"),
    ("kato.local_invariant", "kato", None, "local_invariant"),
    ("kato.class_places", "kato", None, "class_places"),
    ("kato.reciprocity_check", "kato", None, "reciprocity_check"),
    ("kato.standard_form", "kato", None, "witt_standard_form"),
    ("kato.decompose_local", "kato", None, "decompose_local"),
    ("kato.zero_test", "kato", None, "h_zero_test"),
    ("kato.level_shift", "kato", None, "level_shift"),
    ("cli.run_script", "cli", None, "run_script"),
    ("cli.statement", "cli", None, "run_statement"),
]

# (counter name, module, class, attribute): counted, not timed
COUNTS = [
    ("gf.elem_add", "gf", "GFElem", "__add__"),
    ("gf.elem_add", "gf", "GFElem", "__sub__"),
    ("gf.elem_mul", "gf", "GFElem", "__mul__"),
    ("gf.elem_mul", "gf", "GFElem", "__rmul__"),
    ("gring.elem_add", "gring", "GRElem", "__add__"),
    ("gring.elem_add", "gring", "GRElem", "__sub__"),
    ("gring.elem_mul", "gring", "GRElem", "__mul__"),
    ("gring.elem_mul", "gring", "GRElem", "__rmul__"),
    ("mpoly.gcd.bivariate", "mpoly", None, "_gcd_bivariate"),
]

def _module(name):
    return importlib.import_module("katoforge." + name)


# memoized constructors whose cache_info gives the hit ratios
CACHES = {
    "gf.field.hit_ratio": _module("gf")._gf_cached,
    "places.context.hit_ratio": _module("places").place_context,
    "gring.ring.hit_ratio": _module("gring").galois_ring,
}


def _witt_span(coords):
    """Witt arithmetic is split by the coefficient class of the coordinates."""
    kind = type(coords[0]).__name__ if coords else ""
    return {"GFElem": "witt.arith_finite", "Laurent": "witt.arith_laurent",
            "RatFunc": "witt.arith_ratfunc"}.get(kind, "witt.arith_other")


class Tracer:
    """Collects spans per operation and folds them into per-name totals."""

    def __init__(self):
        self.spans = []            # [id, name, start, end, parent, op, error]
        self.stack = []
        self.next_id = 0
        self.op = 0
        self.calls = {}
        self.self_s = {}
        self.errors = {}
        self.counts = {}
        self.gcd_calls = 0
        self.gcd_trivial = 0
        self._plan = None
        self._cache_start = None
        self.cache_lookups = {name: [0, 0] for name in CACHES}

    # -- recording --

    def _call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span."""
        rec = [self.next_id, name, 0.0, 0.0,
               self.stack[-1] if self.stack else None, self.op, None]
        self.next_id += 1
        self.stack.append(rec)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except KatoforgeError as exc:
            rec[6] = type(exc).__name__
            raise
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()
            self.spans.append(rec)

    def _span(self, name, fn):
        call = self._call

        def wrapper(*args, **kwargs):
            return call(name, fn, *args, **kwargs)
        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def _special(self):
        """Wrappers whose span name depends on the arguments."""
        call = self._call
        tracer = self
        mpoly, rational = _module("mpoly"), _module("rational")
        laurent, witt = _module("laurent"), _module("witt")
        GaloisRing = _module("gring").GaloisRing

        gcd = mpoly.mpoly_gcd

        def mpoly_gcd(f, g):
            out = call("mpoly.gcd", gcd, f, g)
            tracer.gcd_calls += 1
            tracer.gcd_trivial += out.is_const()
            return out

        init = rational.RatFunc.__init__

        def ratfunc_init(self, field, num, den, _norm=True):
            if not _norm:
                return init(self, field, num, den, False)
            return call("rational.normalize", init, self, field, num, den)

        lmul = laurent.Laurent.__mul__

        def laurent_mul(self, other):
            if isinstance(other, int):
                return lmul(self, other)
            name = ("laurent.mul_gr" if isinstance(self.ring, GaloisRing)
                    else "laurent.mul_gf")
            return call(name, lmul, self, other)

        out = [(mpoly, None, "mpoly_gcd", gcd, mpoly_gcd),
               (rational, "RatFunc", "__init__", init, ratfunc_init),
               (laurent, "Laurent", "__mul__", lmul, laurent_mul)]
        W = witt.WittVector
        for attr in ("__add__", "__sub__", "__mul__"):
            orig = W.__dict__[attr]

            def binop(self, other, _orig=orig):
                if isinstance(other, int):
                    return _orig(self, other)
                return call(_witt_span(self.coords), _orig, self, other)
            out.append((witt, "WittVector", attr, orig, binop))
        neg = W.__dict__["__neg__"]

        def witt_neg(self):
            return call(_witt_span(self.coords), neg, self)
        out.append((witt, "WittVector", "__neg__", neg, witt_neg))
        return out

    # -- installing --

    def _targets(self):
        mods = {name: _module(name) for name in LAYERS}
        for name, mod, cls, attr in SPANS:
            owner = getattr(mods[mod], cls) if cls else mods[mod]
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                yield (mods[mod], cls, attr, raw,
                       classmethod(self._span(name, raw.__func__)))
            else:
                yield mods[mod], cls, attr, raw, self._span(name, raw)
        for name, mod, cls, attr in COUNTS:
            owner = getattr(mods[mod], cls) if cls else mods[mod]
            raw = owner.__dict__[attr]
            yield mods[mod], cls, attr, raw, self._count(name, raw)
        yield from self._special()

    def _make_plan(self):
        """Every (namespace or class, attribute, original, wrapper) to swap.

        A module-level function is swapped in every katoforge namespace that
        holds it, so calls through ``from .x import f`` are traced too."""
        namespaces = [m.__dict__ for n, m in sorted(sys.modules.items())
                      if n == "katoforge" or n.startswith("katoforge.")]
        plan = []
        for mod, cls, attr, raw, wrapped in self._targets():
            if cls:
                plan.append((getattr(mod, cls), attr, raw, wrapped))
                continue
            for ns in namespaces:
                for key, val in ns.items():
                    if val is raw:
                        plan.append((ns, key, raw, wrapped))
        return plan

    @staticmethod
    def _put(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self):
        """Put the wrappers in place for one traced operation."""
        if self._plan is None:
            self._plan = self._make_plan()
        for owner, attr, _, wrapped in self._plan:
            self._put(owner, attr, wrapped)
        self._cache_start = {n: c.cache_info() for n, c in CACHES.items()}

    def uninstall(self):
        for name, cache in CACHES.items():
            info, start = cache.cache_info(), self._cache_start[name]
            self.cache_lookups[name][0] += info.hits - start.hits
            self.cache_lookups[name][1] += info.misses - start.misses
        for owner, attr, raw, _ in reversed(self._plan):
            self._put(owner, attr, raw)

    # -- folding --

    def fold(self):
        """Fold the finished operation's spans into the totals."""
        child = {}
        for rec in self.spans:
            parent = rec[4]
            if parent is not None:
                child[parent[0]] = child.get(parent[0], 0.0) + rec[3] - rec[2]
        for sid, name, start, end, parent, _, error in self.spans:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = (self.self_s.get(name, 0.0) + end - start
                                 - child.get(sid, 0.0))
            layer = name.split(".")[0]
            if error and (parent is None
                          or parent[1].split(".")[0] != layer):
                self.errors[layer] = self.errors.get(layer, 0) + 1
        self.spans = []
        self.op += 1

    def values(self):
        """Every metric of per_layer_metrics() but trace.overhead, as
        {name: value}."""
        out = {}
        for layer in LAYERS:
            names = [n for n in self.calls if n.split(".")[0] == layer]
            out[f"{layer}.calls"] = sum(self.calls[n] for n in names)
            out[f"{layer}.self_s"] = sum(self.self_s[n] for n in names)
            out[f"{layer}.errors"] = self.errors.get(layer, 0)
        for name in DETAIL_CALLS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
        for name in DETAIL_SELF:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name in ("gf.elem_add", "gf.elem_mul", "gring.elem_add",
                     "gring.elem_mul"):
            out[f"{name}.calls"] = self.counts.get(name, 0)
        out["mpoly.gcd.bivariate_calls"] = self.counts.get(
            "mpoly.gcd.bivariate", 0)
        out["mpoly.gcd.trivial_ratio"] = (
            self.gcd_trivial / self.gcd_calls if self.gcd_calls else 0.0)
        for name, (hits, misses) in self.cache_lookups.items():
            total = hits + misses
            out[name] = hits / total if total else 0.0
        return out


# entry points reported on their own, besides the per-layer totals
DETAIL_CALLS = ("mpoly.gcd", "rational.normalize", "laurent.mul_gr",
                "laurent.mul_gf", "kato.local_symbol", "poly.factor")
DETAIL_SELF = ("mpoly.gcd", "rational.normalize", "rational.p_power_decompose",
               "forms.cartier", "forms.cartier_inv", "forms.d",
               "milnor.d_symbol", "laurent.mul_gr", "laurent.mul_gf",
               "laurent.inverse", "gring.teich", "kato.local_symbol",
               "kato.build", "kato.standard_form", "places.expand",
               "witt.arith_finite", "witt.arith_laurent",
               "witt.arith_ratfunc", "witt.as_solve", "witt.structure",
               "poly.mul", "poly.divmod", "poly.factor", "cli.statement")


def per_layer_metrics():
    """(name, unit, better) of every metric the traced run reports."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"),
                (f"{layer}.self_s", "s", "lower"),
                (f"{layer}.errors", "count", "lower")]
    out += [(f"{n}.calls", "count", "lower") for n in DETAIL_CALLS]
    out += [(f"{n}.self_s", "s", "lower") for n in DETAIL_SELF]
    out += [(f"{n}.calls", "count", "lower") for n in
            ("gf.elem_add", "gf.elem_mul", "gring.elem_add",
             "gring.elem_mul")]
    out += [("mpoly.gcd.bivariate_calls", "count", "lower"),
            ("mpoly.gcd.trivial_ratio", "ratio", "lower")]
    out += [(name, "ratio", "higher") for name in CACHES]
    out.append(("trace.overhead", "ratio", "lower"))
    return out
