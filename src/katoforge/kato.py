"""Level-i cohomology classes of char-p fields as Witt-symbol sums.

An HClass is a formal sum of terms (w | b_1, ..., b_n) with w a length-i Witt
vector and nonzero field entries b_k, taken modulo the relation families
  (F(w) - w | b...),   ((a,0,..,0) | a, b...),   (w | ..b..b..).
No confluent rewriting is attempted: construction applies multilinear
expansion along a factorization strategy and drops syntactic relation matches;
equality is decided through invariants on the supported field classes
(finite constants; F_q(t) at n = 1; F_q((t)) at n <= 1).

The local invariant at a place is the Schmid-Witt residue: coordinates and
entry are expanded in the completion k(v)((pi)), lifted coefficient-wise by
Teichmueller representatives into the Galois ring W_i(k(v)), and the ghost
components of w pair with dlog b by the ordinary series residue; ghost
inversion (all divisions by p-powers exact) lands back in W_i(k(v)), and the
Witt trace reads the value in Z/p^i.  At level 1 this collapses to the
classical Tr Res(a dlog b).

Completeness of the zero test over F_q(t) at n = 1 rests on the classical
injectivity of the total local-invariant map on p-power-torsion Brauer
classes; that assumption is recorded here and in the README.
"""

from functools import lru_cache

from .errors import (ConfigMismatch, LevelDecrease, PrecisionExhausted,
                     ResourceLimit, UnsupportedDegree, UnsupportedField,
                     WildClass)
from .gf import GF, GFElem
from .gring import galois_ring
from .laurent import Laurent
from .milnor import MilnorElement
from .places import (Place, place_context, place_order, support_places,
                     to_dense)
from .poly import factor
from .rational import FuncField
from .witt import WittVector


class LaurentField:
    """Descriptor of F_q((t))."""

    def __init__(self, base, var="t"):
        self.base = base
        self.var = var

    def __repr__(self):
        return f"{self.base!r}(({self.var}))"


@lru_cache(maxsize=None)
def laurent_field(base, var="t"):
    return LaurentField(base, var)


class LocalInvariant:
    """A value in Z/p^i attached to a place."""

    __slots__ = ("value", "place", "level", "modulus")

    def __init__(self, value, place, level, p):
        self.modulus = p ** level
        self.value = value % self.modulus
        self.place = place
        self.level = level

    def __eq__(self, other):
        return (isinstance(other, LocalInvariant) and self.value == other.value
                and self.place == other.place and self.modulus == other.modulus)

    def __repr__(self):
        return f"inv_{self.place}={self.value} (mod {self.modulus})"

    def as_json_obj(self):
        return {"place": repr(self.place), "inv": self.value,
                "mod": self.modulus}


# ----------------------------------------------------------- classes ----

def _field_kind(field):
    if isinstance(field, GF):
        return "const"
    if isinstance(field, FuncField):
        return "global"
    if isinstance(field, LaurentField):
        return "local"
    raise UnsupportedField(f"unsupported field descriptor {field!r}")


def _is_one_entry(field, b):
    if _field_kind(field) == "local":
        return b.val == 0 and b.coeffs == (field.base.one,)
    return b == field.one


def _entry_is_zero(b):
    if isinstance(b, GFElem):
        return not b
    return b.is_zero()


def _expand_entry(field, b):
    """[(factor, multiplicity)]: the multilinear expansion of one b-slot."""
    kind = _field_kind(field)
    if kind == "const":
        return [(b, 1)]
    if kind == "local":
        v = b.val
        out = []
        if v:
            out.append((Laurent.monomial(field.base, field.base.one, 1,
                                         prec=b.prec - v + 1), v))
        unit = b.shift(-v)
        if not _is_one_entry(field, unit):
            out.append((unit, 1))
        return out
    base = field.base
    out = []
    for mp, sgn in ((b.num, 1), (b.den, -1)):
        dense = to_dense(mp, base)
        if dense.degree >= 1:
            for f, m in factor(dense):
                out.append((field.from_poly(_poly_as_mpoly(f, field)),
                            sgn * m))
    lead = _leading_constant(b)
    if lead != base.one:
        out.append((field.const(lead), 1))
    return out


def _poly_as_mpoly(f, field):
    from .mpoly import MPoly
    return MPoly(field.base, 1, {(d,): c for d, c in enumerate(f.coeffs) if c})


def _leading_constant(r):
    """r / (monic factorization part): the leading coefficient of num."""
    _, lc = r.num.leading()
    return lc


def _witt_is_zero(w):
    return all(_coeff_zero(c) for c in w.coords)


def _coeff_zero(c):
    if isinstance(c, Laurent):
        return c.is_zero()
    return not c if isinstance(c, GFElem) else c.is_zero()


def _teich_match(w, entries):
    """True when w = (a,0,...,0) with a equal to some entry."""
    if any(not _coeff_zero(c) for c in w.coords[1:]):
        return False
    a = w.coords[0]
    return any(a == b for b in entries)


def _entry_key(field, b):
    kind = _field_kind(field)
    if kind == "const":
        return b.coeffs
    if kind == "local":
        return (b.val, tuple(c.coeffs for c in b.coeffs), b.prec)
    return b.sort_key()


def _term_key(field, w, entries):
    return (tuple(_entry_key_any(c) for c in w.coords),
            tuple(_entry_key(field, b) for b in entries))


def _entry_key_any(c):
    if isinstance(c, GFElem):
        return ("g", c.coeffs)
    if isinstance(c, Laurent):
        return ("l", c.val, tuple(x.coeffs for x in c.coeffs), c.prec)
    return ("r", c.sort_key())


class HClass:
    __slots__ = ("field", "degree", "level", "terms")

    def __init__(self, field, degree, level, terms, normalize=True):
        self.field = field
        self.degree = degree
        self.level = level
        if normalize:
            terms = _normalize_terms(field, degree, level, terms)
        self.terms = tuple(terms)

    @classmethod
    def zero(cls, field, degree, level):
        return cls(field, degree, level, ())

    @classmethod
    def build(cls, field, w, entries):
        entries = tuple(entries)
        return cls(field, len(entries), w.level, [(w, entries)])

    def is_formally_zero(self):
        return not self.terms

    def _check(self, other):
        if (not isinstance(other, HClass) or other.field is not self.field
                or other.degree != self.degree or other.level != self.level):
            raise ConfigMismatch("classes of different spaces")

    def __add__(self, other):
        self._check(other)
        return HClass(self.field, self.degree, self.level,
                      self.terms + other.terms)

    def __neg__(self):
        return HClass(self.field, self.degree, self.level,
                      [(-w, b) for w, b in self.terms], normalize=False)

    def __sub__(self, other):
        return self + (-other)

    def int_mul(self, m):
        return HClass(self.field, self.degree, self.level,
                      [(w.int_mul(m), b) for w, b in self.terms])

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, b in self.terms:
            inner = ", ".join(repr(x) for x in b)
            parts.append(f"[ {w!r} | {inner} )" if b else f"[ {w!r} | )")
        return " + ".join(parts)


def _normalize_terms(field, degree, level, terms):
    out = []
    for w, entries in terms:
        for b in entries:
            if _entry_is_zero(b):
                raise ConfigMismatch("zero entry in a Witt symbol")
        expansions = [([], 1)]
        for b in entries:
            factors = _expand_entry(field, b)
            nxt = []
            for prefix, m in expansions:
                for f, mult in factors:
                    nxt.append((prefix + [f], m * mult))
            expansions = nxt
        for ent, m in expansions:
            wm = w.int_mul(m)
            if _witt_is_zero(wm):
                continue
            keys = [_entry_key(field, b) for b in ent]
            if len(set(keys)) != len(keys):
                continue                    # repeated slot relation
            if _teich_match(wm, ent):
                continue                    # Teichmueller-Steinberg relation
            out.append((wm, tuple(ent)))
    out.sort(key=lambda t: _term_key(field, *t))
    return out


def pair(w, s):
    """The pairing (w, {b_1,...,b_n}) -> sum of Witt symbols."""
    if not isinstance(s, MilnorElement):
        raise ConfigMismatch("pair expects a Milnor element")
    field = s.field
    out = HClass.zero(field, s.degree, w.level)
    for sym, c in s.terms.items():
        out = out + HClass(field, s.degree, w.level,
                           [(w.int_mul(c), sym)])
    return out


def level_shift(c, new_level):
    """Pad Witt vectors with leading zeros: the transition map of levels."""
    if new_level < c.level:
        raise LevelDecrease(f"cannot shift level {c.level} down to {new_level}")
    if new_level == c.level:
        return c
    d = new_level - c.level
    return HClass(c.field, c.degree, new_level,
                  [(w.vshift(d), b) for w, b in c.terms], normalize=False)


class ColimitClass:
    """An HClass regarded in the direct limit over levels."""

    __slots__ = ("h",)

    def __init__(self, h):
        self.h = h

    @property
    def level(self):
        return self.h.level

    def __repr__(self):
        return f"colim[{self.h!r} @ level {self.level}]"


def colimit_equal(c1, c2):
    lvl = max(c1.level, c2.level)
    a = level_shift(c1.h, lvl)
    b = level_shift(c2.h, lvl)
    return h_zero_test(a - b)


# ------------------------------------------- the Schmid-Witt residue ----

def local_symbol(k_field, level, w_coords, b):
    """[w, b) in Z/p^level for w, b over k_field((pi)).

    Ghost components of the Teichmueller coefficient lift pair with dlog of
    the lifted entry through the ordinary residue; ghost inversion returns to
    W_level(k); the Witt trace reads off the invariant.
    """
    p = k_field.p
    R = galois_ring(k_field, level)
    lifted = [a.map_coeffs(R, R.teich) for a in w_coords]
    blift = b.map_coeffs(R, R.teich)
    dlogb = blift.dlog()
    rhos = []
    for n in range(level):
        g = None
        for j in range(n + 1):
            term = lifted[j] ** (p ** (n - j)) * (p ** j)
            g = term if g is None else g + term
        rhos.append((g * dlogb).coeff(-1))
    digits = []
    for n in range(level):
        acc = rhos[n]
        for j in range(n):
            acc = acc - (digits[j] ** (p ** (n - j))) * (p ** j)
        digits.append(R.div_exact_p(acc, n))
    coords = [R.reduce(x) for x in digits]
    return WittVector(p, coords).trace_int()


def witt_standard_form(w, base):
    """Reduce Laurent-coordinate w modulo wp-images of integral-direction
    vectors: pole terms of order divisible by p cancel against coordinate-wise
    p-th roots, coordinate by coordinate.  Returns (reduced, wild) where wild
    lists the (coordinate, order) pole terms that survive (order prime to p).
    """
    p = w.p
    cur = w
    maxprec = max((c.prec for c in w.coords), default=4)
    for j in range(w.level):
        guard = 0
        while True:
            guard += 1
            if guard >= 10000:
                raise ResourceLimit(
                    "standard-form reduction did not terminate")
            a = cur.coords[j]
            target = None
            if not a.is_zero():
                for idx in range(a.val, 0):
                    if a.coeff(idx) and (-idx) % p == 0:
                        target = idx
                        break
            if target is None:
                break
            m = -target
            c = a.coeff(target)
            root = base.pth_root(c)
            d = Laurent.monomial(base, root, -(m // p),
                                 prec=maxprec + m * p + 4)
            z = d * 0
            y = WittVector(p, tuple(z if k != j else d
                                    for k in range(w.level)))
            cur = cur - y.wp()
    wild = []
    for j, a in enumerate(cur.coords):
        if not a.is_zero() and a.val < 0:
            for idx in range(a.val, 0):
                if a.coeff(idx):
                    wild.append((j, -idx))
    return cur, wild


# ------------------------------------------------------- invariants ----

def _local_series_inputs(c, place):
    """Expand every term of a global class at a place; yields
    (k_field, [coord series], b series) per term."""
    field = c.field
    ctx = place_context(field, place)
    k_field = ctx.res_field
    p = field.base.p
    for w, entries in c.terms:
        b = entries[0]
        pole = max((max(0, -place_order(a, place))
                    for a in w.coords if not a.is_zero()), default=0)
        bord = abs(place_order(b, place))
        prec = p ** (c.level - 1) * pole + 2 * bord + c.level + 8
        coords = [ctx.expand(a, prec) for a in w.coords]
        bseries = ctx.expand(b, prec)
        yield k_field, coords, bseries


def local_invariant(c, place):
    """The local invariant of a degree-1 class at a place, in Z/p^level."""
    if c.degree != 1 or any(len(entries) != 1 for _, entries in c.terms):
        raise UnsupportedDegree("local invariants exist for degree 1 only")
    kind = _field_kind(c.field)
    p = c.field.base.p if kind != "const" else c.field.p
    if kind == "const":
        raise UnsupportedField("constants have no places")
    total = 0
    if kind == "global":
        for k_field, coords, b in _local_series_inputs(c, place):
            total += local_symbol(k_field, c.level, coords, b)
        return LocalInvariant(total, place, c.level, p)
    # local field class: the only place is (t)
    if place.is_infinite or place.poly.degree != 1 or place.poly.coeffs[0]:
        raise UnsupportedField("F_q((t)) carries the single place (t)")
    base = c.field.base
    for w, entries in c.terms:
        b = entries[0]
        _require_precision(list(w.coords) + [b])
        total += local_symbol(base, c.level, list(w.coords), b)
    return LocalInvariant(total, place, c.level, p)


def _require_precision(series_list):
    for s in series_list:
        need = 1 + max(0, -s.val)
        if s.prec < need:
            raise PrecisionExhausted(
                f"precision O(t^{s.prec}) below required O(t^{need})")


def class_places(c):
    """Places that can carry a nonzero invariant: poles of the Witt
    coordinates, zeros and poles of the entries, and infinity.  (Where every
    coordinate is integral and every entry is a unit the symbol vanishes.)"""
    if _field_kind(c.field) != "global":
        raise UnsupportedField("places belong to classes over F_q(t)")
    out = set()
    base = c.field.base
    for w, entries in c.terms:
        for a in w.coords:
            den = to_dense(a.den, base)
            if den.degree >= 1:
                for f, _ in factor(den):
                    out.add(Place(f, c.field.vars[0]))
        for b in entries:
            out |= support_places(b)
    places = sorted(out, key=Place.sort_key)
    places.append(Place.infinity())
    return places


def reciprocity_check(c):
    """(sum of all local invariants == 0, the invariant table)."""
    table = [local_invariant(c, pl) for pl in class_places(c)]
    mod = c.field.base.p ** c.level
    total = sum(inv.value for inv in table) % mod
    return total == 0, table


# ------------------------------------------------- local structure ----

def decompose_local(c):
    """Split an unramified class over F_q((t)) into residue-field data:
    (specialization at degree n, residue at degree n-1).

    Terms must reduce to integral standard form; a surviving pole of order
    prime to p raises WildClass with the reduced vector attached.  Only
    degree 1 carries the full decomposition (degree 0 has no residue slot).
    """
    if _field_kind(c.field) != "local":
        raise UnsupportedField("decomposition applies over F_q((t))")
    if c.degree != 1:
        raise UnsupportedDegree("decomposition implemented for degree 1")
    base = c.field.base
    p = base.p
    spec = HClass.zero(base, 1, c.level)
    resid = HClass.zero(base, 0, c.level)
    for w, entries in c.terms:
        b = entries[0]
        _require_precision(list(w.coords) + [b])
        red, wild = witt_standard_form(w, base)
        if wild:
            raise WildClass(red)
        j = b.val
        u0 = b.coeff(b.val)
        w0 = WittVector(p, [a.coeff(0) for a in red.coords])
        resid = resid + HClass(base, 0, c.level, [(w0.int_mul(j), ())])
        if u0 != base.one:
            spec = spec + HClass(base, 1, c.level, [(w0, (u0,))])
    return spec, resid


def h_zero_test(c):
    """Sound and complete zero test on the supported field classes."""
    kind = _field_kind(c.field)
    if kind == "const":
        if c.degree >= 1:
            return True      # Omega^n of a perfect constant field vanishes
        total = None
        for w, _ in c.terms:
            total = w if total is None else total + w
        if total is None:
            return True
        return total.trace_int() == 0
    if kind == "global":
        if c.degree != 1:
            raise UnsupportedField(
                "zero test over F_q(t) is available at degree 1 only")
        ok, table = reciprocity_check(c)
        return all(inv.value == 0 for inv in table)
    # local
    if c.degree == 1:
        t_place = _t_place(c.field)
        return local_invariant(c, t_place).value == 0
    if c.degree == 0:
        total = None
        for w, _ in c.terms:
            total = w if total is None else total + w
        if total is None:
            return True
        red, wild = witt_standard_form(total, c.field.base)
        if wild:
            return False
        w0 = WittVector(c.field.base.p,
                        [a.coeff(0) for a in red.coords])
        return w0.trace_int() == 0
    raise UnsupportedField("zero test over F_q((t)) covers degrees 0 and 1")


def _t_place(lfield):
    from .poly import Poly
    return Place(Poly.x(lfield.base), lfield.var)
