"""Level-i cohomology classes of char-p fields as Witt-symbol sums.

An HClass is a formal sum of terms (w | b_1, ..., b_n) with w a length-i Witt
vector and nonzero field entries b_k, taken modulo the relation families
  (F(w) - w | b...),   ((a,0,..,0) | a, b...),   (w | ..b..b..).
Every HClass is in normal form: each entry is expanded along a fixed
factorization strategy (`_expand_entry`; over F_q(t) a monic irreducible or a
constant other than 1, over F_q((t)) t or a unit other than 1), no term has a
zero vector, a repeated entry (t counts once at every precision) or a
Teichmueller match, and the terms are sorted.  A series coordinate counts as
zero there only when it is known to O(t^1), as far as the residue reads a
zero coordinate; zero to a lower precision, its term stays and the residue
refuses it.  Only HClass(field, degree, level, terms) expands; the other
operations take the canonical step alone.  No confluent rewriting is
attempted: h_zero_test decides equality by the p-rank r of the field,
[F : F^p] = p^r, which is 0 for GF(q), 1 for F_q(t) and F_q((t)) and k for
F_q(x_1..x_k).  K_n(F)/p^i embeds in W_i Omega^n_F (Bloch-Kato-Gabber;
Bloch-Kato, Publ. IHES 63, 1986), H^{n+1}_{p^i}(F) is described through
W_i Omega^n_F, and Omega^n_F = 0 for n > r: every class of degree n > r is
zero, and is answered before any term is read.  At degree r the invariants
decide: the trace of the summed vector over GF(q), the reciprocity table
over F_q(t), the invariant at t over F_q((t)).  Degree 0 over F_q((t))
reduces the summed vector to its standard form: a surviving pole of order
prime to p makes the class nonzero, and otherwise the trace of the constant
terms, the residue vector decompose_local reads too, decides.  Degree 0
over F_q(t) needs no global standard form.  A character of F_q(t) is
ramified at a place exactly when the local standard form of its vector
keeps a pole there (Brylinski, Ann. Inst. Fourier 33, 1983), and one
unramified at every place is constant, since Pic(P^1) = Z by degree
(Rosen, Number Theory in Function Fields, GTM 210, ch. 9): then w = u +
wp(y) with u over F_q, and the residue vector at infinity, of degree 1, is
u modulo wp W_i(F_q), which the trace to Z/p^i detects.  So the summed
vector is expanded at each coordinate pole and at infinity, last, as far
as the standard form reads it, and reduced there: a pole surviving at any
place answers False, and the trace of infinity's residue vector decides.
At a place v of degree d the expansion at t - theta over k(v) is the
completion of k(v)(t), an unramified base change of F_q(t) of degree d,
which keeps the pole orders and so the ramification.  Only degree
n <= k over F_q(x_1..x_k), whose classes are built and added but have no
invariant, is refused with UnsupportedField.

The local invariant at a place is the Schmid-Witt residue: coordinates and
entry are expanded in the completion k(v)((pi)) and lifted coefficient-wise
by Teichmueller representatives into the Galois ring W_i(k(v)); the top ghost
component g = sum_j p^j [a_j]^(p^(i-1-j)) pairs with dlog b by the ordinary
series residue, and the trace to Z/p^i of that one residue is the invariant.
Ghost inversion of all i residues would give lifts x_j of the Witt vector
(x_j mod p) with ghost component w_{i-1}(x) equal to the top residue; since
x = y (mod p) implies x^(p^k) = y^(p^k) (mod p^(k+1)), that residue is
congruent mod p^i to a Frobenius conjugate of the Witt vector's image in
W_i(k(v)), and the trace does not see Frobenius.  At level 1 this collapses
to the classical Tr Res(a dlog b).

The residue (g * dlog b)_{-1} = sum_{k<=0} g_k (dlog b)_{-1-k} reads g only
through t^0, since dlog b has valuation >= -1, and reads dlog b only below
t^(-val g); each input is expanded and lifted exactly that far
(`_precision_needs`).  Coordinate j enters g as its n_j-th power,
n_j = p^(i-1-j), and the product rule (a series of valuation v known to
O(t^P) has its n-th power known to O(t^(P + (n-1) v))) makes O(t^1) of that
power need O(t^N_j) of the coordinate, N_j = 1 - (n_j - 1) min(v_j, 0).
The min(., 0) matters: a coordinate of valuation >= 1 still needs O(t^1);
cut to O(t^P) with P < 1 it is zero to precision, and its power is known to
O(t^(n_j P)) only.  dlog b is
known to O(t^(r-1)) when b is known to relative precision r, so b needs
r = 1 - val g, and val g >= min_j n_j v_j.

So the residue reads only min(v_j, 0) of each coordinate and ord b of the
entry, and a term whose coordinates are all integral (every v_j >= 0; a zero
coordinate reads 1 over F_q(t), its precision over F_q((t))) needs no series
at all.  Its g is integral and the lift of b = pi^(ord b) u has dlog
ord b / pi plus an integral series, so (g * dlog b)_{-1} = g_0 * ord b with
g_0 = sum_j p^j [a_j(v)]^(p^(i-1-j)), a_j(v) the constant term of
coordinate j.  [a]^p is the Frobenius of [a], which the trace does not
see, so Tr g_0 = Tr sum_j p^j [a_j(v)], the element with p-adic digits
w(v) (`GaloisRing.from_digits`): the classical unramified invariant
ord b * Tr(w(v)).  Such a term contributes 0 when ord b = 0 and is
otherwise read off the residue field; local_symbol sees only the terms
with a pole.

The standard form over F_q((t)) (Brylinski, Ann. Inst. Fourier 33, 1983)
removes each pole term c t^(-m), p | m, of coordinate j by the step
cur - wp(V^j [d]), d = c^(1/p) t^(-m/p).  F and V commute in characteristic
p, so that is cur + V^j([d] - [d^p]); and since
(x_0, .., x_{j-1}, 0, ..) + V^j(y) = (x_0, .., x_{j-1}, y) with V additive,
only the tail (cur_j, .., cur_{i-1}) moves: it becomes
(tail + [d]) + (-[d^p]) in W_{i-j}, with -[x] from
`WittVector.neg_teichmuller`, and no negation polynomial is evaluated.

decompose_local reads the reduced coordinates through t^0, and checks
before any Witt arithmetic that the input determines them: with
mu = min(0, min_k v_k / p^k) (a zero coordinate counts as valuation its
precision), coordinate k must be known to O(t^M_k),
M_k = ceil(1 + (p^(i-1) - p^k) |mu|).  The sum, negation and product
polynomials are isobaric of weight p^n in coordinate n when coordinate k
weighs p^k, so a vector whose coordinate k has valuation >= p^k mu and is
known to O(t^M_k) keeps both bounds through every sum: a monomial of
coordinate n takes its precision from one factor, M_k, plus the valuation
of the others, >= (p^n - p^k) mu.  The [d] and -[d^p] of a step satisfy
both: d has valuation -m/p with m <= p^j |mu|, and is known m p + 4 past
every input coordinate, so past M_0 = M_{j+k} + (p^(j+k) - 1) |mu|; that
covers the (p 2^k - 1) m / p which the power (d^p)^(2^k) in coordinate
j + k of -[d^p] loses at p = 2.  So every reduced coordinate is known to
O(t^M_k), M_k >= 1.

A reciprocity table takes the orders from one factorization per class:
each distinct coordinate denominator is factored once, and at a finite
place f, min(v_j, 0) is minus the multiplicity of f in the denominator of
coordinate j (at infinity, deg den - deg num).  `_factor_pass` relies on the
normal form for ord b: a monic irreducible entry f has order 1 at f and
-deg f at infinity, a constant order 0.  The places of the table are the
places of those polynomials.  local_invariant at a single place computes
the orders with place_order, which is cheaper there than factoring.

Completeness of the zero test over F_q(t) at n = 1 rests on the classical
injectivity of the total local-invariant map on p-power-torsion Brauer
classes; that assumption is recorded here and in the README.
"""

from functools import lru_cache

from .errors import (ConfigMismatch, DivisionByZero, LevelDecrease,
                     PrecisionExhausted, ResourceLimit, UnsupportedDegree,
                     UnsupportedField, WildClass)
from .gf import GF, GFElem
from .gring import galois_ring
from .laurent import Laurent
from .milnor import MilnorElement, _entry_factors, multilinear_expansion
from .places import Place, place_context, place_order
from .poly import Poly, factor, to_dense
from .rational import FuncField
from .witt import WittVector


class LaurentField:
    """Descriptor of F_q((t)); series print in t, so the variable is t."""

    var = "t"

    def __init__(self, base):
        self.base = base

    def __repr__(self):
        return f"{self.base!r}((t))"


@lru_cache(maxsize=None)
def laurent_field(base):
    return LaurentField(base)


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
    """"const" (GF(q)), "global" (F_q(t)), "local" (F_q((t))) or
    "multivariate" (F_q(x, y, ...)), whose classes are built and added
    but have no invariant (`_invariant_field_kind`)."""
    if isinstance(field, GF):
        return "const"
    if isinstance(field, FuncField):
        return "global" if field.k == 1 else "multivariate"
    if isinstance(field, LaurentField):
        return "local"
    raise UnsupportedField(f"unsupported field descriptor {field!r}")


def _invariant_field_kind(field):
    """`_field_kind` of a field whose classes have invariants;
    UnsupportedField, naming those fields, otherwise."""
    kind = _field_kind(field)
    if kind == "multivariate":
        raise UnsupportedField(
            f"classes over {field!r} have no invariants, which cover GF(q), "
            f"F_q(t) and F_q((t)); zero tests answer above degree {field.k}")
    return kind


def _p_rank(field):
    """r with [F : F^p] = p^r: 0 for GF(q), 1 for F_q(t) and F_q((t)), k
    for F_q(x_1..x_k).  Classes of degree above r are zero (module
    docstring)."""
    if isinstance(field, FuncField):
        return field.k
    return int(_field_kind(field) == "local")


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
        if unit.coeffs != (field.base.one,):
            out.append((unit, 1))
        return out
    out = _entry_factors(b)
    _, lead = b.num.leading()       # the constant the factors leave out
    if lead != field.base.one:
        out.append((field.const(lead), 1))
    return out


def _is_zero(x):
    """Zero test for a field element, rational function or series."""
    return not x if isinstance(x, GFElem) else x.is_zero()


def _known_zero(x):
    """x is zero, a series known to O(t^1) at least: as far as the residue
    reads a zero coordinate (`_precision_needs`).  A series zero only to a
    lower precision is kept, so the residue refuses it."""
    return _is_zero(x) and (not isinstance(x, Laurent) or x.prec >= 1)


def _teich_match(w, entries):
    """True when w = (a,0,...,0) with a equal to some entry and each 0 a
    `_known_zero`; as in `_slot_key`, the uniformizer t is one value at
    every precision."""
    if not all(map(_known_zero, w.coords[1:])):
        return False
    a = w.coords[0]
    return any(a == b or _is_uniformizer(a) and _is_uniformizer(b)
               for b in entries)


def _entry_key(x):
    """Sort key of a field element, rational function or series."""
    if isinstance(x, GFElem):
        return ("g", x.coeffs)
    if isinstance(x, Laurent):
        return ("l", x.val, tuple(c.coeffs for c in x.coeffs), x.prec)
    return ("r", x.sort_key())


def _is_uniformizer(x):
    """True when x is the series t, known to any precision."""
    return isinstance(x, Laurent) and x.val == 1 and x.coeffs == (x.ring.one,)


def _slot_key(x):
    """`_entry_key` without the precision of the uniformizer t, which
    `_expand_entry` records at the precision of the entry it came from:
    two uniformizer entries fill one slot."""
    return "t" if _is_uniformizer(x) else _entry_key(x)


def _term_key(w, entries):
    return (tuple(_entry_key(c) for c in w.coords),
            tuple(_entry_key(b) for b in entries))


class HClass:
    """A class in normal form (module docstring)."""

    __slots__ = ("field", "degree", "level", "terms")

    def __init__(self, field, degree, level, terms):
        self.field = field
        self.degree = degree
        self.level = level
        self.terms = _canonical(_expanded_terms(field, terms))

    @classmethod
    def _normal(cls, field, degree, level, terms):
        """The class of expanded terms: the canonical step, no expansion."""
        c = cls.__new__(cls)
        c.field, c.degree, c.level = field, degree, level
        c.terms = _canonical(terms)
        return c

    @classmethod
    def zero(cls, field, degree, level):
        return cls._normal(field, degree, level, ())

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

    def _with_terms(self, terms):
        return HClass._normal(self.field, self.degree, self.level, terms)

    def __add__(self, other):
        self._check(other)
        return self._with_terms(self.terms + other.terms)

    def __neg__(self):
        return self._with_terms([(-w, b) for w, b in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def int_mul(self, m):
        return self._with_terms([(w.int_mul(m), b) for w, b in self.terms])

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, b in self.terms:
            inner = ", ".join(repr(x) for x in b)
            parts.append(f"[ {w!r} | {inner} )" if b else f"[ {w!r} | )")
        return " + ".join(parts)


def _expanded_terms(field, terms):
    """The multilinear expansion of every entry: (m w | factors) for each
    choice of factors, m the product of their multiplicities."""
    out = []
    for w, entries in terms:
        for b in entries:
            if _is_zero(b):
                raise ConfigMismatch("zero entry in a Witt symbol")
        for ent, m in multilinear_expansion(
                entries, lambda b: _expand_entry(field, b)):
            out.append((w.int_mul(m), ent))
    return out


def _canonical(terms):
    """Expanded terms in normal form: vectors of `_known_zero` coordinates,
    repeated slots and Teichmueller-Steinberg matches dropped, the rest
    sorted."""
    out = [(w, ent) for w, ent in terms
           if not all(map(_known_zero, w.coords))
           and len(set(map(_slot_key, ent))) == len(ent)
           and not _teich_match(w, ent)]
    out.sort(key=lambda t: _term_key(*t))
    return tuple(out)


def pair(w, s):
    """The pairing (w, {b_1,...,b_n}) -> sum of Witt symbols."""
    if not isinstance(s, MilnorElement):
        raise ConfigMismatch("pair expects a Milnor element")
    return HClass(s.field, s.degree, w.level,
                  [(w.int_mul(c), sym) for sym, c in s.terms.items()])


def level_shift(c, new_level):
    """Pad Witt vectors with leading zeros: the transition map of levels."""
    if new_level < c.level:
        raise LevelDecrease(f"cannot shift level {c.level} down to {new_level}")
    if new_level == c.level:
        return c
    d = new_level - c.level
    return HClass._normal(c.field, c.degree, new_level,
                          [(w.vshift(d), b) for w, b in c.terms])


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

def _precision_needs(p, level, vals):
    """(needs, rel) for coordinates of valuations vals: the residue reads
    coordinate j to O(t^needs[j]) and b to relative precision rel (module
    docstring).  A zero series known to O(t^P) counts as valuation P."""
    powers = [p ** (level - 1 - j) for j in range(level)]
    needs = [1 - (n - 1) * min(v, 0) for n, v in zip(powers, vals)]
    rel = 1 - min(0, min(n * v for n, v in zip(powers, vals)))
    return needs, rel


def local_symbol(k_field, level, w_coords, b):
    """[w, b) in Z/p^level for w, b over k_field((pi)).

    The top ghost component g = sum_j p^j a_j^(p^(level-1-j)) of the
    Teichmueller coefficient lift pairs with dlog of the lifted entry through
    the ordinary residue, and the trace of W_level(k) reads off the invariant.
    The residue reads g through t^0 and dlog b below t^(-val g), so
    coordinate j of valuation v_j is cut to O(t^N_j),
    N_j = 1 - (p^(level-1-j) - 1) min(v_j, 0): by the product rule its
    p^(level-1-j)-th power is then known to O(t^1).  b is cut to relative
    precision 1 - val g, which knows dlog b to O(t^(-val g)).  Inputs known
    to less are used as they are; PrecisionExhausted if the residue is then
    out of reach.
    """
    if level < 1:
        raise ResourceLimit(f"level must be >= 1, got {level}")
    if len(w_coords) != level:
        raise ConfigMismatch(
            f"{len(w_coords)} Witt coordinates for level {level}")
    if b.is_zero():
        raise DivisionByZero("dlog of a series zero to precision")
    p = k_field.p
    R = galois_ring(k_field, level)
    needs, _ = _precision_needs(p, level, [a.val for a in w_coords])
    g = None
    for j, (a, need) in enumerate(zip(w_coords, needs)):
        a = a.truncate(min(a.prec, need))
        term = a.map_coeffs(R, R.teich) ** (p ** (level - 1 - j))
        term = term * (p ** j)
        g = term if g is None else g + term
    if g.val >= 1:
        return 0    # g_k = 0 for every k <= 0
    b = b.truncate(min(b.prec, b.val + 1 - g.val))
    dlogb = b.map_coeffs(R, R.teich).dlog()
    return R.trace_int((g * dlogb).coeff(-1))


def witt_standard_form(w, base):
    """Reduce Laurent-coordinate w modulo wp-images of integral-direction
    vectors: pole terms of order divisible by p cancel against coordinate-wise
    p-th roots, coordinate by coordinate, each step on the tail of the vector
    from its coordinate (module docstring).  Returns (reduced, wild) where
    wild lists the (coordinate, order) pole terms that survive (order prime
    to p).
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
            # cur - wp(V^j [d]) = cur + V^j([d] - [d^p]): only the tail
            # from coordinate j moves (module docstring)
            level = w.level - j
            tail = (WittVector(p, cur.coords[j:])
                    + WittVector.teichmuller(p, d, level)
                    + WittVector.neg_teichmuller(p, d ** p, level))
            cur = WittVector(p, cur.coords[:j] + tail.coords)
    wild = []
    for j, a in enumerate(cur.coords):
        if not a.is_zero() and a.val < 0:
            for idx in range(a.val, 0):
                if a.coeff(idx):
                    wild.append((j, -idx))
    return cur, wild


def _standard_form_needs(p, vals):
    """[M_k] for coordinates of valuations vals: coordinate k known to
    O(t^M_k), M_k = ceil(1 + (p^(i-1) - p^k) |mu|) with
    mu = min(0, min_k v_k / p^k), lets `witt_standard_form` know every
    reduced coordinate through t^0 (module docstring).  In integers, with
    top = p^(i-1) and the integer mu_top = mu * top,
    M_k = 1 - floor((top - p^k) mu_top / top)."""
    top = p ** (len(vals) - 1)
    mu_top = min(0, min(v * (top // p ** k) for k, v in enumerate(vals)))
    return [1 - (top - p ** k) * mu_top // top for k in range(len(vals))]


def _require_known(reader, coords, needs):
    """PrecisionExhausted, naming the coordinate and its reader, unless
    coordinate j is known to O(t^needs[j])."""
    for j, (a, need) in enumerate(zip(coords, needs)):
        if a.prec < need:
            raise PrecisionExhausted(
                f"Witt coordinate {j} known to O(t^{a.prec}); the level-"
                f"{len(coords)} {reader} reads it to O(t^{need})")


def _require_standard_form_precision(p, coords):
    """`_require_known` for the standard form; a zero series known to
    O(t^P) counts as valuation P."""
    _require_known("standard form", coords,
                   _standard_form_needs(p, [a.val for a in coords]))


def _residue_vector(w, base):
    """The constant terms of w's standard form over F_q((t)); WildClass,
    with the reduced vector attached, when a pole of order prime to p
    survives.  The caller checks `_require_standard_form_precision`."""
    red, wild = witt_standard_form(w, base)
    if wild:
        raise WildClass(red)
    return WittVector(base.p, [a.coeff(0) for a in red.coords])


# ------------------------------------------------------- invariants ----

def _place_vals(coords, place):
    """place_order of each coordinate, a zero coordinate at 1: as far as
    the residue and the standard form read it."""
    return [1 if a.is_zero() else place_order(a, place) for a in coords]


def _local_terms(c, place, orders=None):
    """(k_field, w, b, vals, ord b, at) per term of a degree-1 class at a
    place: vals and ord b are the coordinate valuations and the entry order
    the residue reads (`_precision_needs`), and at(x, prec) is x's series
    over k_field known to O(t^prec) at least.  Over F_q(t) orders gives
    (vals, ord b) per term, by default from place_order (a zero coordinate
    at 1), and at expands at the place.  Over F_q((t)), whose one place is
    (t), the terms are series, checked to be known as far as the residue
    reads them, and at returns them as they are."""
    field = c.field
    if _field_kind(field) == "local":
        if place != _t_place(field):
            raise UnsupportedField("F_q((t)) carries the single place (t)")
        for w, (b,) in c.terms:
            _require_residue_precision(field.base.p, c.level, w.coords, b)
            yield (field.base, w, b, [a.val for a in w.coords], b.val,
                   lambda x, prec: x)
        return
    ctx = place_context(field, place)
    if orders is None:
        orders = [(_place_vals(w.coords, place), place_order(b, place))
                  for w, (b,) in c.terms]
    for (w, (b,)), (vals, ord_b) in zip(c.terms, orders):
        yield ctx.res_field, w, b, vals, ord_b, ctx.expand


def _require_degree_one(c):
    if c.degree != 1 or any(len(entries) != 1 for _, entries in c.terms):
        raise UnsupportedDegree("local invariants exist for degree 1 only")


def local_invariant(c, place, orders=None):
    """The local invariant of a degree-1 class at a place, in Z/p^level.

    Over F_q(t), orders is the list of (vals, ord b) per term that the
    residue reads at this place (`reciprocity_check` reads them off its
    factorizations); by default place_order computes them.  A term whose
    coordinates are integral there reads its residue off the residue field
    (module docstring); the others go through local_symbol."""
    _require_degree_one(c)
    if _invariant_field_kind(c.field) == "const":
        raise UnsupportedField("constants have no places")
    level, p = c.level, c.field.base.p
    total = 0
    for k_field, w, b, vals, ord_b, at in _local_terms(c, place, orders):
        if min(vals) < 0 or _is_zero(b):
            needs, rel = _precision_needs(p, level, vals)
            total += local_symbol(
                k_field, level, [at(a, n) for a, n in zip(w.coords, needs)],
                at(b, ord_b + rel))
        elif ord_b:
            R = galois_ring(k_field, level)
            total += ord_b * R.trace_int(R.from_digits(
                [at(a, 1).coeff(0) for a in w.coords]))
    return LocalInvariant(total, place, level, p)


def _require_residue_precision(p, level, coords, b):
    """PrecisionExhausted unless coordinate j is known to O(t^N_j) and b to
    the relative precision rel that the residue reads
    (`_precision_needs`); a b zero to precision is left to local_symbol."""
    needs, rel = _precision_needs(p, level, [a.val for a in coords])
    _require_known("residue", coords, needs)
    if not b.is_zero() and b.prec - b.val < rel:
        raise PrecisionExhausted(
            f"entry known to relative precision {b.prec - b.val}; the "
            f"level-{level} residue reads it to relative precision {rel}")


def _infinite_order(r):
    return r.den.degree_in(0) - r.num.degree_in(0)


def _factor_pass(c):
    """(places, orders) from one factorization of each distinct coordinate
    denominator of a class over F_q(t), with each entry's orders read off
    the entry, which the normal form leaves irreducible or constant (module
    docstring).  places are the finite places where a coordinate has a pole
    or an entry a zero, in Place order, then infinity;
    orders(place) is the [(vals, ord b)] per term that
    `_local_terms` takes."""
    if _invariant_field_kind(c.field) != "global":
        raise UnsupportedField("places belong to classes over F_q(t)")
    # orders at a place are read from {place polynomial: valuation} dicts,
    # in which None, the polynomial of infinity, keys deg den - deg num
    den_factors, entry_orders = {}, {}
    polys = set()
    terms = []
    for w, entries in c.terms:
        vals = []
        for a in w.coords:
            if a.is_zero():
                vals.append(None)
                continue
            if a.den not in den_factors:
                den = to_dense(a.den)
                den_factors[a.den] = factor(den) if den.degree >= 1 else []
                polys.update(f for f, _ in den_factors[a.den])
            v = {f: -m for f, m in den_factors[a.den]}
            v[None] = _infinite_order(a)
            vals.append(v)
        for b in entries:
            if b not in entry_orders:
                v = entry_orders[b] = {None: _infinite_order(b)}
                if not b.num.is_const():
                    f = to_dense(b.num)
                    v[f] = 1
                    polys.add(f)
        terms.append((vals, entries))
    var = c.field.vars[0]
    places = sorted((Place(f, var) for f in polys), key=Place.sort_key)
    places.append(Place.infinity())

    def orders(place):
        return [([1 if v is None else v.get(place.poly, 0) for v in vals],
                 entry_orders[entries[0]].get(place.poly, 0))
                for vals, entries in terms]
    return places, orders


def class_places(c):
    """Places that can carry a nonzero invariant: poles of the Witt
    coordinates, zeros of the entries, in Place order, and infinity last,
    read off the same factorizations as `reciprocity_check`.  (Where every
    coordinate is integral and every entry is a unit the symbol
    vanishes.)"""
    return _factor_pass(c)[0]


def reciprocity_check(c):
    """(sum of all local invariants == 0, the invariant table).

    A class of degree other than 1 is refused before anything is factored.
    Each distinct coordinate denominator is factored once and no entry is;
    the places and every order the residue reads come from those factors
    and the entries, with no place_order per place."""
    _require_degree_one(c)
    places, orders = _factor_pass(c)
    table = [local_invariant(c, pl, orders(pl)) for pl in places]
    mod = c.field.base.p ** c.level
    total = sum(inv.value for inv in table) % mod
    return total == 0, table


# ------------------------------------------------- local structure ----

def decompose_local(c):
    """Split an unramified class over F_q((t)) into residue-field data:
    (specialization at degree n, residue at degree n-1).

    Terms must reduce to integral standard form; a surviving pole of order
    prime to p raises WildClass with the reduced vector attached.  A
    coordinate known to less than the precision rule of the module
    docstring asks raises PrecisionExhausted before any Witt arithmetic.  Only
    degree 1 carries the full decomposition (degree 0 has no residue slot).
    """
    if _field_kind(c.field) != "local":
        raise UnsupportedField("decomposition applies over F_q((t))")
    if c.degree != 1:
        raise UnsupportedDegree("decomposition implemented for degree 1")
    base = c.field.base
    for w, _ in c.terms:
        _require_standard_form_precision(base.p, w.coords)
    spec, resid = [], []
    for w, entries in c.terms:
        b = entries[0]
        w0 = _residue_vector(w, base)
        resid.append((w0.int_mul(b.val), ()))
        u0 = b.coeff(b.val)
        if u0 != base.one:
            spec.append((w0, (u0,)))
    # entries of a class over a finite field are expanded as they are
    return (HClass._normal(base, 1, c.level, spec),
            HClass._normal(base, 0, c.level, resid))


def h_zero_test(c):
    """Sound and complete zero test, decided by the p-rank r of the field
    (module docstring).  A class of degree above r is zero, by the
    vanishing of Omega^n_F for n > r, and nothing of it is read.  At
    degree r the invariants decide: over GF(q) the trace of the summed
    vector, over F_q(t) the reciprocity table, over F_q((t)) the invariant
    at t.  Degree 0 over F_q((t)) checks the summed vector against the
    precision rule of the standard form, then answers False for a wild
    vector and otherwise traces its residue vector.  Degree 0 over F_q(t)
    expands the summed vector at each place of class_places, infinity
    last, exactly as far as that rule reads it, answers False when it is
    wild at any of them and otherwise traces infinity's residue vector.
    UnsupportedField for degree n <= k over F_q(x_1..x_k)."""
    if c.degree > _p_rank(c.field):
        return True
    kind = _invariant_field_kind(c.field)
    if c.degree == 1:
        if kind == "global":
            return all(inv.value == 0 for inv in reciprocity_check(c)[1])
        return local_invariant(c, _t_place(c.field)).value == 0
    if not c.terms:
        return True
    first, *rest = (w for w, _ in c.terms)
    red = w = sum(rest, first)
    p = w.p
    try:
        if kind == "local":
            _require_standard_form_precision(p, w.coords)
            red = _residue_vector(w, c.field.base)
        elif kind == "global":
            # class_places ends at infinity, whose residue vector decides
            for place in class_places(c):
                ctx = place_context(c.field, place)
                needs = _standard_form_needs(p, _place_vals(w.coords, place))
                red = _residue_vector(WittVector(p, [
                    ctx.expand(a, n) for a, n in zip(w.coords, needs)]),
                    ctx.res_field)
    except WildClass:
        return False
    return red.trace_int() == 0


def _t_place(lfield):
    return Place(Poly.x(lfield.base), lfield.var)
