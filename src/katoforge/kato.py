"""Level-i cohomology classes of char-p fields as Witt-symbol sums.

An HClass is a Z/p^i-combination of terms m (w | b_1, ..., b_n) with w a
length-i Witt vector and nonzero field entries b_k, taken modulo the
relation families
  (F(w) - w | b...),   ((a,0,..,0) | a, b...),   (w | ..b..b..).
Its terms are the dict {(w, entries): m}, and building, adding, negating,
multiplying and shifting classes run no Witt arithmetic on vectors: they
take entries, add and multiply the integers m, and shift coordinates.
Every HClass is in normal form: a class of degree above the p-rank of its
field (below) keeps no term, and none of its entries is expanded or
factored.  Otherwise each entry is expanded along a fixed factorization
strategy (`_expand_entry`; over F_q(t) a monic irreducible or a constant
other than 1, over F_q((t)) t or a unit, a unit that reads 1 dropped only
beside a power of t, which carries its precision), a multiplicity of a
factor multiplies m, over F_q((t)) each degree-1 term whose vector has a
pole and is known as far as the standard form below reads it is replaced
by its standard form, equal symbols are merged by adding their m, and the
terms are sorted.  With z leading zero coordinates, w = V^z w' and the
term has order dividing p^(i - z), so m is read modulo p^(i - z), and
1 <= m < p^(i - z), p prime to m: m = p^k u is stored as u on V^k w,
since F V = V F = p in characteristic p gives p^k w = V^k F^k w, and
F^k w - w = wp(w + F w + .. + F^(k-1) w) with V^k wp = wp V^k, so
p^k w = V^k w modulo wp W_i.  V^k is a shift of coordinates.  No term
has m = 0, a zero vector, a repeated entry or a Teichmueller match: m w =
(l a, 0,..,0) for w = (a,0,..,0) and m a (p-1)-th root of unity modulo
p^i, l = m mod p, and l a is an entry (t counts once at every
precision).  The standard form leaves the class as it is, since [w | b)
depends on w only modulo wp W_i; degree 0 sums its terms before it
reduces, and a term known too short stays as it is for the residue's own
precision guard.  A series
coordinate counts as zero only when it is known to O(t^1), as far as the
residue reads a zero coordinate; zero to a lower precision, its term stays
and the residue refuses it.  Only HClass(field, degree, level, terms)
expands, and over F_q((t)) it reduces each degree-1 source vector once,
before the expansion.  V^k of a reduced vector is reduced, so the canonical
step, which the other operations take alone, reduces a vector again only
after a fold, where V^k can leave a vector known too short for its own
standard form known far enough.  No confluent
rewriting is attempted: two vectors of one class, w and w + wp(y), stay
two terms, and h_zero_test decides equality by the p-rank r of the field,
[F : F^p] = p^r, which is 0 for GF(q), 1 for F_q(t) and F_q((t)) and k for
F_q(x_1..x_k).  K_n(F)/p^i embeds in W_i Omega^n_F (Bloch-Kato-Gabber;
Bloch-Kato, Publ. IHES 63, 1986), H^{n+1}_{p^i}(F) is described through
W_i Omega^n_F, and Omega^n_F = 0 for n > r: every class of degree n > r is
zero, and the normal form keeps none of its terms.  At degree r the
invariants decide: the trace of the summed vector (each term's vector
taken m times, here and below) over GF(q), the
invariants at the finite places of the reciprocity table over F_q(t) (they
and the one at infinity sum to 0, so infinity is not read), the invariant
at t over F_q((t)).  Degree 0 over F_q((t)) reduces the summed vector to its
standard form: a surviving pole of order prime to p makes the class
nonzero, and otherwise the trace of the constant terms, the residue vector
decompose_local reads too, decides.  Degree 0 over F_q(t) needs no
global standard form.  A character of F_q(t) is ramified at a place
exactly when the local standard form of its vector keeps a pole there
(Brylinski, Ann. Inst. Fourier 33, 1983), and one
unramified at every place is constant, since Pic(P^1) = Z by degree
(Rosen, Number Theory in Function Fields, GTM 210, ch. 9): then w = u +
wp(y) with u over F_q, and the residue vector at infinity, of degree 1, is
u modulo wp W_i(F_q), which the trace to Z/p^i detects.  So at each
coordinate pole and at infinity, last, every term's vector is expanded as
far as the standard form reads the termwise minimum valuations, which the
factorization that finds the poles gives (`_factor_pass`), the
expansions, each taken m times as a series, are summed over k(v)((t)),
and the sum is reduced: by the
isobaric bound below the sum is known that far, so no Witt sum of
rational functions is taken.  A pole surviving at any place answers
False, and the trace of infinity's residue vector decides.
At a place v of degree d the expansion at t - theta over k(v) is the
completion of k(v)(t), an unramified base change of F_q(t) of degree d,
which keeps the pole orders and so the ramification.  Only a class with a
term, of degree n <= k over F_q(x_1..x_k), whose classes are built and
added but have no invariant, is refused with UnsupportedField.

The local invariant at a place is the Schmid-Witt residue: coordinates and
entry are expanded in the completion k(v)((pi)) and lifted coefficient-wise
by Teichmueller representatives into the Galois ring W_i(k(v)); the top ghost
component g = sum_j p^j [a_j]^(p^(i-1-j)) pairs with dlog b by the ordinary
series residue, and the trace to Z/p^i of that one residue is the invariant;
a term m (w | b) adds it m times.
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
with a pole, which over F_q((t)) the normal form leaves only on terms
that are wild or known too short for the standard form.

The standard form over F_q((t)) (Brylinski, Ann. Inst. Fourier 33, 1983)
removes each pole term c t^(-m), p | m, of coordinate j by the step
cur - wp(V^j [d]), d = c^(1/p) t^(-m/p).  F and V commute in characteristic
p, so that is cur + V^j([d] - [d^p]); and since
(x_0, .., x_{j-1}, 0, ..) + V^j(y) = (x_0, .., x_{j-1}, y) with V additive,
only the tail a = (cur_j, .., cur_{i-1}) moves: it becomes
a + [d] - [d^p] in W_{i-j} (`_standard_form_step`), and no Witt sum is
taken.  Through p = 7 that is one pass of `_add_one_term` over the
family a + [y] - [y^p] of `witt._one_term_sum` at y = d.  Past p = 7,
where that family has about p^2/2 terms, it is two passes of the family
a + [y], at y = d and then at y = -d^p, since -[x] = [-x] for odd p.
A pass sums each coordinate into one list of coefficient codes.  Every
a-monomial m(a) is computed once per pass, from cached powers of the
coordinates, and a term c m(a) y^k adds m's coefficients times c c_y^k
at offset k v, where y = c_y t^v.  The term is known as far as the
product rule gives m y^k, min(val m + prec(y^k), prec m + k v) with
prec(y^k) = prec y + (k-1) v, and the sum starts from the precision of
a_0, as an empty sum would.
Coordinate j of the tail becomes cur_j + d - d^p: the step cancels c t^(-m),
adds c^(1/p) t^(-m/p) above it and nothing below, and leaves the precision
of cur_j as it is, since d and d^p are known further.  So one pass upward
from the valuation of coordinate j meets every pole, the added ones too:
a pole of order prime to p is wild and stays, one of order divisible by p
takes a step.  The pass ends at t^0, or where a step leaves the coordinate
zero to precision (t^-6 + O(t^-3) at p = 2: the t^-3 it adds lies beyond
O(t^-3)).  Later steps move only coordinates after j, so the wild poles of
coordinate j are final when its pass ends.

The normal form reduces a term only when its vector determines the
reduced coordinates through t^0, which decompose_local also checks before
it reads them: with mu = min(0, min_k v_k / p^k) (a zero coordinate
counts as valuation its precision), coordinate k must be known to
O(t^M_k), M_k = ceil(1 + (p^(i-1) - p^k) |mu|).  The sum, negation and product
polynomials are isobaric of weight p^n in coordinate n when coordinate k
weighs p^k, so a vector whose coordinate k has valuation >= p^k mu and is
known to O(t^M_k) keeps both bounds through every sum: a monomial of
coordinate n takes its precision from one factor, M_k, plus the valuation
of the others, >= (p^n - p^k) mu.  The [d] and -[d^p] of a step satisfy
both: d has valuation -m/p with m <= p^j |mu|, and is known m p + 4 past
every input coordinate, so past M_0 = M_{j+k} + (p^(j+k) - 1) |mu|; that
covers the (p 2^k - 1) m / p which the power (d^p)^(2^k) in coordinate
j + k of -[d^p] loses at p = 2.  A pass is the sums S_n(a, b) with
b = [d] - [d^p], or b = [d] or [-d^p], expanded in y, and the bounds
hold term by term, so it keeps them as the sums do.  So every reduced
coordinate is known to O(t^M_k), M_k >= 1.

Over F_q((t)) the normal form thus leaves a degree-1 term known that far
integral exactly when no pole of order prime to p survives, and the
unramified rule above gives ord b * Tr(w'(0)) from the constant terms of
the standard form w'; no series is lifted or divided.  A wild term, or
one known short of some M_k, goes through local_symbol, which reads no
further than the standard form (N_j <= M_j, since |mu| >= |min(v_j, 0)| /
p^j), so the residue's own precision guard still decides what is
refused.  A degree-0 zero test reads the standard form of the summed
vector as a pair (`_unramified_residue`): its residue vector, or None
while a wild pole survives.  Over F_q(t) every term with a pole goes to
local_symbol: the coordinate poles at the places a table reaches are
mostly simple, hence wild, and the reduction is mostly wasted there.  On
600 seed-1 recip_global operations of perfbench (2 vCPUs, Python
3.11.7), 7 of 1,604 pole terms reduced to unramified, and the rule was
5-13 % slower than local_symbol alone.

A reciprocity table takes the orders from one factorization per class:
each distinct coordinate denominator is factored once, and at a finite
place f, min(v_j, 0) is minus the multiplicity of f in the denominator of
coordinate j (at infinity, deg den - deg num).  `_factor_pass` relies on the
normal form for ord b: a monic irreducible entry f has order 1 at f and
-deg f at infinity, a constant order 0.  The places of the table are the
places of those polynomials.  The zero test takes its places and orders
from the same pass, at degree 0 and at degree 1, where it reads the
finite places only.  local_invariant at a single place computes the
orders with place_order, which is cheaper there than factoring.

Completeness of the zero test over F_q(t) at n = 1 rests on the classical
injectivity of the total local-invariant map on p-power-torsion Brauer
classes; that assumption is recorded here and in the README.  With the
reciprocity law (the invariants sum to 0) the finite places alone decide.
"""

import math
import operator
from functools import lru_cache, reduce

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
from .witt import WittVector, _check_request, _one_term_sum


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
    for F_q(x_1..x_k).  Classes of degree above r are zero and keep no
    term (module docstring)."""
    if isinstance(field, FuncField):
        return field.k
    return int(_field_kind(field) == "local")


def _expand_entry(field, b):
    """[(factor, multiplicity)]: the multilinear expansion of one b-slot
    over F_q(t), F_q(x_1..x_k) or F_q((t)).  Over F_q((t)) a unit that
    reads 1 is dropped only beside t^v, v != 0, whose precision it
    shares; alone it is the entry's only record of its precision."""
    if isinstance(field, LaurentField):
        v = b.val
        out = []
        if v:
            out.append((Laurent.monomial(field.base, field.base.one, 1,
                                         prec=b.prec - v + 1), v))
        unit = b.shift(-v)
        if not v or unit.coeffs != (field.base.one,):
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


def _teich_match(w, entries, m):
    """True when m [w | entries) is a Teichmueller-Steinberg match: w =
    (a,0,...,0) with each 0 a `_known_zero`, m a (p-1)-th root of unity
    modulo p^level, so that m w = (l a, 0,...,0) with l = m mod p, since
    Teichmueller vectors multiply, and l a equal to some entry.  The
    uniformizer t, which `_expand_entry` records at the precision of the
    entry it came from, is one value at every precision."""
    if pow(m, w.p - 1, w.p ** w.level) != 1 or not all(
            map(_known_zero, w.coords[1:])):
        return False
    a = w.coords[0] if m % w.p == 1 else w.coords[0] * (m % w.p)
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


def _term_key(w, entries):
    return (tuple(_entry_key(c) for c in w.coords),
            tuple(_entry_key(b) for b in entries))


class HClass:
    """A class in normal form (module docstring).  terms is the dict
    {(w, entries): m} in `_term_key` order; the constructor takes such a
    dict, or (w, entries) pairs, each taken once."""

    __slots__ = ("field", "degree", "level", "terms")

    def __init__(self, field, degree, level, terms):
        items = (list(terms.items()) if isinstance(terms, dict)
                 else [(term, 1) for term in terms])
        if any(_is_zero(b) for (_, entries), _ in items for b in entries):
            raise ConfigMismatch("zero entry in a Witt symbol")
        self.field = field
        self.degree = degree
        self.level = level
        # Omega^n_F = 0 above the p-rank (module docstring)
        self.terms = _canonical(field, () if degree > _p_rank(field) else
                                _expanded_terms(field, level, items))

    @classmethod
    def _normal(cls, field, degree, level, terms):
        """The class of expanded ((w, entries), m) items: the canonical
        step, no expansion."""
        c = cls.__new__(cls)
        c.field, c.degree, c.level = field, degree, level
        c.terms = _canonical(field, terms)
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

    def __add__(self, other):
        self._check(other)
        return HClass._normal(self.field, self.degree, self.level,
                              [*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return self.int_mul(-1)

    def __sub__(self, other):
        return self + (-other)

    def int_mul(self, m):
        return HClass._normal(self.field, self.degree, self.level,
                              [(t, m * n) for t, n in self.terms.items()])

    def __repr__(self):
        if not self.terms:     # a literal that reads back as this class
            zeros = ", ".join(["0"] * self.level)
            ones = ", ".join(["1"] * self.degree)
            return f"[ [{zeros}] | {ones} )" if ones else f"[ [{zeros}] | )"
        parts = []
        for (w, b), m in self.terms.items():
            inner = ", ".join(repr(x) for x in b)
            term = f"[ {w!r} | {inner} )" if b else f"[ {w!r} | )"
            parts.append(term if m == 1 else f"{m}*{term}")
        return " + ".join(parts)


def _expanded_terms(field, level, terms):
    """The multilinear expansion of every entry of the ((w, entries), m)
    items terms: ((w, factors), m m') for each choice of factors, m' the
    product of their multiplicities.  Over F_q((t)) a degree-1 w is put in
    standard form first (`_standard_form_term`), once: the fold of
    `_canonical` keeps it so.  Over a field other than GF(q), whose sums
    and standard forms take universal polynomials, ResourceLimit above
    max_structure_level, as Witt arithmetic on such coordinates refuses."""
    if terms and not isinstance(field, GF):
        _check_request(field.base.p, level)
    local = isinstance(field, LaurentField)
    out = []
    for (w, entries), m in terms:
        if local and len(entries) == 1:
            w = _standard_form_term(w, field.base)
        out += [((w, ent), k) for ent, k in multilinear_expansion(
            entries, lambda b: _expand_entry(field, b), m)]
    return out


def _canonical(field, terms):
    """Expanded ((w, entries), m) items in normal form.  Equal symbols
    merge by `_term_key`, adding their m.  With z leading `_known_zero`
    coordinates m is read modulo p^(level - z), so a vector of
    `_known_zero` coordinates drops; so does a term whose m reads 0, one
    with a repeated entry and a Teichmueller-Steinberg match
    (`_teich_match`).  An m = p^k u, p prime to u, becomes u on V^k w
    (V = `WittVector.verschiebung`, a shift), since p^k w = V^k F^k w =
    V^k w modulo wp W_i (module docstring).  Over F_q((t)) a folded
    degree-1 vector is put in standard form: V^k of a reduced vector is
    reduced, but one known too short for its standard form can be known
    far enough once V^k drops its last k coordinates.  A fold can make two
    symbols equal or a vector zero, so the terms then take the step
    again; the rest are sorted."""
    merged = {}
    for (w, ent), m in terms:
        merged.setdefault(_term_key(w, ent), [w, ent, 0])[2] += m
    out, folded = [], False
    for key, (w, ent, m) in merged.items():
        m %= w.p ** (w.level - next((j for j, a in enumerate(w.coords)
                                     if not _known_zero(a)), w.level))
        if len(set(key[1])) < len(ent) or _teich_match(w, ent, m):
            continue
        k = 0
        while m and not m % w.p:
            m, w, k = m // w.p, w.verschiebung(), k + 1
        if k and isinstance(field, LaurentField) and len(ent) == 1:
            w = _standard_form_term(w, field.base)
        if m:
            out.append((key, ((w, ent), m)))
        folded = folded or k
    if folded:
        return _canonical(field, [term for _, term in out])
    return dict(term for _, term in sorted(out, key=operator.itemgetter(0)))


def _standard_form_term(w, base):
    """The standard form of w over base((t)) when w has a pole and is known
    as far as `_standard_form_needs` asks; w as it is otherwise, so that a
    term known too short meets local_symbol's own precision guard."""
    vals = [a.val for a in w.coords]
    if min(vals) >= 0 or any(a.prec < n for a, n in zip(
            w.coords, _standard_form_needs(w.p, vals))):
        return w
    return witt_standard_form(w, base)[0]


def pair(w, s):
    """The pairing (w, {b_1,...,b_n}) -> sum of Witt symbols, each
    Milnor coefficient the multiplicity of its symbol."""
    if not isinstance(s, MilnorElement):
        raise ConfigMismatch("pair expects a Milnor element")
    return HClass(s.field, s.degree, w.level,
                  {(w, sym): c for sym, c in s.terms.items()})


def level_shift(c, new_level):
    """Pad Witt vectors with leading zeros: the transition map of levels."""
    if new_level < c.level:
        raise LevelDecrease(f"cannot shift level {c.level} down to {new_level}")
    if new_level == c.level:
        return c
    d = new_level - c.level
    return HClass._normal(c.field, c.degree, new_level,
                          [((w.vshift(d), b), m)
                           for (w, b), m in c.terms.items()])


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

    Two steps are memoized per process, per Galois ring R = GR(p^level, k),
    at most 512 entries each, least recently used out: the ghost term
    p^j teich(a_j)^(p^(level-1-j)) of each truncated coordinate
    (`_ghost_term`) and dlog teich(b) of the truncated entry
    (`_lifted_dlog`).  Their keys are the truncated series, so inputs known
    further share an entry.  ConfigMismatch for a coordinate or an entry
    that is not a Laurent series.
    """
    if level < 1:
        raise ResourceLimit(f"level must be >= 1, got {level}")
    if len(w_coords) != level:
        raise ConfigMismatch(
            f"{len(w_coords)} Witt coordinates for level {level}")
    for x in (*w_coords, b):
        if not isinstance(x, Laurent):
            raise ConfigMismatch(
                f"local_symbol reads Laurent series, got a {type(x).__name__}")
    if b.is_zero():
        raise DivisionByZero("dlog of a series zero to precision")
    R = galois_ring(k_field, level)
    needs, _ = _precision_needs(k_field.p, level, [a.val for a in w_coords])
    g = None
    for j, (a, need) in enumerate(zip(w_coords, needs)):
        term = _ghost_term(R, j, a.truncate(min(a.prec, need)))
        g = term if g is None else g + term
    if g.val >= 1:
        return 0    # g_k = 0 for every k <= 0
    dlogb = _lifted_dlog(R, b.truncate(min(b.prec, b.val + 1 - g.val)))
    return R.trace_int((g * dlogb).coeff(-1))


@lru_cache(maxsize=512)
def _ghost_term(R, j, a):
    """p^j teich(a)^(p^(level-1-j)) over R = GR(p^level, k) for coordinate j
    of local_symbol, cut to what the residue reads."""
    return (a.map_coeffs(R, R.teich) ** (R.p ** (R.length - 1 - j))
            * (R.p ** j))


@lru_cache(maxsize=512)
def _lifted_dlog(R, b):
    """dlog teich(b) over R for local_symbol's entry, cut to what the
    residue reads."""
    return b.map_coeffs(R, R.teich).dlog()


def witt_standard_form(w, base):
    """Reduce Laurent-coordinate w modulo wp-images of integral-direction
    vectors: pole terms of order divisible by p cancel against coordinate-wise
    p-th roots, in one ascending pass over the poles of each coordinate,
    each step on the tail of the vector from its coordinate (module
    docstring).  Returns (reduced, wild) where wild lists the
    (coordinate, order) pole terms that survive (order prime to p).
    ResourceLimit, naming the order and the coordinate, if a step leaves
    its pole term in place.
    """
    p = w.p
    cur = w
    maxprec = max((c.prec for c in w.coords), default=4)
    wild = []
    for j in range(w.level):
        a = cur.coords[j]
        idx = a.val
        while idx < 0 and not a.is_zero():
            c = a.coeff(idx)
            if c and idx % p:
                wild.append((j, -idx))
            elif c:
                m = -idx
                d = Laurent.monomial(base, base.pth_root(c), -(m // p),
                                     prec=maxprec + m * p + 4)
                # cur - wp(V^j [d]) = cur + V^j([d] - [d^p]): only the tail
                # from coordinate j moves (module docstring)
                cur = WittVector(p, cur.coords[:j] + _standard_form_step(
                    p, cur.coords[j:], d))
                a = cur.coords[j]
                if not a.is_zero() and a.coeff(idx):
                    raise ResourceLimit(
                        f"the standard-form step left the pole of order {m} "
                        f"in Witt coordinate {j}")
            idx += 1
    return cur, wild


# through p = 7 the step's own family has at most 2,872 terms and one pass
# of it beats two of a + [y]; past p = 7 it has about p^2/2 terms at W_2,
# generated in about p^4 (witt module docstring), and a + [y] has p + 2
_ONE_PASS_STEP_MAX_PRIME = 7


def _standard_form_step(p, tail, d):
    """The coordinates of tail + [d] - [d^p] in W_L, L = len(tail), for a
    one-term series d: one pass of the step's family through p = 7, and
    past it tail + [d] + [-d^p], since -1 = [-1] for odd p (module
    docstring)."""
    if p <= _ONE_PASS_STEP_MAX_PRIME:
        return _add_one_term(tail, d, _one_term_sum(p, len(tail),
                                                    ((1, 1), (p, -1))))
    polys = _one_term_sum(p, len(tail), ((1, 1),))
    return _add_one_term(_add_one_term(tail, d, polys), -(d ** p), polys)


def _add_one_term(tail, y, polys):
    """The coordinates of the family polys of ``witt._one_term_sum`` at
    a = tail and a one-term series y = c_y t^v, each summed in one pass
    into one list of element codes (module docstring)."""
    F = y.ring
    add, mul = F.tables[:2]
    cy, v, yprec = y.coeffs[0], y.val, y.prec
    powers = [{} for _ in tail]
    # (val, coefficients, precision) of each a-monomial; the empty one is 1
    monomials = {(0,) * len(tail): (0, (F.one,), math.inf)}
    scalars = {}

    def monomial(e):
        m = monomials.get(e)
        if m is None:
            x = None
            for a, cache, n in zip(tail, powers, e):
                if n:
                    an = cache.get(n)
                    if an is None:
                        an = cache[n] = a ** n if n > 1 else a
                    x = an if x is None else x * an
            m = monomials[e] = (x.val, x.coeffs, x.prec)
        return m

    out = []
    for terms in polys:
        # the sum starts from tail[0]'s precision, as an empty sum would
        prec = tail[0].prec
        parts = []
        for e, c in terms:
            k = e[-1]
            val, coeffs, mprec = monomial(e[:-1])
            prec = min(prec, mprec + k * v,
                       val + yprec + (k - 1) * v if k else mprec)
            if coeffs:
                parts.append((val + k * v, coeffs, k, c))
        parts = [part for part in parts if part[0] < prec]
        lo = min([part[0] for part in parts], default=prec)
        acc = [0] * (prec - lo)
        for off, coeffs, k, c in parts:
            s = scalars.get(k)
            if s is None:
                s = scalars[k] = (cy ** k).idx
            row = mul[mul[s][c]]
            for j, x in enumerate(coeffs[:prec - off], off - lo):
                acc[j] = add[acc[j]][row[x.idx]]
        # cancelled terms leave zeros at either end: drop them as codes
        start = next((j for j, x in enumerate(acc) if x), len(acc))
        end = len(acc)
        while end > start and not acc[end - 1]:
            end -= 1
        out.append(Laurent(F, lo + start,
                           list(map(F.from_code, acc[start:end])), prec))
    return tuple(out)


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


def _unramified_residue(reduced, wild):
    """The residue vector of a standard form (reduced, wild) over k((t)):
    the constant terms of reduced, or None when a pole of order prime to p
    survives.  The caller checks that the input was known as far as
    `_standard_form_needs` asks."""
    if wild:
        return None
    return WittVector(reduced.p, [a.coeff(0) for a in reduced.coords])


# ------------------------------------------------------- invariants ----

def _local_terms(c, place, orders=None):
    """(k_field, w, b, m, vals, ord b, at) per term m [w | b) of a
    degree-1 class at a place: vals and ord b are the coordinate
    valuations and the entry order the residue reads
    (`_precision_needs`), and at(x, prec) is x's series
    over k_field known to O(t^prec) at least.  Over F_q(t) orders gives
    (vals, ord b) per term, by default from place_order (a zero coordinate
    at 1, as far as the residue reads it), and at expands at the place.
    Over F_q((t)), whose one place is (t), the terms are series, every one
    checked to be known as far as the residue reads it before the first
    is yielded, and at returns them as they are."""
    field = c.field
    if _field_kind(field) == "local":
        if place != _t_place(field):
            raise UnsupportedField("F_q((t)) carries the single place (t)")
        for w, (b,) in c.terms:
            _require_residue_precision(field.base.p, c.level, w.coords, b)
        k_field, at = field.base, lambda x, prec: x
        orders = [([a.val for a in w.coords], b.val) for w, (b,) in c.terms]
    else:
        ctx = place_context(field, place)
        k_field, at = ctx.res_field, ctx.expand
        if orders is None:
            orders = [([1 if a.is_zero() else place_order(a, place)
                        for a in w.coords], place_order(b, place))
                      for w, (b,) in c.terms]
    for ((w, (b,)), m), (vals, ord_b) in zip(c.terms.items(), orders):
        yield k_field, w, b, m, vals, ord_b, at


def _require_degree_one(c):
    if c.degree != 1 or any(len(entries) != 1 for _, entries in c.terms):
        raise UnsupportedDegree("local invariants exist for degree 1 only")


def local_invariant(c, place, orders=None):
    """The local invariant of a degree-1 class at a place, in Z/p^level.

    Over F_q(t), orders is the list of (vals, ord b) per term that the
    residue reads at this place (`reciprocity_check` reads them off its
    factorizations); by default place_order computes them.  Over F_q(t)
    and F_q((t)) alike, a term whose coordinates are integral at the place
    reads its residue off the residue field (module docstring), and the
    others go through local_symbol.  Over F_q((t)) the normal form keeps
    each term in its standard form w - wp(y), so a term whose poles that
    removes is integral, and only a wild term, or one known short of what
    the standard form reads, takes local_symbol.  A term m (w | b) adds
    its residue m times."""
    _require_degree_one(c)
    if _invariant_field_kind(c.field) == "const":
        raise UnsupportedField("constants have no places")
    level, p = c.level, c.field.base.p
    total = 0
    for k_field, w, b, m, vals, ord_b, at in _local_terms(c, place, orders):
        if min(vals) < 0 or _is_zero(b):
            needs, rel = _precision_needs(p, level, vals)
            total += m * local_symbol(
                k_field, level,
                [at(a, n) for a, n in zip(w.coords, needs)],
                at(b, ord_b + rel))
        elif ord_b:     # else the term adds ord b * Tr(w(v)) = 0
            R = galois_ring(k_field, level)
            total += ord_b * R.trace_int(R.from_digits(
                [at(a, 1).coeff(0) for a in w.coords])) * m
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


def _factor_pass(c):
    """(places, orders) from one factorization of each distinct coordinate
    denominator of a class over F_q(t), with each entry's orders read off
    the entry, which the normal form leaves irreducible or constant (module
    docstring).  places are the finite places where a coordinate has a pole
    or an entry a zero, in Place order, then infinity;
    orders(place) is the [(vals, ord b)] per term that
    `_local_terms` takes, with ord b = 0 for a term with no entry.  vals
    are exact where negative, and a zero coordinate counts 1: all that the
    residue and the standard form read."""
    if _invariant_field_kind(c.field) != "global":
        raise UnsupportedField("places belong to classes over F_q(t)")
    # orders at a place are read from {place polynomial: valuation} dicts,
    # in which None, the polynomial of infinity, keys deg den - deg num
    inf = Place.infinity()
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
            v[None] = place_order(a, inf)
            vals.append(v)
        for b in entries:
            if b not in entry_orders:
                v = entry_orders[b] = {None: place_order(b, inf)}
                if not b.num.is_const():
                    f = to_dense(b.num)
                    v[f] = 1
                    polys.add(f)
        # a degree-1 term reads its one entry, a degree-0 term none
        terms.append((vals, entry_orders[entries[0]] if entries else {}))
    var = c.field.vars[0]
    places = sorted((Place(f, var) for f in polys), key=Place.sort_key)
    places.append(Place.infinity())

    def orders(place):
        return [([1 if v is None else v.get(place.poly, 0) for v in vals],
                 ent.get(place.poly, 0))
                for vals, ent in terms]
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

    The normal form keeps each term in its standard form, and a term that
    keeps a pole, of order prime to p, raises WildClass with that vector
    attached.  A coordinate known to less than the precision rule of the
    module docstring asks raises PrecisionExhausted first.  Only degree 1
    carries the full decomposition (degree 0 has no residue slot).  The
    specialization is the zero class, since H^2 of a finite field is 0
    (degree 1 lies above the p-rank 0 of GF(q)).  The residue is one
    degree-0 term: the sum over the terms m (w | b) of (m ord b) w(0),
    w(0) the constant terms of w, summed in the Galois ring W_i(GF(q)).
    """
    if _field_kind(c.field) != "local":
        raise UnsupportedField("decomposition applies over F_q((t))")
    if c.degree != 1:
        raise UnsupportedDegree("decomposition implemented for degree 1")
    base = c.field.base
    for w, _ in c.terms:
        _require_standard_form_precision(base.p, w.coords)
    resid = []
    for (w, (b,)), m in c.terms.items():
        if min(a.val for a in w.coords) < 0:
            raise WildClass(w)
        if b.val:       # else the term adds 0
            w0 = WittVector(w.p, [a.coeff(0) for a in w.coords])
            resid.append(w0.int_mul(m * b.val))
    terms = [((reduce(operator.add, resid), ()), 1)] if resid else []
    return (HClass.zero(base, 1, c.level),
            HClass._normal(base, 0, c.level, terms))


def h_zero_test(c):
    """Sound and complete zero test, decided by the p-rank r of the field
    (module docstring).  A class with no term is zero; above r, by the
    vanishing of Omega^n_F for n > r, the normal form keeps none.  At
    degree r the invariants decide: over GF(q) the trace of the summed
    vector, over F_q(t) the invariants at the finite places of the
    reciprocity table, up to the first nonzero one (by the reciprocity law
    the invariant at infinity is minus their sum), over F_q((t)) the
    invariant at t.  Degree 0 over F_q((t)) checks the summed vector
    against the precision rule of the standard form, then answers False
    for a wild vector and otherwise traces its residue vector.  Degree 0
    over F_q(t) takes the places (infinity last) and the termwise orders
    from one factorization of the coordinate denominators
    (`_factor_pass`), expands each term's vector at each place as far as
    that rule reads the termwise minimum valuations, sums the expansions,
    each taken m times as a series (never on rational coordinates),
    answers False when the sum is wild at any place and otherwise traces
    infinity's residue vector.
    UnsupportedField for a class with a term, of degree n <= k, over
    F_q(x_1..x_k)."""
    if not c.terms:
        return True
    kind = _invariant_field_kind(c.field)
    if c.degree == 1:
        if kind == "global":
            # the invariants sum to 0, so infinity, last, adds nothing
            places, orders = _factor_pass(c)
            return not any(local_invariant(c, pl, orders(pl)).value
                           for pl in places[:-1])
        return local_invariant(c, _t_place(c.field)).value == 0
    p = next(iter(c.terms))[0].p
    if kind == "global":
        # the sum of expansions is known as far as the termwise minimum
        # valuations ask (module docstring); the places end at infinity,
        # whose residue vector decides
        places, orders = _factor_pass(c)
        for place in places:
            ctx = place_context(c.field, place)
            vals = map(min, zip(*(v for v, _ in orders(place))))
            needs = _standard_form_needs(p, list(vals))
            summed = reduce(operator.add, (
                WittVector(p, [ctx.expand(a, n)
                               for a, n in zip(w.coords, needs)]).int_mul(m)
                for (w, _), m in c.terms.items()))
            red = _unramified_residue(*witt_standard_form(summed,
                                                          ctx.res_field))
            if red is None:
                return False
    else:
        red = reduce(operator.add, (w.int_mul(m)
                                    for (w, _), m in c.terms.items()))
        if kind == "local":
            _require_standard_form_precision(p, red.coords)
            red = _unramified_residue(*witt_standard_form(red,
                                                          c.field.base))
    return red is not None and red.trace_int() == 0


def _t_place(lfield):
    return Place(Poly.x(lfield.base), lfield.var)
