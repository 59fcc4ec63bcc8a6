import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from katoforge import (ConfigMismatch, DivisionByZero, HClass,
                       KatoforgeError, Laurent,
                       LevelDecrease, MilnorElement, Place, Poly,
                       PrecisionExhausted, RatFunc, ResourceLimit,
                       UnsupportedDegree, UnsupportedField, WildClass,
                       WittVector, colimit_equal, ColimitClass,
                       decompose_local, func_field, gf, h_zero_test,
                       laurent_field, level_shift, local_invariant, pair,
                       reciprocity_check, residue_at, witt_standard_form)
from katoforge import (kato as kato_module, milnor as milnor_module,
                       places as places_module, poly as poly_module)
from katoforge.kato import (LaurentField, _precision_needs, _t_place,
                            class_places, local_symbol)
from katoforge.milnor import (_has_steinberg_pair, multilinear_expansion,
                              symbol_expand)
from katoforge.places import (PlaceContext, from_rational, place_order,
                              support_places)
from katoforge.poly import is_irreducible, to_dense
from katoforge.witt import max_structure_level

from conftest import (clear_residue_memos, random_mpoly, random_ratfunc,
                      run_optimized)
from ghost_oracle import (ghost_inversion_symbol, uniform_precision,
                          uniform_series_inputs)
from standard_form_oracle import (answer, restart_standard_form,
                                  standard_form_inputs)
from unramified_oracle import (check_unit_completions, classes,
                               series_residue, short_standard_form_terms,
                               unit_entry_inputs, unramified_terms)
from transport_oracle import check_transport, transport_classes


def _w(p, *coords):
    return WittVector(p, coords)


@pytest.fixture
def K2():
    return func_field(gf(2), ("t",))


def _raw_class(field, degree, level, terms):
    """A class whose terms are taken as they are, outside the normal form.
    Only the single-place local_invariant and local_symbol read such a
    class; the table path relies on the normal form.  Over F_q((t)) no
    term of it is in standard form: a term with a pole is read as given
    and takes one local_symbol call."""
    c = HClass.__new__(HClass)
    c.field, c.degree, c.level, c.terms = field, degree, level, Counter(terms)
    return c


def _raw_places(c):
    """The finite places where a coordinate of a term of c has a pole or an
    entry a zero or a pole, in Place order, then infinity."""
    found = set()
    for w, entries in c.terms:
        for x in entries + tuple(a.field.from_poly(a.den) for a in w.coords):
            found |= support_places(x)
    return sorted(found, key=Place.sort_key) + [Place.infinity()]


def _normal_places(c):
    """The places of the table of c's terms in normal form."""
    return class_places(HClass(c.field, c.degree, c.level, c.terms))


def _rnd_class(rng, K, level, nterms=1):
    terms = []
    for _ in range(nterms):
        w = WittVector(K.base.p, tuple(random_ratfunc(rng, K, max_deg=2)
                                       for _ in range(level)))
        b = random_ratfunc(rng, K, max_deg=2)
        while b.is_zero():
            b = random_ratfunc(rng, K, max_deg=2)
        terms.append((w, (b,)))
    return HClass(K, 1, level, terms)


# ----------------------------------------------------- normalization ----

def _is_normal(c):
    """The expanding constructor leaves c's terms as they are, no class
    of degree above the p-rank of its field keeps a term, no two terms
    share a `_term_key`, every multiplicity m is a unit modulo
    p^(level - z), z the leading `_known_zero` coordinates of its vector,
    and over F_q((t)) no degree-1 term known as far as the standard form
    reads it keeps a pole of order divisible by p."""
    if c.terms and c.degree > kato_module._p_rank(c.field):
        return False
    keys = [kato_module._term_key(*term) for term in c.terms]
    if len(set(keys)) < len(keys):
        return False
    for (w, _), m in c.terms.items():
        z = next((j for j, a in enumerate(w.coords)
                  if not kato_module._known_zero(a)), w.level)
        if not (0 < m < w.p ** (w.level - z) and m % w.p):
            return False
    if c.degree == 1 and isinstance(c.field, LaurentField):
        p = c.field.base.p
        for w, _ in c.terms:
            vals = [a.val for a in w.coords]
            needs = kato_module._standard_form_needs(p, vals)
            if all(a.prec >= n for a, n in zip(w.coords, needs)) and any(
                    a.coeff(n) for a in w.coords for n in range(a.val, 0)
                    if n % p == 0):
                return False
    return HClass(c.field, c.degree, c.level, c.terms).terms == c.terms


def _normal_form_inputs(kind, rng):
    """(field, p, element, entry): element() is a random nonzero entry or
    coordinate, over F_2((t)) of valuation >= 0 when integral=True; entry
    is an expanded entry."""
    if kind == "GF(4)":
        F = gf(2, 2)
        nonzero = list(F.elements())[1:]
        return F, 2, lambda integral=False: rng.choice(nonzero), F.gen
    if kind == "F_2((t))":
        F = gf(2)

        def series(integral=False):
            val = rng.randint(0 if integral else -2, 2)
            coeffs = [F.one] + [rng.choice([F.zero, F.one]) for _ in range(5)]
            return Laurent(F, val, coeffs, val + 8)
        return laurent_field(F), 2, series, Laurent.monomial(F, F.one, 1, 8)
    p = 3 if kind == "F_3(t)" else 2
    K = func_field(gf(p), ("t",))

    def ratfunc(integral=False):
        r = random_ratfunc(rng, K, max_deg=2, max_terms=2)
        while r.is_zero():
            r = random_ratfunc(rng, K, max_deg=2, max_terms=2)
        return r
    return K, p, ratfunc, K.var("t")


def _operations(classes, rng, p, level):
    """classes, then +, -, negation, int_mul and level_shift of each
    neighbouring pair."""
    out = list(classes)
    for c, d in zip(classes, classes[1:]):
        out += [c + d, c - d, -c, c.int_mul(rng.randint(0, p ** level)),
                c.int_mul(p ** level - 1), level_shift(c, level + 1)]
    return out


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("kind", ["GF(4)", "F_2(t)", "F_3(t)", "F_2((t))"])
def test_every_operation_returns_the_normal_form(kind, level):
    """Every class that build, +, -, int_mul, level_shift, pair and
    decompose_local return is in normal form: the expanding constructor,
    run on its terms, returns them unchanged.  Over GF(4), whose p-rank is
    0, every degree-1 class is empty and every operation keeps it so, and
    degree 0 takes the canonical step."""
    rng = random.Random(f"{kind}:{level}")
    field, p, elem, e = _normal_form_inputs(kind, rng)
    classes = []
    for _ in range(3):
        w = WittVector(p, tuple(elem() for _ in range(level)))
        classes.append(HClass.build(field, w, (elem(),)))
    # the negative of (-[e] | e) is a Teichmueller match
    classes.insert(1, HClass.build(
        field, -WittVector.teichmuller(p, e, level), (e,)))
    out = _operations(classes, rng, p, level)
    if kind == "GF(4)":
        assert not any(c.terms for c in out)
        out += _operations(
            [HClass.build(field, WittVector(p, tuple(
                elem() for _ in range(level))), ()) for _ in range(3)],
            rng, p, level)
    if kind in ("F_2(t)", "F_3(t)"):
        sym = MilnorElement.symbol
        for _ in range(2):
            w = WittVector(p, tuple(elem() for _ in range(level)))
            a, b = elem(), elem()
            out += [pair(w, sym(field, [a]) + sym(field, [b], 2)),
                    pair(w, sym(field, [a, b]))]
    if kind == "F_2((t))":
        for _ in range(3):
            w = WittVector(p, tuple(elem(integral=True) for _ in range(level)))
            out += decompose_local(HClass.build(field, w, (elem(),))
                                   + classes[0].int_mul(0))
    assert any(c.terms for c in out)
    for c in out:
        assert _is_normal(c), c


def _class_pairs(kind, level, rng):
    """(field, p, [(c, d)]): three seeded pairs over kind at level, c of
    two terms and d its first; degree 0 over GF(4), whose p-rank is 0,
    and degree 1 otherwise."""
    field, p, elem, _ = _normal_form_inputs(kind, rng)
    degree = 0 if kind == "GF(4)" else 1
    pairs = []
    for _ in range(3):
        terms = [(WittVector(p, tuple(elem() for _ in range(level))),
                  tuple(elem() for _ in range(degree))) for _ in range(2)]
        pairs.append((HClass(field, degree, level, terms),
                      HClass(field, degree, level, terms[:1])))
    return field, p, pairs


def check_multiplicities(kinds_levels):
    """AssertionError unless, on the seeded pairs of each (kind, level),
    c - c, d + d - 2*d and p^level c keep no term, d + d and 2*d print
    alike, and every result is in normal form; and unless over GF(2)((t))
    at level 2 the class 2 [ (0, t^-1) | t ), built as
    [ (0, t^-1) | t^2 ), keeps no term and decomposes to the zero
    residue: p^k w = V^k w modulo wp W_i folds it to [ (0, 0) | t )."""
    for kind, level in kinds_levels:
        rng = random.Random(f"multiplicities {kind}:{level}")
        _, p, pairs = _class_pairs(kind, level, rng)
        for c, d in pairs:
            for zero in (c - c, d + d - d.int_mul(2), c.int_mul(p ** level)):
                assert not zero.terms, zero
            assert repr(d + d) == repr(d.int_mul(2)), d
            for x in (c, d, d + d, -c, c.int_mul(p), c.int_mul(p + 1)):
                assert _is_normal(x), x
    F = gf(2)
    w = _w(2, Laurent.zero(F, 16), Laurent.monomial(F, F.one, -1, 16))
    c = HClass.build(laurent_field(F), w, (Laurent.monomial(F, F.one, 2, 16),))
    assert not c.terms, c
    spec, resid = decompose_local(c)
    assert not spec.terms and not resid.terms, resid


MULTIPLICITY_CELLS = [(kind, level) for kind in
                      ("GF(4)", "F_2(t)", "F_3(t)", "F_2((t))")
                      for level in (1, 2, 3)]


def test_equal_symbols_merge_and_multiples_of_p_fold():
    check_multiplicities(MULTIPLICITY_CELLS)


@pytest.mark.parametrize("kind", ["GF(4)", "F_2(t)", "F_3(t)", "F_2((t))"])
def test_class_operations_take_no_witt_arithmetic(kind, monkeypatch):
    """build, +, -, negation, int_mul, level_shift and pair add, negate
    and multiply multiplicities, never vectors: with WittVector's sums,
    negation and int_mul refusing, each answers at levels 1-3 (degree 0
    over GF(4), whose p-rank is 0)."""
    rng = random.Random(f"no Witt arithmetic {kind}")
    field, p, elem, _ = _normal_form_inputs(kind, rng)
    degree = 0 if kind == "GF(4)" else 1
    vectors = [WittVector(p, tuple(elem() for _ in range(level)))
               for level in (1, 2, 3) for _ in range(2)]
    entries = [tuple(elem() for _ in range(degree)) for _ in vectors]
    a, b = elem(), elem()

    def refuse(*args):
        raise AssertionError("Witt arithmetic on a class's vectors")
    for name in ("_binop", "__neg__", "int_mul"):
        monkeypatch.setattr(WittVector, name, refuse)
    out = []
    for j in range(0, len(vectors), 2):
        w = vectors[j]
        c = HClass.build(field, w, entries[j])
        d = HClass.build(field, vectors[j + 1], entries[j + 1])
        out += [c + d, c - d, -c, c.int_mul(rng.randrange(2 * p ** w.level)),
                level_shift(c, w.level + 1)]
        if kind in ("F_2(t)", "F_3(t)"):
            sym = MilnorElement.symbol
            out += [pair(w, sym(field, [a]) + sym(field, [b], 2)),
                    pair(w, sym(field, [a, b]))]
    assert any(x.terms for x in out)


@pytest.mark.parametrize("p", [2, 3])
def test_build_refuses_levels_past_the_structure_bound(p):
    """Above max_structure_level a class over F_q(t), F_q((t)) or
    F_q(x, y), whose sums would take universal polynomials, is refused
    when it is built, with the ResourceLimit that Witt arithmetic on its
    coordinates raises; over GF(q), and above the p-rank, it is built."""
    level = max_structure_level(p) + 1
    F = gf(p)
    K, Kxy = func_field(F, ("t",)), func_field(F, ("x", "y"))
    t, x = K.var("t"), Kxy.var("x")
    series = Laurent.monomial(F, F.one, -1, 8)
    message = (f"universal polynomials for p={p}, i={level} exceed the "
               f"bound \\(max i={level - 1}\\)")
    for field, a, b in [(K, K.one / t, t + K.one),
                        (laurent_field(F), series, series.inverse()),
                        (Kxy, Kxy.one / x, x + Kxy.one)]:
        w = WittVector(p, (a,) + (a * 0,) * (level - 1))
        with pytest.raises(ResourceLimit, match=message):
            HClass.build(field, w, (b,))
    w = WittVector(p, (K.one / t,) + (K.zero,) * (level - 1))
    assert HClass.build(K, w, (t, t + K.one)).terms == {}
    one = WittVector(p, (F.one,) + (F.zero,) * (level - 1))
    assert HClass.build(F, one, ()).terms


def test_j_generators_drop_syntactically(K2):
    t = K2.var("t")
    # teichmuller-Steinberg: (a,0) x (a)
    w = WittVector.teichmuller(2, t, 2)
    assert HClass.build(K2, w, (t,)).is_formally_zero()
    # repeated slots meet at degree 2, below the p-rank 2 of F_2(x, y)
    Kxy = func_field(gf(2), ("x", "y"))
    x = Kxy.var("x")
    assert HClass.build(Kxy, _w(2, x, Kxy.one),
                        (x + Kxy.one, x + Kxy.one)).is_formally_zero()
    # zero Witt vector
    assert HClass.build(K2, _w(2, K2.zero, K2.zero), (t,)).is_formally_zero()


def test_entry_factorization(K2):
    t = K2.var("t")
    c = HClass.build(K2, _w(2, K2.one), (t ** 2 * (t + K2.one),))
    factors = sorted(repr(b[0]) for _, b in c.terms)
    assert factors == ["t+1"]           # t^2 doubles w, which dies at level 1
    # at level 2 the square survives as the doubled Witt vector
    c3 = HClass.build(K2, _w(2, K2.one, K2.zero), (t * t,))
    (w3, b3), = c3.terms
    assert b3 == (t,)
    assert w3 == _w(2, K2.zero, K2.one)    # 2 * teich(1) = (0, 1)


def test_pair_and_bilinearity(K2):
    t = K2.var("t")
    s = MilnorElement.symbol(K2, [t + K2.one])
    w = _w(2, K2.one / t)
    c = pair(w, s)
    assert not c.is_formally_zero()
    z = pair(_w(2, K2.zero), s)
    assert z.is_formally_zero()
    assert pair(w, MilnorElement.symbol(K2, [t + K2.one], 2)) \
        .is_formally_zero()             # 2w = 0 at level 1


def test_two_variable_entries_expand():
    # entries over F_2(x,y) split into variable powers and monic rest; they
    # once went through one-variable factoring and vanished
    K = func_field(gf(2), ("x", "y"))
    x, y = K.var("x"), K.var("y")
    w = _w(2, x)
    c = HClass.build(K, w, (y,))
    assert not c.is_formally_zero()
    assert c.terms == {(w, (y,)): 1}
    s = MilnorElement.symbol(K, [x * y, y + K.one])
    got = {entries for _, entries in pair(_w(2, x + y), s).terms}
    assert got == {(x, y + K.one), (y, y + K.one)}
    # symbol_expand also drops the Steinberg pair {y, 1 + y}, which HClass
    # normalization keeps
    assert set(symbol_expand(s).terms) == \
        {e for e in got if not _has_steinberg_pair(e, K)}


# -------------------------------------------------------- invariants ----

def test_worked_invariant_table(K2):
    t = K2.var("t")
    c = HClass.build(K2, _w(2, K2.one / t), (K2.one + t,))
    ok, table = reciprocity_check(c)
    assert ok
    assert {repr(i.place): i.value for i in table} == \
        {"t": 1, "t+1": 1, "inf": 0}
    assert all(i.modulus == 2 for i in table)


def test_invariant_integral_unit_is_zero(K2):
    t = K2.var("t")
    c = HClass.build(K2, _w(2, t + K2.one, t), (t + K2.one,))
    pl = Place(Poly(gf(2), [gf(2).one, gf(2).one, gf(2).one]))  # t^2+t+1
    assert local_invariant(c, pl).value == 0


def test_constant_entry_class_vanishes(K2):
    # (a | b) with a a trace-zero constant is a wp-image: all invariants 0
    t = K2.var("t")
    zero_trace_const = K2.zero  # over F_2 the only trace-0 constants: 0
    c = HClass.build(K2, _w(2, K2.one + K2.one), (t,))  # w = 2 = 0
    assert c.is_formally_zero()
    F4 = gf(2, 2)
    K4 = func_field(F4, ("t",))
    t4 = K4.var("t")
    a = K4.const(F4.one)        # Tr_{F4/F2}(1) = 0
    c = HClass.build(K4, WittVector(2, (a,)), (t4,))
    ok, table = reciprocity_check(c)
    assert all(i.value == 0 for i in table)


@pytest.mark.parametrize("p,e,level", [(2, 1, 1), (3, 1, 1), (2, 2, 1),
                                       (2, 1, 2), (3, 1, 2), (2, 2, 2)])
def test_j_relations_killed_by_invariants(p, e, level):
    K = func_field(gf(p, e), ("t",))
    rng = random.Random(1000 * p + 10 * e + level)
    for _ in range(6):
        w = WittVector(p, tuple(random_ratfunc(rng, K, max_deg=2)
                                for _ in range(level)))
        b = random_ratfunc(rng, K, max_deg=2)
        if b.is_zero():
            continue
        c = HClass.build(K, w.wp(), (b,))
        for pl in class_places(c):
            assert local_invariant(c, pl).value == 0
        a = random_ratfunc(rng, K, max_deg=2)
        if a.is_zero():
            continue
        c2 = _raw_class(K, 1, level,
                        [(WittVector.teichmuller(p, a, level), (a,))])
        for pl in _raw_places(c2):
            assert local_invariant(c2, pl).value == 0


def test_invariant_bilinearity(K2):
    rng = random.Random(55)
    pt = Place(Poly.x(gf(2)))
    for level in (1, 2):
        for _ in range(8):
            w1 = WittVector(2, tuple(random_ratfunc(rng, K2, max_deg=2)
                                     for _ in range(level)))
            w2 = WittVector(2, tuple(random_ratfunc(rng, K2, max_deg=2)
                                     for _ in range(level)))
            b1 = random_ratfunc(rng, K2, max_deg=2)
            b2 = random_ratfunc(rng, K2, max_deg=2)
            if b1.is_zero() or b2.is_zero():
                continue
            mod = 2 ** level

            def inv(w, b):
                return local_invariant(HClass.build(K2, w, (b,)), pt).value
            assert inv(w1 + w2, b1) == (inv(w1, b1) + inv(w2, b1)) % mod
            assert inv(w1, b1 * b2) == (inv(w1, b1) + inv(w1, b2)) % mod


def test_truncation_compatibility(K2):
    # dropping the top Witt coordinate reduces the invariant mod p: an
    # independent consistency check between the level-1 and level-2 symbols
    rng = random.Random(56)
    done = 0
    while done < 10:
        a0 = random_ratfunc(rng, K2, max_deg=2)
        a1 = random_ratfunc(rng, K2, max_deg=2)
        b = random_ratfunc(rng, K2, max_deg=2)
        if b.is_zero():
            continue
        done += 1
        c2 = HClass.build(K2, WittVector(2, (a0, a1)), (b,))
        c1 = HClass.build(K2, WittVector(2, (a0,)), (b,))
        for pl in class_places(c2):
            assert local_invariant(c2, pl).value % 2 == \
                local_invariant(c1, pl).value


def test_steinberg_pairs_vanish_where_decidable():
    # degree-2 invariants over F_q(t) are out of scope, so the Steinberg
    # compatibility is checked where a zero test exists: over the constants
    # (everything in degree >= 1 collapses) and through the Milnor side.
    from katoforge import d_symbol
    F4 = gf(2, 2)
    z = F4.gen
    c = HClass.build(F4, WittVector(2, (z, F4.one)), (z, F4.one + z))
    assert h_zero_test(c)
    K = func_field(gf(3), ("t",))
    t = K.var("t")
    s = MilnorElement.symbol(K, [t, K.one - t])
    assert d_symbol(s).is_zero()


@pytest.mark.parametrize("p,e,level,n", [(2, 1, 1, 40), (3, 1, 1, 25),
                                         (2, 2, 1, 20), (2, 1, 2, 20)])
def test_reciprocity_random(p, e, level, n):
    K = func_field(gf(p, e), ("t",))
    rng = random.Random(7 * p + e + level)
    done = 0
    while done < n:
        c = _rnd_class(rng, K, level)
        done += 1
        ok, table = reciprocity_check(c)
        assert ok, (c, [(repr(i.place), i.value) for i in table])


@pytest.mark.parametrize("p,level", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_reciprocity_at_degree_two_places(p, level):
    # t^2+t+1 over F_2 and t^2+1 over F_3 are irreducible: coordinates with
    # poles there and entries vanishing there put a degree-2 place in the table
    K = func_field(gf(p), ("t",))
    t = K.var("t")
    q = t * t + t + K.one if p == 2 else t * t + K.one
    rng = random.Random(100 * p + level)
    nonzero = 0
    for _ in range(4):
        w = WittVector(p, tuple(random_ratfunc(rng, K, max_deg=1) / q
                                for _ in range(level)))
        b = random_ratfunc(rng, K, max_deg=1) * q
        ok, table = reciprocity_check(HClass.build(K, w, (b,)))
        assert ok, [(repr(i.place), i.value) for i in table]
        nonzero += sum(1 for i in table if i.place.degree == 2 and i.value)
    assert nonzero


GHOST_GRID = [(2, 1, 4), (2, 2, 4), (2, 3, 3), (3, 1, 3), (3, 2, 3),
              (5, 1, 2), (7, 1, 2), (2, 6, 2)]


@st.composite
def _series(draw, F, lo, hi, prec):
    """A series over F with valuation in lo..hi, known to O(t^prec)."""
    codes = draw(st.lists(st.integers(0, F.order - 1), min_size=5,
                          max_size=5))
    lead = draw(st.integers(1, F.order - 1))
    return Laurent(F, draw(st.integers(lo, hi)),
                   [F.from_code(c) for c in [lead] + codes], prec)


@pytest.mark.parametrize("p,e,top", GHOST_GRID)
@given(data=st.data())
def test_local_symbol_matches_ghost_inversion(p, e, top, data):
    F = gf(p, e)
    level = data.draw(st.integers(1, top))
    prec = data.draw(st.sampled_from([3 * p ** (level - 1) + 12, 8, 4]))
    coords = [data.draw(st.one_of(_series(F, -3, 2, prec),
                                  st.just(Laurent.zero(F, prec))))
              for _ in range(level)]
    b = data.draw(_series(F, -3, 3, prec))
    try:
        want = ghost_inversion_symbol(F, level, coords, b)
    except PrecisionExhausted:
        return      # a lower residue ran out; the top one may still be known
    assert local_symbol(F, level, coords, b) == want


def _irreducible(K, d):
    """The first monic irreducible of degree d in t, enumerating the lower
    coefficients in the field's element order."""
    F = K.base
    t = K.var("t")
    for tail in itertools.product(list(F.elements()), repeat=d):
        f = t ** d
        for k, c in enumerate(tail):
            f = f + K.const(c) * t ** k
        if is_irreducible(to_dense(f.num)):
            return f


def _linear(rng, K):
    """a t + b with a, b distinct random constants; t + b when a is 0."""
    t = K.var("t")
    a, b = (K.const(c) for c in rng.sample(list(K.base.elements()), 2))
    return a * t + b if not a.is_zero() else t + b


def _oracle_classes(p, e, level):
    """Degree-1 classes over F_q(t) whose tables meet places of degree 1-3
    and infinity.  In w, coordinate 0 has poles at t and at a degree-2
    place, coordinate 1 is zero and the others vanish at t; in v,
    coordinate 0 vanishes at t.  One entry is
    rational with a denominator (kept in a raw class, outside the normal
    form), the others are irreducible of degree 2 and 3."""
    K = func_field(gf(p, e), ("t",))
    t, one = K.var("t"), K.one
    q2, q3 = _irreducible(K, 2), _irreducible(K, 3)
    rng = random.Random(1000 * p + 10 * e + level)

    def lin():
        return _linear(rng, K)

    coords = [lin() / (t * q2)] + [t * lin() for _ in range(level - 1)]
    if level >= 2:
        coords[1] = K.zero
    w = WittVector(p, tuple(coords))
    v = WittVector(p, tuple(t * lin() / (t + one) if j == 0 else lin()
                            for j in range(level)))
    rational = _raw_class(K, 1, level, [(w, ((t + one) * q3 / q2,))])
    return [rational, HClass.build(K, w, (q3,)) + HClass.build(K, v, (q2,))]


ORACLE_CELLS = ([(2, 1, level) for level in range(1, 5)]
                + [(3, 1, level) for level in range(1, 4)]
                + [(2, 2, level) for level in range(1, 4)])


@pytest.mark.parametrize("p,e,level", ORACLE_CELLS)
def test_local_invariant_matches_uniform_ghost_oracle(p, e, level):
    """Each coordinate expanded only as far as the residue reads it gives
    the invariant that full ghost inversion gives on expansions to one
    generous uniform precision."""
    classes = _oracle_classes(p, e, level)
    degrees, nonzero = set(), 0
    for c in classes:
        for place in _normal_places(c):
            want = sum(ghost_inversion_symbol(k, level, coords, b)
                       for k, coords, b in uniform_series_inputs(c, place))
            got = local_invariant(c, place).value
            assert got == want % p ** level, (c, place)
            degrees.add(0 if place.is_infinite else place.degree)
            nonzero += bool(got)
    assert degrees == {0, 1, 2, 3}
    assert nonzero


def _factor_pass_classes(p, e, level):
    """Classes whose normal forms' tables read every order the factor pass
    gives; the first two are raw: entries with denominators, squared and
    cubed factors and a constant; coordinate 0 with poles of order 1 and 2 at
    places of degree 1 and 2, coordinate 1 zero or vanishing where an entry
    does, at a place of degree 3."""
    K = func_field(gf(p, e), ("t",))
    t, one = K.var("t"), K.one
    s = t + one
    q2, q3 = _irreducible(K, 2), _irreducible(K, 3)
    rng = random.Random(2000 * p + 10 * e + level)
    const = K.const(max(K.base.elements(), key=lambda c: c.idx))

    def lin():
        return _linear(rng, K)

    def w(c0, c1):
        return WittVector(p, tuple([c0, c1] + [t * lin()
                                               for _ in range(level)])[:level])

    terms = [(w(lin() / (t * t * q2), t * q3 * lin()),
              (s * s * q3 / (t * q2 * q2),)),
             (w(lin() / (s * q3), K.zero), (const,)),
             (w(lin() / (s * s), lin()), (t ** 3 * q2 / (q3 * q3),)),
             (WittVector(p, (K.zero,) * level), (t / s,))]
    return [_raw_class(K, 1, level, terms),
            _raw_class(K, 1, level, terms[2:]),
            HClass.build(K, terms[0][0], (q3 * q3,))]


@pytest.mark.parametrize("p,e,level", ORACLE_CELLS)
def test_table_orders_match_place_order(p, e, level):
    """reciprocity_check reads the orders of the normal form: coordinate
    orders off one factorization per class, entry orders off the entries.
    local_invariant at a single place computes them with place_order, on
    the terms as they are.  The table of the normal form and the raw
    class's single-place invariants agree at every place of either, where
    the raw class's places are those of its entries and coordinates."""
    degrees, nonzero = set(), 0
    for c in _factor_pass_classes(p, e, level) + _oracle_classes(p, e, level):
        normal = HClass(c.field, 1, level, c.terms)
        ok, table = reciprocity_check(normal)
        assert ok, normal
        assert [inv.place for inv in table] == class_places(normal)
        got = {inv.place: inv.value for inv in table}
        for place in set(got) | set(_raw_places(c)):
            value = local_invariant(c, place).value
            assert got.get(place, 0) == value, (c, place)
            degrees.add(0 if place.is_infinite else place.degree)
            nonzero += bool(value)
    assert degrees == {0, 1, 2, 3}
    assert nonzero


@pytest.mark.parametrize("degree,entries", [(0, 0), (2, 2), (1, 2)])
def test_reciprocity_refuses_other_degrees_before_factoring(
        K2, degree, entries, monkeypatch):
    t = K2.var("t")
    b = (t, t + K2.one)[:entries]
    c = HClass(K2, degree, 1, [(_w(2, K2.one / (t * t + t + K2.one)), b)])

    def no_factoring(*args):
        raise AssertionError("factored a class it refuses")

    for module, name in ((kato_module, "factor"),
                         (poly_module, "factor_ratfunc"),
                         (poly_module, "factor")):
        monkeypatch.setattr(module, name, no_factoring)
    with pytest.raises(UnsupportedDegree):
        reciprocity_check(c)


def test_reciprocity_reads_entries_off_the_normal_form(monkeypatch):
    """kato does not import factor_ratfunc, and a table takes no
    factor_ratfunc call: each entry of the normal form is a monic
    irreducible or a constant, and its orders are read off it."""
    assert not hasattr(kato_module, "factor_ratfunc")
    classes = []
    for p, e, level in [(2, 1, 2), (3, 1, 1), (2, 2, 2)]:
        raw = _factor_pass_classes(p, e, level) + _oracle_classes(p, e, level)
        classes += [HClass(c.field, 1, level, c.terms) for c in raw]
    calls = []
    factor_ratfunc = poly_module.factor_ratfunc

    def counting(r):
        calls.append(r)
        return factor_ratfunc(r)

    for module in (poly_module, milnor_module, places_module):
        monkeypatch.setattr(module, "factor_ratfunc", counting)
    for c in classes:
        assert reciprocity_check(c)[0], c
    assert calls == []
    K = classes[0].field
    support_places(K.var("t"))
    assert len(calls) == 1          # the counter sees the calls there are


# ------------------------------------------------ integral-term rule ----

RULE_CELLS = [(p, e, level)
              for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]
              for level in range(1, min(4, max_structure_level(p)) + 1)]


def _counting_local_symbol(monkeypatch):
    """The list that records each call of kato's module-global
    local_symbol from here on."""
    calls = []

    def counting(*args):
        calls.append(args)
        return local_symbol(*args)

    monkeypatch.setattr(kato_module, "local_symbol", counting)
    return calls


def _rule_shapes(rng, level, integral, zero, polar, entry):
    """(coords, b, integral?) two per shape: every coordinate integral,
    with a zero coordinate in each slot or with none, and a pole in each
    slot, each once with ord b = 0 and once with ord b != 0."""
    out = []
    for slot in [None] + list(range(level)):
        for k in (0, rng.choice([-1, 1, 2])):
            out.append(([zero() if j == slot else integral()
                         for j in range(level)], entry(k), True))
    for slot in range(level):
        for k in (0, rng.choice([-1, 1])):
            out.append(([polar() if j == slot else integral()
                         for j in range(level)], entry(k), False))
    return out


def _global_rule_shapes(rng, K, level, f):
    """`_rule_shapes` over F_q(t) at the place of the monic irreducible f,
    or at infinity when f is None: pi has order 1 there, unit and
    unit / other order 0."""
    t, one = K.var("t"), K.one
    F = K.base
    if f is None:
        pi, unit, other = one / t, t * t + t + one, t * t + one
    else:
        pi, unit, other = f, f + one, one

    def const():
        return K.const(F.from_code(rng.randrange(1, F.order)))

    def integral():
        return K.from_poly(random_mpoly(rng, F, 1, max_deg=2)) / unit

    return _rule_shapes(rng, level, integral, lambda: K.zero,
                        lambda: integral() + const() / pi,
                        lambda k: pi ** k * const() * unit / other)


def _local_rule_shapes(rng, F, level):
    """(shapes, reducible): `_rule_shapes` over F_q((t)), every series
    known far past what the residue reads, a zero coordinate zero to that
    precision; and two shapes integral + wp(series(-1)), once with
    ord b = 0 and once with ord b != 0, known as far as the standard form
    reads them.  Their poles, of order divisible by p, leave the class in
    normal form, whose residue field then answers them as it answers an
    integral term."""
    p = F.p
    prec = p ** (level - 1) + level + 8

    def series(val, prec=prec):
        return Laurent(F, val, [F.from_code(rng.randrange(1, F.order))]
                       + [F.from_code(rng.randrange(F.order))
                          for _ in range(prec)], val + prec)

    shapes = _rule_shapes(rng, level, lambda: series(rng.randint(0, 2)),
                          lambda: Laurent.zero(F, prec),
                          lambda: series(-1), series)
    # wp(y) has poles of order up to p^level, and the standard form reads
    # coordinate 0 about that far past t^0
    long = p ** level + level + 8
    reducible = []
    for k in (0, rng.choice([-1, 1])):
        u = WittVector(p, [series(rng.randint(0, 2), long)
                           for _ in range(level)])
        y = WittVector(p, [series(-1, long)]
                       + [Laurent.zero(F, long)] * (level - 1))
        reducible.append(((u + y.wp()).coords, series(k, long)))
    return shapes, reducible


@pytest.mark.parametrize("p,e,level", RULE_CELLS)
def test_integral_terms_match_the_series_residue(p, e, level,
                                                 monkeypatch):
    """Term by term, at places of degree 1-3, at infinity and over
    F_q((t)): the invariant of a term whose coordinates are integral is
    read off the residue field with no local_symbol call, and equals the
    series residue (local_symbol on expansions to one generous precision);
    any other term with a pole takes one local_symbol call.  Over F_q((t))
    a class integral + wp(y) in normal form, whose poles the standard form
    removes, takes none, and the same term taken as it is takes one."""
    K = func_field(gf(p, e), ("t",))
    LF = laurent_field(K.base)
    rng = random.Random(f"rule:{p}:{e}:{level}")
    cases = []
    for f in (K.var("t") + K.const(K.base.from_code(rng.randrange(p ** e))),
              _irreducible(K, 2), _irreducible(K, 3), None):
        place = Place(to_dense(f.num)) if f is not None else Place.infinity()
        for coords, b, is_integral in _global_rule_shapes(rng, K, level, f):
            c = _raw_class(K, 1, level, [(WittVector(p, coords), (b,))])
            assert is_integral == all(place_order(a, place) >= 0
                                      for a in coords if not a.is_zero())
            want = sum(local_symbol(k, level, series, b)
                       for k, series, b in uniform_series_inputs(c, place))
            cases.append((c, place, want, is_integral,
                          place_order(b, place)))
    shapes, reducible = _local_rule_shapes(rng, K.base, level)
    for coords, b, is_integral in shapes + [(coords, b, False)
                                            for coords, b in reducible]:
        c = _raw_class(LF, 1, level, [(WittVector(p, coords), (b,))])
        cases.append((c, _t_place(LF), local_symbol(K.base, level, coords, b),
                      is_integral, b.val))
    for coords, b in reducible:
        c = HClass(LF, 1, level, [(WittVector(p, coords), (b,))])
        cases.append((c, _t_place(LF), local_symbol(K.base, level, coords, b),
                      True, b.val))
    calls = _counting_local_symbol(monkeypatch)
    answered = 0
    for c, place, want, unramified, ord_b in cases:
        calls.clear()
        assert local_invariant(c, place).value == want % p ** level, \
            (c, place)
        assert len(calls) == (0 if unramified else 1), (c, place)
        answered += unramified and ord_b != 0 and want % p ** level != 0
    assert answered


UNRAMIFIED_CELLS = [(p, e, level)
                    for p, e in [(2, 1), (3, 1), (2, 2), (2, 3)]
                    for level in range(1, max_structure_level(p) + 1)]


@pytest.mark.parametrize("p,e,level", UNRAMIFIED_CELLS)
def test_unramified_terms_match_the_series_residue(p, e, level,
                                                   monkeypatch):
    """Over F_q((t)) the invariant of a class u + wp(y), u integral, in
    normal form is read off the residue field with no local_symbol call,
    and a wild one, c t^-m with p not dividing m added to coordinate 0,
    goes through local_symbol; with the terms taken as they are, every
    term takes a local_symbol call.  All equal local_symbol on the
    unreduced coordinates."""
    cases = [(classes(terms), series_residue(terms), wild)
             for terms, wild in unramified_terms(p, e, level, 6,
                                                 "unramified")]
    calls = _counting_local_symbol(monkeypatch)
    for (normal, raw), want, wild in cases:
        calls.clear()
        assert local_invariant(normal, _t_place(normal.field)).value == want
        assert bool(calls) == wild, normal
        calls.clear()
        assert local_invariant(raw, _t_place(raw.field)).value == want
        assert len(calls) == len(raw.terms), raw
    assert any(want for _, want, wild in cases if not wild)


def _standard_form_unread(w, base):
    raise AssertionError("witt_standard_form reached")


def test_local_reads_take_the_stored_standard_form(monkeypatch):
    """Over F_q((t)) the normal form reduces each degree-1 term once, when
    the class is built: decompose_local and local_invariant then give the
    answers they give with witt_standard_form failing, on unramified and
    wild classes u + wp(y) at levels 1-3."""
    built = [classes(terms)[0]
             for p, e, level in [(2, 1, 1), (2, 1, 3), (3, 1, 2), (2, 2, 2)]
             for terms, _ in unramified_terms(p, e, level, 6, "stored")]

    def answers():
        for c in built:
            for read in (decompose_local,
                         lambda c: local_invariant(c, _t_place(c.field))):
                try:
                    yield repr(read(c))
                except WildClass as exc:
                    yield str(exc)

    want = list(answers())
    assert sum(a.startswith("wildly") for a in want) == 8
    monkeypatch.setattr(kato_module, "witt_standard_form",
                        _standard_form_unread)
    assert list(answers()) == want


def test_short_standard_form_goes_through_the_series_residue(monkeypatch):
    """Over GF(2)((t)) at level 3, a coordinate known as far as the
    residue reads it but short of what the standard form reads sends its
    term to local_symbol, which answers 7 mod 8."""
    terms = short_standard_form_terms()
    (w, b), = terms
    vals = [a.val for a in w.coords]
    assert kato_module._standard_form_needs(2, vals) == [7, 5, 1]
    assert _precision_needs(2, 3, vals)[0] == [7, 1, 1]
    want = series_residue(terms)
    calls = _counting_local_symbol(monkeypatch)
    for c in classes(terms):
        calls.clear()
        assert local_invariant(c, _t_place(c.field)).value == want == 7
        assert len(calls) == 1


def test_reciprocity_calls_local_symbol_only_at_poles(K2, monkeypatch):
    """A table takes local_symbol only for the (term, place) pairs where a
    coordinate has a pole: [1/t, 1 | q) at t, [t, 0 | t+1) at infinity
    and [1/q, t | t) at q and at infinity, 4 of the 12 pairs, q =
    t^2+t+1."""
    t, one = K2.var("t"), K2.one
    q = t * t + t + one
    c = (HClass.build(K2, _w(2, one / t, one), (q,))
         + HClass.build(K2, _w(2, t, K2.zero), (t + one,))
         + HClass.build(K2, _w(2, one / q, t), (t,)))
    places = class_places(c)
    assert [repr(pl) for pl in places] == ["t", "t+1", "t^2+t+1", "inf"]
    polar = sum(any(not a.is_zero() and place_order(a, pl) < 0
                    for a in w.coords)
                for w, _ in c.terms for pl in places)
    assert (len(c.terms), polar) == (3, 4)
    want = [sum(local_symbol(k, 2, series, b)
                for k, series, b in uniform_series_inputs(c, pl)) % 4
            for pl in places]
    calls = _counting_local_symbol(monkeypatch)
    ok, table = reciprocity_check(c)
    assert len(calls) == 4
    assert ok and [inv.value for inv in table] == want


def test_place_over_another_field_is_refused(K2):
    F4 = gf(2, 2)
    place = Place(Poly(F4, [F4.gen, F4.one]))          # t + z over GF(4)
    t = K2.var("t")
    c = HClass.build(K2, _w(2, K2.one / t), (t + K2.one,))
    with pytest.raises(ConfigMismatch, match=r"GF\(2\^2\).*GF\(2\)"):
        local_invariant(c, place)
    with pytest.raises(ConfigMismatch, match=r"GF\(2\^2\).*GF\(2\)"):
        residue_at(K2.one / t, place)


def _laurent_class(c, pad):
    """The class over F_q((t)) whose terms are those of c over F_q(t),
    each coordinate and entry expanded at t (from_rational) pad
    coefficients past the precision `_precision_needs` asks for."""
    place = Place(Poly.x(c.field.base))
    terms = Counter()
    for (w, (b,)), m in c.terms.items():
        vals = [1 if a.is_zero() else place_order(a, place)
                for a in w.coords]
        needs, rel = _precision_needs(c.field.base.p, c.level, vals)
        coords = tuple(from_rational(a, need + pad)
                       for a, need in zip(w.coords, needs))
        b = from_rational(b, place_order(b, place) + rel + pad)
        terms[WittVector(w.p, coords), (b,)] += m
    return HClass(laurent_field(c.field.base), 1, c.level, terms)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_invariant_at_t_matches_the_class_over_laurent_series(p, e, level):
    """The invariant of a class over F_q(t) at the place t is the invariant
    at (t) of the same class over F_q((t)), its coordinates and entries
    expanded exactly as far as the residue reads them, or further.  The
    random classes come in pairs: c, and c with its coordinates divided by
    t, so that most of them are ramified at t."""
    K = func_field(gf(p, e), ("t",))
    t = K.var("t")
    place = Place(Poly.x(K.base))
    rng = random.Random(f"laurent:{p}:{e}:{level}")
    classes = [HClass(K, 1, level, c.terms)
               for c in _oracle_classes(p, e, level)]
    for _ in range(4):
        c = _rnd_class(rng, K, level, nterms=3)
        classes += [c, HClass(K, 1, level, {
            (WittVector(p, tuple(a / t for a in w.coords)), b): m
            for (w, b), m in c.terms.items()})]
    nonzero = 0
    for c in classes:
        want = local_invariant(c, place).value
        for pad in (0, 3):
            local = _laurent_class(c, pad)
            assert local_invariant(local, _t_place(local.field)).value \
                == want, (c, pad)
        nonzero += bool(want)
    assert nonzero >= 2


def test_laurent_class_at_another_place_is_refused():
    """A class over F_q((t)) has the one place (t) of its own base field:
    the place t over another field, t + 1 and infinity are refused, after
    the degree check."""
    F2 = gf(2)
    LF = laurent_field(F2)
    t = Laurent.monomial(F2, F2.one, 1, 12)
    c = HClass.build(LF, WittVector(2, (t.inverse(),)),
                     (t + Laurent.one(F2, 12),))
    assert local_invariant(c, Place(Poly.x(F2))).value == 1
    F4 = gf(2, 2)
    for place in (Place(Poly.x(F4)), Place(Poly(F2, [F2.one, F2.one])),
                  Place.infinity()):
        with pytest.raises(UnsupportedField, match="single place"):
            local_invariant(c, place)
        with pytest.raises(UnsupportedField, match="single place"):
            local_invariant(HClass.zero(LF, 1, 1), place)
    two = _raw_class(LF, 1, 1, [(next(iter(c.terms))[0], (t, t))])
    with pytest.raises(UnsupportedDegree):
        local_invariant(two, Place(Poly.x(F4)))


def test_degree_two_over_the_laurent_field_keeps_no_term():
    """Two entries over F_q((t)) meet only at degree 2, above its p-rank
    1: (w | t + O(t^5), t + t^2 + O(t^9)), the uniformizer twice and one
    unit at two precisions keep no term and print as the zero literal."""
    F2 = gf(2)
    LF = laurent_field(F2)
    o = F2.one
    w = WittVector(2, (Laurent(F2, -1, [o], 70),))
    for entries in [(Laurent(F2, 1, [o], 5), Laurent(F2, 1, [o, o], 9)),
                    (Laurent(F2, 1, [o], 5), Laurent(F2, 1, [o], 9)),
                    (Laurent(F2, 0, [o, o], 5), Laurent(F2, 0, [o, o], 9))]:
        c = HClass.build(LF, w, entries)
        assert c.terms == {} and repr(c) == "[ [0] | 1, 1 )"
        assert _is_normal(c)


def test_a_unit_entry_that_reads_one_keeps_its_precision():
    """A unit entry that reads 1 is no factor to drop when no power of t
    carries its precision: [ [t^-3 + O(t^5)] | 1 + O(t^3) ) over
    GF(2)((t)) keeps its term, and inv and zero refuse it, since the
    residue reads the entry to relative precision 4 and its completion
    1 + t^3 answers 1; known to O(t^4) it answers 0."""
    F2 = gf(2)
    LF = laurent_field(F2)
    o = F2.one
    w = WittVector(2, (Laurent(F2, -3, [o], 5),))
    c = HClass.build(LF, w, (Laurent(F2, 0, [o], 3),))
    assert repr(c) == "[ [t^-3 + O(t^5)] | 1 + O(t^3) )"
    short = r"relative precision 3; the level-1 residue reads it to " \
            r"relative precision 4"
    with pytest.raises(PrecisionExhausted, match=short):
        local_invariant(c, _t_place(LF))
    with pytest.raises(PrecisionExhausted, match=short):
        h_zero_test(c)
    known = HClass.build(LF, w, (Laurent(F2, 0, [o], 4),))
    assert local_invariant(known, _t_place(LF)).value == 0
    assert h_zero_test(known)
    z = F2.zero
    completed = HClass.build(LF, w, (Laurent(F2, 0, [o, z, z, o], 6),))
    assert local_invariant(completed, _t_place(LF)).value == 1


def test_unit_entries_answer_as_every_completion():
    check_unit_completions(unit_entry_inputs(40, "unit entries"))


@pytest.mark.parametrize("p,e,level", ORACLE_CELLS)
def test_expansions_ask_no_more_than_uniform_precision(p, e, level,
                                                       monkeypatch):
    asked = []
    expand = PlaceContext.expand

    def spy(self, r, prec):
        asked.append(prec)
        return expand(self, r, prec)

    monkeypatch.setattr(PlaceContext, "expand", spy)
    classes = _oracle_classes(p, e, level)
    smaller = False
    for c in classes:
        for w, (b,) in c.terms:
            one_term = _raw_class(c.field, 1, level, [(w, (b,))])
            for place in _normal_places(one_term):
                asked.clear()
                local_invariant(one_term, place)
                bound = uniform_precision(level, w, b, place)
                assert asked and max(asked) <= bound
                smaller |= min(asked) < bound
    assert smaller


@pytest.mark.parametrize("p,e,level", [(2, 1, 1), (2, 1, 2), (2, 1, 3),
                                       (2, 1, 4), (3, 1, 2), (3, 1, 3),
                                       (2, 2, 2), (2, 2, 3)])
def test_local_symbol_answers_at_exact_precision(p, e, level):
    """Coordinate j of valuation v_j known to exactly
    O(t^(1 - (p^(level-1-j) - 1) min(v_j, 0))), and b to relative precision
    1 - min(0, min_j p^(level-1-j) v_j): the symbol is the one read from 16
    more coefficients of every series, and the ghost oracle's."""
    F = gf(p, e)
    rng = random.Random(50 * p + 5 * e + level)
    powers = [p ** (level - 1 - j) for j in range(level)]

    def series(val, prec):
        lead = F.from_code(rng.randrange(1, F.order))
        rest = [F.from_code(rng.randrange(F.order))
                for _ in range(prec - val - 1)]
        return Laurent(F, val, [lead] + rest, prec)

    for _ in range(8):
        vals = [rng.randint(-3, 2) for _ in range(level)]
        needs = [1 - (n - 1) * min(v, 0) for n, v in zip(powers, vals)]
        rel = 1 - min(0, min(n * v for n, v in zip(powers, vals)))
        full = [series(v, need + 16) for v, need in zip(vals, needs)]
        exact = [a.truncate(need) for a, need in zip(full, needs)]
        bval = rng.randint(-2, 3)
        b = series(bval, bval + rel + 16)
        want = local_symbol(F, level, full, b)
        assert local_symbol(F, level, exact, b.truncate(bval + rel)) == want
        assert want == ghost_inversion_symbol(F, level, full, b)


@pytest.mark.parametrize("level,ncoords,error", [
    (3, 2, ConfigMismatch),      # more levels than coordinates
    (1, 2, ConfigMismatch),      # coordinates past the level
    (0, 0, ResourceLimit),       # no level at all
    (0, 1, ResourceLimit),
], ids=["level-above-length", "level-below-length", "level-0-empty",
        "level-0"])
def test_local_symbol_rejects_malformed_arguments(level, ncoords, error):
    F = gf(2)
    inv_t = Laurent.monomial(F, F.one, -1, 8)
    tt = Laurent.monomial(F, F.one, 1, 8)
    with pytest.raises(error):
        local_symbol(F, level, [inv_t] * ncoords, tt)


def test_local_symbol_zero_entry_raises():
    # g = t^2 + O(t^3) alone would give residue 0; dlog of b = 0 is still
    # refused
    F = gf(2)
    with pytest.raises(DivisionByZero):
        local_symbol(F, 1, [Laurent.monomial(F, F.one, 2, 8)],
                     Laurent.zero(F, 8))


@pytest.mark.parametrize("case", ["entry", "coordinate"])
def test_local_symbol_refuses_what_is_no_series(case):
    """The memos take truncated series as their keys; each coordinate and
    the entry are checked before anything is lifted."""
    F = gf(2)
    s = Laurent(F, -1, [F.one, F.one], 6)
    w, b = ([s], 3) if case == "entry" else ([3], s)
    with pytest.raises(ConfigMismatch, match="reads Laurent series"):
        local_symbol(F, 1, w, b)


# ----------------------------------------------- the residue's memos ----

def _seeded_series(rng, F, val, prec):
    """A series of valuation val known to O(t^prec), seeded coefficients."""
    lead = F.from_code(rng.randrange(1, F.order))
    return Laurent(F, val, [lead] + [F.from_code(rng.randrange(F.order))
                                     for _ in range(prec - val - 1)], prec)


@pytest.mark.parametrize("levels", [(1, 2, 3), (3, 2, 1)])
@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_the_ghost_memo_tells_levels_apart(p, e, levels):
    """One coordinate series asked at levels 1-3 over one residue field.
    An integral coordinate 0 is cut to O(t^1) at every level, so only the
    Galois ring tells its ghost terms apart; one with a pole is cut further
    at each level.  Every symbol is the ghost oracle's."""
    clear_residue_memos()
    F = gf(p, e)
    rng = random.Random(f"ghost memo {p} {e}")
    firsts = [_seeded_series(rng, F, v, 24) for v in (0, 0, -2)]
    rest = [_seeded_series(rng, F, v, 24) for v in (-1, 1)]
    entries = [_seeded_series(rng, F, v, 24) for v in (1, -1)]
    nonzero = 0
    for level in levels:
        for a in firsts:
            w = [a] + rest[:level - 1]
            for b in entries:
                want = ghost_inversion_symbol(F, level, w, b)
                assert local_symbol(F, level, w, b) == want, (level, a, b)
                nonzero += bool(want)
    assert nonzero


def test_ghost_eviction_keeps_answers():
    """600 distinct coordinates and entries at level 1 over GF(3), each
    read whole, overflow the 512 entries of both memos; the first 50,
    evicted, read again to the ghost oracle's symbols."""
    clear_residue_memos()
    F = gf(3)

    def series(k, val):
        return Laurent(F, val, [F.one] + [F.from_code(k // 3 ** j % 3)
                                          for j in range(6)], val + 7)
    cases = [([series(k, -6)], series(k, 1)) for k in range(600)]
    for w, b in cases:
        local_symbol(F, 1, w, b)
    for memo in (kato_module._ghost_term, kato_module._lifted_dlog):
        info = memo.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (600, 512, 512)
    for w, b in cases[:50]:
        assert local_symbol(F, 1, w, b) == ghost_inversion_symbol(F, 1, w, b)
    for memo in (kato_module._ghost_term, kato_module._lifted_dlog):
        assert memo.cache_info().misses == 650


def test_inputs_known_further_read_the_memos(monkeypatch):
    """Inputs known 8 coefficients past what the residue reads give the
    symbols that inputs known 16 past it gave, with no series lifted: both
    are cut to the same memo keys.  local_symbol is read from its module,
    where a mutant is patched in."""
    clear_residue_memos()
    rng = random.Random("inputs known further")
    cases = []
    for p, e, level in [(2, 1, 1), (2, 1, 3), (3, 1, 2), (2, 2, 2)]:
        F = gf(p, e)
        vals = [rng.randint(-3, 1) for _ in range(level)]
        needs, rel = _precision_needs(p, level, vals)
        w = [_seeded_series(rng, F, v, n + 16) for v, n in zip(vals, needs)]
        b = _seeded_series(rng, F, -1, rel + 15)
        cases.append((F, level, w, b,
                      kato_module.local_symbol(F, level, w, b)))

    def lifted(*args):
        raise AssertionError("a series was lifted again")
    with monkeypatch.context() as m:
        m.setattr(Laurent, "map_coeffs", lifted)
        for F, level, w, b, want in cases:
            shorter = [a.truncate(a.prec - 8) for a in w]
            assert kato_module.local_symbol(
                F, level, shorter, b.truncate(b.prec - 8)) == want


def test_a_repeated_reciprocity_check_reads_the_memos(monkeypatch):
    """Seeded classes over GF(2)(t), GF(3)(t) and GF(4)(t) at levels 1-3:
    the second check returns the same tables, and it expands and lifts
    nothing, so it reaches no _series_div, Poly.shift or
    Laurent.map_coeffs.  A fresh class reaches them."""
    rng = random.Random("repeated reciprocity")
    classes = [_rnd_class(rng, func_field(gf(p, e), ("t",)), level, 2)
               for p, e, level in [(2, 1, 1), (2, 1, 3), (3, 1, 2),
                                   (2, 2, 2)]]
    first = [reciprocity_check(c) for c in classes]
    assert any(inv.value for _, table in first for inv in table)
    K = func_field(gf(3), ("t",))
    t = K.var("t")
    fresh = HClass.build(K, _w(3, K.one / (t ** 3 + t + K.one), K.one / t),
                         (t ** 2 + K.one,))

    def reached(*args):
        raise AssertionError("a memoized step ran")
    monkeypatch.setattr(places_module, "_series_div", reached)
    monkeypatch.setattr(Poly, "shift", reached)
    monkeypatch.setattr(Laurent, "map_coeffs", reached)
    assert [reciprocity_check(c) for c in classes] == first
    with pytest.raises(AssertionError, match="a memoized step ran"):
        reciprocity_check(fresh)


@pytest.mark.parametrize("prec", [0, 3])
def test_zero_entry_of_an_integral_term_raises(prec):
    """An entry zero to precision has no order, so a term over F_q((t))
    with integral coordinates and such an entry is not read off the
    residue field: local_invariant refuses it as local_symbol does."""
    F = gf(2)
    LF = laurent_field(F)
    c = _raw_class(LF, 1, 2, [(WittVector(2, (Laurent.one(F, 8),
                                              Laurent.zero(F, 8))),
                               (Laurent.zero(F, prec),))])
    with pytest.raises(DivisionByZero):
        local_invariant(c, _t_place(LF))


# -------------------------------------------------------- level maps ----

def test_level_shift_basics(K2):
    t = K2.var("t")
    c = HClass.build(K2, _w(2, K2.one / t), (K2.one + t,))
    assert level_shift(c, 1) is c
    c2 = level_shift(c, 2)
    assert c2.level == 2
    assert all(w.coords[0].is_zero() for w, _ in c2.terms)
    with pytest.raises(LevelDecrease):
        level_shift(c2, 1)
    # invariants gain the factor p^(i'-i)
    pt = Place(Poly.x(gf(2)))
    i1 = local_invariant(c, pt).value
    i2 = local_invariant(c2, pt).value
    assert i2 == (2 * i1) % 4


def test_level_shift_sorts_the_shifted_terms():
    """Over F_q((t)) the zero a shift prepends is known to its coordinate's
    precision, which the term order reads, so the shifted terms are sorted
    again: here the order of the two terms reverses at level 2."""
    F = gf(2)
    L = laurent_field(F)
    c = (HClass.build(L, _w(2, Laurent(F, -3, [F.one], 9)),
                      (Laurent(F, 0, [F.one, F.zero, F.one], 16),))
         + HClass.build(L, _w(2, Laurent(F, -1, [F.one], 3)),
                        (Laurent(F, 0, [F.one, F.one], 16),)))
    shifted = level_shift(c, 2)
    vshifted = [(w.vshift(1), b) for w, b in c.terms]
    assert list(shifted.terms) != vshifted
    assert shifted.terms == HClass._normal(
        L, 1, 2, [(term, 1) for term in vshifted]).terms
    assert repr(shifted) == (
        "[ [O(t^3), t^-1 + O(t^3)] | 1 + t + O(t^16) ) + "
        "[ [O(t^9), t^-3 + O(t^9)] | 1 + t^2 + O(t^16) )")


def test_level_shift_additive_and_injective(K2):
    rng = random.Random(70)
    pt = Place(Poly.x(gf(2)))
    for _ in range(10):
        a = _rnd_class(rng, K2, 1)
        b = _rnd_class(rng, K2, 1)
        lhs = level_shift(a + b, 2)
        rhs = level_shift(a, 2) + level_shift(b, 2)
        for pl in set(class_places(lhs)) | set(class_places(rhs)):
            assert local_invariant(lhs, pl).value == \
                local_invariant(rhs, pl).value
        # injectivity on invariant-distinguishable classes
        ia = local_invariant(a, pt).value
        if ia != 0:
            assert local_invariant(level_shift(a, 2), pt).value != 0



@pytest.mark.parametrize("p,e", [(2, 1), (3, 2)])
def test_level_shift_multiplies_invariants(p, e):
    """Every invariant of level_shift(c, i + d) is p^d times that of c."""
    K = func_field(gf(p, e), ("t",))
    rng = random.Random(73)
    nonzero = 0
    for level in (1, 2):
        for _ in range(10):
            c = _rnd_class(rng, K, level)
            for d in (1, 2):
                shifted = level_shift(c, level + d)
                for pl in class_places(c):
                    inv = local_invariant(c, pl).value
                    got = local_invariant(shifted, pl)
                    assert got.modulus == p ** (level + d)
                    assert got.value == p ** d * inv % got.modulus
                    nonzero += inv != 0
    assert nonzero >= 20


def test_torsion_fragment(K2):
    # p^i * (level-i class shifted to level i+1) vanishes
    rng = random.Random(71)
    for level in (1, 2):
        for _ in range(5):
            c = _rnd_class(rng, K2, level)
            shifted = level_shift(c, level + 1)
            killed = shifted.int_mul(2 ** level)
            assert h_zero_test(killed)


def test_colimit_equal(K2):
    t = K2.var("t")
    c = HClass.build(K2, _w(2, K2.one / t), (K2.one + t,))
    assert colimit_equal(ColimitClass(c), ColimitClass(level_shift(c, 2)))
    other = HClass.build(K2, _w(2, K2.one / t), (t,))
    assert not colimit_equal(ColimitClass(c), ColimitClass(other))
    # J relation inside the colimit
    rng = random.Random(72)
    w = WittVector(2, (random_ratfunc(rng, K2),))
    b = K2.var("t") + K2.one
    cj = c + HClass.build(K2, w.wp(), (b,))
    assert colimit_equal(ColimitClass(c), ColimitClass(cj))


# ---------------------------------------------------------- zero test ----

def test_zero_test_constants():
    F4 = gf(2, 2)
    z = F4.gen
    c = HClass.build(F4, WittVector(2, (z, F4.zero)), (z,))
    assert h_zero_test(c)            # degree >= 1 over constants collapses
    c0 = HClass(F4, 0, 2, [(WittVector(2, (z, F4.zero)), ())])
    assert not h_zero_test(c0)       # trace is 3 in Z/4
    c1 = HClass(F4, 0, 2, [(WittVector(2, (F4.zero, F4.one)), ())])
    assert h_zero_test(c1)           # (0,1)+(0,1) = 0 over F_4
    # brute-force oracle: degree-0 zero test matches the trace kernel, also
    # for a sum of terms, whose traces add up in Z/4
    import itertools
    v = WittVector(2, (z, F4.one))
    for coords in itertools.product(list(F4.elements()), repeat=2):
        w = WittVector(2, coords)
        ch = HClass(F4, 0, 2, [(w, ())])
        assert h_zero_test(ch) == (w.trace_int() == 0)
        two = HClass(F4, 0, 2, [(w, ()), (v, ())])
        assert h_zero_test(two) == ((w + v).trace_int() == 0)


def test_zero_test_function_field(K2):
    t = K2.var("t")
    assert not h_zero_test(HClass.build(K2, _w(2, K2.one / t),
                                        (K2.one + t,)))
    rng = random.Random(73)
    w = WittVector(2, (random_ratfunc(rng, K2), random_ratfunc(rng, K2)))
    b = random_ratfunc(rng, K2)
    assert h_zero_test(HClass.build(K2, w.wp(), (b,)))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_degree_one_zero_test_reads_the_table(p, e):
    """Degree 1 over F_q(t) reads the invariants at the finite places only;
    its answer is the whole table's, on seeded classes at levels 1-3: one
    or two random terms, a wp(y) term, zero by construction, and their
    sum."""
    K = func_field(gf(p, e), ("t",))
    rng = random.Random(f"degree-1 zero test over GF({p}, {e})")
    answers = []
    for level in (1, 2, 3):
        for _ in range(4):
            c = _rnd_class(rng, K, level, nterms=rng.randint(1, 2))
            y = WittVector(p, tuple(random_ratfunc(rng, K, max_deg=1)
                                    for _ in range(level)))
            wp = HClass.build(K, y.wp(), (random_ratfunc(rng, K, max_deg=2),))
            for cls in (c, wp, c + wp):
                want = all(inv.value == 0 for inv in reciprocity_check(cls)[1])
                assert h_zero_test(cls) == want, cls
                answers.append(want)
            assert h_zero_test(wp)
    assert not all(answers)


def test_classes_with_no_term_over_two_variables_are_zero():
    """A class with no term is zero at every degree over F_2(x, y), with
    no invariant read: a zero vector, a Teichmueller match and repeated
    slots leave none."""
    K = func_field(gf(2), ("x", "y"))
    x, y = K.var("x"), K.var("y")
    for w, entries in [(_w(2, K.zero), ()), (_w(2, K.zero), (x,)),
                       (_w(2, x), (x,)), (_w(2, K.one / x), (x + y, x + y)),
                       (_w(2, K.zero), (x, y, x + y))]:
        c = HClass.build(K, w, entries)
        assert c.terms == {} and h_zero_test(c), c
    assert HClass.build(K, _w(2, K.one / x), (x + y, x)).terms


def test_zero_test_unsupported():
    """The one refusal left: a class with a term, of degree n <= k over
    F_q(x_1..x_k), here degrees 0, 1 and 2 over F_2(x, y).  Degree 0 over
    F_q(t), refused before, is answered
    (`test_degree_zero_over_fqt_is_zero_iff_the_trace_vanishes`)."""
    K = func_field(gf(2), ("x", "y"))
    x, y = K.var("x"), K.var("y")
    for entries in ((), (y,), (x, y)):
        with pytest.raises(UnsupportedField, match="above degree 2"):
            h_zero_test(HClass.build(K, _w(2, K.one / x), entries))


_WITT_BINOP = WittVector._binop


def _binop_off_rational(self, other, tag):
    """WittVector._binop, failing on F_q(t) coordinates."""
    if isinstance(self.coords[0], RatFunc):
        raise AssertionError("a Witt sum or product over F_q(t)")
    return _WITT_BINOP(self, other, tag)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_degree_zero_over_fqt_is_zero_iff_the_trace_vanishes(p, e,
                                                             monkeypatch):
    """u + wp(y), for a constant vector u and y whose coordinates have
    simple poles at places of degree 1-3 and at infinity, is zero exactly
    when Tr(u) = 0: an everywhere unramified character of F_q(t) is
    constant.  A pole c/f added to coordinate 0, f of degree 1 or 2, is
    wild there, so the class is nonzero.  The zero test takes no Witt sum
    of rational functions: it sums the terms' expansions at each place.  A
    class zero over F_q(t) is zero over F_q((t)) at the place t."""
    rng = random.Random(f"degree-0 {p} {e}")
    F = gf(p, e)
    K, L = func_field(F, ("t",)), laurent_field(F)
    t = K.var("t")
    polys = [t, t + K.one, _irreducible(K, 2), _irreducible(K, 3)]
    units = [K.const(a) for a in F.elements() if a]
    top = min(3 if p < 5 else 2, max_structure_level(p))
    for level, n in itertools.product(range(1, top + 1), range(8)):
        while True:     # traces 0 and nonzero alternate
            u = [rng.choice(list(F.elements())) for _ in range(level)]
            if (WittVector(p, u).trace_int() == 0) == (n % 2 == 0):
                break
        u = WittVector(p, [K.const(a) for a in u])
        y = WittVector(p, [rng.choice(units) / rng.choice(polys)
                           + rng.choice(units) * t for _ in range(level)])
        c = HClass(K, 0, level, [(y.frobenius(), ()), (-y, ()), (u, ())])
        w = u + y.wp()
        wild = WittVector(p, (w.coords[0] + rng.choice(units)
                              / rng.choice(polys[:3]),) + w.coords[1:])
        wild = HClass(K, 0, level, [(wild, ())])
        with monkeypatch.context() as patch:
            patch.setattr(WittVector, "_binop", _binop_off_rational)
            assert h_zero_test(c) == (n % 2 == 0)
            assert not h_zero_test(wild)
        if n % 2 == 0:
            poles = [place_order(a, _t_place(L)) for a in w.coords
                     if not a.is_zero()]
            prec = 1 - p ** level * min(0, *poles)
            local = WittVector(p, [from_rational(a, prec) for a in w.coords])
            assert h_zero_test(HClass(L, 0, level, [(local, ())]))


def test_degree_zero_over_fqt_reads_each_term_as_far_as_all_need(
        monkeypatch):
    """At level 3 over GF(5)(t), y = (2/f^2 + t, 1/f, 3/f), f a cubic: the
    terms F(y) and -y have poles of different orders at f and at infinity,
    so each is expanded as far as the termwise minimum valuations ask
    before the expansions are summed.  F(y) - y is zero, and with (1, 0, 0)
    added it is not, since its trace is 1 in Z/125."""
    F = gf(5)
    K = func_field(F, ("t",))
    t = K.var("t")
    f = _irreducible(K, 3)
    y = WittVector(5, (K.const(F.elem(2)) / f ** 2 + t, K.one / f,
                       K.const(F.elem(3)) / f))
    terms = [(y.frobenius(), ()), (-y, ())]
    one = WittVector(5, (K.one, K.zero, K.zero))
    monkeypatch.setattr(WittVector, "_binop", _binop_off_rational)
    assert h_zero_test(HClass(K, 0, 3, terms))
    assert not h_zero_test(HClass(K, 0, 3, terms + [(one, ())]))


def test_pgl2_transport_keeps_every_invariant():
    """inv_sigma(v)(sigma c) = inv_v(c) for sigma in PGL_2(F_q) sending
    infinity to a finite place, matched place by place on 80 seeded
    classes over GF(2), GF(3), GF(4) and GF(5)(t) at levels 1-4, some with
    multiplicities (transport_oracle)."""
    check_transport(transport_classes(8, "PGL_2 transport"))


def _place_order_unread(r, place):
    """place_order at infinity, the degree difference the factorization
    pass reads there; an AssertionError at a finite place."""
    if not place.is_infinite:
        raise AssertionError("place_order reached at a finite place")
    return place_order(r, place)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1)])
def test_degree_zero_over_fqt_reads_orders_off_the_factorization(
        p, e, monkeypatch):
    """The degree-0 zero test over F_q(t) takes its places and the
    termwise orders from the one factorization of the class
    (`_factor_pass`): with place_order failing at every finite place it
    gives the answers it gives without, on u + wp(y) classes (zero
    exactly when Tr(u) = 0), with and without a seeded term added."""
    rng = random.Random(f"degree-0 orders {p} {e}")
    F = gf(p, e)
    K = func_field(F, ("t",))
    t = K.var("t")
    polys = [t, t + K.one, _irreducible(K, 2)]
    units = [K.const(a) for a in F.elements() if a]
    classes = []
    for level, n in itertools.product((1, 2), range(4)):
        while True:     # traces 0 for n < 2, nonzero for n >= 2
            u = WittVector(p, [rng.choice(list(F.elements()))
                               for _ in range(level)])
            if (u.trace_int() == 0) == (n < 2):
                break
        u = WittVector(p, [K.const(a) for a in u.coords])
        y = WittVector(p, [rng.choice(units) / rng.choice(polys) ** 2
                           + rng.choice(units) * t for _ in range(level)])
        terms = [(y.frobenius(), ()), (-y, ()), (u, ())]
        if n % 2:
            terms.append((WittVector(p, [random_ratfunc(rng, K, max_deg=2)
                                         for _ in range(level)]), ()))
        classes.append(HClass(K, 0, level, terms))
    answers = [h_zero_test(c) for c in classes]
    assert answers[::4] == [True] * (len(classes) // 4)
    assert not any(answers[2::4])
    monkeypatch.setattr(kato_module, "place_order", _place_order_unread)
    assert [h_zero_test(c) for c in classes] == answers


def _above_rank_entry(rng, field):
    """A nonzero entry over F_q(t), F_q(x, y) or F_q((t))."""
    if isinstance(field, LaurentField):
        F = field.base
        els = list(F.elements())
        return Laurent(F, rng.randint(-1, 2),
                       [rng.choice(els[1:])] + [rng.choice(els)
                                                for _ in range(3)], 8)
    return random_ratfunc(rng, field, max_deg=2)


def _above_rank_terms(rng, field, level, degree):
    """One seeded term of the given degree over field, with a pole in
    every coordinate."""
    p = field.base.p
    if isinstance(field, LaurentField):
        w = WittVector(p, [_above_rank_entry(rng, field).shift(-3)
                           for _ in range(level)])
    else:
        w = WittVector(p, [field.one / _above_rank_entry(rng, field)
                           for _ in range(level)])
    return [(w, tuple(_above_rank_entry(rng, field)
                      for _ in range(degree)))]


def _above_rank_classes(rng):
    """(field, degree, level, terms) of seeded classes of degree r + 1 and
    r + 2 over fields of p-rank r: F_q(t) and F_q((t)) have r = 1,
    F_2(x, y) r = 2."""
    fields = [func_field(gf(2), ("t",)), func_field(gf(3), ("t",)),
              func_field(gf(2, 2), ("t",)), laurent_field(gf(2)),
              laurent_field(gf(3))]
    out = [(K, degree, level, _above_rank_terms(rng, K, level, degree))
           for K in fields
           for level in range(1, min(3, max_structure_level(K.base.p)) + 1)
           for degree in (2, 3)]
    K2xy = func_field(gf(2), ("x", "y"))
    out.append((K2xy, 3, 2, _above_rank_terms(rng, K2xy, 2, 3)))
    return out


def test_classes_above_the_p_rank_are_zero(monkeypatch):
    """Omega^n_F = 0 for n above the p-rank r of F, so HClass and
    HClass.build keep no term of a class of degree r + 1 or r + 2, with no
    entry expanded or factored, and h_zero_test answers it with no
    invariant and no standard form.  A zero entry is still refused, and
    degree 2 over F_2(x, y) still is."""
    rng = random.Random(74)
    cases = _above_rank_classes(rng)
    K2xy = func_field(gf(2), ("x", "y"))
    at_rank = HClass(K2xy, 2, 2, _above_rank_terms(rng, K2xy, 2, 2))
    assert at_rank.terms
    with pytest.raises(UnsupportedField, match="no invariants"):
        h_zero_test(at_rank)                                # 2 = k, not above

    def reached(*args, **kwargs):
        raise AssertionError("an entry was expanded or factored, or an "
                             "invariant or a standard form read")
    for module, name in [(kato_module, "_expand_entry"),
                         (poly_module, "factor"), (kato_module, "factor"),
                         (kato_module, "reciprocity_check"),
                         (kato_module, "local_invariant"),
                         (kato_module, "witt_standard_form")]:
        monkeypatch.setattr(module, name, reached)
    classes = []
    for field, degree, level, terms in cases:
        (w, entries), = terms
        for c in (HClass(field, degree, level, terms),
                  HClass.build(field, w, entries)):
            assert c.terms == {} and c.degree == degree, c
            classes.append(c)
        zero = entries[:-1] + (entries[-1] * 0,)
        with pytest.raises(ConfigMismatch, match="zero entry"):
            HClass.build(field, w, zero)
    for c in classes:
        assert h_zero_test(c)
    # degree 2 over F_2(t) at levels 1 and 2
    c1, c2 = (HClass(*case) for case in cases[0:3:2])
    assert colimit_equal(ColimitClass(c1), ColimitClass(c2))


# ------------------------------------------------ local decomposition ----

def test_laurent_field_is_in_t():
    # series print in t, so the field has no other variable to offer
    LF = laurent_field(gf(2))
    assert LF.var == "t" and repr(LF) == "GF(2)((t))"
    assert laurent_field(gf(2)) is LF
    with pytest.raises(TypeError):
        laurent_field(gf(2), "x")


def test_decompose_examples():
    F2 = gf(2)
    LF = laurent_field(F2)
    P = 32
    one = Laurent.one(F2, P)
    tt = Laurent.monomial(F2, F2.one, 1, P)
    c = HClass.build(LF, WittVector(2, (one,)), (tt,))
    spec, resid = decompose_local(c)
    assert spec.is_formally_zero()
    total = None
    for w, _ in resid.terms:
        total = w if total is None else total + w
    assert total.trace_int() == 1
    assert local_invariant(c, _t_place(LF)).value == 1
    # unit entry, integral w: residue component zero
    u = one + tt
    c2 = HClass.build(LF, WittVector(2, (one,)), (u,))
    spec2, resid2 = decompose_local(c2)
    assert resid2.is_formally_zero()


def test_wild_class_raises():
    F2 = gf(2)
    LF = laurent_field(F2)
    P = 32
    tt = Laurent.monomial(F2, F2.one, 1, P)
    wild = HClass.build(LF, WittVector(2, (tt.inverse(),)), (tt,))
    with pytest.raises(WildClass):
        decompose_local(wild)
    # pole order divisible by p reduces and then the leftover is wild
    a = Laurent(F2, -2, [F2.one], P)
    red, wildlist = witt_standard_form(WittVector(2, (a,)), F2)
    assert wildlist == [(0, 1)]
    # sum of the two reduces to integral
    b = Laurent(F2, -2, [F2.one, F2.one], P)
    red, wildlist = witt_standard_form(WittVector(2, (b,)), F2)
    assert not wildlist
    assert all(c.is_zero() or c.val >= 0 for c in red.coords)


def test_local_path_raises_typed_errors(K2, monkeypatch):
    # degree-1 classes whose term carries two entries, over F_2(t) and
    # F_2((t))
    t = K2.var("t")
    two = HClass(K2, 1, 1, [(WittVector(2, (t.inverse(),)), (t, t + K2.one))])
    with pytest.raises(UnsupportedDegree):
        local_invariant(two, Place.infinity())
    F2 = gf(2)
    LF = laurent_field(F2)
    s = Laurent.monomial(F2, F2.one, 1, 20)
    two = HClass(LF, 1, 1, [(WittVector(2, (s.inverse(),)),
                             (s, Laurent(F2, 0, [F2.one, F2.one], 20)))])
    with pytest.raises(UnsupportedDegree):
        local_invariant(two, _t_place(LF))
    # a reduction step that removes nothing would never terminate: the
    # step leaves the tail as it is, as if [d] - [d^p] were zero
    monkeypatch.setattr(kato_module, "_standard_form_step",
                        lambda p, tail, d: tail)
    with pytest.raises(ResourceLimit):
        witt_standard_form(WittVector(2, (Laurent(F2, -2, [F2.one], 8),)),
                           F2)


def test_typed_errors_survive_optimized_mode():
    """Poly.pth_root off the p-th powers and class_places of a class over
    F_q((t)) raise typed errors under python -O too."""
    code = ("from katoforge import (HClass, IntegralityViolation, Laurent,\n"
            "                       UnsupportedField, WittVector, gf,\n"
            "                       laurent_field)\n"
            "from katoforge.kato import class_places\n"
            "from katoforge.poly import Poly\n"
            "F = gf(2)\n"
            "try:\n"
            "    print(Poly(F, [F.zero, F.one, F.one]).pth_root())\n"
            "except IntegralityViolation:\n"
            "    print('refused')\n"
            "print(Poly(F, [F.one, F.zero, F.one]).pth_root())\n"
            "one = Laurent.one(F, 8)\n"
            "t = Laurent.monomial(F, F.one, 1, 8)\n"
            "c = HClass.build(laurent_field(F), WittVector(2, (one,)), (t,))\n"
            "try:\n"
            "    print(class_places(c))\n"
            "except UnsupportedField:\n"
            "    print('refused')\n")
    assert run_optimized(code) == "refused\nt+1\nrefused\n"


def test_decompose_reconstructs_invariant():
    F2 = gf(2)
    LF = laurent_field(F2)
    rng = random.Random(74)
    P = 32
    done = 0
    while done < 30:
        coords = []
        for _ in range(2):
            cs = [rng.choice([F2.zero, F2.one]) for _ in range(6)]
            coords.append(Laurent(F2, rng.randint(0, 2), cs, P))
        w = WittVector(2, tuple(coords))
        unit = Laurent(F2, 0, [F2.one] + [rng.choice([F2.zero, F2.one])
                                          for _ in range(4)], P)
        b = unit.shift(rng.randint(-2, 2))
        c = HClass.build(LF, w, (b,))
        done += 1
        spec, resid = decompose_local(c)
        total = None
        for ww, _ in resid.terms:
            total = ww if total is None else total + ww
        expect = total.trace_int() if total is not None else 0
        assert local_invariant(c, _t_place(LF)).value == expect


def test_local_zero_test():
    F2 = gf(2)
    LF = laurent_field(F2)
    P = 32
    one = Laurent.one(F2, P)
    tt = Laurent.monomial(F2, F2.one, 1, P)
    assert not h_zero_test(HClass.build(LF, WittVector(2, (one,)), (tt,)))
    assert h_zero_test(HClass.build(LF, WittVector(2, (one,)), (one + tt,)))
    # degree 0
    c0 = HClass(LF, 0, 1, [(WittVector(2, (tt.inverse(),)), ())])
    assert not h_zero_test(c0)
    c1 = HClass(LF, 0, 1, [(WittVector(2, (one,)), ())])
    assert not h_zero_test(c1)    # Tr_{F2/F2}(1) = 1
    c2 = HClass(LF, 0, 1, [(WittVector(2, (tt,)), ())])
    assert h_zero_test(c2)        # integral, reduces to 0 at the point


def test_precision_guard():
    """Over GF(2)((t)), [ [t^-4 + O(t^3)] | t + O(t^3) ) has the standard
    form t^-1 + O(t^3), whose residue reads the entry to relative
    precision 2, and answers as the class known to O(t^20) does;
    [ [t^-3 + O(t^3)] | t + O(t^3) ) is wild, its residue reads the entry
    to relative precision 4, and it is refused."""
    F2 = gf(2)
    LF = laurent_field(F2)

    def invariant(m, prec):
        w = WittVector(2, (Laurent(F2, -m, [F2.one], prec),))
        c = HClass.build(LF, w, (Laurent.monomial(F2, F2.one, 1, prec),))
        return local_invariant(c, _t_place(LF)).value

    assert invariant(4, 3) == invariant(4, 20) == 0
    with pytest.raises(PrecisionExhausted, match="relative precision 4"):
        invariant(3, 3)


def test_decompose_local_reads_precision_through_coeff():
    """An input known as far as decompose_local's precision rule asks is
    answered as at full precision, and a coordinate cut below it raises
    PrecisionExhausted before any Witt arithmetic."""
    F2 = gf(2)
    LF = laurent_field(F2)
    o = F2.one

    def decompose(coords, b):
        c = HClass(LF, 1, len(coords), [(WittVector(2, coords), (b,))])
        return decompose_local(c)

    w = [o, o, o, o]        # t^-2 + t^-1 + 1 + t
    short = decompose((Laurent(F2, -2, w, 2),), Laurent(F2, 1, [o, o], 3))
    full = decompose((Laurent(F2, -2, w, 12),), Laurent(F2, 1, [o, o], 12))
    assert repr(short) == repr(full) == "([ [0] | 1 ), [ [1] | ))"
    # t^-2 = t^-1 + (t^-1)^2 - t^-1: a pole of order 1 is left, so wild;
    # mu = -2 asks O(t^3) of coordinate 0
    with pytest.raises(WildClass):
        decompose((Laurent(F2, -2, [o], 3), Laurent.zero(F2, 8)),
                  Laurent(F2, 1, [o], 8))
    with pytest.raises(PrecisionExhausted, match=r"coordinate 0 known to "
                       r"O\(t\^0\); the level-2 standard form reads it to "
                       r"O\(t\^3\)"):
        decompose((Laurent(F2, -2, [o], 0), Laurent.zero(F2, 8)),
                  Laurent(F2, 1, [o], 8))
    with pytest.raises(PrecisionExhausted):
        decompose((Laurent(F2, -2, [o], -1),), Laurent(F2, 1, [o, o], 3))


@pytest.mark.parametrize("p,e,level", [(2, 1, 2), (2, 1, 3), (3, 1, 2),
                                       (2, 2, 3)])
def test_local_invariant_precision_guard_boundary(p, e, level):
    """Over F_q((t)) local_invariant answers when coordinate j is known to
    exactly O(t^N_j) and b to exactly the relative precision rel of
    _precision_needs, and one coefficient short of either raises
    PrecisionExhausted at the guard, naming that input."""
    F = gf(p, e)
    LF = laurent_field(F)
    place = _t_place(LF)
    rng = random.Random(70 * p + 7 * e + level)
    powers = [p ** (level - 1 - j) for j in range(level)]

    def series(val, prec):
        lead = F.from_code(rng.randrange(1, F.order))
        rest = [F.from_code(rng.randrange(F.order))
                for _ in range(prec - val - 1)]
        return Laurent(F, val, [lead] + rest, prec)

    def invariant(coords, b):
        c = _raw_class(LF, 1, level, [(WittVector(p, coords), (b,))])
        return local_invariant(c, place).value

    for _ in range(6):
        vals = [rng.randint(-2, 1) for _ in range(level)]
        needs = [1 - (n - 1) * min(v, 0) for n, v in zip(powers, vals)]
        rel = 1 - min(0, min(n * v for n, v in zip(powers, vals)))
        full = [series(v, need + 12) for v, need in zip(vals, needs)]
        exact = [a.truncate(need) for a, need in zip(full, needs)]
        bval = rng.randint(-2, 2)
        b = series(bval, bval + rel + 12)
        want = invariant(full, b)
        assert invariant(exact, b.truncate(bval + rel)) == want
        for j in range(level):
            short = list(exact)
            short[j] = exact[j].truncate(needs[j] - 1)
            with pytest.raises(PrecisionExhausted,
                               match=f"Witt coordinate {j} known"):
                invariant(short, b)
        if rel > 1:     # relative precision 0 is zero, local_symbol's case
            with pytest.raises(PrecisionExhausted, match="entry known"):
                invariant(exact, b.truncate(bval + rel - 1))


def test_precision_guard_names_the_input():
    """t^-1 + O(t^2) as coordinate 0 of a level-3 class over F_2((t)) is
    read to O(t^4): the guard says so, instead of a product series failing
    inside the residue."""
    F2 = gf(2)
    LF = laurent_field(F2)
    zero = Laurent.zero(F2, 8)
    w = WittVector(2, (Laurent(F2, -1, [F2.one], 2), zero, zero))
    c = HClass.build(LF, w, (Laurent.monomial(F2, F2.one, 1, 8),))
    with pytest.raises(PrecisionExhausted, match=r"coordinate 0 known to "
                       r"O\(t\^2\); the level-3 residue reads it to "
                       r"O\(t\^4\)"):
        local_invariant(c, _t_place(LF))


# (p, e, level) over F_q((t)); eight classes each, every fourth one wild
LOCAL_PIN_CELLS = ([(2, 1, level) for level in (1, 2, 3, 4)]
                   + [(3, 1, 1), (3, 1, 2), (2, 2, 1), (2, 2, 2), (2, 2, 3),
                      (2, 3, 1), (2, 3, 2), (2, 3, 3)])
# sha256 of the answers of _local_pin_answers, as the dense series sum and
# the product-only powers gave them, with zero classes printed as literals
# (`[ [0] | 1 )`), the terms sorted by their standard forms, each source
# vector reduced before the expansion, each multiplicity kept beside its
# vector with its p-power part folded into V^k w, every specialization of
# decompose_local the zero class, since H^2 of a finite field is 0, and
# its residue one term; a change of series precision must change it on
# purpose
LOCAL_PIN_SHA256 = ("739bcbe95e934cff7af02ad8c1bab0db"
                    "6e83c7596192e1c2564798bfb5db0dc9")


def _local_pin_classes():
    """(u + wp(y) | t^j unit) with u integral and y a simple pole, some with
    a pole of order prime to p added to coordinate 0."""
    rng = random.Random(18)
    for p, e, level in LOCAL_PIN_CELLS:
        F = gf(p, e)
        elems = list(F.elements())
        prec = 12 + 4 * p ** level

        def series(val, n):
            return Laurent(F, val, [rng.choice(elems[1:])]
                           + [rng.choice(elems) for _ in range(n - 1)], prec)
        for k in range(8):
            u = WittVector(p, [series(rng.randint(0, 1), 3)
                               for _ in range(level)])
            y = WittVector(p, [series(-1, 1)]
                           + [Laurent.zero(F, prec)] * (level - 1))
            w = u + y.wp()
            if k % 4 == 3:
                m = rng.choice([m for m in range(1, 2 * p + 1) if m % p])
                w = WittVector(p, (w.coords[0] + series(-m, 1),)
                               + w.coords[1:])
            yield w, series(0, 4).shift(rng.randint(-2, 2))


def _local_pin_answers():
    """decompose_local, local_invariant and (val, prec) of every
    standard-form coordinate, one line each, errors by type and message."""
    for w, b in _local_pin_classes():
        LF = laurent_field(b.ring)
        c = HClass.build(LF, w, (b,))
        for read in (lambda: decompose_local(c),
                     lambda: local_invariant(c, _t_place(LF)),
                     lambda: [[(a.val, a.prec) for a in
                               witt_standard_form(v, LF.base)[0].coords]
                              for v, _ in c.terms]):
            try:
                yield repr(read())
            except KatoforgeError as exc:
                yield f"{type(exc).__name__}: {exc}"


def test_local_answers_pinned():
    answers = list(_local_pin_answers())
    assert len(answers) == 3 * 8 * len(LOCAL_PIN_CELLS)
    assert sum(a.startswith("WildClass") for a in answers) == 24
    text = "\n".join(answers)
    assert hashlib.sha256(text.encode()).hexdigest() == LOCAL_PIN_SHA256


def _expand_then_reduce(field, terms):
    """The class of terms with no vector reduced before the expansion:
    expand, fold each multiplicity m = p^k u into (V^k w, u), reduce each
    folded vector V^k w from w itself, then the canonical step alone."""
    expanded = []
    for w, entries in terms:
        for ent, m in multilinear_expansion(
                entries, lambda b: kato_module._expand_entry(field, b)):
            v = w
            while m and m % w.p == 0:
                m, v = m // w.p, v.verschiebung()
            expanded.append(((kato_module._standard_form_term(
                v, field.base), ent), m))
    return HClass._normal(field, len(terms[0][1]), terms[0][0].level,
                          expanded)


def _reduction_order_inputs():
    """Lists of (w, entries): the pinned classes, and sums of
    unramified_terms over GF(2), GF(3), GF(4) and GF(8)((t)) at levels
    1-3 and over GF(2)((t)) at level 4."""
    out = [[(w, (b,))] for w, b in _local_pin_classes()]
    cells = [(p, e, level) for p, e in [(2, 1), (3, 1), (2, 2), (2, 3)]
             for level in (1, 2, 3)] + [(2, 1, 4)]
    for p, e, level in cells:
        out += [[(w, (b,)) for w, b in terms] for terms, _ in
                unramified_terms(p, e, level, 6, "reduction order")]
    return out


def _val(a):
    """The valuation of a series, None when it is zero to precision."""
    return None if a.is_zero() else a.val


def _local_reads(c):
    """local_invariant at t and the trace of decompose_local's residue, or
    the type of WildClass or PrecisionExhausted in place of either."""
    mod = c.field.base.p ** c.level
    out = []
    for read in (lambda: local_invariant(c, _t_place(c.field)).value,
                 lambda: sum(w.trace_int() for w, _ in
                             decompose_local(c)[1].terms) % mod):
        try:
            out.append(read())
        except (WildClass, PrecisionExhausted) as exc:
            out.append(type(exc))
    return out


def test_reducing_before_the_expansion_keeps_every_answer():
    """Over F_q((t)) the expanding constructor reduces each source vector
    before the expansion; reducing only the expanded multiples, as the
    canonical step alone does, gives the same invariant and residue, the
    same errors, the same valuation of every stored coordinate and no
    more precision, and both classes are in normal form."""
    kinds = set()
    for terms in _reduction_order_inputs():
        field = laurent_field(terms[0][1][0].ring)
        fast = HClass(field, 1, terms[0][0].level, terms)
        slow = _expand_then_reduce(field, terms)
        assert _is_normal(fast) and _is_normal(slow), terms
        reads = _local_reads(fast)
        assert reads == _local_reads(slow), terms
        kinds.update(r if isinstance(r, type) else int for r in reads)
        assert len(fast.terms) == len(slow.terms), terms
        for (w, ent), (v, want) in zip(fast.terms, slow.terms):
            assert ent == want, terms
            assert [_val(a) for a in w.coords] == [_val(a) for a in v.coords]
            assert all(a.prec >= b.prec for a, b in zip(w.coords, v.coords))
    assert kinds == {int, WildClass}


# ------------------------------------------ standard form and guards ----

def _wp_standard_form(w, base, steps):
    """The standard form with each step cur - wp(V^j [d]) taken through the
    universal polynomials on the whole vector: witt_standard_form's
    oracle.  The coordinate j of each step is appended to steps."""
    p = w.p
    cur = w
    maxprec = max(c.prec for c in w.coords)
    for j in range(w.level):
        while True:
            a = cur.coords[j]
            target = next((n for n in range(a.val, 0)
                           if a.coeff(n) and n % p == 0), None)
            if target is None:
                break
            m = -target
            d = Laurent.monomial(base, base.pth_root(a.coeff(target)),
                                 -(m // p), prec=maxprec + m * p + 4)
            y = WittVector(p, tuple(d if k == j else d * 0
                                    for k in range(w.level)))
            cur = cur - y.wp()
            steps.append(j)
    wild = [(j, -n) for j, a in enumerate(cur.coords)
            for n in range(a.val, 0) if a.coeff(n)]
    return cur, wild


# (p, e, level): GF(2), GF(3), GF(4), GF(8)
STANDARD_FORM_CELLS = ([(2, 1, level) for level in (1, 2, 3, 4)]
                       + [(3, 1, 1), (3, 1, 2)]
                       + [(2, e, level) for e in (2, 3)
                          for level in (1, 2, 3, 4)])


@pytest.mark.parametrize("p,e,level", STANDARD_FORM_CELLS)
def test_standard_form_matches_the_universal_polynomial_step(p, e, level):
    """Reduced vectors, coordinates with their precisions, and wild lists
    agree with the oracle on u + wp(y), u integral and y a simple pole in
    every coordinate (so steps at j > 0 occur), and in one class of three
    a pole of order prime to p added to a coordinate (wild)."""
    rng = random.Random(f"standard-form:{p}:{e}:{level}")
    F = gf(p, e)
    elems = list(F.elements())
    prec = 8 + 4 * p ** level
    steps = []

    def series(val, n):
        return Laurent(F, val, [rng.choice(elems[1:])]
                       + [rng.choice(elems) for _ in range(n - 1)], prec)
    for k in range(3):
        u = WittVector(p, [series(rng.randint(0, 2), 3)
                           for _ in range(level)])
        y = WittVector(p, [series(-1, 1) for _ in range(level)])
        w = u + y.wp()
        if k == 2:
            m = rng.choice([m for m in range(1, 2 * p + 1) if m % p])
            j = rng.randrange(level)
            w = WittVector(p, [a + series(-m, 1) if n == j else a
                               for n, a in enumerate(w.coords)])
        red, wild = witt_standard_form(w, F)
        want, want_wild = _wp_standard_form(w, F, steps)
        assert red.coords == want.coords
        assert [(a.val, a.prec) for a in red.coords] == \
            [(a.val, a.prec) for a in want.coords]
        assert wild == want_wild
        assert bool(wild) == (k == 2)
    assert (max(steps) > 0) == (level > 1)


def test_standard_form_matches_the_restart_loop(monkeypatch):
    """One ascending pass per coordinate answers as the loop that scanned
    coordinate j again after every step (`restart_standard_form`): the
    same reduced coordinates with their precisions, wild list and error
    type and message, on 400 seeded vectors.  Among them a step leaves
    t^-6 + O(t^-3) zero to precision, where the pass stops, and scans that
    run past the precision raise.  A step that cancels nothing raises
    ResourceLimit naming the order and the coordinate."""
    inputs = standard_form_inputs(400, "restart loop")
    answers = [answer(witt_standard_form, w, base) for w, base in inputs]
    assert answers == [answer(restart_standard_form, w, base)
                       for w, base in inputs]
    assert answers[0] == "((O(t^-3), O(t^-9)), [(-3, -3), (-9, -9)], [])"
    raised = sum(a.startswith("PrecisionExhausted") for a in answers)
    wild = sum(a.startswith("(") and not a.endswith(", [])")
               for a in answers)
    assert raised > 40 and wild > 40

    monkeypatch.setattr(kato_module, "_standard_form_step",
                        lambda p, tail, d: tail)
    F2 = gf(2)
    w = WittVector(2, (Laurent(F2, -1, [F2.one], 8),
                       Laurent(F2, -4, [F2.one], 8)))
    with pytest.raises(ResourceLimit, match="the standard-form step left "
                       "the pole of order 4 in Witt coordinate 1"):
        witt_standard_form(w, F2)


@pytest.mark.parametrize("vals,needs", [
    # mu = -2: O(t^(1 + 3*2)), O(t^(1 + 2*2)), O(t^1)
    ((-2, None, -4), (7, 5, 1)),
    # mu = -1/2 from coordinate 2: ceil(1 + 3/2), ceil(1 + 2/2), 1
    ((0, None, -2), (3, 2, 1)),
    # level 1: t^-4 reduces to the wild t^-1, read to O(t^1); known only
    # to O(t^-1), two short, it used to fail inside the standard form
    ((-4,), (1,))])
def test_decompose_local_precision_rule_boundary(vals, needs):
    """Over GF(2)((t)) decompose_local and the degree-0 zero test of (w | )
    answer when coordinate k is known to exactly O(t^M_k),
    M_k = ceil(1 + (p^(i-1) - p^k)|mu|), and refuse one or two
    coefficients short, naming the coordinate, the level and the
    precision, before any Witt arithmetic."""
    F2 = gf(2)
    LF = laurent_field(F2)
    entry = Laurent(F2, 1, [F2.one, F2.one], 12)
    level = len(vals)

    def coords(cut):
        return [Laurent.zero(F2, n) if v is None
                else Laurent(F2, v, [F2.one], n)
                for v, n in zip(vals, cut)]
    # the poles are wild: WildClass is the answer, and the class is not zero
    w = WittVector(2, coords(needs))
    with pytest.raises(WildClass):
        decompose_local(HClass.build(LF, w, (entry,)))
    assert not h_zero_test(HClass(LF, 0, level, [(w, ())]))
    for (k, need), gap in itertools.product(enumerate(needs), (1, 2)):
        short = list(needs)
        short[k] -= gap
        w = WittVector(2, coords(short))
        message = (rf"Witt coordinate {k} known to O\(t\^{need - gap}\); the "
                   rf"level-{level} standard form reads it to "
                   rf"O\(t\^{need}\)")
        for read in (
                lambda: decompose_local(HClass.build(LF, w, (entry,))),
                lambda: h_zero_test(HClass(LF, 0, level, [(w, ())]))):
            with pytest.raises(PrecisionExhausted, match=message):
                read()


def test_zero_vector_known_below_the_residue_is_kept():
    """The normal form drops a vector of zero coordinates, and a
    Teichmueller match's zeros, only when every series is known to O(t^1),
    as far as the residue reads a zero coordinate; known to less, the term
    stays, and local_invariant and h_zero_test both refuse it."""
    F3 = gf(3)
    LF3 = laurent_field(F3)
    t3 = Laurent(F3, 1, [F3.one], 3)
    kept = HClass.build(LF3, _w(3, Laurent.zero(F3, 0)), (t3,))
    assert repr(kept) == "[ [O(t^0)] | t + O(t^3) )"
    for read in (lambda: local_invariant(kept, _t_place(LF3)),
                 lambda: h_zero_test(kept)):
        with pytest.raises(PrecisionExhausted):
            read()
    assert HClass.build(LF3, _w(3, Laurent.zero(F3, 1)),
                        (t3,)).is_formally_zero()
    # level 2: (t, 0 + O(t^P) | t) is a Teichmueller match only for P >= 1
    F2 = gf(2)
    LF2 = laurent_field(F2)
    t2 = Laurent(F2, 1, [F2.one], 9)
    kept, dropped = (HClass.build(LF2, _w(2, Laurent(F2, 1, [F2.one], 5),
                                          Laurent.zero(F2, P)), (t2,))
                     for P in (0, 1))
    assert not kept.is_formally_zero() and dropped.is_formally_zero()
    with pytest.raises(PrecisionExhausted):
        h_zero_test(kept)
    # exact zeros over F_q(t) and GF(q) are dropped as before
    K = func_field(F2, ("t",))
    assert HClass.build(K, _w(2, K.zero), (K.var("t"),)).is_formally_zero()
    assert HClass.build(F2, _w(2, F2.zero), (F2.one,)).is_formally_zero()


def test_two_variable_classes_are_refused_by_name(monkeypatch):
    """Classes over F_2(x, y) are built, but local_invariant,
    reciprocity_check, class_places and h_zero_test refuse them where the
    field kind is decided, before any polynomial is made dense."""
    K = func_field(gf(2), ("x", "y"))
    x, y = K.var("x"), K.var("y")
    c = HClass.build(K, _w(2, K.one / x), (y,))
    assert not c.is_formally_zero()

    def dense(f):
        raise AssertionError("to_dense reached")
    monkeypatch.setattr(kato_module, "to_dense", dense)
    monkeypatch.setattr(places_module, "to_dense", dense)
    message = (r"classes over GF\(2\)\(x, y\) have no invariants, which "
               r"cover GF\(q\), F_q\(t\) and F_q\(\(t\)\); zero tests "
               r"answer above degree 2")
    for read in (lambda: local_invariant(c, Place.infinity()),
                 lambda: reciprocity_check(c), lambda: class_places(c),
                 lambda: h_zero_test(c)):
        with pytest.raises(UnsupportedField, match=message):
            read()
