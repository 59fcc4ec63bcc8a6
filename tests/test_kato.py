import random

import pytest

from katoforge import (HClass, Laurent, LevelDecrease, MilnorElement, Place,
                       Poly, PrecisionExhausted, ResourceLimit,
                       UnsupportedDegree, UnsupportedField, WildClass,
                       WittVector, colimit_equal, ColimitClass,
                       decompose_local, func_field, gf, h_zero_test,
                       laurent_field, level_shift, local_invariant, pair,
                       reciprocity_check, witt_standard_form)
from katoforge.kato import _t_place, class_places

from conftest import random_ratfunc, run_optimized


def _w(p, *coords):
    return WittVector(p, coords)


@pytest.fixture
def K2():
    return func_field(gf(2), ("t",))


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

def test_j_generators_drop_syntactically(K2):
    t = K2.var("t")
    one = K2.one
    # teichmuller-Steinberg: (a,0) x (a)
    w = WittVector.teichmuller(2, t, 2)
    assert HClass.build(K2, w, (t,)).is_formally_zero()
    # repeated slots
    w2 = _w(2, t, one)
    assert HClass.build(K2, w2, (t + one, t + one)).is_formally_zero()
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
        c2 = HClass(K, 1, level,
                    [(WittVector.teichmuller(p, a, level), (a,))],
                    normalize=False)
        for pl in class_places(c2):
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
    # brute-force oracle: degree-0 zero test matches the trace kernel
    import itertools
    for coords in itertools.product(list(F4.elements()), repeat=2):
        w = WittVector(2, coords)
        ch = HClass(F4, 0, 2, [(w, ())])
        assert h_zero_test(ch) == (w.trace_int() == 0)


def test_zero_test_function_field(K2):
    t = K2.var("t")
    assert not h_zero_test(HClass.build(K2, _w(2, K2.one / t),
                                        (K2.one + t,)))
    rng = random.Random(73)
    w = WittVector(2, (random_ratfunc(rng, K2), random_ratfunc(rng, K2)))
    b = random_ratfunc(rng, K2)
    assert h_zero_test(HClass.build(K2, w.wp(), (b,)))


def test_zero_test_unsupported(K2):
    t = K2.var("t")
    c = HClass.build(K2, _w(2, t), (t, t + K2.one))
    with pytest.raises(UnsupportedField):
        h_zero_test(c)


# ------------------------------------------------ local decomposition ----

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
    two = HClass(K2, 1, 1, [(WittVector(2, (t.inverse(),)), (t, t + K2.one))],
                 normalize=False)
    with pytest.raises(UnsupportedDegree):
        local_invariant(two, Place.infinity())
    F2 = gf(2)
    LF = laurent_field(F2)
    s = Laurent.monomial(F2, F2.one, 1, 20)
    two = HClass(LF, 1, 1, [(WittVector(2, (s.inverse(),)),
                             (s, Laurent(F2, 0, [F2.one, F2.one], 20)))],
                 normalize=False)
    with pytest.raises(UnsupportedDegree):
        local_invariant(two, _t_place(LF))
    # a reduction step that removes nothing would never terminate
    monkeypatch.setattr(WittVector, "wp", lambda w: w.int_mul(0))
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
    F2 = gf(2)
    LF = laurent_field(F2)
    deep = Laurent(F2, -4, [F2.one], 3)     # pole order 4, precision 3
    tt = Laurent.monomial(F2, F2.one, 1, 3)
    c = HClass.build(LF, WittVector(2, (deep,)), (tt,))
    with pytest.raises(PrecisionExhausted):
        local_invariant(c, _t_place(LF))
