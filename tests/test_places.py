import random

import pytest

from katoforge import (ConfigMismatch, Laurent, MPoly, Place, Poly,
                       UnsupportedField, from_rational, func_field, gf,
                       place_order, residue_at, residue_table)
from katoforge.places import PlaceContext, place_context, support_places
from katoforge.poly import factor_ratfunc

import series_oracle
from conftest import (clear_residue_memos, random_mpoly, random_ratfunc,
                      run_optimized)


def _t_place(F):
    return Place(Poly.x(F))


def test_residue_of_dlog_t():
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    assert residue_at(K.one / t, _t_place(F2)) == F2.one


def test_partial_fractions_example():
    # dt/(t^2+t) over F_2: residues 1 at (t), 1 at (t+1), 0 at infinity
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    g = K.one / (t * t + t)
    table = {repr(p): v for p, v in residue_table(g)}
    assert table["t"] == F2.one
    assert table["t+1"] == F2.one
    assert table["inf"] == F2.zero


def test_residue_at_infinity():
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    assert residue_at(K.one / t, Place.infinity()) == F2.one  # -1 = 1


def test_higher_degree_place():
    # dt/(t^2+t+1) over F_2: the only finite pole is the quadratic place
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    g = K.one / (t * t + t + K.one)
    f = Poly(F2, [F2.one, F2.one, F2.one])
    ctx = place_context(K, Place(f))
    r = ctx.residue(g)
    assert r != ctx.res_field.zero
    # residue theorem: trace of this residue cancels the infinity residue
    total = F2.zero
    for _, v in residue_table(g):
        total = total + v
    assert not total


def test_high_order_pole_char_p():
    # pole order p+1 (the case order-reduction by division cannot touch)
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    g = (K.one + t) / t ** 3
    assert residue_at(g, _t_place(F2)) == F2.zero
    g2 = (K.one + t * t) / t ** 3
    assert residue_at(g2, _t_place(F2)) == F2.one
    g3 = (K.one + t + t * t) / t ** 3
    assert residue_at(g3, _t_place(F2)) == F2.one


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_residue_theorem_random(p, e):
    # 67 forms per field: 201 total across q in {2, 3, 4}
    base = gf(p, e)
    K = func_field(base, ("t",))
    rng = random.Random(61 * p + e)
    done = 0
    while done < 67:
        num = random_mpoly(rng, base, 1, max_deg=4)
        den = random_mpoly(rng, base, 1, max_deg=4)
        if num.is_zero() or den.is_zero():
            continue
        g = K.from_poly(num, den)
        done += 1
        total = base.zero
        for _, v in residue_table(g):
            total = total + v
        assert not total, g


def test_place_order():
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    r = (t + K.one) / t ** 3
    assert place_order(r, _t_place(F2)) == -3
    assert place_order(r, Place(Poly(F2, [F2.one, F2.one]))) == 1
    assert place_order(r, Place.infinity()) == 2
    with pytest.raises(ConfigMismatch):
        place_order(r, _t_place(gf(3)))       # a place of F_3(t)


def test_two_variable_input_is_refused():
    # places belong to F_q(t); reading a two-variable polynomial as dense
    # once lost y from x*y + y and gave y^2 order 0 at t
    F2 = gf(2)
    K = func_field(F2, ("x", "y"))
    x, y = K.var("x"), K.var("y")
    with pytest.raises(UnsupportedField):
        support_places(x * y + y)
    for place in (_t_place(F2), Place.infinity()):
        with pytest.raises(UnsupportedField):
            place_order(y * y, place)
    with pytest.raises(UnsupportedField):
        factor_ratfunc(x / (y + K.one))


def test_place_polynomial_checks():
    F2 = gf(2)
    t2_1 = Poly(F2, [F2.one, F2.zero, F2.one])              # (t+1)^2
    with pytest.raises(ConfigMismatch):
        Place.finite(t2_1)
    with pytest.raises(ConfigMismatch):
        Place(t2_1)
    F3 = gf(3)
    with pytest.raises(ConfigMismatch):
        Place(Poly(F3, [F3.one, F3.elem(2)]))                # 2t+1, not monic
    for make in (Place, Place.finite):
        with pytest.raises(ConfigMismatch):
            make(Poly(F3, []))
    with pytest.raises(UnsupportedField):
        place_context(func_field(F2, ("x", "y")), Place.infinity())


def test_place_checks_survive_optimized_mode():
    # python -O strips asserts; the reducible t^2+1 must still be refused
    code = ("from katoforge import ConfigMismatch, Place, Poly, gf\n"
            "F = gf(2)\n"
            "for make in (Place, Place.finite):\n"
            "    try:\n"
            "        make(Poly(F, [F.one, F.zero, F.one]))\n"
            "    except ConfigMismatch:\n"
            "        print('refused')\n")
    assert run_optimized(code) == "refused\nrefused\n"


def test_degree_one_residue_is_not_twisted():
    # over F_8 the least root of the modulus is z^2, not z; a degree-1 place
    # has residue field F_8 itself, embedded by the identity
    F8 = gf(2, 3)
    K = func_field(F8, ("t",))
    z = F8.gen
    assert residue_at(K.const(z) / K.var("t"), _t_place(F8)) == z


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_expansions_match_oracle(p, e):
    """Rational functions, and polynomials, which expand with no division,
    at t, t+1, a quadratic place and infinity."""
    F = gf(p, e)
    K = func_field(F, ("t",))
    places = series_oracle.expansion_places(F)
    rng = random.Random(31)
    rs = [random_ratfunc(rng, K) for _ in range(12)]
    series_oracle.check_expansions(K, rs, places)
    series_oracle.check_expansions(
        K, series_oracle.polynomials(rng, K), places)
    for r in rs:
        for prec in (-2, 0, 6):
            assert from_rational(r, prec) == \
                place_context(K, _t_place(F)).expand(r, prec)


# ------------------------------------------------ typed refusals, memo ----

@pytest.mark.parametrize("make", [
    lambda F: 3, lambda F: None,
    lambda F: Laurent(F, -1, [F.one, F.one], 4)],
    ids=["int", "None", "Laurent"])
def test_expand_refuses_what_is_no_rational_function(make):
    """The memo takes (context, r, prec) as its key; r is checked before
    anything is expanded."""
    F = gf(2)
    ctx = place_context(func_field(F, ("t",)), _t_place(F))
    with pytest.raises(ConfigMismatch, match="takes a rational function"):
        ctx.expand(make(F), 4)


def _codes(K, codes):
    """The polynomial of K = F(t) with these coefficient codes, constant
    term first."""
    return K.from_poly(MPoly._from_codes(
        K.base, 1, {(j,): c for j, c in enumerate(codes) if c}))


@pytest.mark.parametrize("order", [(2, 3, 4), (4, 3, 2)])
def test_the_expansion_memo_tells_fields_apart(order):
    """(t + 1)/(t^2 + 1) from the same codes over GF(2)(t), GF(3)(t) and
    GF(4)(t), at t and at infinity: each field gets its own series."""
    clear_residue_memos()
    fields = {2: gf(2), 3: gf(3), 4: gf(2, 2)}
    for q in order + order:
        F = fields[q]
        K = func_field(F, ("t",))
        r = _codes(K, [1, 1]) / _codes(K, [1, 0, 1])
        for place in (_t_place(F), Place.infinity()):
            ctx = place_context(K, place)
            s = ctx.expand(r, 6)
            assert s == series_oracle.expand(ctx, r, 6), (q, place)
            assert s.ring is ctx.res_field


@pytest.mark.parametrize("precs", [(-1, 1, 9), (9, 1, -1)])
def test_the_expansion_memo_keeps_each_precision(precs):
    """One function asked at precisions -1, 1 and 9, twice, in either
    order: every answer is known to exactly the precision asked for."""
    clear_residue_memos()
    F = gf(3)
    K = func_field(F, ("t",))
    t = K.var("t")
    r = (t + K.one) / (t * t * (t * t + K.one)) + t
    for place in series_oracle.expansion_places(F):
        ctx = place_context(K, place)
        for prec in precs + precs:
            s = ctx.expand(r, prec)
            assert s == series_oracle.expand(ctx, r, prec), (place, prec)
            assert s.prec == prec


def test_expansion_eviction_keeps_answers():
    """600 distinct functions overflow the memo's 512 entries; the first 50,
    evicted, expand again to the oracle's series."""
    clear_residue_memos()
    F = gf(3)
    K = func_field(F, ("t",))
    den = _codes(K, [2, 1, 1])
    rs = [_codes(K, [k // 3 ** j % 3 for j in range(7)]) / den
          for k in range(1, 601)]
    ctx = place_context(K, _t_place(F))
    for r in rs:
        ctx.expand(r, 5)
    info = PlaceContext.expand.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (600, 512, 512)
    for r in rs[:50]:
        assert ctx.expand(r, 5) == series_oracle.expand(ctx, r, 5), r
    assert PlaceContext.expand.cache_info().misses == 650
