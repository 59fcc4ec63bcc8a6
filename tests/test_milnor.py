import random

import pytest
from hypothesis import given, strategies as st

from katoforge import (ASExtension, DegreeMismatch, DiffForm, MilnorElement,
                       NormShapeUnsupported, d_symbol, dlog, func_field, gf,
                       kn_equal, milnor, symbol_expand)

from conftest import ORACLE_FIELDS, random_ratfunc, ratfuncs
from forms_oracle import wedge_of_dlogs


def _sym(field, entries, coeff=1):
    return MilnorElement.symbol(field, entries, coeff)


def test_steinberg_and_bilinearity():
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    assert symbol_expand(_sym(K, [t, K.one - t])).is_formally_zero()
    assert d_symbol(_sym(K, [t, K.one - t])).is_zero()
    F3 = gf(3)
    M = func_field(F3, ("t", "y"))
    tm, ym = M.var("t"), M.var("y")
    expanded = symbol_expand(_sym(M, [tm * tm, ym]))
    assert expanded.terms == {(tm, ym): 2}


def test_terms_hold_no_zero_coefficient():
    """Sums, differences, multiples and symbols drop a zero coefficient, so
    a cancelled element is formally zero."""
    K = func_field(gf(3), ("x", "y"))
    x, y = K.var("x"), K.var("y")
    a, b = _sym(K, [x, y]), _sym(K, [y, x + y], 2)
    assert (a - a).is_formally_zero()
    assert (a + a.int_mul(-1)).is_formally_zero()
    assert a.int_mul(0).is_formally_zero()
    assert _sym(K, [x, y], 0).is_formally_zero()
    assert MilnorElement(K, 2, {(x, y): 0}).is_formally_zero()
    assert ((a + b) - a).terms == b.terms
    assert (a - b + b).terms == {(x, y): 1}
    assert (-(a - b)).terms == {(x, y): -1, (y, x + y): 2}


def test_repeated_slot_drops():
    K = func_field(gf(2), ("x", "y"))
    x = K.var("x")
    assert symbol_expand(_sym(K, [x, x])).is_formally_zero()
    K3 = func_field(gf(3), ("x", "y"))
    x3 = K3.var("x")
    # {a,a} = {-1,a} and -1 = (-1)^3: dead mod 3
    assert d_symbol(_sym(K3, [x3, x3])).is_zero()


def test_d_symbol_examples():
    F2 = gf(2)
    L = func_field(F2, ("x", "y"))
    x, y = L.var("x"), L.var("y")
    assert d_symbol(_sym(L, [x, y])) == dlog(x).wedge(dlog(y))
    K = func_field(F2, ("t",))
    t = K.var("t")
    assert d_symbol(_sym(K, [t, t + K.one])).is_zero()   # Omega^2 = 0


def test_kn_equal_characteristic_split():
    L2 = func_field(gf(2), ("x", "y"))
    x, y = L2.var("x"), L2.var("y")
    assert kn_equal(_sym(L2, [x, y]), _sym(L2, [y, x]))
    L3 = func_field(gf(3), ("x", "y"))
    x3, y3 = L3.var("x"), L3.var("y")
    assert not kn_equal(_sym(L3, [x3, y3]), _sym(L3, [y3, x3]))
    s = _sym(L3, [x3, y3])
    assert kn_equal(s, s + s.int_mul(3))


def test_degree_mismatch():
    K = func_field(gf(2), ("t",))
    t = K.var("t")
    with pytest.raises(DegreeMismatch):
        kn_equal(_sym(K, [t]), _sym(K, [t, t + K.one]))


def test_expand_preserves_d_symbol():
    rng = random.Random(19)
    for (p, e, vars) in [(2, 1, ("t",)), (3, 1, ("x", "y")),
                         (2, 2, ("t",))]:
        K = func_field(gf(p, e), vars)
        for _ in range(20):
            entries = [random_ratfunc(rng, K, max_deg=2)
                       for _ in range(min(2, K.k))]
            s = _sym(K, entries)
            assert d_symbol(symbol_expand(s)) == d_symbol(s)
            img = d_symbol(s)
            assert img.is_zero() or img.is_logarithmic()


@st.composite
def milnor_elements(draw, K):
    """An element of degree 0 to k+1 with one to four symbols over a small
    pool of entries, so entries repeat; the pool holds a constant, and the
    coefficients include multiples of p.  From degree 2 on, a Steinberg
    symbol {a, 1-a, ...} and the bilinearity relation
    {ab, b, ...} - {a, b, ...} - {b, b, ...} may be added: sums whose
    image is zero."""
    p = K.base.p
    n = draw(st.integers(0, K.k + 1))
    pool = [draw(ratfuncs(K)) for _ in range(draw(st.integers(1, 3)))]
    pool.append(K.const(K.base.from_code(K.base.order - 1)))
    entry = st.sampled_from(pool)
    s = MilnorElement.zero(K, n)
    for _ in range(draw(st.integers(1, 4))):
        entries = draw(st.lists(entry, min_size=n, max_size=n))
        s = s + _sym(K, entries, draw(st.integers(-p - 1, 2 * p)))
    if n >= 2:
        a, b = draw(entry), draw(entry)
        rest = draw(st.lists(entry, min_size=n - 2, max_size=n - 2))
        if draw(st.booleans()) and a != K.one:
            s = s + _sym(K, [a, K.one - a] + rest)
        if draw(st.booleans()):
            s = s + _sym(K, [a * b, b] + rest) - _sym(K, [a, b] + rest) \
                - _sym(K, [b, b] + rest)
    return s


@pytest.mark.parametrize("p,e,vars", ORACLE_FIELDS)
@given(data=st.data())
def test_d_symbol_matches_wedge_of_dlogs(p, e, vars, data):
    K = func_field(gf(p, e), vars)
    s = data.draw(milnor_elements(K))
    assert d_symbol(s) == wedge_of_dlogs(s)


def _dlog_sum(s):
    """The image of an element of degree 0 or 1 read off directly: the
    constant c for c{}, and sum c dlog a over the symbols c{a}."""
    F = s.field
    out = DiffForm.zero(F, s.degree)
    for sym, c in s.terms.items():
        c %= F.base.p
        if c and sym:
            out = out + dlog(sym[0]).scale(F.const(c))
        elif c:
            out = out + DiffForm.from_function(F.const(c))
    return out


@pytest.mark.parametrize("p,e,vars", [(2, 1, ("t",)), (3, 1, ("t",)),
                                      (2, 1, ("x", "y")), (3, 1, ("x", "y")),
                                      (2, 2, ("x", "y", "z"))])
def test_d_symbol_in_degrees_zero_and_one(p, e, vars):
    """Degrees 0 and 1 take the determinant path of every degree (the
    empty determinant is 1): c{} maps to the constant c, and a sum of
    symbols c{a} to sum c dlog a, coefficients 0..p and constants among
    the entries."""
    assert not hasattr(milnor, "dlog")
    K = func_field(gf(p, e), vars)
    rng = random.Random(f"{p}:{e}:{len(vars)}")
    for c in range(p + 1):
        s = MilnorElement(K, 0, {(): c})
        assert d_symbol(s) == _dlog_sum(s)
        assert d_symbol(s) == (DiffForm.from_function(K.const(c)) if c % p
                               else DiffForm.zero(K, 0))
    pool = [random_ratfunc(rng, K, max_deg=2) for _ in range(6)]
    pool = [a for a in pool if not a.is_zero()]
    pool += [K.const(K.base.from_code(K.base.order - 1)), K.one]
    nonzero = 0
    for _ in range(12):
        s = MilnorElement.zero(K, 1)
        for _ in range(rng.randint(1, 4)):
            s = s + _sym(K, [rng.choice(pool)], rng.randint(0, p))
        assert d_symbol(s) == _dlog_sum(s), s
        nonzero += not d_symbol(s).is_zero()
    assert nonzero


@pytest.mark.parametrize("p,e,vars", [(2, 1, ("x", "y")), (3, 1, ("x", "y")),
                                      (2, 2, ("x", "y", "z"))])
def test_d_symbol_examples_against_wedge_of_dlogs(p, e, vars):
    """Zero sums, nonzero sums of several symbols, and two symbols with
    equal determinants over different denominators, in 2 and 3
    variables."""
    K = func_field(gf(p, e), vars)
    x, y = K.var(vars[0]), K.var(vars[1])
    one = K.one
    a, b, c = x + y * y, (y + one) / (x + one), x * y + one
    elements = [
        _sym(K, [a, one - a]),
        _sym(K, [a * b, b]) - _sym(K, [a, b]) - _sym(K, [b, b]),
        _sym(K, [a, b]) + _sym(K, [b, a]),          # zero in char 2 only
        _sym(K, [a, b], 2) - _sym(K, [c, b]) + _sym(K, [x, c], p + 1),
        _sym(K, [a * c, b]) - _sym(K, [a, b]),      # equals {c, b}
        # equal determinants over different denominators: not zero
        _sym(K, [x, y]) - _sym(K, [x + one, y]),
    ]
    if K.k == 3:
        z = K.var(vars[2])
        elements += [_sym(K, [a, b, z + one]) - _sym(K, [b, a, c]),
                     _sym(K, [a * z, b, c]) - _sym(K, [a, b, c])
                     - _sym(K, [z, b, c]),
                     _sym(K, [x, y, z]) + _sym(K, [a, z, one - z])]
    for s in elements:
        assert d_symbol(s) == wedge_of_dlogs(s)
    assert d_symbol(elements[4]) == d_symbol(_sym(K, [c, b]))
    assert not d_symbol(elements[3]).is_zero()
    assert not d_symbol(elements[5]).is_zero()


def test_as_extension_basics():
    F2 = gf(2)
    K = func_field(F2, ("t",))
    ext = ASExtension(K)
    u = ext.u
    t = K.var("t")
    # N(u) = u(u+1) = t
    assert ext.norm_rf(u) == t
    # sigma has order p and fixes restrictions
    a = ext.restrict_rf((t ** 2 + t) / (t + K.one))
    assert ext.sigma_rf(a) == a
    s = ext.sigma_rf(ext.sigma_rf(u))
    assert s == u
    # (1 - sigma){u} = {u} - {u+1} = {u/(u+1)} in k_1
    oms = ext.one_minus_sigma(MilnorElement.symbol(ext.L, [u]))
    quot = MilnorElement.symbol(ext.L, [u / (u + ext.L.one)])
    assert kn_equal(oms, quot)


def test_norm_projection_formula():
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    ext = ASExtension(K)
    u = ext.u
    b = ext.restrict_rf(t + K.one)
    out = ext.norm_proj(MilnorElement.symbol(ext.L, [u, b]))
    assert out.terms == {(t, t + K.one): 1}


def test_norm_shape_guard():
    ext = ASExtension(func_field(gf(2), ("t",)))
    u = ext.u
    with pytest.raises(NormShapeUnsupported):
        ext.norm_proj(MilnorElement.symbol(ext.L, [u, u + ext.L.one]))


@pytest.mark.parametrize("p", [2, 3])
def test_norm_kills_one_minus_sigma(p):
    K = func_field(gf(p), ("t",))
    ext = ASExtension(K)
    rng = random.Random(p)
    done = 0
    while done < 25:
        a = random_ratfunc(rng, ext.L, max_deg=2)
        b = ext.restrict_rf(random_ratfunc(rng, K, max_deg=2))
        if a.is_zero() or b.is_zero():
            continue
        done += 1
        x = MilnorElement.symbol(ext.L, [a, b])
        comp = ext.norm_proj(ext.one_minus_sigma(x))
        assert kn_equal(comp, MilnorElement.zero(K, 2))


def test_restrict_then_one_minus_sigma_zero():
    for p in (2, 3):
        K = func_field(gf(p), ("t",))
        ext = ASExtension(K)
        rng = random.Random(p + 10)
        for _ in range(10):
            a = random_ratfunc(rng, K, max_deg=2)
            if a.is_zero():
                continue
            x = ext.restrict(MilnorElement.symbol(K, [a]))
            assert ext.one_minus_sigma(x).is_formally_zero()
