import random

import pytest
from hypothesis import given, strategies as st

from katoforge import (DivisionByZero, IntegralityViolation, MPoly,
                       NotConstant, RatFunc, ResourceLimit, func_field, gf,
                       p_power_component, p_power_decompose, p_power_rebuild)
from katoforge.mpoly import (_code_divmod, _code_eval, _code_gcd, _code_mul,
                             _gcd_bivariate, _gcd_rec, exact_div, mpoly_gcd)
from katoforge.poly import Poly

from conftest import ORACLE_FIELDS, random_ratfunc


@st.composite
def mpolys(draw, K, min_terms=0):
    base = K.base
    nonzero = [c for c in base.elements() if c]
    max_deg = 3 if K.k < 3 else 1
    monos = st.tuples(*[st.integers(0, max_deg)] * K.k)
    terms = draw(st.dictionaries(monos, st.sampled_from(nonzero),
                                 min_size=min_terms, max_size=3))
    return MPoly(base, K.k, terms)


@st.composite
def ratfunc_pairs(draw, K):
    """(a, b); b may share factors with a, either operand may be zero."""
    a = RatFunc(K, draw(mpolys(K)), draw(mpolys(K, min_terms=1)))
    b = RatFunc(K, draw(mpolys(K)), draw(mpolys(K, min_terms=1)))
    share = draw(st.sampled_from(["none", "times", "over"]))
    if share == "times":
        b = RatFunc(K, b.num * a.num, b.den * a.den)
    elif share == "over" and not a.is_zero():
        b = RatFunc(K, b.num * a.den, b.den * a.num)
    return a, b


def test_normalization():
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    assert (t * t + t) / (t + K.one) == t
    assert (t + K.zero) == t
    r = random_ratfunc(random.Random(1), K)
    assert K.one / (K.one / r) == r or r.is_zero()


def test_division_by_zero():
    K = func_field(gf(2), ("t",))
    with pytest.raises(DivisionByZero):
        K.one / K.zero
    with pytest.raises(DivisionByZero):
        K.zero.inverse()
    with pytest.raises(DivisionByZero):
        K.zero ** -2


def test_const_value():
    K = func_field(gf(3), ("t",))
    assert K.const(2).const_value() == gf(3).elem(2)
    assert K.zero.const_value() == gf(3).zero
    with pytest.raises(NotConstant):
        (K.var("t") + K.one).const_value()


def test_exact_div_raises_on_remainder():
    L = func_field(gf(2), ("x", "y"))
    x, y = L.var("x").num, L.var("y").num
    assert exact_div(x * y + x, x) == y + MPoly.const(gf(2), 2, 1)
    with pytest.raises(IntegralityViolation):
        exact_div(x * y + x, y)


@pytest.mark.parametrize("p,e,vars", ORACLE_FIELDS)
@given(data=st.data())
def test_arithmetic_matches_full_normalization(p, e, vars, data):
    """Cross-cancelled and GCD-free results equal RatFunc(K, num, den),
    which normalizes the raw numerator and denominator with a full GCD."""
    K = func_field(gf(p, e), vars)
    a, b = data.draw(ratfunc_pairs(K))
    n1, d1, n2, d2 = a.num, a.den, b.num, b.den
    assert a + b == RatFunc(K, n1 * d2 + n2 * d1, d1 * d2)
    assert a - b == RatFunc(K, n1 * d2 - n2 * d1, d1 * d2)
    assert a * b == RatFunc(K, n1 * n2, d1 * d2)
    if not b.is_zero():
        assert a / b == RatFunc(K, n1 * d2, d1 * n2)
        assert b.inverse() == RatFunc(K, d2, n2)
    k = data.draw(st.integers(-3, 4))
    if k >= 0:
        assert a ** k == RatFunc(K, n1 ** k, d1 ** k)
    elif not a.is_zero():
        assert a ** k == RatFunc(K, d1 ** -k, n1 ** -k)
    m = data.draw(st.integers(-7, 7))
    assert a * m == m * a == RatFunc(K, n1 * m, d1)


def test_gcd_bivariate():
    F3 = gf(3)
    L = func_field(F3, ("x", "y"))
    x, y = L.var("x"), L.var("y")
    f = (x + y) * (x - y)
    g = (x + y) * x
    gc = mpoly_gcd(f.num, g.num)
    assert gc == (x + y).num


# F_2, F_3, F_4, F_5, F_8, and past the table bound F_512, F_289, as (p, e)
BIVARIATE_GCD_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (2, 9),
                        (17, 2)]


@given(st.data())
def test_gcd_bivariate_matches_prs(data):
    """Brown's evaluation/interpolation against the primitive PRS."""
    p, e = data.draw(st.sampled_from(BIVARIATE_GCD_FIELDS))
    K = func_field(gf(p, e), ("x", "y"))
    a = data.draw(mpolys(K, min_terms=1))
    b = data.draw(mpolys(K, min_terms=1))
    c = data.draw(mpolys(K, min_terms=1))
    f, g = a * c, b * c
    assert _gcd_bivariate(f, g, 0, 1) == _gcd_rec(f, g, 1)


def _xy(F, terms):
    return MPoly(F, 2, {e: F.elem(c) for e, c in terms.items()})


@pytest.mark.parametrize("p,e,a,b,c", [
    # x = 0 gives gcd(y^3, y^2) = y^2: the first and only point is unlucky
    (3, 1, {(3, 0): 1, (0, 3): 1}, {(0, 2): 1}, {(0, 0): 1}),
    # x^4 + x vanishes on F_4, so every point there is unlucky and
    # evaluation moves on to F_8
    (2, 1, {(0, 1): 1, (4, 0): 1, (1, 0): 1}, {(0, 1): 1}, {(0, 0): 1}),
    # GF(2^13) is past the size the extension field used to be capped at
    (2, 13, {(1, 1): 1, (0, 1): 1, (2, 0): 1, (0, 0): [0, 1]},
     {(1, 1): 1, (0, 1): 1, (3, 0): 1, (1, 0): [1, 1]},
     {(1, 1): 1, (0, 0): [1, 0, 1]}),
])
def test_gcd_bivariate_unlucky_and_large(p, e, a, b, c):
    """gcd(a*c, b*c) = c for coprime a, b."""
    F = gf(p, e)
    a, b, c = _xy(F, a), _xy(F, b), _xy(F, c)
    f, g = a * c, b * c
    assert _gcd_bivariate(f, g, 0, 1) == _gcd_rec(f, g, 1) == c.monic_grlex()


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_gcd_bivariate_content_only(p, e):
    """One argument in F[x], the other in F[y]: the gcd is 1; with a common
    factor in F[x] it is that factor, the gcd of the contents."""
    F = gf(p, e)
    f = _xy(F, {(2, 0): 1, (1, 0): 1, (0, 0): 1})
    g = _xy(F, {(0, 3): 1, (0, 1): -1, (0, 0): 1})
    one = MPoly.const(F, 2, 1)
    assert _gcd_bivariate(f, g, 0, 1) == _gcd_rec(f, g, 1) == one
    c = _xy(F, {(1, 0): 1, (0, 0): 1})
    h = _xy(F, {(0, 2): 1, (1, 1): 1, (0, 0): 1})
    assert _gcd_bivariate(f * c, h * c, 0, 1) == c
    assert _gcd_bivariate(h * c, c, 0, 1) == c


# F_2, F_4, F_9, and past the table bound F_512, F_{2^17} (not interned)
KERNEL_FIELDS = [(2, 1), (2, 2), (3, 2), (2, 9), (2, 17)]


@given(st.data())
def test_code_kernels_match_poly(data):
    """mul, divmod, gcd and evaluation on element codes against Poly."""
    p, e = data.draw(st.sampled_from(KERNEL_FIELDS))
    F = gf(p, e)
    codes = st.lists(st.integers(0, F.order - 1), max_size=7).map(
        lambda cs: cs[:max((i + 1 for i, c in enumerate(cs) if c),
                           default=0)])
    a, b = data.draw(codes), data.draw(codes)
    x = data.draw(st.integers(0, F.order - 1))
    T = F.tables

    def poly(cs):
        return Poly(F, [F.from_code(c) for c in cs])

    def codes_of(f):
        return [c.idx for c in f.coeffs]

    assert codes_of(poly(a) * poly(b)) == _code_mul(a, b, T)
    assert F.from_code(_code_eval(a, x, T)) == poly(a).eval(F.from_code(x))
    assert codes_of(poly(a).gcd(poly(b))) == _code_gcd(a, b, T)
    if b:
        q, r = poly(a).divmod(poly(b))
        assert (codes_of(q), codes_of(r)) == _code_divmod(a, b, T)


def test_gcd_bivariate_needs_too_large_extension():
    """Over GF(2^13), gcd(y + x^8191, y^2 + x^8191) needs 8192 points and
    two more, so evaluation must leave GF(2^13), and GF(2^26) is past the
    field-size bound: Brown's loop raises ResourceLimit instead."""
    F = gf(2, 13)
    f = _xy(F, {(0, 1): 1, (8191, 0): 1})
    g = _xy(F, {(0, 2): 1, (8191, 0): 1})
    with pytest.raises(ResourceLimit):
        _gcd_bivariate(f, g, 0, 1)


def test_field_laws_random():
    rng = random.Random(5)
    for (p, e, vars) in [(2, 1, ("t",)), (3, 1, ("x", "y")), (2, 2, ("t",))]:
        K = func_field(gf(p, e), vars)
        for _ in range(15):
            a = random_ratfunc(rng, K, max_deg=2)
            b = random_ratfunc(rng, K, max_deg=2)
            c = random_ratfunc(rng, K, max_deg=2)
            assert (a + b) * c == a * c + b * c
            assert a + K.zero == a
            if not b.is_zero():
                assert (a / b) * b == a


def test_p_power_decompose_examples():
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    d = p_power_decompose(t * t)
    assert d[(0,)] == t and d[(1,)].is_zero()
    d = p_power_decompose(t ** 3 + t)
    assert d[(0,)].is_zero() and d[(1,)] == t + K.one
    d = p_power_decompose(K.one / (t * t + t))
    assert d[(0,)] == K.one / (t + K.one)
    assert d[(1,)] == K.one / (t * t + t)


@pytest.mark.parametrize("p,e,vars", [(2, 1, ("t",)), (3, 1, ("t",)),
                                      (2, 1, ("x", "y")), (3, 1, ("x", "y")),
                                      (2, 2, ("x", "y"))])
def test_p_power_roundtrip(p, e, vars):
    K = func_field(gf(p, e), vars)
    rng = random.Random(31 * p + e)
    for _ in range(25):
        f = random_ratfunc(rng, K, max_deg=4)
        parts = p_power_decompose(f)
        assert p_power_rebuild(parts, K) == f
        assert len(parts) == p ** len(vars)
        for pattern, g in parts.items():
            assert p_power_component(f, pattern) == g


def test_derivative_quotient_rule():
    K = func_field(gf(3), ("t",))
    rng = random.Random(8)
    for _ in range(15):
        a = random_ratfunc(rng, K)
        b = random_ratfunc(rng, K)
        if b.is_zero():
            continue
        lhs = (a / b).derivative(0)
        rhs = (a.derivative(0) * b - a * b.derivative(0)) / (b * b)
        assert lhs == rhs
