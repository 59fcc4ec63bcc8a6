import random

import pytest
from hypothesis import given, strategies as st

from katoforge import (ConfigMismatch, DivisionByZero, IntegralityViolation,
                       MPoly, NotConstant, RatFunc, ResourceLimit, func_field,
                       gf, p_power_component, p_power_decompose,
                       p_power_rebuild)
from katoforge.mpoly import (_code_divmod, _code_eval, _code_gcd, _code_mul,
                             _gcd_bivariate, exact_div, mpoly_gcd)
from katoforge.poly import Poly

from conftest import ORACLE_FIELDS, mpolys, random_ratfunc
from p_power_oracle import p_power_component_full
from prs_oracle import prs_gcd


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


def test_repeated_variable_names_refused():
    with pytest.raises(ConfigMismatch):
        func_field(gf(2), ("t", "t"))
    with pytest.raises(ConfigMismatch):
        func_field(gf(3), ("x", "y", "x"))


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


@st.composite
def monomials(draw, K):
    """c x^e with c != 0; e = 0 is allowed."""
    e = draw(st.tuples(*[st.integers(0, 3)] * K.k))
    c = draw(st.sampled_from([c for c in K.base.elements() if c]))
    return MPoly(K.base, K.k, {e: c})


@pytest.mark.parametrize("p,e,vars", ORACLE_FIELDS)
@given(data=st.data())
def test_gcd_shortcuts_match_prs(p, e, vars, data):
    """mpoly_gcd answers equal operands and one-term operands without a
    GCD loop; both answers against the primitive PRS."""
    K = func_field(gf(p, e), vars)
    base, nv = K.base, K.k
    f = data.draw(mpolys(K, min_terms=1))
    m, m2, x_b = (data.draw(monomials(K)) for _ in range(3))
    twin = MPoly._from_codes(base, nv, dict(f.terms))
    assert mpoly_gcd(f, twin) == prs_gcd(f, twin) == f.monic_grlex()
    # g has the monomial factor x_b, so gcd(m, g) is usually not 1
    g = f * x_b
    for a, b in [(m, g), (g, m), (m, m2), (m2, m), (m, m)]:
        assert mpoly_gcd(a, b) == prs_gcd(a, b)
    # a constant term leaves no common monomial: the gcd is 1
    coprime = MPoly._from_codes(base, nv, {**g.terms, (0,) * nv: 1})
    one = MPoly.const(base, nv, 1)
    assert mpoly_gcd(m, coprime) == mpoly_gcd(coprime, m) == one
    assert prs_gcd(m, coprime) == one


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
    assert _gcd_bivariate(f, g, [0, 1]) == prs_gcd(f, g)


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
    assert _gcd_bivariate(f, g, [0, 1]) == prs_gcd(f, g) == c.monic_grlex()


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_gcd_bivariate_content_only(p, e):
    """One argument in F[x], the other in F[y]: the gcd is 1; with a common
    factor in F[x] it is that factor, the gcd of the contents."""
    F = gf(p, e)
    f = _xy(F, {(2, 0): 1, (1, 0): 1, (0, 0): 1})
    g = _xy(F, {(0, 3): 1, (0, 1): -1, (0, 0): 1})
    one = MPoly.const(F, 2, 1)
    assert _gcd_bivariate(f, g, [0, 1]) == prs_gcd(f, g) == one
    c = _xy(F, {(1, 0): 1, (0, 0): 1})
    h = _xy(F, {(0, 2): 1, (1, 1): 1, (0, 0): 1})
    assert _gcd_bivariate(f * c, h * c, [0, 1]) == c
    assert _gcd_bivariate(h * c, c, [0, 1]) == c


# F_2, F_4, F_9, and past the table bound F_512, F_{2^17} (not interned)
KERNEL_FIELDS = [(2, 1), (2, 2), (3, 2), (2, 9), (2, 17)]


def _trimmed(a):
    while a and not a[-1]:
        a.pop()
    return a


def _school_mul(a, b, F):
    """Schoolbook product of GFElem coefficient lists."""
    out = [F.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trimmed(out)


def _school_divmod(a, b, F):
    r, q = list(a), [F.zero] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = c
        for j, y in enumerate(b):
            r[k + j] = r[k + j] - c * y
        _trimmed(r)
    return q, r


def _school_gcd(a, b, F):
    while b:
        a, b = b, _school_divmod(a, b, F)[1]
    return [c / a[-1] for c in a]


@given(st.data())
def test_code_kernels_match_poly(data):
    """The code kernels and the Poly methods built on them (mul, divmod,
    gcd, evaluation, powmod, Taylor shift) against schoolbook GFElem
    arithmetic."""
    p, e = data.draw(st.sampled_from(KERNEL_FIELDS))
    F = gf(p, e)
    codes = st.lists(st.integers(0, F.order - 1), max_size=7).map(
        lambda cs: cs[:max((i + 1 for i, c in enumerate(cs) if c),
                           default=0)])
    a, b = data.draw(codes), data.draw(codes)
    x = data.draw(st.integers(0, F.order - 1))
    n = data.draw(st.integers(0, 12))
    T = F.tables
    ea = [F.from_code(c) for c in a]
    eb = [F.from_code(c) for c in b]
    ex = F.from_code(x)

    def codes_of(elems):
        return [c.idx for c in elems]

    prod = _school_mul(ea, eb, F)
    assert _code_mul(a, b, T) == codes_of(prod)
    assert Poly(F, ea) * Poly(F, eb) == Poly(F, prod)
    value = F.zero
    for c in reversed(ea):
        value = value * ex + c
    assert _code_eval(a, x, T) == value.idx
    assert Poly(F, ea).eval(ex) == value
    g = _school_gcd(ea, eb, F) if ea or eb else []
    assert _code_gcd(a, b, T) == codes_of(g)
    assert Poly(F, ea).gcd(Poly(F, eb)) == Poly(F, g)
    if b:
        q, r = _school_divmod(ea, eb, F)
        assert _code_divmod(a, b, T) == (codes_of(q), codes_of(r))
        assert Poly(F, ea).divmod(Poly(F, eb)) == (Poly(F, q), Poly(F, r))
        power = _school_divmod([F.one], eb, F)[1]
        for _ in range(n):
            power = _school_divmod(_school_mul(power, ea, F), eb, F)[1]
        assert Poly(F, ea).powmod(n, Poly(F, eb)) == Poly(F, power)
    # a(x + pi) = sum_i a_i (x + pi)^i
    shifted, lin_power = [], [F.one]
    for c in ea:
        term = [c * y for y in lin_power]
        shifted += [F.zero] * (len(term) - len(shifted))
        shifted = _trimmed([s + t for s, t in zip(shifted, term)])
        lin_power = _school_mul(lin_power, [ex, F.one], F)
    assert Poly(F, ea).shift(ex) == Poly(F, shifted)


def test_gcd_bivariate_needs_too_large_extension():
    """Over GF(2^13), gcd(y + x^8191, y^2 + x^8191) needs 8192 points and
    two more, so evaluation must leave GF(2^13), and GF(2^26) is past the
    field-size bound: Brown's loop raises ResourceLimit instead."""
    F = gf(2, 13)
    f = _xy(F, {(0, 1): 1, (8191, 0): 1})
    g = _xy(F, {(0, 2): 1, (8191, 0): 1})
    with pytest.raises(ResourceLimit):
        _gcd_bivariate(f, g, [0, 1])


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


# GF(2), GF(3), GF(4), GF(5), GF(8), GF(9) in one, two and three variables
P_POWER_FIELDS = [(p, e, vars) for p, e in [(2, 1), (3, 1), (2, 2), (5, 1),
                                            (2, 3), (3, 2)]
                  for vars in [("t",), ("x", "y"), ("x", "y", "z")]]


@st.composite
def p_power_inputs(draw, K):
    """f whose denominator is drawn as a p-th power, a monomial times one,
    any polynomial or a constant; or f = g^p x^e, the shape cartier_inv
    makes.  Normalization may cancel part of the drawn denominator."""
    p = K.base.p
    shape = draw(st.sampled_from(["power", "monomial_power", "other",
                                  "const", "fp_xe"]))
    num = draw(mpolys(K, min_terms=1))
    d = draw(mpolys(K, min_terms=1))
    if shape == "power":
        den = d ** p
    elif shape == "monomial_power":
        den = draw(monomials(K)) * d ** p
    elif shape == "const":
        den = MPoly.const(K.base, K.k, draw(st.sampled_from(
            [c for c in K.base.elements() if c])))
    else:
        den = d
    f = K.from_poly(num, den)
    if shape == "fp_xe":
        e = draw(st.tuples(*[st.integers(0, p - 1)] * K.k))
        f = f ** p * K.from_poly(MPoly(K.base, K.k, {e: K.base.one}))
    return f


@pytest.mark.parametrize("p,e,vars", P_POWER_FIELDS)
@given(data=st.data())
def test_p_power_components_match_full_denominator(p, e, vars, data):
    """Every component, alone and in the decomposition, equals the one read
    off num den^(p-1) over den."""
    K = func_field(gf(p, e), vars)
    f = data.draw(p_power_inputs(K))
    for pattern, g in p_power_decompose(f).items():
        assert g == p_power_component_full(f, pattern)
        assert p_power_component(f, pattern) == g


def test_p_power_component_normalizing_gcd():
    """Over x^t R = x + y the components of (x^3 + x y^2 + 1)/(x + y)^2
    cancel a common factor x + y."""
    K = func_field(gf(2), ("x", "y"))
    x, y = K.var("x"), K.var("y")
    f = (x ** 3 + x * y * y + K.one) / (x + y) ** 2
    assert p_power_component(f, (1, 0)) == K.one
    assert p_power_component(f, (0, 0)) == K.one / (x + y)
    parts = p_power_decompose(f)
    assert parts[(1, 0)] == K.one and parts[(0, 0)] == K.one / (x + y)
    assert parts[(0, 1)].is_zero() and parts[(1, 1)].is_zero()


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
