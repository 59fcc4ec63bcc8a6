import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from katoforge import (DiffForm, MilnorElement, NotClosed, RatFunc,
                       d_of_function, d_symbol, dlog, forms, func_field, gf,
                       milnor, rational)

from conftest import (ORACLE_FIELDS, mpolys, random_form, random_ratfunc,
                      ratfuncs, run_optimized)
from forms_oracle import d_termwise


def test_dlog_examples():
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    assert dlog(t) == DiffForm(K, 1, {(0,): K.one / t})
    assert d_of_function(t * t).is_zero()       # 2t = 0
    L = func_field(F2, ("x", "y"))
    x, y = L.var("x"), L.var("y")
    assert dlog(x * y) == dlog(x) + dlog(y)


@pytest.mark.parametrize("p,e,vars", ORACLE_FIELDS)
def test_dlog_matches_df_over_f(p, e, vars):
    K = func_field(gf(p, e), vars)
    rng = random.Random(17 * p + e + len(vars))
    for _ in range(10):
        f = random_ratfunc(rng, K, max_deg=2)
        assert dlog(f) == d_of_function(f).scale(f.inverse())


def _dlog_full(f):
    """dlog f with each coefficient normalized by one full GCD."""
    K, n, d = f.field, f.num, f.den
    terms = {}
    for j in range(K.k):
        top = n.derivative(j) * d - n * d.derivative(j)
        if not top.is_zero():
            terms[(j,)] = RatFunc(K, top, n * d)
    return DiffForm(K, 1, terms)


@pytest.mark.parametrize("p,e,vars", ORACLE_FIELDS)
@given(data=st.data())
def test_dlog_matches_full_normalization(p, e, vars, data):
    """dlog cancels only gcd(n, n') gcd(d, d'); numerator and denominator
    carry a square and a p-th power, so those GCDs are not 1."""
    K = func_field(gf(p, e), vars)
    a, b, c, u, v, w = (data.draw(mpolys(K, min_terms=1)) for _ in range(6))
    f = RatFunc(K, a * b ** 2 * c ** p, u * v ** 2 * w ** p)
    assert dlog(f) == _dlog_full(f)


@pytest.mark.parametrize("p,e,vars", ORACLE_FIELDS)
def test_dlog_full_normalization_examples(p, e, vars):
    """A variable absent from f, constant numerator or denominator, and a
    constant f, against the full normalization."""
    K = func_field(gf(p, e), vars)
    t = K.var(vars[0])
    c = K.const(K.base.from_code(K.base.order - 1))
    one = K.one
    examples = [t ** 2 / (t + one) ** p,          # other variables absent
                c / (t ** 2 * (t + one) ** p),     # constant numerator
                c * t * (t + one) ** 2,            # constant denominator
                t ** p / (t + one), c]
    if K.k > 1:
        s = K.var(vars[1])
        examples += [(t * s + one) ** 2 / (s ** p * (t + s)),
                     c / (s ** 2 * (t + one))]
    for f in examples:
        assert dlog(f) == _dlog_full(f)
    assert dlog(c).is_zero()


def test_cartier_inverse_examples():
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    dt_t = dlog(t)
    assert dt_t.cartier_inv() == dt_t
    tdt = DiffForm(K, 1, {(0,): t})
    assert tdt.cartier_inv() == DiffForm(K, 1, {(0,): t ** 3})
    assert DiffForm.zero(K, 1).cartier_inv().is_zero()


def test_cartier_examples():
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    t3dt = DiffForm(K, 1, {(0,): t ** 3})
    assert t3dt.cartier() == DiffForm(K, 1, {(0,): t})
    t2dt = DiffForm(K, 1, {(0,): t * t})
    assert t2dt.cartier().is_zero()
    assert t2dt.is_exact()                      # equals d(t^3)
    assert dlog(t).cartier() == dlog(t)


def test_not_closed_raises():
    F3 = gf(3)
    K = func_field(F3, ("t",))
    t = K.var("t")
    tdt = DiffForm(K, 1, {(0,): t})             # d(t dt)=0 in 1 var: closed
    L = func_field(F3, ("x", "y"))
    x, y = L.var("x"), L.var("y")
    not_closed = DiffForm(L, 1, {(0,): y})      # d(y dx) = dy^dx != 0
    with pytest.raises(NotClosed):
        not_closed.cartier()
    assert not not_closed.is_exact()


def test_exactness_examples():
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    assert not dlog(t).is_exact()               # residue 1 at t
    assert DiffForm(K, 1, {(0,): t * t}).is_exact()
    rng = random.Random(23)
    for _ in range(10):
        eta = random_ratfunc(rng, K)
        assert d_of_function(eta).is_exact()


def test_nu_examples():
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    assert dlog(t).is_logarithmic()
    assert not DiffForm(K, 1, {(0,): K.one}).is_logarithmic()   # dt
    L = func_field(F2, ("x", "y"))
    x, y = L.var("x"), L.var("y")
    assert dlog(x).wedge(dlog(y)).is_logarithmic()


def test_wedge_graded_anticommutative():
    F3 = gf(3)
    L = func_field(F3, ("x", "y"))
    rng = random.Random(5)

    def rf():
        return random_ratfunc(rng, L, max_deg=2)
    for _ in range(10):
        a = random_form(L, 1, rng, rf)
        b = random_form(L, 1, rng, rf)
        assert a.wedge(b) == -(b.wedge(a))
        assert a.wedge(a).is_zero()


def test_d_squared_zero_and_leibniz():
    """d d f = 0 and the Leibniz rule over GF(2)(x, y), with df and
    d(df) against the term-by-term oracle."""
    F2 = gf(2)
    L = func_field(F2, ("x", "y"))
    rng = random.Random(6)

    def rf():
        return random_ratfunc(rng, L, max_deg=2)
    for _ in range(10):
        f = rf()
        g = rf()
        df = d_of_function(f)
        assert df == d_termwise(DiffForm.from_function(f))
        assert df.d() == d_termwise(df)
        assert df.d().is_zero() and df.is_closed()
        assert d_of_function(f * g) == \
            d_of_function(f).scale(g) + d_of_function(g).scale(f)


@pytest.mark.parametrize("p,e,vars", [(2, 1, ("t",)), (3, 1, ("t",)),
                                      (2, 2, ("x", "y")), (3, 1, ("x", "y"))])
def test_cartier_round_trip_random(p, e, vars):
    K = func_field(gf(p, e), vars)
    rng = random.Random(41 * p + e)

    def rf():
        return random_ratfunc(rng, K, max_deg=2)
    for _ in range(15):
        w = random_form(K, 1, rng, rf)
        ci = w.cartier_inv()
        assert ci.is_closed()
        assert ci.cartier() == w
        # Cartier kills exact perturbations
        assert (ci + d_of_function(rf())).cartier() == w


def test_nu_characterizations_agree():
    # ker(phi) membership == (closed and Cartier-fixed) on mixed samples
    K = func_field(gf(2), ("t",))
    L = func_field(gf(3), ("x", "y"))
    rng = random.Random(77)
    for field in (K, L):
        def rf():
            return random_ratfunc(rng, field, max_deg=2)
        for kind in range(24):
            if kind % 3 == 0:
                w = random_form(field, 1, rng, rf)
            elif kind % 3 == 1:
                w = random_form(field, 1, rng, rf).cartier_inv()
            else:
                entries = [rf() for _ in range(2)]
                w = DiffForm.zero(field, 1)
                for a in entries:
                    if not a.is_zero():
                        w = w + dlog(a)
            phi = w.cartier_inv() - w
            lhs = phi.is_exact()
            rhs = w.is_closed() and w.cartier() == w if w.is_closed() \
                else False
            assert lhs == rhs


def test_nu_accepts_dlog_combinations():
    L = func_field(gf(2), ("x", "y"))
    rng = random.Random(13)

    def rf():
        return random_ratfunc(rng, L, max_deg=2)
    for _ in range(10):
        w = DiffForm.zero(L, 2)
        for _ in range(rng.randint(1, 3)):
            a, b = rf(), rf()
            if a.is_zero() or b.is_zero():
                continue
            w = w + dlog(a).wedge(dlog(b))
        assert w.is_logarithmic() or w.is_zero()


@pytest.mark.parametrize("p,e,vars", ORACLE_FIELDS)
@given(data=st.data())
def test_is_closed_matches_d(p, e, vars, data):
    """d() equals the term-by-term oracle, and is_closed() == d().is_zero(),
    on forms of every degree: random forms, and the closed forms
    cartier_inv(w), d(w) and dlog f + dg."""
    K = func_field(gf(p, e), vars)
    degree = data.draw(st.integers(0, K.k))
    indices = st.sampled_from(list(combinations(range(K.k), degree)))
    terms = data.draw(st.dictionaries(indices, ratfuncs(K), max_size=3))
    w = DiffForm(K, degree, terms)
    kind = data.draw(st.sampled_from(["plain", "cartier_inv", "d", "dlog"]))
    if kind == "cartier_inv":
        w = w.cartier_inv()
    elif kind == "d" and degree > 0:
        w = DiffForm(K, degree - 1, {I[1:]: c for I, c in terms.items()}).d()
    elif kind == "dlog" and degree == 1:
        f, g = data.draw(ratfuncs(K)), data.draw(ratfuncs(K))
        w = dlog(f) + d_of_function(g)
    else:
        kind = "plain"
    dw = d_termwise(w)
    assert w.d() == dw
    closed = w.is_closed()
    assert closed == dw.is_zero()
    assert closed or kind == "plain"
    if degree == 0:
        f = terms.get((), K.zero)
        assert d_of_function(f) == d_termwise(DiffForm.from_function(f))


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name to count its calls; returns the one-item counter."""
    calls = [0]
    orig = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return orig(*args)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_closedness_and_dlog_computed_once(monkeypatch):
    """is_exact and is_logarithmic check closedness once; d_symbol builds
    the dlog rows once per distinct entry and none for a symbol with a
    repeated entry; a zero image of degree 2 and the closedness test of a
    closed form run no GCD."""
    L = func_field(gf(3), ("x", "y"))
    x, y = L.var("x"), L.var("y")
    w = dlog(x + y)                  # closed, logarithmic, not exact
    closed_calls = _count_calls(monkeypatch, DiffForm, "is_closed")
    assert not w.is_exact()
    assert closed_calls == [1]
    assert w.is_logarithmic()
    assert closed_calls == [2]
    a, b = x + y * y, y + L.one
    steinberg = MilnorElement.symbol(L, [a, L.one - a])
    # closed, with coefficients over different denominators
    v = DiffForm(L, 1, {(0,): x / b}).cartier_inv() + d_of_function(a / b)

    def sym(*entries):
        return MilnorElement.symbol(L, entries)
    bilinear = sym(a * b, b) - sym(a, b) - sym(b, b)
    rows = _count_calls(monkeypatch, milnor, "_dlog_rows")
    gcds = [_count_calls(monkeypatch, module, "mpoly_gcd")
            for module in (rational, forms)]
    assert d_symbol(bilinear).is_zero()
    assert rows == [3]               # a*b, a, b
    assert d_symbol(sym(b, b)).is_zero()
    assert rows == [3]
    assert d_symbol(steinberg).is_zero()
    assert w.is_closed() and v.is_closed()
    assert gcds == [[0], [0]]


def test_p_power_component_reads_the_pth_root(monkeypatch):
    """For a denominator x^a R^p, p_power_component takes no polynomial
    product, and its one GCD is against x^t R, t = ceil(a/p), not den."""
    L = func_field(gf(3), ("x", "y"))
    x, y = L.var("x"), L.var("y")
    r = x + y * y
    cases = [  # (f, pattern, x^t R, component)
        ((x ** 7 * y + x ** 4 * y ** 7 + L.one) / r ** 3, (1, 1), r, x),
        ((x * y + L.one) / (x * x * r ** 3), (2, 1), x * r, L.one / (x * r)),
        ((x * y + L.one) / (x * x * r ** 3), (1, 0), x * r, L.one / (x * r)),
    ]
    muls = _count_calls(monkeypatch, rational.MPoly, "__mul__")
    operands = []
    orig = rational.mpoly_gcd

    def recorded(f, g):
        operands.append((f, g))
        return orig(f, g)
    monkeypatch.setattr(rational, "mpoly_gcd", recorded)
    for f, pattern, root, g in cases:
        operands.clear()
        assert rational.p_power_component(f, pattern) == g
        assert muls == [0]
        assert len(operands) == 1 and root.num in operands[0]
        assert f.den not in operands[0]


def test_cartier_of_non_closed_form_raises_under_optimize():
    """cartier() checks closedness with a typed error, not an assert."""
    code = ("from katoforge import DiffForm, NotClosed, func_field, gf\n"
            "L = func_field(gf(3), ('x', 'y'))\n"
            "w = DiffForm(L, 1, {(0,): L.var('y')})\n"
            "try:\n"
            "    w.cartier()\n"
            "except NotClosed:\n"
            "    print('refused')\n")
    assert run_optimized(code) == "refused\n"
