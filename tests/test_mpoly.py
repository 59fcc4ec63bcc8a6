"""MPoly arithmetic on element codes against a schoolbook on GFElem dicts,
every operand shape the kernel answers without its loops on each side,
constructor checks, and the multivariate GCD against the primitive PRS."""

import random

import pytest
from hypothesis import given, strategies as st

from katoforge import ConfigMismatch, DivisionByZero, MPoly, gf, mpoly_gcd

from prs_oracle import prs_gcd

# F_2, F_4, F_9, and past the table bound F_512, as (p, e)
SCHOOLBOOK_FIELDS = [(2, 1), (2, 2), (3, 2), (2, 9)]


def _grlex(e):
    return sum(e), e


def _clean(d):
    return {e: c for e, c in d.items() if c}


def _school_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out[e] + c if e in out else c
    return _clean(out)


def _school_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return _clean(out)


def _school_divmod_exact(a, b):
    """Quotient of a by b when b divides a, else None: subtract multiples
    of b from the graded-lex leading term down."""
    lb = max(b, key=_grlex)
    rem, quot = dict(a), {}
    while rem:
        le = max(rem, key=_grlex)
        qe = tuple(x - y for x, y in zip(le, lb))
        if min(qe, default=0) < 0:
            return None
        qc = rem[le] / b[lb]
        quot[qe] = qc
        rem = _school_add(rem, _school_mul({qe: -qc}, b))
    return quot


@st.composite
def elem_dicts(draw, F, nvars):
    monos = st.tuples(*[st.integers(0, 3)] * nvars)
    codes = draw(st.dictionaries(monos, st.integers(0, F.order - 1),
                                 max_size=4))
    return {e: F.from_code(c) for e, c in codes.items()}


@given(st.data())
def test_mpoly_matches_schoolbook(data):
    """+, -, *, scale, derivative, divmod_exact, monic_grlex, leading and
    const_value on codes against GFElem dict arithmetic; the zero codes
    the draws contain must be dropped."""
    p, e = data.draw(st.sampled_from(SCHOOLBOOK_FIELDS))
    F = gf(p, e)
    nv = data.draw(st.integers(1, 3))
    a = data.draw(elem_dicts(F, nv))
    b = data.draw(elem_dicts(F, nv))
    c = F.from_code(data.draw(st.integers(0, F.order - 1)))
    j = data.draw(st.integers(0, nv - 1))
    fa, fb = MPoly(F, nv, a), MPoly(F, nv, b)

    def mp(d):
        return MPoly(F, nv, d)

    neg_b = {m: -x for m, x in b.items()}
    assert fa + fb == mp(_school_add(a, b))
    assert fa - fb == mp(_school_add(a, neg_b))
    assert -fb == mp(neg_b)
    assert fa * fb == mp(_school_mul(a, b))
    assert fa.scale(c) == mp({m: x * c for m, x in a.items()})
    deriv = {}
    for m, x in a.items():
        if m[j]:
            deriv[m[:j] + (m[j] - 1,) + m[j + 1:]] = x * m[j]
    assert fa.derivative(j) == mp(deriv)
    a = _clean(a)
    b = _clean(b)
    if b:
        prod = _school_mul(a, b)
        assert mp(prod).divmod_exact(fb) == mp(a)
        q = _school_divmod_exact(a, b)
        assert fa.divmod_exact(fb) == (None if q is None else mp(q))
        lb = max(b, key=_grlex)
        assert fb.leading() == (lb, b[lb])
        inv = b[lb].inverse()
        assert fb.monic_grlex() == mp({m: x * inv for m, x in b.items()})
    else:
        with pytest.raises(DivisionByZero):
            fa.divmod_exact(fb)
    assert fa.const_value() == a.get((0,) * nv, F.zero)
    assert fa.is_const() == all(not any(m) for m in a)


def _operand_shapes(rng, F, nv):
    """GFElem dicts of each shape the kernel answers apart: zero, the unit
    1, a constant other than 1 (when F has one), a monomial with
    coefficient 1, one non-constant term with a coefficient other than 1,
    and many terms."""
    nonzero = [c for c in F.elements() if c]
    other = [c for c in nonzero if c != F.one] or [F.one]
    zero = (0,) * nv

    def mono():
        return tuple(rng.randint(0, 3) for _ in range(nv - 1)) \
            + (rng.randint(1, 3),)
    shapes = [{}, {zero: F.one}]
    if F.order > 2:
        shapes.append({zero: rng.choice(other)})
    shapes += [{mono(): F.one}, {mono(): rng.choice(other)}]
    many = {}
    while len(many) < 4:
        many[tuple(rng.randint(0, 3) for _ in range(nv))] = \
            rng.choice(nonzero)
    return shapes + [many]


def check_operand_shapes():
    """+, -, *, is_const, leading and monic_grlex against the schoolbook on
    every pair of operand shapes, in 1-3 variables; f * 1 and 1 * f are
    the operand f itself, no operand's terms change, and equal polynomials
    built by different routes hash alike."""
    rng = random.Random("mpoly operand shapes")
    for p, e in SCHOOLBOOK_FIELDS:
        F = gf(p, e)
        for nv in (1, 2, 3):
            shapes = _operand_shapes(rng, F, nv)
            for a in shapes:
                fa = MPoly(F, nv, a)
                before = dict(fa.terms)
                assert fa.is_const() == all(not any(m) for m in a)
                if a:
                    la = max(a, key=_grlex)
                    assert fa.leading() == (la, a[la])
                    inv = a[la].inverse()
                    monic = fa.monic_grlex()
                    assert monic == MPoly(F, nv, {m: x * inv
                                                  for m, x in a.items()})
                    assert (monic is fa) == (a[la] == F.one)
                for b in shapes:
                    fb = MPoly(F, nv, b)
                    neg_b = {m: -x for m, x in b.items()}
                    total, diff, prod = fa + fb, fa - fb, fa * fb
                    assert total == MPoly(F, nv, _school_add(a, b))
                    assert diff == MPoly(F, nv, _school_add(a, neg_b))
                    assert prod == MPoly(F, nv, _school_mul(a, b))
                    if b == {(0,) * nv: F.one}:
                        assert prod is fa
                    elif a == {(0,) * nv: F.one}:
                        assert prod is fb
                    for x, y in [(prod, fb * fa), (total, fb + fa),
                                 (prod, MPoly(F, nv, _school_mul(a, b)))]:
                        assert hash(x) == hash(y)
                    assert fb.terms == {m: x.idx for m, x in b.items()}
                assert fa.terms == before


def test_every_operand_shape_matches_schoolbook():
    check_operand_shapes()


def test_constructor_rejects_bad_terms():
    F2, F3 = gf(2), gf(3)
    # (1,) used to be read as x0 in two variables: zip cut the exponent
    for bad in [(1,), (1, 0, 0), (1, -1), (1.0, 0), 1]:
        with pytest.raises(ConfigMismatch):
            MPoly(F2, 2, {bad: F2.one})
    # a GF(3) coefficient used to print as x0+1 in a GF(2) polynomial
    with pytest.raises(ConfigMismatch):
        MPoly(F2, 2, {(1, 0): F2.one, (0, 0): F3.one})
    with pytest.raises(ConfigMismatch):
        MPoly(F2, 2, {(1, 0): 1})
    with pytest.raises(ConfigMismatch):
        MPoly.var(F2, 2, 0) + MPoly.var(F3, 2, 0)
    with pytest.raises(ConfigMismatch):
        MPoly.var(F2, 2, 0) * MPoly.var(F2, 3, 0)
    assert MPoly(F2, 2, {(1, 0): F2.zero}).is_zero()


def _rand_poly(data, F, nv, max_deg, max_terms):
    monos = st.tuples(*[st.integers(0, max_deg)] * nv)
    codes = data.draw(st.dictionaries(monos, st.integers(1, F.order - 1),
                                      min_size=1, max_size=max_terms))
    return MPoly(F, nv, {e: F.from_code(c) for e, c in codes.items()})


@given(st.data())
def test_gcd_multivariate_matches_prs(data):
    """Brown's loop in three and four variables against the primitive
    PRS, on inputs with a shared factor."""
    p, e = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]))
    F = gf(p, e)
    nv = data.draw(st.sampled_from([3, 4]))
    max_deg = 2 if nv == 3 else 1
    a, b, c = (_rand_poly(data, F, nv, max_deg, 3) for _ in range(3))
    f, g = a * c, b * c
    h = mpoly_gcd(f, g)
    assert h == prs_gcd(f, g)
    assert h.divmod_exact(c.monic_grlex()) is not None


def test_gcd_trivariate_unlucky():
    """gcd((y + x^4 + x)(z + 1), y(z + 1)) over F_2: x^4 + x vanishes on
    F_4, so every point there is unlucky and evaluation moves on to F_8."""
    F = gf(2)
    x, y, z = (MPoly.var(F, 3, i) for i in range(3))
    one = MPoly.const(F, 3, 1)
    f = (y + x ** 4 + x) * (z + one)
    g = y * (z + one)
    assert mpoly_gcd(f, g) == prs_gcd(f, g) == z + one
