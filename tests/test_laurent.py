import io
import operator
import random
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from katoforge import (DivisionByZero, GaloisRing, Laurent,
                       PrecisionExhausted, UnsupportedField, from_rational,
                       func_field, gf, galois_ring)
from katoforge.cli import run_script
from katoforge.laurent import _series_div

import series_oracle
from conftest import random_ratfunc, run_optimized

# GF(p^e) and GR(p^i, e) = galois_ring(gf(p, e), i); GR(2^40, 2) has slots
# wider than 8 bytes
PRODUCT_RINGS = [gf(2), gf(3), gf(2, 2), gf(2, 3), gf(3, 2),
                 galois_ring(gf(2), 3), galois_ring(gf(2, 2), 2),
                 galois_ring(gf(3), 2), galois_ring(gf(2), 4),
                 galois_ring(gf(2, 6), 3), galois_ring(gf(2, 2), 40)]


def schoolbook(a, b):
    """The product one coefficient pair at a time: the kernel's oracle."""
    prec = min(a.prec + b.val, b.prec + a.val)
    out = [a.ring.zero] * (prec - a.val - b.val)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if i + j < len(out):
                out[i + j] = out[i + j] + x * y
    return Laurent(a.ring, a.val + b.val, out, prec)


@st.composite
def series(draw, ring):
    """val in [-6, 6], up to 40 coefficients all zero, sparse (one in five
    nonzero) or dense, and a precision from below the last coefficient to
    past it."""
    val = draw(st.integers(-6, 6))
    kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
    digits = st.lists(st.integers(0, ring.digit_modulus - 1),
                      min_size=ring.e, max_size=ring.e)
    coeffs = []
    for _ in range(draw(st.integers(0, 40))):
        if kind == "zero" or (kind == "sparse" and draw(st.integers(0, 4))):
            coeffs.append(ring.zero)
        else:
            coeffs.append(ring._make(tuple(draw(digits))))
    prec = val + len(coeffs) + draw(st.integers(-3, 6))
    return Laurent(ring, val, coeffs, max(prec, val + 1))


def _nonzero(data, ring):
    return ring._make(tuple(data.draw(
        st.lists(st.integers(0, ring.digit_modulus - 1), min_size=ring.e,
                 max_size=ring.e).filter(any))))


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=repr)
@given(data=st.data())
def test_product_matches_schoolbook(ring, data):
    a = data.draw(series(ring))
    b = data.draw(series(ring))
    assert a * b == schoolbook(a, b)
    assert b * a == schoolbook(b, a)
    # one operand far longer than the product's precision
    short = b.truncate(min(b.prec, b.val + 2))
    assert a * short == schoolbook(a, short)
    # one-term operands c t^v, c one or another nonzero element, against
    # longer operands and a one-term one (1 x 1); known to O(t^(v+1)), c t^v
    # leaves one coefficient of the product, and the other operand is
    # longer than that
    coef = data.draw(st.sampled_from([ring.one, _nonzero(data, ring)]))
    v = data.draw(st.integers(-6, 6))
    for mono in (Laurent.monomial(ring, coef, v,
                                  v + data.draw(st.integers(1, 45))),
                 Laurent.monomial(ring, coef, v, v + 1)):
        for x in (a, b, short, Laurent.monomial(
                ring, _nonzero(data, ring), a.val, a.prec)):
            assert mono * x == schoolbook(mono, x)
            assert x * mono == schoolbook(x, mono)
    k = data.draw(st.integers(-5, 5))
    scaled = Laurent(ring, a.val, [c * k for c in a.coeffs], a.prec)
    assert a * k == scaled and k * a == scaled


def _parts(s):
    return s.val, s.coeffs, s.prec


def _assert_sums(a, b):
    """a + b, b + a and a - b against the dense sum."""
    assert _parts(a + b) == _parts(series_oracle.dense_sum(a, b))
    assert _parts(b + a) == _parts(series_oracle.dense_sum(b, a))
    assert _parts(a - b) == _parts(series_oracle.dense_sum(a, -b))


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=repr)
@given(data=st.data())
def test_sum_matches_dense_sum(ring, data):
    a = data.draw(series(ring))
    b = data.draw(series(ring))
    _assert_sums(a, b)
    # everything cancels: zero to the precision
    assert _parts(a - a) == (a.prec, (), a.prec)
    _assert_sums(a, a)
    if not a.is_zero():
        lead = Laurent.monomial(ring, a.coeffs[0], a.val, a.prec)
        tail = Laurent.monomial(ring, a.coeffs[-1],
                                a.val + len(a.coeffs) - 1, a.prec)
        # cancellation at the leading end, with and without b above it
        _assert_sums(a, lead)
        _assert_sums(a, lead + b.shift(a.val + 1 - b.val))
        # cancellation at the trailing end
        _assert_sums(a, tail)
    # disjoint spans, either one below
    end = a.val + len(a.coeffs)
    gap = data.draw(st.integers(0, 5))
    long_a = Laurent(ring, a.val, a.coeffs, end + len(b.coeffs) + 10)
    above = Laurent(ring, end + gap, b.coeffs, end + gap + len(b.coeffs) + 2)
    _assert_sums(long_a, above)
    # an operand at or past the other's precision, and a zero operand of
    # lower precision
    _assert_sums(a, b.shift(a.prec - b.val + data.draw(st.integers(0, 3))))
    _assert_sums(a, Laurent.zero(ring, a.prec - data.draw(st.integers(0, 3))))


@pytest.mark.parametrize("ring", [gf(2), gf(3), gf(2, 2), gf(2, 3),
                                  gf(3, 2)], ids=repr)
@given(data=st.data())
def test_frobenius_power_matches_products(ring, data):
    """x ** n with p | n reads c^(p^k) off x^m; the repeated product is the
    oracle, over negative, zero and positive valuations."""
    p = ring.p
    s = data.draw(series(ring))
    for val in (-3, 0, 2):
        x = s.shift(val - s.val)
        for n in (p, p ** 2, p ** 3, 2 * p, 3 * p):
            assert _parts(x ** n) == _parts(reduce(operator.mul, [x] * n))


@pytest.mark.parametrize("ring", [galois_ring(gf(2), 3),
                                  galois_ring(gf(3), 2)], ids=repr)
@given(data=st.data())
def test_galois_ring_power_is_the_product(ring, data):
    x = data.draw(series(ring))
    assert _parts(x ** ring.p) == _parts(reduce(operator.mul, [x] * ring.p))


def test_huge_powers_stay_cheap():
    # 2^40 coefficients spread 2^40 apart would not fit in memory; only the
    # ones below the precision are built
    script = ("field K = GF(2)((t))\n"
              "let s = (1 + t + O(t^5))^1099511627776\n"
              "let a = (t^-1 + 1 + O(t^3))^1024\n"
              "let b = (t + t^2 + O(t^4))^8\n")
    buf = io.StringIO()
    assert run_script(script, out=buf) == 0
    assert buf.getvalue() == ("field: GF(2)((t))\n"
                              "let: 1 + O(t^5)\n"
                              "let: t^-1024 + O(t^-1020)\n"
                              "let: t^8 + O(t^11)\n")


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=repr)
def test_product_of_largest_digits(ring):
    # every digit M-1 makes every slot reach its bound; an undersized slot
    # carries into its neighbour and the product comes out wrong
    top = ring._make((ring.digit_modulus - 1,) * ring.e)
    a = Laurent(ring, -3, [top] * 64, 61)
    b = Laurent(ring, 2, [top] * 70, 72)
    assert a * b == schoolbook(a, b)
    assert a * a == schoolbook(a, a)


@pytest.mark.parametrize("ring", [r for r in PRODUCT_RINGS
                                  if isinstance(r, GaloisRing)], ids=repr)
@given(data=st.data())
def test_galois_ring_inverse_round_trip(ring, data):
    s = data.draw(series(ring))
    if s.is_zero() or not ring.reduce(s.coeffs[0]):
        # a unit leading coefficient, one power below
        s = s + Laurent.monomial(ring, ring.one, s.val - 1, s.prec)
    assert s * s.inverse() == Laurent.one(ring, s.prec - s.val)


def test_char2_square():
    F2 = gf(2)
    a = Laurent(F2, 0, [F2.one, F2.one], 5)
    sq = a * a
    assert sq == Laurent(F2, 0, [F2.one, F2.zero, F2.one], 5)


def test_valuation_of_product():
    F2 = gf(2)
    u = Laurent(F2, 0, [F2.one, F2.one], 9)
    t3 = Laurent.monomial(F2, F2.one, 3, 9)
    assert (t3 * u).val == 3


def test_geometric_series():
    F2 = gf(2)
    K = func_field(F2, ("t",))
    t = K.var("t")
    g = from_rational(K.one / (K.one - t), 10)
    assert g == Laurent(F2, 0, [F2.one] * 10, 10)


def test_precision_rules():
    F2 = gf(2)
    a = Laurent(F2, 0, [F2.one], 5)
    b = Laurent(F2, 2, [F2.one], 9)
    assert (a + b).prec == 5
    assert (a * b).prec == 7      # min(5 + 2, 9 + 0)
    inv = b.inverse()
    assert inv.val == -2 and inv.prec == 5   # relative precision 7 shifted


def test_leading_zeros_stripped():
    F3 = gf(3)
    one, two = F3.one, F3.elem(2)
    a = Laurent(F3, -7, [F3.zero] * 5000 + [one, F3.zero, two, F3.zero], 6000)
    assert (a.val, a.coeffs, a.prec) == (4993, (one, F3.zero, two), 6000)
    # truncated to the precision first: the nonzero tail is unknown
    b = Laurent(F3, 0, [F3.zero] * 5000 + [one], 3000)
    assert (b.val, b.coeffs, b.prec) == (3000, (), 3000)
    assert b == Laurent.zero(F3, 3000) and b.is_zero()
    c = Laurent(F3, 2, (F3.zero for _ in range(40)), 30)
    assert (c.val, c.coeffs, c.prec) == (30, (), 30)


def test_coeff_beyond_precision_raises():
    F2 = gf(2)
    a = Laurent(F2, 0, [F2.one], 4)
    with pytest.raises(PrecisionExhausted):
        a.coeff(4)
    assert a.coeff(3) == F2.zero


def test_division_by_zero_to_precision():
    F2 = gf(2)
    z = Laurent.zero(F2, 6)
    with pytest.raises(DivisionByZero):
        Laurent.one(F2, 6) / z


def test_agrees_with_rational_arithmetic():
    rng = random.Random(17)
    for (p, e) in [(2, 1), (3, 1), (2, 2)]:
        K = func_field(gf(p, e), ("t",))
        for _ in range(20):
            a = random_ratfunc(rng, K)
            b = random_ratfunc(rng, K)
            sa, sb = from_rational(a, 14), from_rational(b, 14)
            prod = sa * sb
            assert prod == from_rational(a * b, prod.prec)
            s = sa + sb
            assert s == from_rational(a + b, s.prec)


def test_dlog_of_monomial():
    F3 = gf(3)
    t5 = Laurent.monomial(F3, F3.one, 5, 12)
    dl = t5.dlog()
    assert dl.coeff(-1) == F3.elem(5)


def test_print_parse_shape():
    F2 = gf(2)
    s = Laurent(F2, -2, [F2.one, F2.zero, F2.one], 5)
    assert repr(s) == "t^-2 + 1 + O(t^5)"


def test_from_rational_needs_one_variable():
    K = func_field(gf(2), ("x", "y"))
    x, y = K.var("x"), K.var("y")
    for r in (x * y, x + y):
        with pytest.raises(UnsupportedField):
            from_rational(r, 5)


def _is_unit(ring, c):
    return bool(ring.reduce(c)) if isinstance(ring, GaloisRing) else bool(c)


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=repr)
@given(data=st.data())
def test_division_matches_oracle(ring, data):
    a = data.draw(series(ring))
    b = data.draw(series(ring))
    if b.is_zero() or not _is_unit(ring, b.coeffs[0]):
        # zero to precision, or a GR divisor with a non-unit leading term
        for fn in (lambda: a / b, b.inverse, b.dlog,
                   lambda: series_oracle.inverse(b)):
            with pytest.raises(DivisionByZero):
                fn()
        b = b + Laurent.monomial(ring, ring.one, b.val - 1, b.prec)
    assert a / b == series_oracle.divide(a, b)
    assert b.inverse() == series_oracle.inverse(b)
    assert b.dlog() == series_oracle.dlog(b)
    zero = Laurent.zero(ring, a.prec)
    assert zero / b == series_oracle.divide(zero, b)
    # operands of other valuations and precisions
    k = data.draw(st.integers(-4, 4))
    shorter = b.shift(k).truncate(min(b.prec + k, b.val + k + 3))
    assert a / shorter == series_oracle.divide(a, shorter)
    assert shorter / b == series_oracle.divide(shorter, b)


@pytest.mark.parametrize("ring", PRODUCT_RINGS[:5], ids=repr)
@given(data=st.data())
def test_series_div_matches_oracle(ring, data):
    def poly():
        return [ring._make(tuple(data.draw(st.integers(0, ring.p - 1))
                                 for _ in range(ring.e)))
                for _ in range(data.draw(st.integers(1, 8)))]
    num, den = poly(), poly()
    if not any(den):
        den[-1] = ring.one
    prec = data.draw(st.integers(-6, 20))
    q = _series_div(num, den, ring, prec)
    assert q == series_oracle.series_div(num, den, ring, prec)
    assert q.prec == prec


def test_series_div_has_requested_precision():
    F2 = gf(2)
    one, zero = F2.one, F2.zero
    for num, prec in (([one], 5), ([zero, zero, one], 1),
                      ([zero, zero, one], 2), ([zero, one], -3),
                      ([zero], 4)):
        q = _series_div(num, [one, one], F2, prec)
        assert q.prec == prec
        assert q == series_oracle.series_div(num, [one, one], F2, prec)
    # prec <= val: zero to that precision
    assert _series_div([zero, zero, one], [one], F2, 1) == \
        Laurent.zero(F2, 1)


def test_series_checks_survive_optimized_mode():
    code = ("from katoforge import (UnsupportedField, from_rational,\n"
            "                       func_field, gf)\n"
            "from katoforge.laurent import _series_div\n"
            "K = func_field(gf(2), ('x', 'y'))\n"
            "x, y = K.var('x'), K.var('y')\n"
            "for r in (x * y, x + y):\n"
            "    try:\n"
            "        print(from_rational(r, 5))\n"
            "    except UnsupportedField:\n"
            "        print('refused')\n"
            "F = gf(2)\n"
            "for num, prec in (([F.one], 5), ([F.zero, F.zero, F.one], 1)):\n"
            "    print(_series_div(num, [F.one, F.one], F, prec).prec)\n")
    assert run_optimized(code) == "refused\nrefused\n5\n1\n"
