import random

import pytest

from katoforge import ConfigMismatch, IntegralityViolation, NonPrime, gf
from katoforge.gf import _TABLE_MAX_ORDER, GF, is_prime

from conftest import run_optimized


def _polymulmod(a, b, mod, p):
    """a * b reduced by the monic mod, all coefficient lists over Z/p: the
    schoolbook oracle for the tables."""
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    dm = len(mod) - 1
    while len(res) - 1 >= dm:
        lead = res[-1]
        if lead:
            off = len(res) - 1 - dm
            for j in range(dm + 1):
                res[off + j] = (res[off + j] - lead * mod[j]) % p
        res.pop()
    while len(res) > 1 and res[-1] == 0:
        res.pop()
    return res


# (p, e): gf(p, e).modulus, recorded from the Rabin-test search that the
# distinct-degree test replaced
MODULUS_GOLDEN = {
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 13): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 17): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 24): (1,) + (0,) * 19 + (1, 1, 0, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    (3, 15): (1,) + (0,) * 12 + (1, 2, 1),
    (5, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (7, 3): (1, 0, 1, 1),
    (13, 2): (1, 3, 1),
    (257, 2): (1, 1, 1),
    (4091, 2): (1, 0, 1),
    (4093, 2): (1, 3, 1),
}


@pytest.mark.parametrize("p,e", sorted(MODULUS_GOLDEN))
def test_canonical_modulus_golden(p, e):
    assert gf(p, e).modulus == MODULUS_GOLDEN[p, e]


def test_canonical_moduli():
    assert gf(2, 1).modulus == (0, 1)
    assert gf(2, 2).modulus == (1, 1, 1)
    # exhaustive oracle: first monic quadratic over F_3 without a root
    expected = None
    for c0 in range(3):
        for c1 in range(3):
            if all((x * x + c1 * x + c0) % 3 for x in range(3)):
                expected = (c0, c1, 1)
                break
        if expected:
            break
    assert gf(3, 2).modulus == expected == (1, 0, 1)


def test_nonprime_rejected():
    with pytest.raises(NonPrime):
        GF(6)


def test_f4_multiplication():
    F4 = gf(2, 2)
    z = F4.gen
    assert z * z == F4.elem([1, 1])       # z^2 = z + 1
    assert z ** 3 == F4.one               # multiplicative order 3


def test_field_axioms_random():
    rng = random.Random(7)
    for (p, e) in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        F = gf(p, e)
        els = list(F.elements())
        for _ in range(60):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * F.one == a
            if b:
                assert (a / b) * b == a


def test_trace():
    F4 = gf(2, 2)
    z = F4.gen
    assert F4.trace_int(z) == 1           # z + z^2 = z + z + 1 = 1
    assert F4.trace_int(F4.zero) == 0
    assert F4.trace_int(F4.one) == 0      # 1 + 1 in char 2
    # additivity and Frobenius invariance
    rng = random.Random(3)
    els = list(F4.elements())
    for _ in range(30):
        a, b = rng.choice(els), rng.choice(els)
        assert F4.trace_int(a + b) == (F4.trace_int(a) + F4.trace_int(b)) % 2
        assert F4.trace_int(a.frobenius()) == F4.trace_int(a)


def test_trace_outside_prime_field_raises(monkeypatch):
    F8 = gf(2, 3)
    monkeypatch.setattr(F8, "trace", lambda a: a)
    with pytest.raises(IntegralityViolation):
        F8.trace_int(F8.gen)


def test_artin_schreier_solve():
    F2 = gf(2)
    assert F2.artin_schreier_solve(F2.one) is None
    F4 = gf(2, 2)
    z = F4.gen
    assert F4.artin_schreier_solve(z) is None        # Tr(z) = 1
    assert F4.artin_schreier_solve(F4.zero) == F4.zero
    x = F4.artin_schreier_solve(F4.one)
    assert x == z                                    # canonical choice
    assert x.frobenius() - x == F4.one


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                 (2, 4), (5, 1)])
def test_as_solve_exhaustive(p, e):
    # solvable iff trace vanishes, checked on every field element
    F = gf(p, e)
    solvable = 0
    for c in F.elements():
        x = F.artin_schreier_solve(c)
        assert (x is not None) == (F.trace_int(c) == 0)
        if x is not None:
            solvable += 1
            assert x ** p - x == c
    assert solvable == F.order // p


def test_artin_schreier_roots_match_a_scan():
    """On every field with at most 256 elements, artin_schreier_solve(c) is
    the lexicographically least x with x^p - x = c, or None when there is
    none, as a scan over all x finds it."""
    fields = [(p, e) for p in range(2, 257) if is_prime(p)
              for e in range(1, 9) if p ** e <= 256]
    assert len(fields) == 70
    for p, e in fields:
        F = gf(p, e)
        least = {}
        for x in F.elements():          # lexicographic order
            least.setdefault(x ** p - x, x)
        for c in F.elements():
            assert F.artin_schreier_solve(c) == least.get(c), (F, c)


def test_pth_root():
    F4 = gf(2, 2)
    z = F4.gen
    assert F4.pth_root(F4.zero) == F4.zero
    assert F4.pth_root(z) == z * z        # (z^2)^2 = z^4 = z
    rng = random.Random(11)
    for (p, e) in [(2, 3), (3, 2)]:
        F = gf(p, e)
        els = list(F.elements())
        for _ in range(30):
            a = rng.choice(els)
            assert F.pth_root(a) ** p == a
            assert F.pth_root(a ** p) == a


@pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (2, 8)])
def test_tables_match_polymulmod(p, e):
    """Every entry of the code tables against the modulus arithmetic."""
    F = gf(p, e)
    add, mul, neg, inv = F.tables
    mod = list(F.modulus)

    # digits[c] is the coefficient list (c_0, ..., c_{e-1}) of code c
    digits = [[c // p ** i % p for i in range(e)] for c in range(F.order)]
    for a, da in enumerate(digits):
        assert list(F.from_code(a).coeffs) == da
        assert digits[neg[a]] == [-x % p for x in da]
        if a:
            assert mul[a][inv[a]] == 1
        for b, db in enumerate(digits):
            prod = _polymulmod(da, db, mod, p)
            assert digits[mul[a][b]] == prod + [0] * (e - len(prod))
            assert digits[add[a][b]] == [(x + y) % p for x, y in zip(da, db)]


@pytest.mark.parametrize("p,e", [(257, 2), (2, 17)])
def test_large_field_products_match_polymulmod(p, e):
    """Past the tables each product and inverse is computed on digit
    vectors; random elements against the schoolbook oracle."""
    F = gf(p, e)
    mod = list(F.modulus)
    rng = random.Random(p + e)
    for _ in range(40):
        da = [rng.randrange(p) for _ in range(e)]
        db = [rng.randrange(p) for _ in range(e)]
        a, b = F.elem(da), F.elem(db)
        prod = _polymulmod(da, db, mod, p)
        assert list((a * b).coeffs) == prod + [0] * (e - len(prod))
        assert F.tables[1][a.idx][b.idx] == (a * b).idx
        if a:
            assert _polymulmod(da, list(a.inverse().coeffs), mod, p) == [1]
            assert F.tables[3][a.idx] == a.inverse().idx


def _oracle_pow(da, n, mod, p):
    """da^n for n >= 0 by repeated schoolbook products."""
    out = [1]
    for _ in range(n):
        out = _polymulmod(out, da, mod, p)
    return out


@pytest.mark.parametrize("p,e", [(2, 9), (3, 6), (257, 2)])
def test_computed_tables_match_polymulmod(p, e):
    """Past _TABLE_MAX_ORDER every GFElem operation reads computed tables;
    random elements against the digit-vector oracle."""
    F = gf(p, e)
    assert F.order > _TABLE_MAX_ORDER
    mod = list(F.modulus)
    rng = random.Random(10 * p + e)

    def digits(x):
        d = list(x.coeffs)
        while len(d) > 1 and d[-1] == 0:
            d.pop()
        return d

    for _ in range(12):
        da = [rng.randrange(p) for _ in range(e)]
        db = [rng.randrange(p) for _ in range(e)]
        a, b = F.elem(da), F.elem(db)
        k = rng.randrange(-p, 2 * p)
        assert list((a + b).coeffs) == [(x + y) % p for x, y in zip(da, db)]
        assert list((a - b).coeffs) == [(x - y) % p for x, y in zip(da, db)]
        assert list((-a).coeffs) == [-x % p for x in da]
        assert digits(a * b) == _polymulmod(da, db, mod, p)
        assert list((a * k).coeffs) == [x * k % p for x in da]
        assert k * a == a * k
        assert digits(a ** 3) == _oracle_pow(da, 3, mod, p)
        assert digits(a.frobenius()) == _oracle_pow(da, p, mod, p)
        assert F.from_code(a.idx).coeffs == a.coeffs
        if b:
            assert _polymulmod(digits(b.inverse()), db, mod, p) == [1]
            assert _polymulmod(digits(a / b), db, mod, p) == digits(a)
            assert a * b ** -2 * b * b == a
        root = F.pth_root(a)
        assert _oracle_pow(digits(root), p, mod, p) == digits(a)
        trace = [0]
        for j in range(e):
            trace = [(x + y) % p for x, y in zip(
                trace + [0] * e, _oracle_pow(da, p ** j, mod, p) + [0] * e)]
        assert F.trace_int(a) == trace[0] and not any(trace[1:])
    assert F.trace_int(F.one) == e % p


@pytest.mark.parametrize("p,e", [(2, 1), (2, 3), (3, 2), (5, 2), (2, 6),
                                 (2, 9)])
def test_elements_order(p, e):
    """elements() runs through the coefficient sequences (c_0, ...,
    c_{e-1}) in lexicographic order, so c_{e-1} changes fastest."""
    got = [x.coeffs for x in gf(p, e).elements()]
    want = []
    for code in range(p ** e):
        want.append(tuple(code // p ** (e - 1 - i) % p for i in range(e)))
    assert got == want


def test_elements_of_another_field_raise():
    F4, F16 = gf(2, 2), gf(2, 4)
    calls = [lambda: F4.pth_root(F16.gen), lambda: F4.trace_int(F16.gen),
             lambda: F4.gen + F16.gen, lambda: F4.gen - F16.gen,
             lambda: F4.gen * F16.gen, lambda: F4.gen / F16.gen,
             lambda: F4.gen + 1, lambda: F4.gen / 1]
    for call in calls:
        with pytest.raises(ConfigMismatch):
            call()


def test_elements_of_another_field_raise_when_optimized():
    code = ("from katoforge import ConfigMismatch, gf\n"
            "F4, F16 = gf(2, 2), gf(2, 4)\n"
            "for call in (F4.pth_root, F4.trace_int):\n"
            "    try:\n"
            "        print(call(F16.gen))\n"
            "    except ConfigMismatch:\n"
            "        print('refused')\n")
    assert run_optimized(code) == "refused\nrefused\n"


def test_printing():
    F4 = gf(2, 2)
    assert repr(F4.elem([1, 1])) == "z+1"
    assert repr(F4.zero) == "0"
    F9 = gf(3, 2)
    assert repr(F9.elem([2, 2])) == "2*z+2"
