import random

import pytest

from katoforge import IntegralityViolation, NonPrime, gf
from katoforge.gf import GF


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


def test_printing():
    F4 = gf(2, 2)
    assert repr(F4.elem([1, 1])) == "z+1"
    assert repr(F4.zero) == "0"
    F9 = gf(3, 2)
    assert repr(F9.elem([2, 2])) == "2*z+2"
