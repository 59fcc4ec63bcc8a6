import itertools
import random

import pytest

from katoforge import (ConfigMismatch, MPoly, Poly, ResourceLimit,
                       ZeroPolynomial, factor, gf, is_irreducible)
from katoforge.poly import (_distinct_degree, _equal_degree_split, _poly_key,
                            _seed_for, squarefree_decomposition)

from conftest import run_optimized


def _poly(field, ints):
    return Poly(field, [field.elem(c) for c in ints])


def test_factor_examples():
    F2 = gf(2)
    t2t = _poly(F2, [0, 1, 1])
    assert factor(t2t) == [(_poly(F2, [0, 1]), 1), (_poly(F2, [1, 1]), 1)]
    # char-2 square: t^2+1 = (t+1)^2
    assert factor(_poly(F2, [1, 0, 1])) == [(_poly(F2, [1, 1]), 2)]
    F3 = gf(3)
    fs = factor(_poly(F3, [1, 0, 1]))
    assert fs == [(_poly(F3, [1, 0, 1]), 1)]
    assert is_irreducible(_poly(F3, [1, 0, 1]))


def test_factor_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        factor(Poly(gf(2), []))


def test_squarefree_char_p():
    F2 = gf(2)
    t = Poly.x(F2)
    one = Poly.const(F2, 1)
    f = (t ** 2 + t + one) ** 4 * t ** 3
    parts = dict(squarefree_decomposition(f))
    assert parts[t ** 2 + t + one] == 4
    assert parts[t] == 3


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
def test_factor_remultiplies(p, e):
    F = gf(p, e)
    rng = random.Random(100 * p + e)
    els = list(F.elements())
    done = 0
    while done < 40:
        f = Poly(F, [rng.choice(els) for _ in range(rng.randint(2, 9))])
        if f.degree < 1:
            continue
        done += 1
        prod = Poly.const(F, 1)
        for g, m in factor(f):
            assert g.coeffs[-1] == F.one
            assert is_irreducible(g)
            prod = prod * g ** m
        assert prod.scale(f.coeffs[-1]) == f


def test_factor_deterministic():
    F4 = gf(2, 2)
    rng = random.Random(9)
    els = list(F4.elements())
    for _ in range(10):
        f = Poly(F4, [rng.choice(els) for _ in range(6)])
        if f.degree < 2:
            continue
        assert factor(f) == factor(f)


def test_irreducibility_by_roots():
    # no roots in subextensions up to deg/2 confirms the irreducible flags
    F2 = gf(2)
    for f, _ in factor(_poly(F2, [1, 1, 0, 0, 1, 1, 1])):
        d = f.degree
        for sub_e in range(1, d // 2 + 1):
            E = gf(2, sub_e)
            lifted = Poly(E, [E.elem(int(c.coeffs[0])) for c in f.coeffs])
            assert all(lifted.eval(a) for a in E.elements()) or d == 1


@pytest.mark.parametrize("p,e,max_deg", [(2, 1, 6), (3, 1, 4), (2, 2, 3)])
def test_is_irreducible_exhaustive(p, e, max_deg):
    """Every monic polynomial of degree <= max_deg against brute force: the
    reducible ones of degree n are the products of two monic polynomials of
    positive degrees summing to n, multiplied out term by term."""
    F = gf(p, e)
    els = list(F.elements())
    monic = {n: [list(tail) + [F.one]
                 for tail in itertools.product(els, repeat=n)]
             for n in range(max_deg + 1)}
    reducible = set()
    for n in range(2, max_deg + 1):
        for d in range(1, n // 2 + 1):
            for a in monic[d]:
                for b in monic[n - d]:
                    prod = [F.zero] * (n + 1)
                    for i, x in enumerate(a):
                        for j, y in enumerate(b):
                            prod[i + j] = prod[i + j] + x * y
                    reducible.add(tuple(prod))
    for n in range(max_deg + 1):
        for f in monic[n]:
            expected = n >= 1 and tuple(f) not in reducible
            assert is_irreducible(Poly(F, f)) == expected, f


def test_fields_do_not_mix():
    F2, F3 = gf(2), gf(3)
    with pytest.raises(ConfigMismatch):
        Poly(F2, [F2.one, F3.one])
    f, g = Poly.x(F2), Poly.x(F3)
    for op in (lambda: f + g, lambda: f - g, lambda: f * g,
               lambda: f.divmod(g), lambda: f.gcd(g), lambda: f.powmod(2, g),
               lambda: f.eval(F3.one), lambda: f.scale(F3.one)):
        with pytest.raises(ConfigMismatch):
            op()


def test_negative_exponents_raise():
    # polynomials have no inverses; a negative exponent used to loop forever
    F = gf(3)
    f = _poly(F, [1, 1])
    g = MPoly(F, 2, {(1, 0): F.one, (0, 1): F.one})
    for op in (lambda: f ** -1, lambda: f.powmod(-1, _poly(F, [1, 0, 1])),
               lambda: g ** -2):
        with pytest.raises(ResourceLimit):
            op()
    assert f ** 0 == _poly(F, [1]) and f ** 1 == f
    assert f.powmod(0, _poly(F, [1, 0, 1])) == _poly(F, [1])


def test_negative_exponents_raise_in_optimized_mode():
    code = ("from katoforge import MPoly, Poly, ResourceLimit, gf\n"
            "F = gf(3)\n"
            "f = Poly(F, [F.one, F.one])\n"
            "g = MPoly(F, 2, {(1, 0): F.one})\n"
            "for op in (lambda: f ** -1, lambda: f.powmod(-1, f * f),\n"
            "           lambda: g ** -1):\n"
            "    try:\n"
            "        op()\n"
            "    except ResourceLimit:\n"
            "        print('refused')\n")
    assert run_optimized(code) == "refused\nrefused\nrefused\n"


def _staged_factor(f):
    """factor's squarefree, distinct-degree and equal-degree stages with no
    degree-1 base case: the reference the base case must agree with."""
    factors = {}
    for g, mult in squarefree_decomposition(f):
        for h, d in _distinct_degree(g):
            for irr in _equal_degree_split(h, d, random.Random(_seed_for(h))):
                factors[irr] = factors.get(irr, 0) + mult
    return sorted(factors.items(),
                  key=lambda gm: (gm[0].degree, _poly_key(gm[0])))


def _degree_one_codes(F):
    """(a, b) codes of a*x + b: all of them over fields of order <= 9;
    over GF(2^9), whose inverses are computed when read (a^(q-2), about
    0.2 ms each), every a with five b and every b with a = 1 and a = z."""
    if F.order <= 9:
        return itertools.product(range(1, F.order), range(F.order))
    rng = random.Random(F.order)
    pairs = {(a, b) for a in range(1, F.order)
             for b in [0, 1, a] + rng.sample(range(F.order), 2)}
    pairs |= {(a, b) for a in (1, F.gen.idx) for b in range(F.order)}
    return sorted(pairs)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2),
                                 (2, 9)])
def test_factor_degree_one_is_its_own_factor(p, e):
    F = gf(p, e)
    for a, b in _degree_one_codes(F):
        f = Poly._from_codes(F, [b, a])
        fs = factor(f)
        assert fs == [(f.monic(), 1)], f
        assert Poly._from_codes(F, [a]) * fs[0][0] == f
        if F.order <= 9:
            assert fs == _staged_factor(f), f


@pytest.mark.parametrize("p,e,degrees", [(2, 1, (2, 3, 4)), (3, 1, (2, 3, 4)),
                                         (2, 2, (2, 3))])
def test_factor_matches_the_staged_path(p, e, degrees):
    F = gf(p, e)
    for d in degrees:
        for codes in itertools.product(range(F.order), repeat=d):
            for lead in (1, F.order - 1):
                f = Poly._from_codes(F, list(codes) + [lead])
                assert factor(f) == _staged_factor(f), f
