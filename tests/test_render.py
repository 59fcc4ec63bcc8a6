"""The printed form of every value, pinned: a sha256 over the reprs of
seeded values (field elements up to GF(2^9) and GF(7^3), polynomials, their
places in three variable names, series, MPoly, RatFunc and forms, zero ones
included) and a few literal examples that show the format."""

import hashlib
import random

import pytest

from katoforge import DiffForm, Laurent, MPoly, Poly, factor, func_field, gf
from katoforge.places import Place

from conftest import random_form, random_mpoly, random_ratfunc

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]


def _printed_values():
    rng = random.Random("printed values")
    out = []
    for p, e in SMALL_FIELDS:
        out += gf(p, e).elements()
    for p, e in [(2, 9), (7, 3)]:
        F = gf(p, e)
        out += [F.from_code(rng.randrange(F.order)) for _ in range(300)]
    for p, e in SMALL_FIELDS:
        F = gf(p, e)
        elems = list(F.elements())
        out.append(Poly(F, []))
        for _ in range(20):
            f = Poly(F, [rng.choice(elems) for _ in range(rng.randint(1, 6))])
            out.append(f)
            if f.degree >= 1:
                out += [Place(g, var) for g, _ in factor(f)
                        for var in ("t", "s", "u")]
        out.append(Place.infinity())
        for val in range(-6, 4):
            size = rng.randint(0, 5)
            out.append(Laurent(F, val, [rng.choice(elems)
                                        for _ in range(size)],
                               val + size + rng.randint(0, 3)))
        out.append(Laurent.zero(F, rng.randint(-3, 5)))
        for vars in (("t",), ("x", "y")):
            K = func_field(F, vars)

            def rf():
                return random_ratfunc(rng, K, max_deg=2, max_terms=3)
            for _ in range(4):
                out += [random_mpoly(rng, F, K.k, 3, 4), rf(),
                        random_form(K, 1, rng, rf)]
            out += [DiffForm.zero(K, d) for d in range(K.k + 1)]
            if K.k == 2:
                out.append(random_form(K, 2, rng, rf))
    return out


def test_printed_values_are_pinned():
    values = _printed_values()
    text = "\n".join(map(repr, values)).encode()
    assert (len(values), hashlib.sha256(text).hexdigest()) == (
        1301,
        "971100dd0dddf40a61b1b55d43917eecf73c01dbe819c7b12b5f543e4fc91be7")


def _series(F, val, codes, prec):
    return Laurent(F, val, [F.from_code(c) for c in codes], prec)


@pytest.mark.parametrize("value,printed", [
    (gf(3, 2).from_code(7), "2*z+1"),
    (gf(2, 3).from_code(6), "z^2+z"),
    (_series(gf(2, 2), -2, [2, 0, 3], 3), "z*t^-2 + (z+1) + O(t^3)"),
    (Laurent.zero(gf(3), 4), "O(t^4)"),
    (Place(Poly(gf(2), [gf(2).one] * 3), "s"), "s^2+s+1"),
    (Poly(gf(3), [gf(3).from_code(c) for c in (2, 0, 1)]), "t^2+2"),
    (DiffForm.zero(func_field(gf(2), ("x", "y")), 2), "0 dx^dy"),
    # past 256 elements the coefficient texts are computed, not stored
    (MPoly(gf(2, 9), 2, {(2, 1): gf(2, 9).from_code(257),
                         (1, 0): gf(2, 9).from_code(2),
                         (0, 0): gf(2, 9).from_code(40)}),
     "(z^8+1)*x0^2*x1+z*x0+(z^5+z^3)"),
    (Place(Poly(gf(7, 3), [gf(7, 3).from_code(159), gf(7, 3).one]), "s"),
     "s+(3*z^2+z+5)"),
])
def test_printed_examples(value, printed):
    assert repr(value) == printed
