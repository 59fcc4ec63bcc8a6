"""PGL_2(F_q) transport of degree-1 classes over F_q(t): a metamorphic
oracle for invariant tables that moves a class to other places.

sigma(t) = (a t + b)/(c t + d), ad - bc != 0, defines an automorphism of
F_q(t) over F_q.  ``transport`` applies it to every coordinate and entry of
a class and keeps each multiplicity.  ``transport_place`` sends a place v
to the place sigma(v) with ord_sigma(v)(sigma f) = ord_v(f) for every f: a
finite place P to the monic numerator of P(sigma(t)), which keeps the
degree of P unless P = t - a/c, whose image is infinity; infinity to the
zero of sigma(1/t) = (c t + d)/(a t + b), the place t + d/c.  sigma carries
the completion at v onto the completion at sigma(v), residue field and
Witt vectors with it, so inv_sigma(v)(sigma c) = inv_v(c).  With c != 0 it
swaps infinity with a finite place of degree 1, so the polar path at
infinity is checked against the finite-place path.

``check_transport`` matches the two tables place by place: each invariant
of c's reciprocity table against local_invariant of sigma c at the image
place, the nonzero entries of both tables, and the zero tests.  It reads
them through the kato module, so that a test can patch in a mutant, and an
error counts as a wrong answer.
"""

import random

from katoforge import (HClass, KatoforgeError, Place, WittVector,
                       func_field, gf, kato)
from katoforge.poly import to_dense, to_mpoly

from conftest import random_ratfunc

# (p, e, levels): the cells of the seeded classes
TRANSPORT_CELLS = [(2, 1, (1, 2, 3, 4)), (3, 1, (1, 2, 3)), (2, 2, (2,)),
                   (5, 1, (1, 2))]


def random_sigma(rng, K):
    """sigma(t) = (a t + b)/(c t + d) over K's field of constants, c != 0
    and ad - bc != 0."""
    F = K.base
    while True:
        a, b, c, d = (F.from_code(rng.randrange(F.order)) for _ in range(4))
        if c and a * d - b * c:
            break
    t = K.var("t")
    return (K.const(a) * t + K.const(b)) / (K.const(c) * t + K.const(d))


def transport(c, sigma_t):
    """sigma c: sigma applied to every coordinate and entry, each
    multiplicity kept."""
    K = c.field
    return HClass(K, c.degree, c.level, {
        (WittVector(w.p, [a.map_to(K, [sigma_t]) for a in w.coords]),
         tuple(b.map_to(K, [sigma_t]) for b in entries)): m
        for (w, entries), m in c.terms.items()})


def transport_place(place, sigma_t):
    """sigma(v) for the place v (module docstring)."""
    K = sigma_t.field
    if place.is_infinite:
        return Place.finite(to_dense((K.one / sigma_t).num), place.var)
    image = K.from_poly(to_mpoly(place.poly)).map_to(K, [sigma_t])
    num = to_dense(image.num)
    if num.degree < place.poly.degree:
        return Place.infinity()
    return Place.finite(num, place.var)


def transport_classes(count, seed):
    """[(c, sigma_t)]: count seeded classes per level of each cell, each
    with its own sigma.  Half are one symbol whose entry has a square
    factor, so that the normal form keeps a multiplicity 2 or folds it;
    half are the sum of two symbols, one taken a random number of times."""
    rng = random.Random(seed)
    out = []
    for p, e, levels in TRANSPORT_CELLS:
        K = func_field(gf(p, e), ("t",))

        def rf(nonzero=False):
            r = random_ratfunc(rng, K, max_deg=2, max_terms=2)
            while nonzero and r.is_zero():
                r = random_ratfunc(rng, K, max_deg=2, max_terms=2)
            return r
        for level in levels:
            for n in range(count):
                w = WittVector(p, tuple(rf() for _ in range(level)))
                if n % 2:
                    v = WittVector(p, tuple(rf() for _ in range(level)))
                    c = (HClass.build(K, w, (rf(True),))
                         + HClass.build(K, v, (rf(True),)).int_mul(
                             rng.randrange(1, p ** level)))
                else:
                    c = HClass.build(K, w, (rf(True) ** 2 * rf(True),))
                out.append((c, random_sigma(rng, K)))
    return out


def check_transport(pairs):
    """AssertionError unless, for each (c, sigma_t), every invariant of c's
    reciprocity table equals local_invariant of sigma c at the image
    place, the nonzero entries of sigma c's table are exactly those images,
    and h_zero_test answers alike on c and sigma c, as the table says;
    some tables have a nonzero entry and some classes a multiplicity
    other than 1."""
    nonzero = multiple = 0
    for c, sigma_t in pairs:
        moved = transport(c, sigma_t)
        want = {}
        try:
            for inv in kato.reciprocity_check(c)[1]:
                image = transport_place(inv.place, sigma_t)
                got = kato.local_invariant(moved, image).value
                assert got == inv.value, (c, sigma_t, inv.place)
                if inv.value:
                    want[repr(image)] = inv.value
            table = kato.reciprocity_check(moved)[1]
            zero = [kato.h_zero_test(moved), kato.h_zero_test(c)]
        except KatoforgeError as exc:
            raise AssertionError(f"{c!r} under {sigma_t!r}: {exc!r}")
        assert {repr(inv.place): inv.value for inv in table
                if inv.value} == want, (c, sigma_t)
        assert zero == [not want] * 2, (c, sigma_t)
        nonzero += bool(want)
        multiple += any(m != 1 for m in c.terms.values())
    assert nonzero and multiple
