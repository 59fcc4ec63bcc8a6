"""Degree-1 classes u + wp(y) over F_q((t)) and their series residue: the
tests' oracle for the rule by which ``kato.local_invariant`` reads a term
whose poles the standard form removes off the residue field.

``unramified_terms`` builds seeded sums of 1-3 terms (u + wp(y) | t^j unit)
with u integral, y = (y_0, 0, ..) a pole of order 1 or 2 and j = +-1 or
+-2; in a wild sum every term has c t^-m, p not dividing m, added to
coordinate 0.  ``classes`` makes two classes of a sum: the normal form,
whose entries are t and units, so that ord b is 0 or 1, and the raw terms,
whose entries keep ord b = j.  ``series_residue`` is the slow path the rule
replaces: local_symbol on the unreduced coordinates of every term as
built.  ``short_standard_form_terms`` is a term known as far as the residue
reads it but short of what the standard form reads, which local_symbol
answers.  ``check_unramified`` compares an invariant function with the
oracle, an error counting as a wrong answer.
"""

import random

from katoforge import (HClass, KatoforgeError, Laurent, WittVector, gf,
                       laurent_field)
from katoforge.kato import _t_place, local_symbol


def unramified_terms(p, e, level, count, seed):
    """[(terms, wild)] over GF(p^e)((t)) at level, count of them, every
    third one wild; terms is a list of (w, b)."""
    rng = random.Random(f"{seed}:{p}:{e}:{level}")
    F = gf(p, e)
    # wp(y) has poles of order up to 2 p^level, which the standard form
    # reads about that far past t^0
    prec = 12 + 4 * p ** level
    zero = Laurent.zero(F, prec)

    def elem(nonzero=False):
        return F.from_code(rng.randrange(1 if nonzero else 0, F.order))

    def series(val, n):
        return Laurent(F, val, [elem(True)] + [elem() for _ in range(n - 1)],
                       prec)

    out = []
    for k in range(count):
        wild = k % 3 == 2
        terms = []
        for _ in range(rng.randint(1, 3)):
            u = WittVector(p, [series(rng.randint(0, 1), 3)
                               for _ in range(level)])
            y = WittVector(p, [series(-rng.randint(1, 2), 2)]
                           + [zero] * (level - 1))
            w = u + y.wp()
            if wild:
                m = rng.choice([m for m in range(1, 2 * p + 1) if m % p])
                w = WittVector(p, (w.coords[0] + series(-m, 1),)
                               + w.coords[1:])
            # ord b = 0 would read no constant term of the reduced vector
            j = rng.choice((-2, -1, 1, 2))
            terms.append((w, series(0, 4).shift(j)))
        out.append((terms, wild))
    return out


def short_standard_form_terms():
    """Over GF(2)((t)) at level 3, the one term
    [ [t^-2 + t^-1 + 1 + O(t^10), 1 + O(t^1), 1 + t + O(t^10)] | t + O(t^12) ).
    The standard form reads the coordinates to O(t^7), O(t^5), O(t^1) and
    the residue to O(t^7), O(t^1), O(t^1): coordinate 1 is known to the
    second but not to the first."""
    F = gf(2)
    o = F.one
    w = WittVector(2, (Laurent(F, -2, [o, o, o], 10), Laurent(F, 0, [o], 1),
                       Laurent(F, 0, [o, o], 10)))
    return [(w, Laurent.monomial(F, o, 1, 12))]


def classes(terms):
    """(normal, raw): the class of terms in normal form, and one whose
    terms are taken as they are."""
    w0, b0 = terms[0]
    LF = laurent_field(b0.ring)
    pairs = [(w, (b,)) for w, b in terms]
    raw = HClass.__new__(HClass)
    raw.field, raw.degree, raw.level, raw.terms = LF, 1, w0.level, tuple(pairs)
    return HClass(LF, 1, w0.level, pairs), raw


def series_residue(terms):
    """The sum of local_symbol over the (w, b) of terms, in Z/p^level."""
    w0, b0 = terms[0]
    return sum(local_symbol(b0.ring, w.level, w.coords, b)
               for w, b in terms) % w0.p ** w0.level


def check_unramified(local_invariant, sums):
    """AssertionError unless local_invariant answers the series residue on
    both classes of every list of terms in sums, with some answers
    nonzero; an error, in building the classes too, is a wrong answer."""
    wants = []
    for terms in sums:
        want = series_residue(terms)
        try:
            got = [local_invariant(c, _t_place(c.field)).value
                   for c in classes(terms)]
        except KatoforgeError as exc:
            got = f"{type(exc).__name__}: {exc}"
        assert got == [want, want], terms
        wants.append(want)
    assert any(wants)
