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

``unit_entry_inputs`` builds seeded terms (w | u) with u a unit known to
O(t^k), every other one reading 1, and ``check_unit_completions`` asks
that whenever local_invariant answers such a class, local_symbol gives the
same answer on every completion u + c t^k, known far past what it reads.
"""

import random
from collections import Counter

from katoforge import (HClass, KatoforgeError, Laurent, PrecisionExhausted,
                       WittVector, gf, laurent_field, local_invariant)
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
    raw.field, raw.degree, raw.level, raw.terms = (LF, 1, w0.level,
                                                   Counter(pairs))
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


def unit_entry_inputs(count, seed):
    """[(w, u)] over GF(2), GF(3) and GF(4)((t)) at levels 1 and 2: w with
    a pole in coordinate 0, coordinates of valuation -4..0 known to
    O(t^24), and u a unit known to O(t^k), k in 1..5, every other one
    reading 1."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        F = gf(*rng.choice([(2, 1), (3, 1), (2, 2)]))
        level = rng.choice([1, 2])

        def elem(nonzero=False):
            return F.from_code(rng.randrange(1 if nonzero else 0, F.order))
        coords = [Laurent(F, rng.randint(-4, -1) if j == 0
                          else rng.randint(-4, 0),
                          [elem(True)] + [elem() for _ in range(30)], 24)
                  for j in range(level)]
        k = rng.randint(1, 5)
        digits = [F.one] if n % 2 else [elem(True)] + [elem()
                                                      for _ in range(k - 1)]
        out.append((WittVector(F.p, coords), Laurent(F, 0, digits, k)))
    return out


def check_unit_completions(inputs):
    """AssertionError unless, on each (w, u) whose class local_invariant
    answers, local_symbol gives that answer on u + c t^k for every c of
    the residue field, with a seeded tail known to O(t^(k + 24)); some
    classes whose u reads 1 are answered and some refused."""
    rng = random.Random("unit completions")
    answered, refused = 0, 0
    for w, u in inputs:
        F, k = u.ring, u.prec
        c = HClass.build(laurent_field(F), w, (u,))
        try:
            got = local_invariant(c, _t_place(c.field)).value
        except PrecisionExhausted:
            refused += u.coeffs == (F.one,)
            continue
        answered += u.coeffs == (F.one,)
        digits = list(u.coeffs) + [F.zero] * (k - len(u.coeffs))
        for x in F.elements():
            tail = [F.from_code(rng.randrange(F.order)) for _ in range(23)]
            completion = Laurent(F, 0, digits + [x] + tail, k + 24)
            want = local_symbol(F, w.level, w.coords, completion)
            assert got == want % w.p ** w.level, (w, u, x)
    assert answered and refused
