"""The standard form by restarting the scan after every step: the tests'
oracle for ``kato.witt_standard_form``, which walks the poles of each
coordinate once, upward.

``restart_standard_form`` is the loop the library ran before: after each
step it scans coordinate j again from its valuation for the lowest pole of
order divisible by p, gives up after 10,000 steps, and lists the wild
poles in a second scan of every coordinate.  Each of its steps takes two
Witt sums, tail + [d] and then + (-[d^p]), with -[x] from
``neg_teichmuller``.  ``check_standard_form`` compares the two on the
reduced coordinates, their precisions, the wild list, and the type and
message of any error.
"""

import random

from katoforge import KatoforgeError, Laurent, ResourceLimit, WittVector, gf
from katoforge.witt import max_structure_level


def neg_teichmuller(p, a, level):
    """-[a], with no negation polynomial.  For odd p, -1 is a (p-1)-th
    root of unity, so -1 = [-1] and -[a] = [-a].  For p = 2,
    -1 = (1, 1, 1, ...), so -[a] = (a, a^2, a^4, ...) (Serre, Local Fields
    II 6)."""
    if p != 2:
        return WittVector.teichmuller(p, -a, level)
    return WittVector(p, [a ** (2 ** k) for k in range(level)])


def two_sum_step(p, tail, d):
    """The coordinates of tail + [d] - [d^p] by two Witt sums: the step
    ``restart_standard_form`` takes."""
    level = len(tail)
    return (WittVector(p, tail) + WittVector.teichmuller(p, d, level)
            + neg_teichmuller(p, d ** p, level)).coords


def restart_standard_form(w, base):
    """(reduced, wild) as ``witt_standard_form`` returns them."""
    p = w.p
    cur = w
    maxprec = max((c.prec for c in w.coords), default=4)
    for j in range(w.level):
        guard = 0
        while True:
            guard += 1
            if guard >= 10000:
                raise ResourceLimit(
                    "standard-form reduction did not terminate")
            a = cur.coords[j]
            target = None
            if not a.is_zero():
                for idx in range(a.val, 0):
                    if a.coeff(idx) and (-idx) % p == 0:
                        target = idx
                        break
            if target is None:
                break
            m = -target
            root = base.pth_root(a.coeff(target))
            d = Laurent.monomial(base, root, -(m // p),
                                 prec=maxprec + m * p + 4)
            cur = WittVector(p, cur.coords[:j]
                             + two_sum_step(p, cur.coords[j:], d))
    wild = []
    for j, a in enumerate(cur.coords):
        if not a.is_zero() and a.val < 0:
            for idx in range(a.val, 0):
                if a.coeff(idx):
                    wild.append((j, -idx))
    return cur, wild


def answer(standard_form, w, base):
    """repr of the reduced coordinates, their (val, prec) and the wild
    list, or the type and message of the KatoforgeError raised."""
    try:
        red, wild = standard_form(w, base)
    except KatoforgeError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((red.coords, [(a.val, a.prec) for a in red.coords], wild))


def standard_form_inputs(n, seed, tops=None):
    """n seeded (w, base) over GF(p^e), p in 2, 3, 5, e <= 3 (e <= 2 from
    p = 5), at levels up to 4, 3 and 2, or at the primes and top levels of
    the dict tops.  Every other vector is
    u + wp(y) + (a pole of order prime to p, one time in three), so steps
    at j > 0 occur; the rest have valuations -12..2 and precisions from
    below the valuation to 8 past the last coefficient, so some coordinates
    are zero to a negative precision, some steps leave their coordinate
    zero to precision, and some scans run past the precision and raise.
    The first input is (t^-6 + O(t^-3), t^-1 + O(t^4)) over GF(2): the step
    at t^-6 adds t^-3, which lies beyond O(t^-3)."""
    rng = random.Random(seed)
    tops = tops or {2: 4, 3: 3, 5: 2}
    F2 = gf(2)
    out = [(WittVector(2, (Laurent(F2, -6, [F2.one], -3),
                           Laurent(F2, -1, [F2.one], 4))), F2)]
    while len(out) < n:
        p = rng.choice(sorted(tops))
        F = gf(p, rng.randint(1, 3 if p < 5 else 2))
        elems = list(F.elements())
        level = rng.randint(1, min(tops[p], max_structure_level(p)))

        def series(val, size, prec):
            coeffs = [rng.choice(elems[1:])] + [rng.choice(elems)
                                                for _ in range(size - 1)]
            return Laurent(F, val, coeffs[:max(prec - val, 0)], prec)
        if len(out) % 2:
            prec = 6 + 2 * p ** level
            u = WittVector(p, [series(rng.randint(0, 2), 3, prec)
                               for _ in range(level)])
            y = WittVector(p, [series(-rng.randint(1, 2), 2, prec)
                               for _ in range(level)])
            w = u + y.wp()
            if rng.randrange(3) == 0:
                j = rng.randrange(level)
                m = rng.choice([m for m in range(1, 2 * p) if m % p])
                w = WittVector(p, [a + series(-m, 1, prec) if k == j else a
                                   for k, a in enumerate(w.coords)])
        else:
            coords = []
            for _ in range(level):
                val, size = rng.randint(-12, 2), rng.randint(1, 8)
                coords.append(series(val, size,
                                     val + size + rng.randint(-4, 8)))
            w = WittVector(p, coords)
        out.append((w, F))
    return out


def check_standard_form(inputs, standard_form):
    """AssertionError unless standard_form answers as
    ``restart_standard_form`` on every (w, base) of inputs."""
    for w, base in inputs:
        want = answer(restart_standard_form, w, base)
        assert answer(standard_form, w, base) == want, (w, want)


def check_step(step, steps):
    """AssertionError unless step gives the coordinates of ``two_sum_step``,
    with their valuations and precisions, on every (p, tail, d) of
    steps."""
    for p, tail, d in steps:
        assert step(p, tail, d) == two_sum_step(p, tail, d), (p, tail, d)
