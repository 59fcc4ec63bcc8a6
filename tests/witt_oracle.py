"""Slow oracles for two Witt fast paths.

The m-fold universal-polynomial sum is the oracle for
``WittVector.int_mul``, which takes m = p^k u as V^k F^k(u w).

``check_int_mul`` runs every residue m mod p^i, and for each also m + p^i
and m - p^i.  Over F_q(t), or any exact coordinates, the multiple equals
the sum.  Over F_q((t)) the two agree up to the lower precision, the
multiple's precision is never below the sum's, and a longer input (the same
coefficients known further) agrees with the multiple up to its precision,
so that precision is sound.

``as_solve_by_coordinates`` is the oracle for ``witt_as_solve``, which
solves F(w) - w = v in one pass through the Galois ring: it recurses on
Witt vectors, subtracting the lifted Artin-Schreier root of coordinate 0
and solving the tail one length shorter.  ``check_as_solve`` requires the two
to give identical vectors, or to raise alike.
"""

import itertools
import random

from katoforge import (IntegralityViolation, KatoforgeError, Laurent,
                       WittVector, gf)
from katoforge.witt import _finite_field


def check_int_mul(w, longer=None):
    """AssertionError unless w.int_mul(m) agrees with w + ... + w for every
    m (module docstring); longer, if given, is w known further."""
    mod = w.p ** w.level
    added = None    # the m-fold sum; None for m = 0
    for m in range(mod):
        for n in (m, m + mod, m - mod):
            got = w.int_mul(n)
            assert got.level == w.level, (n, got)
            if added is None:
                assert all(c.is_zero() for c in got.coords), (n, got)
                continue
            for x, y in zip(got.coords, added.coords):
                if not isinstance(x, Laurent):
                    assert x == y, (n, got, added)
                    continue
                assert x.prec >= y.prec, (n, got, added)
                assert x.truncate(y.prec) == y, (n, got, added)
            if longer is not None:
                for x, z in zip(got.coords, longer.int_mul(n).coords):
                    assert z.truncate(x.prec) == x, (n, got, longer)
        added = w if added is None else added + w


def as_solve_by_coordinates(v):
    """Some w with F(w) - w = v over a finite field, or None.

    Coordinate 0 is an Artin-Schreier equation; subtracting the lifted
    solution pushes the problem down the V-filtration, one length at a time.
    Each level takes the canonical Artin-Schreier root, so the answer is
    deterministic.
    """
    x0 = _finite_field(v).artin_schreier_solve(v.coords[0])
    if x0 is None:
        return None
    t = WittVector.teichmuller(v.p, x0, v.level)
    rest = v - t.wp()
    if rest.coords[0]:
        raise IntegralityViolation("coordinate 0 did not cancel")
    if v.level == 1:
        return t
    tail = WittVector(v.p, rest.coords[1:])
    w1 = as_solve_by_coordinates(tail)
    if w1 is None:
        return None
    return t + w1.vshift()


def _as_solve_answer(solve, v):
    """The coordinates solve gives for v, or the type of its error."""
    try:
        w = solve(v)
    except KatoforgeError as exc:
        return type(exc).__name__
    return None if w is None else w.coords


def check_as_solve(inputs, solve):
    """AssertionError unless solve(v) equals ``as_solve_by_coordinates(v)``
    on every v of inputs."""
    for v in inputs:
        want = _as_solve_answer(as_solve_by_coordinates, v)
        assert _as_solve_answer(solve, v) == want, (v, want)


def all_vectors(p, e, level):
    """Every vector of W_level(GF(p^e))."""
    elems = list(gf(p, e).elements())
    return [WittVector(p, c) for c in itertools.product(elems, repeat=level)]


def as_solve_inputs(n, seed):
    """n seeded vectors over GF(p^e), p <= 7, p^e <= 125, levels 1..5;
    every other one is F(y) - y for a random y, so it is solvable."""
    rng = random.Random(seed)
    fields = [(p, e) for p in (2, 3, 5, 7) for e in (1, 2, 3) if p ** e <= 125]
    out = []
    while len(out) < n:
        F = gf(*rng.choice(fields))
        elems = list(F.elements())
        level = rng.randint(1, 5)
        v = WittVector(F.p, [rng.choice(elems) for _ in range(level)])
        out.append(v.wp() if len(out) % 2 else v)
    return out
