"""Term-by-term oracles for the exterior derivative and the differential
symbol.

``d_termwise`` is the tests' oracle for ``DiffForm.d``, ``d_of_function``
and ``DiffForm.is_closed``: one normalized partial derivative per index
set I and variable j, taken as n'/d - (n/d) d'/d with no quotient-rule
numerator, placed at {j} + I with the sign of the sort, and summed one
piece at a time.  It shares nothing with the library's pass over
quotient-rule numerators and its common-denominator zero test but MPoly
derivatives and the normalized arithmetic of RatFunc.

``wedge_of_dlogs`` is the oracle for ``milnor.d_symbol``: every symbol
{a_1, ..., a_n} becomes dlog a_1 ^ ... ^ dlog a_n through ``forms.dlog``
and ``DiffForm.wedge``, each coefficient a normalized RatFunc product and
sum, so it shares nothing with the library's determinant path but the
normalized arithmetic of RatFunc.

``dlog_sum`` is the degree-0 and degree-1 oracle for ``milnor.d_symbol``:
c{} is the constant c and c{a} is c dlog a, with no wedge and no
determinant, and ``degree_one_sums`` gives seeded sums of such symbols.
"""

import random

from katoforge import DiffForm, MilnorElement, dlog

from conftest import random_ratfunc


def d_termwise(w):
    """The exterior derivative of w, one term c dx_I and one variable x_j
    at a time; top-degree forms map into the zero space."""
    F = w.field
    if w.degree >= F.k:
        return DiffForm.zero(F, F.k)
    out = DiffForm.zero(F, w.degree + 1)
    for I, c in w.terms.items():
        for j in range(F.k):
            if j in I:
                continue
            dn = F.from_poly(c.num.derivative(j), c.den)
            dd = F.from_poly(c.den.derivative(j), c.den)
            K = tuple(sorted(I + (j,)))
            sign = (-1) ** sum(1 for i in I if i < j)   # moves dx_j past them
            out = out + DiffForm(F, w.degree + 1, {K: (dn - c * dd) * sign})
    return out


def wedge_of_dlogs(s):
    """{a_1,...,a_n} -> dlog a_1 ^ ... ^ dlog a_n, extended additively."""
    F = s.field
    p = F.base.p
    n = s.degree
    if n > F.k:
        return DiffForm.zero(F, F.k)   # the target module is zero
    out = DiffForm.zero(F, n)
    for sym, c in s.terms.items():
        c %= p
        if c == 0:
            continue
        if not sym:        # degree 0: the empty symbol contributes c * 1
            out = out + DiffForm.from_function(F.const(c))
            continue
        if len(set(sym)) != len(sym):
            continue       # w ^ w = 0 for a 1-form w
        form = dlog(sym[0])
        for a in sym[1:]:
            form = form.wedge(dlog(a))
        out = out + form.scale(F.const(c))
    return out


def dlog_sum(s):
    """The image of an element of degree 0 or 1 read off directly: the
    constant c for c{}, and sum c dlog a over the symbols c{a}."""
    F = s.field
    out = DiffForm.zero(F, s.degree)
    for sym, c in s.terms.items():
        c %= F.base.p
        if c and sym:
            out = out + dlog(sym[0]).scale(F.const(c))
        elif c:
            out = out + DiffForm.from_function(F.const(c))
    return out


def degree_one_sums(K):
    """Twelve seeded sums over K of 1-4 symbols c{a}, c in 0..p, the
    entries drawn from six rational functions of degree at most 2, a
    constant other than 1, and 1."""
    p = K.base.p
    rng = random.Random(f"{p}:{K.base.e}:{K.k}")
    pool = [random_ratfunc(rng, K, max_deg=2) for _ in range(6)]
    pool = [a for a in pool if not a.is_zero()]
    pool += [K.const(K.base.from_code(K.base.order - 1)), K.one]
    sums = []
    for _ in range(12):
        s = MilnorElement.zero(K, 1)
        for _ in range(rng.randint(1, 4)):
            s = s + MilnorElement.symbol(K, [rng.choice(pool)],
                                         rng.randint(0, p))
        sums.append(s)
    return sums
