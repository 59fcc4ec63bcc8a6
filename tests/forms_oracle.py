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
"""

from katoforge import DiffForm, dlog


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
