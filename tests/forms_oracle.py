"""The differential symbol as a wedge of dlogs: the tests' oracle for
``milnor.d_symbol``.

Every symbol {a_1, ..., a_n} becomes dlog a_1 ^ ... ^ dlog a_n through
``forms.dlog`` and ``DiffForm.wedge``, each coefficient a normalized
RatFunc product and sum, so the oracle shares nothing with the library's
determinant path but the normalized arithmetic of RatFunc.
"""

from katoforge import DiffForm, dlog


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
