"""The Schmid-Witt residue by full ghost inversion: the tests' oracle for
``kato.local_symbol``.

Every ghost component w_n = sum_{j<=n} p^j a_j^(p^(n-j)) of the
Teichmueller-lifted coordinates pairs with dlog of the lifted entry through
the series residue; ghost inversion, with every division by a p-power
checked exact, returns a Witt vector over the residue field, and its Witt
trace is the symbol.  The library reads the top ghost component alone.

``uniform_series_inputs`` expands a global class at a place for it: every
series of a term to one generous precision, far past what the library's
exact per-coordinate rule (``kato._precision_needs``) asks for.
"""

from katoforge import WittVector
from katoforge.gring import galois_ring
from katoforge.places import place_context, place_order


def ghost_inversion_symbol(k_field, level, w_coords, b):
    """[w, b) in Z/p^level for w, b over k_field((pi))."""
    p = k_field.p
    R = galois_ring(k_field, level)
    lifted = [a.map_coeffs(R, R.teich) for a in w_coords]
    dlogb = b.map_coeffs(R, R.teich).dlog()
    rhos = []
    for n in range(level):
        g = None
        for j in range(n + 1):
            term = lifted[j] ** (p ** (n - j)) * (p ** j)
            g = term if g is None else g + term
        rhos.append((g * dlogb).coeff(-1))
    digits = []
    for n in range(level):
        acc = rhos[n]
        for j in range(n):
            acc = acc - (digits[j] ** (p ** (n - j))) * (p ** j)
        digits.append(R.div_exact_p(acc, n))   # IntegralityViolation if not
    return WittVector(p, [R.reduce(x) for x in digits]).trace_int()


def uniform_precision(level, w, b, place):
    """p^(level-1) * pole + 2 |ord b| + level + 8: one absolute precision
    for every series of the term (w | b) at the place, pole the largest
    pole order of a coordinate."""
    pole = max((max(0, -place_order(a, place))
                for a in w.coords if not a.is_zero()), default=0)
    return (w.p ** (level - 1) * pole + 2 * abs(place_order(b, place))
            + level + 8)


def uniform_series_inputs(c, place):
    """(k_field, [coord series], b series) per term m [w | b) of a
    global class, m times, every series expanded to the term's
    ``uniform_precision``."""
    ctx = place_context(c.field, place)
    for (w, (b,)), m in c.terms.items():
        prec = uniform_precision(c.level, w, b, place)
        series = (ctx.res_field, [ctx.expand(a, prec) for a in w.coords],
                  ctx.expand(b, prec))
        yield from [series] * m
