"""Slow series arithmetic: the oracle for ``Laurent.__add__`` and for
``laurent._divide`` and its callers.

``dense_sum`` adds every slot of both operands over the whole range up to
the precision.  The inverse is its own recurrence, a quotient is a product
with the inverse, and ``series_div`` pads both polynomials to a generous
precision, divides, and truncates, checking that the padding was enough.
Expansions at places run the library's substitutions through this division.
"""

from katoforge import DivisionByZero, Laurent, PrecisionExhausted
from katoforge.poly import to_dense


def dense_sum(a, b):
    """a + b on a list of zeros from the lowest valuation to min(prec),
    every coefficient of both operands added in."""
    prec = min(a.prec, b.prec)
    lo = min(a.val, b.val, prec)
    out = [a.ring.zero] * (prec - lo)
    for src in (a, b):
        for j, c in enumerate(src.coeffs):
            n = src.val + j
            if n < prec:
                out[n - lo] = out[n - lo] + c
    return Laurent(a.ring, lo, out, prec)


def inverse(s):
    """1/s to relative precision prec - val, one coefficient at a time."""
    if s.is_zero():
        raise DivisionByZero("inverse of a series that is zero to precision")
    rel = s.prec - s.val
    u = s.coeffs
    inv0 = s.ring.inv(u[0])
    out = [inv0]
    for n in range(1, rel):
        acc = s.ring.zero
        for j in range(1, min(n, len(u) - 1) + 1):
            acc = acc + u[j] * out[n - j]
        out.append(-(inv0 * acc))
    return Laurent(s.ring, -s.val, out, rel - s.val)


def divide(a, b):
    return a * inverse(b)


def dlog(s):
    return divide(s.derivative(), s)


def series_div(num, den, ring, prec):
    """num(t)/den(t) through padded series, truncated to precision prec."""
    nv = next((i for i, c in enumerate(num) if c), None)
    if nv is None:
        return Laurent.zero(ring, prec)
    dv = next(i for i, c in enumerate(den) if c)
    # counted from 0 for prec < 0, so the padded divisor is never zero
    big = max(prec, 0) + 2 * dv + nv + len(num) + len(den) + 2
    q = divide(Laurent(ring, 0, num, big), Laurent(ring, 0, den, big))
    if q.prec < prec:
        raise PrecisionExhausted("the padded quotient fell short")
    return q.truncate(prec)


def expand(ctx, r, prec):
    """The expansion of r at the place of the context ctx."""
    base = ctx.field.base
    num, den = to_dense(r.num), to_dense(r.den)
    if ctx.place.is_infinite:
        shift = den.degree - num.degree
        return series_div(num.coeffs[::-1], den.coeffs[::-1], base,
                          prec - shift).shift(shift)
    return series_div(num.shift(ctx.theta, ctx.lift).coeffs,
                      den.shift(ctx.theta, ctx.lift).coeffs, ctx.res_field,
                      prec)
