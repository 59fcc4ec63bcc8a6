"""Slow series arithmetic: the oracle for ``Laurent.__add__`` and for
``laurent._divide`` and its callers.

``dense_sum`` adds every slot of both operands over the whole range up to
the precision.  The inverse is its own recurrence, a quotient is a product
with the inverse, and ``series_div`` pads both polynomials to a generous
precision, divides, and truncates, checking that the padding was enough.
Expansions at places run the library's substitutions through this division,
polynomials among them; ``check_expansions`` compares ``PlaceContext.expand``
with it.
"""

from katoforge import (DivisionByZero, Laurent, Place, Poly,
                       PrecisionExhausted, is_irreducible)
from katoforge.mpoly import MPoly
from katoforge.places import place_context
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


def expansion_places(F):
    """t, t+1, the least monic irreducible quadratic over F, infinity."""
    quadratics = (Poly(F, [c0, c1, F.one]) for c1 in F.elements()
                  for c0 in F.elements())
    quadratic = next(f for f in quadratics if is_irreducible(f))
    return [Place(Poly.x(F)), Place(Poly(F, [F.one, F.one])),
            Place(quadratic), Place.infinity()]


def polynomials(rng, K):
    """Polynomials of K = F(t), denominator 1: zero, every nonzero
    constant, and two of each degree 1-4 with seeded coefficients."""
    F = K.base
    codes = range(F.order)
    out = [K.zero] + [K.const(c) for c in F.elements() if c]
    for d in range(1, 5):
        for _ in range(2):
            cs = [rng.choice(codes) for _ in range(d)]
            cs.append(rng.randrange(1, F.order))
            out.append(K.from_poly(MPoly._from_codes(
                F, 1, {(j,): c for j, c in enumerate(cs) if c})))
    return out


def check_expansions(K, rs, places):
    """AssertionError unless the expansion of each of rs at each place
    agrees with the oracle's at precisions -4, -1, 0, 1, 3 and 9, in
    valuation, coefficients and precision."""
    for r in rs:
        for pl in places:
            ctx = place_context(K, pl)
            for prec in (-4, -1, 0, 1, 3, 9):
                s = ctx.expand(r, prec)
                assert s == expand(ctx, r, prec), (r, pl, prec)
                assert s.prec == prec
