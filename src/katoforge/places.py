"""Places of F_q(t), local expansions, and residues of rational 1-forms.

A finite place is a monic irreducible f(t); its residue field F_q[t]/(f) is
realized as the canonical GF(p, e*deg f), into which the base field maps on
element codes by ``embed.subfield_codes`` (the identity at places of degree
1), and t maps to theta + pi with theta the lexicographically least root of
f there.  The infinite place uses the substitution s = 1/t (and
dt = -s^-2 ds).

Residues are read off the exact local Laurent expansion; this stays valid for
every pole order in characteristic p (order-reduction tricks that divide by
(order - 1) do not).
"""

from functools import lru_cache

from .embed import least_root, subfield_codes
from .errors import ConfigMismatch, IntegralityViolation, UnsupportedField
from .laurent import DEFAULT_PREC, _series_div
from .poly import Poly, factor_ratfunc, is_irreducible, to_dense


class Place:
    """Finite(f) for monic irreducible f, or Infinity.

    The variable name is presentation only; identity is the polynomial."""

    __slots__ = ("poly", "var")

    def __init__(self, poly=None, var="t"):
        if poly is not None:
            if poly.is_zero() or poly.coeffs[-1] != poly.field.one:
                raise ConfigMismatch("place polynomial must be monic")
            if not is_irreducible(poly):
                raise ConfigMismatch("place polynomial must be irreducible")
        self.poly = poly
        self.var = var

    @classmethod
    def infinity(cls):
        return cls(None)

    @classmethod
    def finite(cls, poly, var="t"):
        return cls(poly.monic(), var)

    @property
    def is_infinite(self):
        return self.poly is None

    @property
    def degree(self):
        return 1 if self.is_infinite else self.poly.degree

    def __eq__(self, other):
        return isinstance(other, Place) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def sort_key(self):
        if self.is_infinite:
            return (1, 0, ())
        return (0, self.poly.degree, tuple(c.coeffs for c in self.poly.coeffs))

    def __repr__(self):
        if self.is_infinite:
            return "inf"
        from .render import format_poly
        return format_poly(self.poly, self.var)


class PlaceContext:
    """Everything needed to compute locally at one place of F_q(t)."""

    def __init__(self, field, place):
        if field.k != 1:
            raise UnsupportedField(
                "places are defined for one-variable fields only")
        self.field = field
        self.place = place
        base = field.base
        if not place.is_infinite and place.poly.field is not base:
            raise ConfigMismatch(
                f"place {place!r} is over {place.poly.field!r}, "
                f"not over {base!r}")
        from .gf import gf
        self.res_field = gf(base.p, base.e * place.degree)
        self.lift, self.drop = subfield_codes(base, self.res_field)
        self.theta = None
        if not place.is_infinite:
            self.theta = least_root(Poly._from_codes(
                self.res_field, [self.lift[c] for c in place.poly._codes]))
            if self.theta is None:
                raise IntegralityViolation(
                    "place polynomial has no root in its residue field")

    def expand(self, r, prec):
        """Local Laurent expansion of a RatFunc, to absolute precision prec."""
        if r.field is not self.field:
            raise ConfigMismatch("rational function over a different field")
        num = to_dense(r.num)
        den = to_dense(r.den)
        if self.place.is_infinite:
            shift = den.degree - num.degree
            return _series_div(num.coeffs[::-1], den.coeffs[::-1],
                               self.field.base, prec - shift).shift(shift)
        return _series_div(num.shift(self.theta, self.lift).coeffs,
                           den.shift(self.theta, self.lift).coeffs,
                           self.res_field, prec)

    def residue(self, g):
        """Residue of the 1-form g dt at this place, in the residue field."""
        if self.place.is_infinite:
            # dt = -s^-2 ds
            return -self.expand(g, 2).coeff(1)
        return self.expand(g, 1).coeff(-1)

    def trace_to_base(self, x):
        """Tr_{k(v)/F_q}, landing back in the base field."""
        q = self.field.base.order
        acc = self.res_field.zero
        y = x
        for _ in range(self.place.degree):
            acc = acc + y
            y = y ** q
        out = self.drop.get(acc.idx)
        if out is None:
            raise IntegralityViolation("trace escaped the base field")
        return self.field.base.from_code(out)


@lru_cache(maxsize=None)
def place_context(field, place):
    return PlaceContext(field, place)


def residue_at(g, place):
    """Res_place(g dt) as an element of the residue field of the place."""
    return place_context(g.field, place).residue(g)


def from_rational(r, prec=DEFAULT_PREC):
    """The expansion of a one-variable RatFunc at the place t."""
    return place_context(r.field, Place(Poly.x(r.field.base))).expand(r, prec)


def support_places(r):
    """Finite places where r has a zero or pole (parts of its factorization)."""
    var = r.field.vars[0]
    return {Place(f, var) for f, _ in factor_ratfunc(r)}


def place_order(r, place):
    """Valuation of a rational function at a place."""
    if r.is_zero():
        raise ConfigMismatch("valuation of zero is undefined")
    if place.is_infinite:
        return to_dense(r.den).degree - to_dense(r.num).degree
    out = 0
    for mp, sgn in ((r.num, 1), (r.den, -1)):
        dense = to_dense(mp)
        while True:
            q, rem = dense.divmod(place.poly)
            if not rem.is_zero():
                break
            out += sgn
            dense = q
    return out


def residue_table(g):
    """Residues of g dt at all poles plus infinity, traced down to F_q."""
    places = sorted(support_places(g), key=Place.sort_key)
    places.append(Place.infinity())
    out = []
    for pl in places:
        ctx = place_context(g.field, pl)
        out.append((pl, ctx.trace_to_base(ctx.residue(g))))
    return out
