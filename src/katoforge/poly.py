"""Dense univariate polynomials over GF(q), with factorization.

A ``Poly`` stores a tuple of element codes (``GF.from_code``), index =
degree, trimmed so the leading code is nonzero (the zero polynomial is the
empty tuple); ``coeffs`` gives the coefficients as GFElem values.  All
arithmetic runs on the code kernels in ``mpoly`` (``_code_mul``,
``_code_divmod``, ...) over the field's ``tables``.  Factorization is
squarefree decomposition (with p-th-root descent for the inseparable step),
then distinct-degree, then equal-degree splitting seeded deterministically
from the input so identical inputs factor identically in any call order; a
polynomial of degree 1, the base case, is its own factor.

``factor`` (past the degree-1 case) and ``is_irreducible`` are memoized per
process, keyed on the immutable ``Poly``, whose hash and equality include
the field's identity, in least-recently-used caches of 1,024 entries each.
A session reads its classes at the same few places again and again: 40,000
reciprocity-table operations over ``F_q(t)`` (perfbench ``recip_global``)
make 57,473 ``factor`` calls on 382 distinct polynomials and 59,335
``is_irreducible`` calls on 49, and 14,000 small scripts (``cli_batch``)
47,493 and 33,765 calls on 136 and 10.  ``factor`` copies the cached answer
into a fresh list on every call, so a caller may change what it gets.
"""

import random
from functools import lru_cache

from .errors import (ConfigMismatch, DivisionByZero, IntegralityViolation,
                     UnsupportedField, ZeroPolynomial)
from .mpoly import (MPoly, _code_addmul, _code_divmod, _code_gcd, _code_mul,
                    _code_trim, format_mpoly)
from .power import binary_power


class Poly:
    __slots__ = ("field", "_codes")

    def __init__(self, field, coeffs):
        codes = []
        for c in coeffs:
            if getattr(c, "field", None) is not field:
                raise ConfigMismatch(f"coefficient {c!r} is not in {field!r}")
            codes.append(c.idx)
        self.field = field
        self._codes = tuple(_code_trim(codes))

    @classmethod
    def _from_codes(cls, field, codes):
        """The polynomial with the element codes in the list ``codes``."""
        f = cls.__new__(cls)
        f.field = field
        f._codes = tuple(_code_trim(codes))
        return f

    @classmethod
    def const(cls, field, c):
        return cls(field, [field.elem(c) if isinstance(c, int) else c])

    @classmethod
    def x(cls, field):
        return cls._from_codes(field, [0, 1])

    @property
    def coeffs(self):
        return tuple(map(self.field.from_code, self._codes))

    @property
    def degree(self):
        return len(self._codes) - 1

    def is_zero(self):
        return not self._codes

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field is other.field
                and self._codes == other._codes)

    def __hash__(self):
        return hash((id(self.field), self._codes))

    def _codes_of(self, other):
        if not isinstance(other, Poly) or other.field is not self.field:
            raise ConfigMismatch("polynomials over different fields")
        return other._codes

    def _times(self, c):
        """self * c for the element code c."""
        return Poly._from_codes(self.field,
                                _code_mul(self._codes, [c], self.field.tables))

    def _plus(self, other, c):
        """self + c * other for the element code c."""
        return Poly._from_codes(self.field, _code_addmul(
            self._codes, self._codes_of(other), [c], self.field.tables))

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return self._times(self.field.tables[2][1])

    def __sub__(self, other):
        return self._plus(other, self.field.tables[2][1])

    def __mul__(self, other):
        if isinstance(other, int):
            other = Poly.const(self.field, other)
        b = self._codes_of(other)
        return Poly._from_codes(self.field,
                                _code_mul(self._codes, b, self.field.tables))

    def scale(self, c):
        if c.field is not self.field:
            raise ConfigMismatch("scalar from a different field")
        return self._times(c.idx)

    def divmod(self, other):
        b = self._codes_of(other)
        if not b:
            raise DivisionByZero("polynomial division by zero")
        q, r = _code_divmod(self._codes, b, self.field.tables)
        return Poly._from_codes(self.field, q), Poly._from_codes(self.field, r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            return self
        return self._times(self.field.tables[3][self._codes[-1]])

    def gcd(self, other):
        b = self._codes_of(other)
        return Poly._from_codes(self.field,
                                _code_gcd(self._codes, b, self.field.tables))

    def derivative(self):
        mul, p = self.field.tables[1], self.field.p
        return Poly._from_codes(self.field, [mul[c][i % p] for i, c in
                                             enumerate(self._codes)][1:])

    def powmod(self, n, mod):
        if not n:
            return Poly.const(self.field, 1) % mod
        return binary_power(self % mod, n, lambda a, b: (a * b) % mod)

    def __pow__(self, n):
        return binary_power(self, n) if n else Poly.const(self.field, 1)

    def shift(self, theta, lift=None):
        """Coefficients of self(theta + pi) as a Poly over theta's field;
        the list ``lift`` maps this polynomial's coefficient codes into it
        (``embed.subfield_codes``), and without it the fields must agree."""
        F = theta.field
        if lift is None and F is not self.field:
            raise ConfigMismatch("shift into a different field")
        cs = self._codes if lift is None else [lift[c] for c in self._codes]
        T = F.tables
        lin = [theta.idx, 1]
        out = []
        for c in reversed(cs):
            out = _code_addmul([c], out, lin, T)   # out * (theta + pi) + c
        return Poly._from_codes(F, out)

    def pth_root(self):
        """For f with zero derivative, the g with g^p = f."""
        F = self.field
        p = F.p
        if any(c for i, c in enumerate(self._codes) if i % p):
            raise IntegralityViolation(f"{self!r} is not a p-th power: a "
                                       "coefficient off the p-multiples "
                                       "is nonzero")
        n = p ** (F.e - 1)
        return Poly._from_codes(F, [F._code_pow(c, n)
                                    for c in self._codes[::p]])

    def __repr__(self):
        return format_mpoly(to_mpoly(self), ("t",))


def squarefree_decomposition(f):
    """[(g_i, m_i)] with f = lc * prod g_i^{m_i}, g_i monic squarefree, coprime."""
    F = f.field
    p = F.p
    out = {}

    def add(g, mult):
        if g.degree >= 1:
            out[g] = out.get(g, 0) + mult

    def rec(f, mult):
        f = f.monic()
        if f.degree == 0:
            return
        d = f.derivative()
        if d.is_zero():
            rec(f.pth_root(), mult * p)
            return
        g = f.gcd(d)
        w = f // g          # product of factors with multiplicity prime... once each
        m = 1
        while w.degree >= 1:
            y = w.gcd(g)
            z = w // y      # factors of multiplicity exactly m
            add(z.monic(), mult * m)
            w = y
            g = g // y
            m += 1
        if g.degree >= 1:   # leftover p-th power part
            rec(g.pth_root(), mult * p)

    rec(f, 1)
    return sorted(out.items(), key=lambda gm: (gm[0].degree, _poly_key(gm[0])))


def _poly_key(f):
    return tuple(c.coeffs for c in f.coeffs)


def _distinct_degree(f):
    """f monic squarefree -> [(product of irreducibles of degree d, d)]."""
    F = f.field
    q = F.order
    res = []
    x = Poly.x(F)
    h = x
    d = 0
    while f.degree > 2 * d + 1:
        d += 1
        h = h.powmod(q, f)
        g = f.gcd(h - x)
        if g.degree >= 1:
            res.append((g.monic(), d))
            f = f // g
            h = h % f
    if f.degree >= 1:
        res.append((f.monic(), f.degree))
    return res


def _equal_degree_split(f, d, rng):
    """Split monic squarefree f, all of whose factors have degree d."""
    F = f.field
    q = F.order
    n = f.degree
    if n == d:
        return [f]
    while True:
        a = Poly._from_codes(F, [rng.randrange(q) for _ in range(n)])
        if a.degree < 1:
            continue
        g = f.gcd(a)
        if g.degree in (0, n):
            if F.p == 2:
                # trace map over GF(2^(e*d))
                t = a % f
                acc = t
                for _ in range(F.e * d - 1):
                    t = (t * t) % f
                    acc = acc + t
                g = f.gcd(acc)
            else:
                b = a.powmod((q ** d - 1) // 2, f)
                g = f.gcd(b - Poly.const(F, 1))
        if 0 < g.degree < n:
            return (_equal_degree_split(g.monic(), d, rng)
                    + _equal_degree_split((f // g).monic(), d, rng))


def _seed_for(f):
    data = (f.field.p, f.field.e) + _poly_key(f)
    return hash(data) & 0x7FFFFFFF


def factor(f):
    """Monic irreducible factors with multiplicities; prod * lc == f.

    A polynomial of degree 1 is its own factor, [(f.monic(), 1)]; any other
    goes through the squarefree, distinct-degree and equal-degree stages
    once per process while it stays among the 1,024 most recently factored
    (``_factor``; the module docstring counts how often inputs repeat).
    Each call returns the answer in a new list.  Deterministic: the
    equal-degree stage derives its RNG seed from the input.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree == 1:
        return [(f.monic(), 1)]
    return list(_factor(f))


@lru_cache(maxsize=1024)
def _factor(f):
    """factor's stages for f of degree >= 2, as a tuple."""
    factors = {}
    for g, mult in squarefree_decomposition(f):
        for h, d in _distinct_degree(g):
            # only a part with more than one factor draws random numbers
            rng = random.Random(_seed_for(h)) if h.degree > d else None
            for irr in _equal_degree_split(h, d, rng):
                factors[irr] = factors.get(irr, 0) + mult
    return tuple(sorted(factors.items(),
                        key=lambda gm: (gm[0].degree, _poly_key(gm[0]))))


@lru_cache(maxsize=1024)
def is_irreducible(f):
    """A reducible f, squarefree or not, has an irreducible factor of some
    degree d <= deg f / 2, which divides x^(q^d) - x; an irreducible f of
    degree n is prime to x^(q^d) - x for every d < n.  Memoized per process
    for the 1,024 most recently tested inputs, like ``factor``: every
    ``Place`` tests the polynomial it is built on."""
    n = f.degree
    if n < 1:
        return False
    if n > 1 and not f._codes[0]:
        return False
    f = f.monic()
    x = Poly.x(f.field)
    h = x
    for _ in range(n // 2):
        h = h.powmod(f.field.order, f)
        if f.gcd(h - x).degree >= 1:
            return False
    return True


def to_dense(mp):
    """Univariate MPoly -> dense Poly over its field."""
    if mp.nvars != 1:
        raise UnsupportedField(
            f"a dense polynomial needs one variable, not {mp.nvars}")
    out = [0] * (mp.degree_in(0) + 1)
    for e, c in mp.terms.items():
        out[e[0]] = c
    return Poly._from_codes(mp.field, out)


def to_mpoly(f):
    """Dense Poly -> univariate MPoly, the inverse of to_dense."""
    return MPoly._from_codes(f.field, 1, {(d,): c for d, c in
                                          enumerate(f._codes) if c})


def factor_ratfunc(r):
    """[(f, m)]: the monic irreducible factors f (Polys) of the numerator
    of a univariate RatFunc r with m > 0, then those of its denominator
    with m < 0, each in ``factor`` order."""
    out = []
    for mp, sgn in ((r.num, 1), (r.den, -1)):
        dense = to_dense(mp)
        if dense.degree >= 1:
            out += [(f, sgn * m) for f, m in factor(dense)]
    return out
