"""Dense univariate polynomials over GF(q), with factorization.

Coefficients are GFElem values, index = degree, trimmed so the leading
coefficient is nonzero (the zero polynomial has an empty list).  Factorization
is squarefree decomposition (with p-th-root descent for the inseparable step),
then distinct-degree, then equal-degree splitting seeded deterministically
from the input so identical inputs factor identically in any call order.
"""

import random

from .errors import DivisionByZero, IntegralityViolation, ZeroPolynomial


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, field, c):
        return cls(field, [field.elem(c) if isinstance(c, int) else c])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [F.zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [F.zero] * (n - len(other.coeffs))
        return Poly(F, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        if isinstance(other, int):
            other = Poly.const(F, other)
        if self.is_zero() or other.is_zero():
            return Poly(F, [])
        res = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        res[i + j] = res[i + j] + a * b
        return Poly(F, res)

    def scale(self, c):
        return Poly(self.field, [a * c for a in self.coeffs])

    def divmod(self, other):
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly(F, []), self
        quot = [F.zero] * (dq + 1)
        inv = other.coeffs[-1].inverse()
        for k in range(dq, -1, -1):
            lead = rem[k + other.degree]
            if lead:
                c = lead * inv
                quot[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Poly(F, quot), Poly(F, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.coeffs[-1].inverse())

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self):
        F = self.field
        return Poly(F, [c * i for i, c in enumerate(self.coeffs)][1:])

    def powmod(self, n, mod):
        result = Poly.const(self.field, 1) % mod
        base = self % mod
        while n:
            if n & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            n >>= 1
        return result

    def __pow__(self, n):
        result = Poly.const(self.field, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, theta, target_field=None, embed=None):
        """Coefficients of self(theta + pi) as a Poly over theta's field."""
        F = target_field or self.field
        emb = embed or (lambda c: c)
        out = Poly(F, [])
        for c in reversed(self.coeffs):
            # out <- out * (theta + pi) + c
            shifted = Poly(F, [F.zero] + list(out.coeffs))
            out = shifted + out.scale(theta) + Poly.const(F, emb(c))
        return out

    def pth_root(self):
        """For f with zero derivative, the g with g^p = f."""
        F = self.field
        p = F.p
        if any(c for i, c in enumerate(self.coeffs) if i % p):
            raise IntegralityViolation(f"{self!r} is not a p-th power: a "
                                       "coefficient off the p-multiples "
                                       "is nonzero")
        return Poly(F, [F.pth_root(c) for c in self.coeffs[::p]])

    def reverse(self):
        return Poly(self.field, list(reversed(self.coeffs)))

    def __repr__(self):
        from .render import format_poly
        return format_poly(self, "t")


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
    elems = list(F.elements())
    while True:
        a = Poly(F, [rng.choice(elems) for _ in range(n)])
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

    Deterministic: the equal-degree stage derives its RNG seed from the input.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    factors = {}
    for g, mult in squarefree_decomposition(f):
        for h, d in _distinct_degree(g):
            rng = random.Random(_seed_for(h))
            for irr in _equal_degree_split(h, d, rng):
                factors[irr] = factors.get(irr, 0) + mult
    return sorted(factors.items(), key=lambda gm: (gm[0].degree, _poly_key(gm[0])))


def is_irreducible(f):
    """A reducible f, squarefree or not, has an irreducible factor of degree
    d <= deg f / 2, so distinct-degree splitting finds it before deg f."""
    if f.degree < 1:
        return False
    return [d for _, d in _distinct_degree(f.monic())] == [f.degree]
