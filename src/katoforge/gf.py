"""Exact arithmetic in GF(p^e).

Elements are coefficient vectors over Z/p in the power basis of a generator
``z`` that satisfies the canonical modulus: the lexicographically least monic
irreducible polynomial of degree e, ordered by the coefficient sequence
(c_0, ..., c_{e-1}).  That choice needs no tables and is reproducible; the
search tests candidates with ``poly.is_irreducible`` over GF(p).

Every element also has an integer code sum c_i p^i in [0, p^e).  The
field's operation tables on codes (add, mul, neg, inv and Frobenius) are the
one definition of GFElem arithmetic, for every field size.  A field of at
most 256 elements stores them as lists, built from the powers of a primitive
element; a larger field computes each entry when it is read: a product is
``_digit_mul``, the schoolbook product of the two digit vectors on plain
ints, folded down by the modulus and reduced mod p once (the Galois ring
product is the same function mod p^i), and an inverse is a^(q-2) by binary
powering.  ``GF.tables`` gives (add, mul, neg, inv), so code-level kernels
such as ``Poly`` and the GCDs in ``mpoly`` run on the same tables.

Everything is immutable; a ``GF`` object is both the configuration and the
element factory.
"""

from functools import lru_cache
from itertools import product

from .errors import (ConfigMismatch, DivisionByZero, IntegralityViolation,
                     NonPrime, ResourceLimit)
from .poly import Poly, is_irreducible
from .power import binary_power

_MAX_FIELD_ORDER = 2 ** 24


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _canonical_modulus(p, e):
    """First monic irreducible of degree e in lex order of (c_0..c_{e-1})."""
    if e == 1:
        return (0, 1)
    Fp = gf(p)
    # c_0 = 0 makes x a factor; codes of GF(p) are the residues themselves
    for tail in product(range(1, p), *[range(p)] * (e - 1)):
        if is_irreducible(Poly._from_codes(Fp, list(tail) + [1])):
            return tail + (1,)
    raise ResourceLimit(f"no irreducible of degree {e} over GF({p})")


_TABLE_MAX_ORDER = 256     # operation tables up to this field size
_INTERN_MAX_ORDER = 65536  # one object per element up to this field size
_MIXED = "elements of different fields"


def _code(coeffs, p):
    """The code sum c_i p^i of a coefficient vector (c_0, ..., c_{e-1})."""
    c = 0
    for d in reversed(coeffs):
        c = c * p + d
    return c


def _digit_mul(a, b, modulus, m):
    """The digits of a * b in (Z/m)[z] / (modulus): a and b are length-e
    digit vectors and modulus the e + 1 integer coefficients of a monic
    polynomial.  Schoolbook product, then the terms of degree >= e are
    folded down from the top; digits are reduced mod m once, at the end.
    GF(p^e) products (m = p) and Galois ring products (m = p^i) run here."""
    e = len(a)
    res = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] += ai * bj
    for top in range(2 * e - 2, e - 1, -1):
        lead = res[top] % m
        if lead:
            off = top - e
            for j in range(e):
                res[off + j] -= lead * modulus[j]
    return [c % m for c in res[:e]]


def _digits(code, p, e):
    """The coefficient vector of a code, as a list of e digits."""
    out = []
    for _ in range(e):
        code, d = divmod(code, p)
        out.append(d)
    return out


class _Computed:
    """Read-only table whose entry i is entry(i), computed when read."""

    __slots__ = ("entry",)

    def __init__(self, entry):
        self.entry = entry

    def __getitem__(self, i):
        return self.entry(i)


class GFElem:
    """Element of GF(p^e) as a coefficient tuple in the power basis of z.

    ``idx`` is the element's code sum c_i p^i, an int in [0, p^e).  Every
    ring operation is a read of the field's code tables, stored or computed
    (see ``GF``).  Elements of small fields are interned (one object per
    value); everything stays immutable either way.
    """

    __slots__ = ("field", "coeffs", "idx", "_hash", "_nonzero")

    def __init__(self, field, coeffs, idx):
        self.field = field
        self.coeffs = coeffs
        self.idx = idx
        self._hash = hash((id(field), coeffs))
        self._nonzero = any(coeffs)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, GFElem) and self.field is other.field
                and self.idx == other.idx)

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return self._nonzero

    def __add__(self, other):
        F = self.field
        if not isinstance(other, GFElem) or other.field is not F:
            raise ConfigMismatch(_MIXED)
        return F._elems[F._add_table[self.idx][other.idx]]

    def __sub__(self, other):
        F = self.field
        if not isinstance(other, GFElem) or other.field is not F:
            raise ConfigMismatch(_MIXED)
        return F._elems[F._add_table[self.idx][F._neg_table[other.idx]]]

    def __neg__(self):
        F = self.field
        return F._elems[F._neg_table[self.idx]]

    def __mul__(self, other):
        F = self.field
        if isinstance(other, int):
            # the code of an element of the prime field is its value
            b = other % F.p
        elif isinstance(other, GFElem) and other.field is F:
            b = other.idx
        else:
            raise ConfigMismatch(_MIXED)
        return F._elems[F._mul_table[self.idx][b]]

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, GFElem) or other.field is not self.field:
            raise ConfigMismatch(_MIXED)
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return binary_power(self, n) if n else self.field.one

    def inverse(self):
        if not self:
            raise DivisionByZero("inverse of zero")
        F = self.field
        return F._elems[F._inv_table[self.idx]]

    def frobenius(self):
        F = self.field
        return F._elems[F._frob_table[self.idx]]

    def __repr__(self):
        return self.field.format_elem(self)


class GF:
    """Configuration of GF(p^e) with the canonical modulus.

    ``tables`` is (add, mul, neg, inv) on element codes: add[a][b] is the
    code of a + b, mul[a][b] of a * b, neg[a] of -a and inv[a] of 1/a (a
    nonzero).  With ``_frob_table`` (the code of a^p) and ``_elems`` (the
    element of a code) they are the one definition of GFElem arithmetic.
    Up to _TABLE_MAX_ORDER elements they are lists, built once; past it
    each entry is computed when it is read.  Only ``__init__`` tells the
    two apart.
    """

    def __init__(self, p, e=1):
        if e < 1:
            raise ResourceLimit(f"extension degree must be >= 1, got {e}")
        if p ** e > _MAX_FIELD_ORDER:   # before is_prime, which is slow there
            raise ResourceLimit(f"field order {p}^{e} exceeds the bound")
        if not is_prime(p):
            raise NonPrime(p)
        self.p = p
        self.e = e
        self.digit_modulus = p  # coefficients live in Z/p
        self.order = p ** e
        self.modulus = _canonical_modulus(p, e)
        self._interned = {} if self.order <= _INTERN_MAX_ORDER else None
        self.zero = self._make((0,) * e)
        self.one = self._make((1,) + (0,) * (e - 1))
        self.gen = self._make(tuple(1 if i == 1 else 0 for i in range(e))) \
            if e > 1 else self.one
        if self.order <= _TABLE_MAX_ORDER:
            self._build_tables()
        else:
            self._elems = _Computed(
                lambda c: self._make(tuple(_digits(c, p, e))))
            self._add_table = _Computed(lambda a: _Computed(
                lambda b: self._code_add(a, b)))
            self._mul_table = _Computed(lambda a: _Computed(
                lambda b: self._code_mul(a, b)))
            self._neg_table = _Computed(self._code_neg)
            self._inv_table = _Computed(self._code_inv)
            self._frob_table = _Computed(lambda a: self._code_pow(a, p))
        self.tables = (self._add_table, self._mul_table, self._neg_table,
                       self._inv_table)

    def _make(self, coeffs):
        if self._interned is None:
            return GFElem(self, coeffs, _code(coeffs, self.p))
        el = self._interned.get(coeffs)
        if el is None:
            el = GFElem(self, coeffs, _code(coeffs, self.p))
            self._interned[coeffs] = el
        return el

    def from_code(self, code):
        """The element whose code is sum c_i p^i = code."""
        return self._elems[code]

    # -- code arithmetic from the modulus: the tables' entries --

    def _code_add(self, a, b):
        p = self.p
        return _code([(x + y) % p for x, y in zip(_digits(a, p, self.e),
                                                  _digits(b, p, self.e))], p)

    def _code_neg(self, a):
        p = self.p
        return _code([-x % p for x in _digits(a, p, self.e)], p)

    def _code_mul(self, a, b):
        p, e = self.p, self.e
        if e == 1:
            return a * b % p
        return _code(_digit_mul(_digits(a, p, e), _digits(b, p, e),
                               self.modulus, p), p)

    def _code_pow(self, a, n):
        """The code of a^n for n >= 1, by binary powering on ``tables``."""
        mul = self.tables[1]
        return binary_power(a, n, lambda x, y: mul[x][y])

    def _code_inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return self._code_pow(a, self.order - 2)

    def _build_tables(self):
        """Code tables from a primitive element g: mul[a][b] is
        g^(log a + log b), inv and Frobenius likewise; addition is digit by
        digit, code a = a_0 + p * (a // p)."""
        p, e, q = self.p, self.e, self.order
        self._elems = [self._make(tuple(_digits(c, p, e))) for c in range(q)]
        digit_add = [[(x + y) % p for y in range(p)] for x in range(p)]
        add = digit_add
        for _ in range(e - 1):
            high = add
            add = [[digit_add[a % p][b % p] + p * high[a // p][b // p]
                    for b in range(len(high) * p)]
                   for a in range(len(high) * p)]
        self._add_table = add
        self._neg_table = [self._code_neg(a) for a in range(q)]
        for g in range(1, q):
            powers = [1]
            x = self._code_mul(1, g)
            while x != 1:
                powers.append(x)
                x = self._code_mul(x, g)
            if len(powers) == q - 1:
                break
        log = [0] * q
        for k, x in enumerate(powers):
            log[x] = k
        exp = powers + powers
        self._mul_table = [[0] * q] + [
            [0] + [exp[log[a] + log[b]] for b in range(1, q)]
            for a in range(1, q)]
        self._inv_table = [None] + [exp[q - 1 - log[a]] for a in range(1, q)]
        self._frob_table = [0] + [exp[p * log[a] % (q - 1)]
                                  for a in range(1, q)]

    def __repr__(self):
        return f"GF({self.p})" if self.e == 1 else f"GF({self.p}^{self.e})"

    def elem(self, coeffs):
        """Build an element from an int (prime subfield) or coefficient list."""
        if isinstance(coeffs, GFElem):
            if coeffs.field is not self:
                raise ConfigMismatch("element of a different field")
            return coeffs
        if isinstance(coeffs, int):
            return self._make((coeffs % self.p,) + (0,) * (self.e - 1))
        coeffs = list(coeffs)
        if len(coeffs) > self.e:
            raise ConfigMismatch("coefficient vector too long")
        coeffs += [0] * (self.e - len(coeffs))
        return self._make(tuple(c % self.p for c in coeffs))

    def elements(self):
        """All field elements, lexicographic in the coefficient sequence."""
        return map(self._make, product(range(self.p), repeat=self.e))

    def inv(self, a):
        return a.inverse()

    def trace(self, a):
        """Absolute trace to F_p, returned as an element of this field."""
        acc = self.zero
        x = a
        for _ in range(self.e):
            acc = acc + x
            x = x.frobenius()
        return acc

    def trace_int(self, a):
        """Absolute trace as an integer in {0, ..., p-1}."""
        t = self.trace(a)
        if any(t.coeffs[1:]):
            raise IntegralityViolation(f"trace {t} escaped F_{self.p}")
        return t.coeffs[0]

    def pth_root(self, a):
        """The unique b with b^p = a (inverse of Frobenius)."""
        return self.elem(a) ** (self.p ** (self.e - 1))

    def artin_schreier_solve(self, c):
        """Some x with x^p - x = c, or None.

        Solvable iff the absolute trace of c vanishes; of the p solutions the
        one with the lexicographically least coefficient sequence is returned.
        """
        if self.trace_int(c) != 0:
            return None
        # theta = z^k / Tr(z^k), the first k with Tr(z^k) != 0, has trace 1,
        # and x = sum_{0<i<e} (sum_{j<i} theta^(p^j)) c^(p^i) then has
        # x^p - x = c - theta Tr(c) = c
        for k in range(self.e):
            zk = self.elem([0] * k + [1])
            tr = self.trace_int(zk)
            if tr:
                break
        theta = zk * pow(tr, -1, self.p)
        x = s = self.zero
        cp = c
        for _ in range(1, self.e):
            s = s + theta
            theta = theta.frobenius()
            cp = cp.frobenius()
            x = x + s * cp
        # the p solutions differ by constants; least c_0 wins the lex order
        return x - self.elem(x.coeffs[0])

    def format_elem(self, a):
        if self.e == 1:
            return str(a.coeffs[0])
        terms = []
        for d in range(self.e - 1, -1, -1):
            c = a.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            else:
                var = "z" if d == 1 else f"z^{d}"
                terms.append(var if c == 1 else f"{c}*{var}")
        return "+".join(terms) if terms else "0"


@lru_cache(maxsize=None)
def _gf_cached(p, e):
    return GF(p, e)


def gf(p, e=1):
    """The canonical GF(p^e); cached so configs compare by identity."""
    return _gf_cached(p, e)
