"""Exact arithmetic in GF(p^e).

Elements are coefficient vectors over Z/p in the power basis of a generator
``z`` that satisfies the canonical modulus: the lexicographically least monic
irreducible polynomial of degree e, ordered by the coefficient sequence
(c_0, ..., c_{e-1}).  That choice needs no tables and is reproducible.

Everything is immutable; a ``GF`` object is both the configuration and the
element factory.
"""

from functools import lru_cache

from .errors import (ConfigMismatch, DivisionByZero, IntegralityViolation,
                     NonPrime, ResourceLimit)

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


# -- dense univariate arithmetic over Z/p, used only to build the modulus --

def _polymulmod(a, b, mod, p):
    # a, b, mod: coefficient lists over Z/p, mod monic
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    # reduce by monic mod
    dm = len(mod) - 1
    while len(res) - 1 >= dm:
        lead = res[-1]
        if lead:
            off = len(res) - 1 - dm
            for j in range(dm + 1):
                res[off + j] = (res[off + j] - lead * mod[j]) % p
        res.pop()
    while len(res) > 1 and res[-1] == 0:
        res.pop()
    return res


def _polypowmod(base, n, mod, p):
    result = [1]
    while n:
        if n & 1:
            result = _polymulmod(result, base, mod, p)
        base = _polymulmod(base, base, mod, p)
        n >>= 1
    return result


def _trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _polyrem(a, b, p):
    """a mod b over Z/p, b nonzero."""
    a, b = _trim(a), _trim(b)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and any(a):
        lead = (a[-1] * inv) % p
        off = len(a) - len(b)
        for j in range(len(b)):
            a[off + j] = (a[off + j] - lead * b[j]) % p
        a = _trim(a)
    return a


def _polygcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while any(b):
        a, b = b, _polyrem(a, b, p)
    return a


def _is_irreducible(coeffs, p):
    """Rabin test for a monic polynomial given as (c_0, ..., c_{e-1}, 1)."""
    e = len(coeffs) - 1
    if e == 1:
        return True
    if coeffs[0] == 0:
        return False
    x = [0, 1]
    # x^(p^e) == x mod f
    xq = _polypowmod(x, p ** e, list(coeffs), p)
    if _trim(xq) != x:
        return False
    # gcd(x^(p^(e/l)) - x, f) == 1 for every prime l | e
    ell = 2
    m = e
    primes = []
    while m > 1:
        if m % ell == 0:
            primes.append(ell)
            while m % ell == 0:
                m //= ell
        ell += 1
    for ell in primes:
        xr = _polypowmod(x, p ** (e // ell), list(coeffs), p)
        diff = list(xr) + [0] * max(0, 2 - len(xr))
        diff[1] = (diff[1] - 1) % p
        diff = _trim(diff)
        if not any(diff):
            return False
        if len(_polygcd(list(coeffs), diff, p)) != 1:
            return False
    return True


def _canonical_modulus(p, e):
    """First monic irreducible of degree e in lex order of (c_0..c_{e-1})."""
    if e == 1:
        return (0, 1)
    tail = [0] * e
    while True:
        coeffs = tuple(tail) + (1,)
        if _is_irreducible(list(coeffs), p):
            return coeffs
        # lex increment: (c_0, c_1, ...) with c_0 most significant
        i = e - 1
        while i >= 0 and tail[i] == p - 1:
            tail[i] = 0
            i -= 1
        if i < 0:
            raise ResourceLimit(f"no irreducible of degree {e} over GF({p})")
        tail[i] += 1


_TABLE_MAX_ORDER = 256     # pairwise operation tables up to this field size
_INTERN_MAX_ORDER = 65536  # one object per element up to this field size


class GFElem:
    """Element of GF(p^e) as a coefficient tuple in the power basis of z.

    Elements of small fields are interned (one object per value) and their
    ring operations are table lookups; everything stays immutable either way.
    """

    __slots__ = ("field", "coeffs", "idx", "_hash", "_nonzero")

    def __init__(self, field, coeffs, idx=-1):
        self.field = field
        self.coeffs = coeffs
        self.idx = idx
        self._hash = hash((id(field), coeffs))
        self._nonzero = any(coeffs)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, GFElem) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return self._nonzero

    def _check(self, other):
        if not isinstance(other, GFElem) or other.field is not self.field:
            raise ConfigMismatch("elements of different fields")

    def __add__(self, other):
        F = self.field
        t = F._add_table
        if t is not None and isinstance(other, GFElem) \
                and other.field is F:
            return t[self.idx][other.idx]
        self._check(other)
        p = F.p
        return F._make(tuple((a + b) % p for a, b in
                             zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        F = self.field
        t = F._add_table
        if t is not None and isinstance(other, GFElem) \
                and other.field is F:
            return t[self.idx][F._neg_table[other.idx].idx]
        self._check(other)
        p = F.p
        return F._make(tuple((a - b) % p for a, b in
                             zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        F = self.field
        if F._neg_table is not None:
            return F._neg_table[self.idx]
        return F._make(tuple((-a) % F.p for a in self.coeffs))

    def __mul__(self, other):
        F = self.field
        if isinstance(other, int):
            other %= F.p
            if F._mul_table is not None:
                return F._mul_table[self.idx][F._int_elems[other].idx]
            return F._make(tuple((a * other) % F.p for a in self.coeffs))
        t = F._mul_table
        if t is not None and isinstance(other, GFElem) and other.field is F:
            return t[self.idx][other.idx]
        self._check(other)
        prod = _polymulmod(list(self.coeffs), list(other.coeffs),
                           list(F.modulus), F.p)
        prod += [0] * (F.e - len(prod))
        return F._make(tuple(prod))

    __rmul__ = __mul__

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        if not self:
            raise DivisionByZero("inverse of zero")
        F = self.field
        if F._inv_table is not None:
            return F._inv_table[self.idx]
        return self ** (F.order - 2)

    def frobenius(self):
        F = self.field
        if F._frob_table is not None:
            return F._frob_table[self.idx]
        return self ** F.p

    def __repr__(self):
        return self.field.format_elem(self)


class GF:
    """Configuration of GF(p^e) with the canonical modulus."""

    def __init__(self, p, e=1):
        if not is_prime(p):
            raise NonPrime(p)
        if e < 1:
            raise ResourceLimit(f"extension degree must be >= 1, got {e}")
        if p ** e > _MAX_FIELD_ORDER:
            raise ResourceLimit(f"field order {p}^{e} exceeds the bound")
        self.p = p
        self.e = e
        self.digit_modulus = p  # coefficients live in Z/p
        self.order = p ** e
        self.modulus = _canonical_modulus(p, e)
        self._interned = {} if self.order <= _INTERN_MAX_ORDER else None
        self._add_table = self._mul_table = None
        self._neg_table = self._inv_table = self._frob_table = None
        self._int_elems = None
        self.zero = self._make((0,) * e)
        self.one = self._make((1,) + (0,) * (e - 1))
        self.gen = self._make(tuple(1 if i == 1 else 0 for i in range(e))) \
            if e > 1 else self.one
        if self.order <= _TABLE_MAX_ORDER:
            self._build_tables()

    def _make(self, coeffs):
        if self._interned is None:
            return GFElem(self, coeffs)
        el = self._interned.get(coeffs)
        if el is None:
            el = GFElem(self, coeffs, idx=len(self._interned))
            self._interned[coeffs] = el
        return el

    def _build_tables(self):
        p, e = self.p, self.e
        from itertools import product
        for tup in product(range(p), repeat=e):
            self._make(tup)
        els = sorted(self._interned.values(), key=lambda a: a.idx)
        mod = list(self.modulus)

        def mul_raw(a, b):
            prod = _polymulmod(list(a.coeffs), list(b.coeffs), mod, p)
            prod += [0] * (e - len(prod))
            return self._make(tuple(prod))

        def pow_raw(a, n):
            acc = self.one
            base = a
            while n:
                if n & 1:
                    acc = mul_raw(acc, base)
                base = mul_raw(base, base)
                n >>= 1
            return acc

        self._int_elems = [self._make((c,) + (0,) * (e - 1))
                           for c in range(p)]
        self._neg_table = [self._make(tuple((-x) % p for x in a.coeffs))
                           for a in els]
        self._inv_table = [pow_raw(a, self.order - 2) if a else None
                           for a in els]
        self._frob_table = [pow_raw(a, p) for a in els]
        self._add_table = [[self._make(tuple((x + y) % p for x, y in
                                             zip(a.coeffs, b.coeffs)))
                            for b in els] for a in els]
        self._mul_table = [[mul_raw(a, b) for b in els] for a in els]

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
        def rec(i):
            if i == self.e:
                yield ()
                return
            for c in range(self.p):
                for rest in rec(i + 1):
                    yield (c,) + rest
        for tup in rec(0):
            yield self._make(tup)

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
        return a ** (self.p ** (self.e - 1))

    def artin_schreier_solve(self, c):
        """Some x with x^p - x = c, or None.

        Solvable iff the absolute trace of c vanishes; of the p solutions the
        one with the lexicographically least coefficient sequence is returned.
        """
        if self.trace_int(c) != 0:
            return None
        # x -> x^p - x is F_p-linear; solve the e x e system over Z/p.
        basis = [self.elem([1 if i == j else 0 for i in range(self.e)])
                 for j in range(self.e)]
        cols = [(b.frobenius() - b).coeffs for b in basis]
        sol = _solve_mod_p(cols, list(c.coeffs), self.p)
        if sol is None:
            return None
        x = self.elem(sol)
        # the p solutions differ by constants; least c_0 wins the lex order
        candidates = [x + self.elem(t) for t in range(self.p)]
        return min(candidates, key=lambda v: v.coeffs)

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


def _solve_mod_p(cols, rhs, p):
    """Solve M x = rhs over Z/p where M has the given columns."""
    n = len(rhs)
    m = len(cols)
    aug = [[cols[j][i] % p for j in range(m)] + [rhs[i] % p] for i in range(n)]
    pivots = []
    row = 0
    for col in range(m):
        sel = next((r for r in range(row, n) if aug[r][col] % p), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = pow(aug[row][col], p - 2, p)
        aug[row] = [(v * inv) % p for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    for r in range(row, n):
        if aug[r][m] % p:
            return None
    x = [0] * m
    for r, col in enumerate(pivots):
        x[col] = aug[r][m]
    return x


@lru_cache(maxsize=None)
def _gf_cached(p, e):
    return GF(p, e)


def gf(p, e=1):
    """The canonical GF(p^e); cached so configs compare by identity."""
    return _gf_cached(p, e)
