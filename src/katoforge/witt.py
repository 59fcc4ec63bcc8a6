"""Witt vectors of length i over characteristic-p coefficient rings.

Over rational functions and Laurent series the ring structure comes from the
universal sum/product polynomials.  They have integer coefficients and are
solved from the ghost equations w_n(X) = G_n one coordinate at a time, each
by one exact division by p^n of an integer polynomial
(IntegralityViolation otherwise, which would mean a bug).
Structures are generated at first use and memoized; no file is read or
written.  ``WittStructure.to_text`` is their text form, which the CLI's
``cache`` sub-command writes and checks.

Those coordinate universes only need +, -, * (including by int) and ** with
int exponents.  Over a finite field GF(p^e), W_i *is* the Galois ring
GR(p^i, e) (Serre, Local Fields II 5-6): every operation on GFElem
coordinates runs there through the canonical digit isomorphism, so it is not
bounded by ``max_structure_level`` and generates no structures.  The
polynomials stay the tests' oracle for that engine.

On coordinates of characteristic p a term whose coefficient p divides is
zero, yet evaluating it would cost products and, on Laurent series, could
lower the tracked precision of the sum.  Evaluation therefore reads
``WittStructure.reduced``: the terms with their coefficients taken mod p,
the zero ones dropped.  The text format, its digests and the ghost checks
stay on the integer polynomials.

A Teichmueller representative [a] = (a, 0, ..., 0) is multiplicative,
and [a] (x_0, x_1, ...) = (a x_0, a^p x_1, a^(p^2) x_2, ...).  For odd p,
-1 is a (p-1)-th root of unity, so -1 = [-1] and -[a] = [-a].  For p = 2,
-1 = (1, 1, 1, ...), so -[a] = (a, a^2, a^4, ...) (Serre, Local Fields
II 6).  ``WittVector.neg_teichmuller`` builds it coordinate-wise.
"""

import operator

from .errors import (ConfigMismatch, CorruptCache, IntegralityViolation,
                     NonPrime, ResourceLimit, UnsupportedField)
from .gf import _MAX_FIELD_ORDER, GFElem, gf, is_prime
from .gring import galois_ring
from .power import binary_power

_RING_OPS = {"S": operator.add, "P": operator.mul, "D": operator.sub}
_memory_cache = {}


def set_cache_dir(path):
    """Does nothing: Witt structures are generated in memory, and no
    directory is read or written."""


# ------------------------------------------------ integer polynomials ----
# A polynomial in a_0..a_{i-1}, b_0..b_{i-1} is a dict {exponent tuple: int}
# with no zero coefficients.

def _add(f, g, c=1):
    """f + c*g."""
    out = dict(f)
    for e, v in g.items():
        v = out.get(e, 0) + c * v
        if v:
            out[e] = v
        else:
            del out[e]
    return out


def _mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(operator.add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ghost(p, polys, n):
    """w_n = sum_{j<=n} p^j polys[j]^(p^(n-j)); a partial sum when polys
    has n entries or fewer."""
    out = {}
    for j, f in enumerate(polys[:n + 1]):
        out = _add(out, binary_power(f, p ** (n - j), _mul), p ** j)
    return out


def _invert_ghost(p, targets):
    """The integer polynomials X_0, X_1, ... with ghost components
    w_n(X) = targets[n]: X_n = (G_n - sum_{j<n} p^j X_j^(p^(n-j))) / p^n,
    IntegralityViolation if a division is not exact."""
    xs = []
    for n, g in enumerate(targets):
        rest = _add(g, _ghost(p, xs, n), -1)
        q = p ** n
        if any(c % q for c in rest.values()):
            raise IntegralityViolation(
                f"ghost component {n} is not integral after division by {q}")
        xs.append({e: c // q for e, c in rest.items()})
    return xs


def _ghost_targets(p, i):
    """Ghost components of a + b, a * b and -a, each for n < i."""
    var = [{tuple(int(k == j) for k in range(2 * i)): 1} for j in range(2 * i)]
    wa = [_ghost(p, var[:i], n) for n in range(i)]
    wb = [_ghost(p, var[i:], n) for n in range(i)]
    return ([_add(x, y) for x, y in zip(wa, wb)],
            [_mul(x, y) for x, y in zip(wa, wb)],
            [_add({}, x, -1) for x in wa])


# the longest W_i whose universal polynomials are usable on F_q(t) and
# F_q((t)) coordinates.  Generation is not the limit (W_6 over F_2
# takes 2.9 s), evaluation is: at W_6 over F_2 the sums have 13,083 terms
# and the products 26,174, and one + of random F_2(t) vectors takes 3.8-10 s,
# one * 10-12 s (Python 3.11 on a 2-vCPU Xeon VM, three random pairs)
_MAX_STRUCTURE_LEVEL = {2: 5, 3: 4, 5: 3, 7: 3}

# W_2's sum polynomial has p + 1 terms and generating it costs about p^2:
# 0.35 s at p = 1021, where one + and one * of F_p(t) vectors take 1.6 s
# end to end (Python 3.11, 2-vCPU VM); past this bound only W_1 is offered
_LEVEL_2_PRIME_BOUND = 1024


def max_structure_level(p):
    """Largest supported length for universal polynomial generation."""
    return _MAX_STRUCTURE_LEVEL.get(p, 2 if p < _LEVEL_2_PRIME_BOUND else 1)


def _generate(p, i):
    """The sum, product and negation polynomials of W_i over char p."""
    return tuple(_invert_ghost(p, t) for t in _ghost_targets(p, i))


class WittStructure:
    """Universal sum/product/negation polynomials for W_i over char p."""

    def __init__(self, p, i, sums, prods, negs):
        self.p = p
        self.i = i
        self.sums = sums
        self.prods = prods
        self.negs = negs
        self._reduced = {}

    def reduced(self, tag):
        """The polynomials of tag S, P or N as evaluated in characteristic
        p: per coordinate, the (exponent, c mod p) pairs with c mod p
        nonzero, in exponent order.  Derived at first use, so generating a
        structure does not pay for it."""
        out = self._reduced.get(tag)
        if out is None:
            polys = {"S": self.sums, "P": self.prods, "N": self.negs}[tag]
            out = self._reduced[tag] = [
                [(e, c % self.p) for e, c in sorted(terms.items())
                 if c % self.p]
                for terms in polys]
        return out

    def __repr__(self):
        return f"WittStructure(p={self.p}, i={self.i})"

    def to_text(self):
        lines = [_header(self.p, self.i)]
        for tag, polys in (("S", self.sums), ("P", self.prods),
                           ("N", self.negs)):
            for n, terms in enumerate(polys):
                lines.append(f"POLY {tag} {n}")
                for e in sorted(terms):
                    lines.append(str(terms[e]) + " " + " ".join(map(str, e)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text, p, i):
        """Parse ``to_text`` output of the structure for (p, i); CorruptCache
        if it is malformed or its header names another structure."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != _header(p, i):
            raise CorruptCache(f"not a v1 structure file for p={p}, i={i}")
        polys = {"S": [None] * i, "P": [None] * i, "N": [None] * i}
        cur = None
        try:
            for ln in lines[1:]:
                parts = ln.split()
                if parts[0] == "POLY":
                    cur = polys[parts[1]][int(parts[2])] = {}
                elif len(parts) != 2 * i + 1:
                    raise CorruptCache("term line of the wrong length")
                else:
                    cur[tuple(int(x) for x in parts[1:])] = int(parts[0])
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise CorruptCache(f"unparsable structure file: {exc}") from None
        if any(t is None for ts in polys.values() for t in ts):
            raise CorruptCache("structure file lacks a polynomial")
        return cls(p, i, polys["S"], polys["P"], polys["N"])


def _header(p, i):
    return f"WITTPOLY v1 p={p} i={i}"


def _check_request(p, i):
    if p > _MAX_FIELD_ORDER:    # no field of such a characteristic exists
        raise ResourceLimit(f"characteristic {p} exceeds the bound 2^24")
    if not is_prime(p):
        raise NonPrime(p)
    if i < 1:
        raise ResourceLimit("Witt length must be >= 1")
    if i > max_structure_level(p):
        raise ResourceLimit(
            f"universal polynomials for p={p}, i={i} exceed the bound "
            f"(max i={max_structure_level(p)})")


def witt_structure(p, i):
    """The structure for W_i over char p, generated at first use."""
    _check_request(p, i)
    struct = _memory_cache.get((p, i))
    if struct is None:
        struct = _memory_cache[p, i] = WittStructure(p, i, *_generate(p, i))
    return struct


def verify_ghost_identities(p, i):
    """Exact integer-polynomial check: ghost(S) = ghost(a)+ghost(b),
    ghost(P) = ghost(a)*ghost(b), ghost(N) = -ghost(a)."""
    struct = witt_structure(p, i)
    return all(_ghost(p, polys, n) == g
               for polys, targets in zip(
                   (struct.sums, struct.prods, struct.negs),
                   _ghost_targets(p, i))
               for n, g in enumerate(targets))


# ------------------------------------------------------ witt vectors ----

def _eval_terms(terms, xs):
    """sum of c * prod_j xs[j]^e_j over the (e, c) pairs of terms, in their
    order; a product by c = 1 is skipped."""
    acc = xs[0] * 0
    powcache = [dict() for _ in xs]

    def power(j, e):
        v = powcache[j].get(e)
        if v is None:
            v = xs[j] ** e
            powcache[j][e] = v
        return v

    for e, c in terms:
        m = None
        for j, exp in enumerate(e):
            if exp:
                v = power(j, exp)
                m = v if m is None else m * v
        if m is None:
            m = xs[0] ** 0
        acc = acc + (m if c == 1 else m * c)
    return acc


class WittVector:
    __slots__ = ("p", "coords")

    def __init__(self, p, coords):
        self.p = p
        self.coords = tuple(coords)

    @property
    def level(self):
        return len(self.coords)

    @classmethod
    def teichmuller(cls, p, a, level):
        z = a * 0
        return cls(p, (a,) + (z,) * (level - 1))

    @classmethod
    def neg_teichmuller(cls, p, a, level):
        """-[a], with no negation polynomial (module docstring)."""
        if p != 2:
            return cls.teichmuller(p, -a, level)
        return cls(p, [a ** (2 ** k) for k in range(level)])

    @classmethod
    def zeros(cls, p, zero_elem, level):
        return cls(p, (zero_elem,) * level)

    def is_finite_coeffs(self):
        return all(isinstance(c, GFElem) for c in self.coords)

    def _field(self):
        return self.coords[0].field

    def _check(self, other):
        if (not isinstance(other, WittVector) or other.p != self.p
                or other.level != self.level):
            raise ConfigMismatch("incompatible Witt vectors")

    def __eq__(self, other):
        return (isinstance(other, WittVector) and self.p == other.p
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.p, self.coords))

    def __repr__(self):
        return "[" + ", ".join(repr(c) for c in self.coords) + "]"

    # -- engine dispatch --

    def _via_ring(self, op, *others):
        """op on the images in the Galois ring, mapped back."""
        R = galois_ring(_finite_field(self), self.level)
        z = op(*(w.to_galois_ring(R) for w in (self,) + others))
        return from_galois_ring(R, z, self.p, self.level)

    def _binop(self, other, tag):
        self._check(other)
        if self.is_finite_coeffs():
            return self._via_ring(_RING_OPS[tag], other)
        struct = witt_structure(self.p, self.level)
        if tag == "D":
            other, tag = -other, "S"
        xs = list(self.coords) + list(other.coords)
        return WittVector(self.p, [_eval_terms(t, xs)
                                   for t in struct.reduced(tag)])

    def __add__(self, other):
        return self._binop(other, "S")

    def __sub__(self, other):
        return self._binop(other, "D")

    def __mul__(self, other):
        if isinstance(other, int):
            return self.int_mul(other)
        return self._binop(other, "P")

    def __neg__(self):
        if self.is_finite_coeffs():
            return self._via_ring(operator.neg)
        struct = witt_structure(self.p, self.level)
        return WittVector(self.p,
                          [_eval_terms(t, list(self.coords))
                           for t in struct.reduced("N")])

    def int_mul(self, m):
        m %= self.p ** self.level   # additive order divides p^i
        if self.is_finite_coeffs():
            return self if m == 1 else self._via_ring(lambda x: x * m)
        if not m:
            return WittVector(self.p, [c * 0 for c in self.coords])
        # m = 1 does no arithmetic, but the level bound holds all the same
        _check_request(self.p, self.level)
        return binary_power(self, m, operator.add)

    # -- the standard maps --

    def frobenius(self):
        return WittVector(self.p, [c ** self.p for c in self.coords])

    def verschiebung(self):
        """V within fixed length: (0, a_0, ..., a_{i-2})."""
        z = self.coords[0] * 0
        return WittVector(self.p, (z,) + self.coords[:-1])

    def vshift(self, extra=1):
        """V into a longer vector: (0^extra, a_0, ..., a_{i-1})."""
        z = self.coords[0] * 0
        return WittVector(self.p, (z,) * extra + self.coords)

    def wp(self):
        """The Artin-Schreier-Witt operator F - id."""
        return self.frobenius() - self

    def truncate(self, level):
        return WittVector(self.p, self.coords[:level])

    # -- finite-field specific --

    def to_galois_ring(self, R=None):
        """The image in GR(p^i, e): sum p^j teich(a_j^(p^-j))."""
        F = _finite_field(self)
        R = R or galois_ring(F, self.level)
        if R.field is not F or R.length != self.level:
            raise ConfigMismatch(f"{self!r} does not live in {R!r}")
        return R.from_digits([_frobenius_power(a, -j % F.e)
                              for j, a in enumerate(self.coords)])

    def trace(self):
        """Sum of Frobenius conjugates, in W_i(F_p) inside W_i(F_q)."""
        F = _finite_field(self)
        t = int_to_witt(self.p, self.trace_int(), self.level)
        return WittVector(self.p, [F.elem(c.coeffs[0]) for c in t.coords])

    def trace_int(self):
        """The trace as an integer modulo p^level."""
        R = galois_ring(_finite_field(self), self.level)
        return R.trace_int(self.to_galois_ring(R))


def _finite_field(w):
    """The field GF(p^e) of w's coordinates; UnsupportedField otherwise."""
    if not w.coords or not w.is_finite_coeffs():
        raise UnsupportedField(
            f"{w!r} is not a Witt vector over a finite field")
    return w._field()


def _frobenius_power(a, k):
    for _ in range(k):
        a = a.frobenius()
    return a


def from_galois_ring(R, x, p, level):
    return WittVector(p, [_frobenius_power(d, j % R.e)
                          for j, d in enumerate(R.p_adic_digits(x))])


def witt_to_int(w):
    """W_i(F_p) -> Z/p^i through the digit isomorphism."""
    if _finite_field(w).e != 1:
        raise UnsupportedField(f"{w!r} does not lie over a prime field")
    return w.to_galois_ring().coeffs[0]


def int_to_witt(p, m, level):
    """Z/p^i -> W_i(F_p)."""
    R = galois_ring(gf(p), level)
    return from_galois_ring(R, R.elem(m), p, level)


def witt_as_solve(v):
    """Some w with F(w) - w = v over a finite field, or None.

    Coordinate 0 is an Artin-Schreier equation; subtracting the lifted
    solution pushes the problem down the V-filtration, one length at a time.
    Each level takes the canonical Artin-Schreier root, so the answer is
    deterministic.
    """
    x0 = _finite_field(v).artin_schreier_solve(v.coords[0])
    if x0 is None:
        return None
    t = WittVector.teichmuller(v.p, x0, v.level)
    rest = v - t.wp()
    if rest.coords[0]:
        raise IntegralityViolation("coordinate 0 did not cancel")
    if v.level == 1:
        return t
    tail = WittVector(v.p, rest.coords[1:])
    w1 = witt_as_solve(tail)
    if w1 is None:
        return None
    return t + w1.vshift()
