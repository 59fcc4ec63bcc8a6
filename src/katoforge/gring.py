"""Galois rings: Witt vectors of finite fields in p-adic digit form.

GR(p^i, e) = (Z/p^i)[z] / (m(z)) with m the integer lift of the canonical
GF(p^e) modulus.  This is the ring of length-i Witt vectors of GF(p^e) in a
multiplication-friendly presentation: Teichmueller digits correspond to Witt
coordinates (with a Frobenius twist per position).  It is the only engine
for Witt arithmetic over finite fields (sums, products, traces), and the
coefficient ring of the lifted series in level-i local invariants.
"""

from functools import cached_property, lru_cache

from .errors import ConfigMismatch, DivisionByZero, IntegralityViolation
from .gf import GFElem, _digit_mul
from .power import binary_power


class GRElem:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def __eq__(self, other):
        return (isinstance(other, GRElem) and self.ring is other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def _check(self, other):
        if not isinstance(other, GRElem) or other.ring is not self.ring:
            raise ConfigMismatch("elements of different Galois rings")

    def __add__(self, other):
        self._check(other)
        m = self.ring.digit_modulus
        return GRElem(self.ring, tuple((a + b) % m for a, b in
                                       zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        m = self.ring.digit_modulus
        return GRElem(self.ring, tuple((a - b) % m for a, b in
                                       zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        m = self.ring.digit_modulus
        return GRElem(self.ring, tuple((-a) % m for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            m = self.ring.digit_modulus
            return GRElem(self.ring, tuple((a * other) % m for a in self.coeffs))
        self._check(other)
        return self.ring._mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.ring.inv(self) ** (-n)
        return binary_power(self, n) if n else self.ring.one

    def __repr__(self):
        return f"GR{self.coeffs}"


class GaloisRing:
    """GR(p^i, e) built over a GF(p^e) configuration."""

    def __init__(self, field, length):
        self.field = field
        self.length = length
        self.p = field.p
        self.e = field.e
        self.digit_modulus = field.p ** length  # digits live in Z/p^length
        self.modulus = tuple(int(c) for c in field.modulus)  # lifted, monic
        self.zero = GRElem(self, (0,) * self.e)
        self.one = GRElem(self, (1,) + (0,) * (self.e - 1))
        self._teich_cache = {}

    def __repr__(self):
        return f"GR({self.p}^{self.length}, {self.e})"

    def elem(self, coeffs):
        m = self.digit_modulus
        if isinstance(coeffs, int):
            return GRElem(self, (coeffs % m,) + (0,) * (self.e - 1))
        coeffs = list(coeffs) + [0] * (self.e - len(coeffs))
        return GRElem(self, tuple(c % m for c in coeffs))

    def _make(self, coeffs):
        """The element with these reduced digits (a length-e tuple)."""
        return GRElem(self, coeffs)

    def _mul(self, a, b):
        return GRElem(self, tuple(_digit_mul(a.coeffs, b.coeffs, self.modulus,
                                             self.digit_modulus)))

    def _residue(self, a):
        """a itself, if it is an element of the residue field."""
        if not isinstance(a, GFElem) or a.field is not self.field:
            raise ConfigMismatch(f"{a!r} is not an element of {self.field}")
        return a

    def _own(self, x):
        """x itself, if it is an element of this ring."""
        if not isinstance(x, GRElem) or x.ring is not self:
            raise ConfigMismatch(f"{x!r} is not an element of {self}")
        return x

    def lift(self, a):
        """Naive coefficient lift GF(p^e) -> GR (not Teichmueller)."""
        return GRElem(self, self._residue(a).coeffs)

    def reduce(self, x):
        """Reduction GR -> GF(p^e)."""
        return self.field._make(tuple(c % self.p for c in self._own(x).coeffs))

    def teich(self, a):
        """Teichmueller lift: the unique lift that is a (q-1)-th root of unity
        (or 0), computed as lift(a)^(q^length)."""
        t = self._teich_cache.get(self._residue(a).coeffs)
        if t is None:
            t = self.lift(a) ** (self.field.order ** self.length)
            self._teich_cache[a.coeffs] = t
        return t

    def inv(self, u):
        """Inverse of a unit, by Newton lifting from the residue field."""
        u0 = self.reduce(u)
        if not u0:
            raise DivisionByZero("not a unit in the Galois ring")
        x = self.lift(u0.inverse())
        two = self.one + self.one
        k = 1
        while k < self.length:
            x = x * (two - u * x)
            k *= 2
        return x

    def div_exact_p(self, x, n):
        """x / p^n for x divisible by p^n.  The result is canonical only
        modulo p^(length-n); callers must not rely on higher digits."""
        pn = self.p ** n
        if any(c % pn for c in x.coeffs):
            raise IntegralityViolation(
                f"element {x.coeffs} not divisible by p^{n}")
        m = self.digit_modulus
        return GRElem(self, tuple((c // pn) % m for c in x.coeffs))

    def trace_int(self, x):
        """The trace to Z/p^length, sum x_k Tr(z^k): the trace of
        multiplication by x on the basis 1, z, ..., z^(e-1)."""
        return sum(c * t for c, t in zip(self._own(x).coeffs,
                                         self._basis_traces)) \
            % self.digit_modulus

    @cached_property
    def _basis_traces(self):
        """Tr(z^k) for k < e: the sum over j of the z^j-coefficient of
        z^(k+j)."""
        powers = [self.one]
        if self.e > 1:
            z = self.elem([0, 1])
            for _ in range(2 * self.e - 2):
                powers.append(powers[-1] * z)
        return [sum(powers[k + j].coeffs[j] for j in range(self.e))
                % self.digit_modulus for k in range(self.e)]

    def p_adic_digits(self, x):
        """Field elements d_0..d_{length-1} with x = sum p^j teich(d_j)."""
        digits = []
        cur = x
        for j in range(self.length):
            d = self.reduce(cur)
            digits.append(d)
            if j + 1 < self.length:
                cur = self.div_exact_p(cur - self.teich(d), 1)
        return digits

    def from_digits(self, digits):
        """sum p^j teich(d_j), the inverse of p_adic_digits."""
        acc = [0] * self.e
        pj = 1
        for d in digits:
            for k, c in enumerate(self.teich(d).coeffs):
                acc[k] += pj * c
            pj *= self.p
        return self.elem(acc)


@lru_cache(maxsize=None)
def galois_ring(field, length):
    return GaloisRing(field, length)
