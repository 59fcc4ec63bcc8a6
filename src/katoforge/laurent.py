"""Truncated Laurent series with exact precision tracking.

A series is (ring, val, coeffs, prec): the element is
sum coeffs[j] * t^(val+j) known modulo t^prec.  The leading coefficient is
nonzero; the zero-to-precision element has empty coeffs and val == prec.
Every operation records the guaranteed precision of its result and never
truncates below it; reading a coefficient at or beyond the precision raises
PrecisionExhausted.

A series is an immutable value: no operation changes its operands, coeffs
is a tuple, and equality asks for the same ring object.  So memos key on
series and hand the same series to every caller (`PlaceContext.expand`,
and the ghost terms and lifted dlogs of `kato.local_symbol`).

The coefficient ring is a GF(p^e) or a Galois ring GR(p^i, e): an element is
a length-e tuple of digits in Z/M (`coeffs`), M = `digit_modulus` (p for GF,
p^i for GR), read modulo the monic `modulus` of degree e lifted to Z.  Besides
`zero`, `one` and `inv(unit)` the ring exposes `e`, `digit_modulus`,
`modulus` and `_make(digits)`, the element with those reduced digits; the
product kernel needs nothing else.

Products are Kronecker-packed (Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", JSC 2009): every coefficient's digits go
into byte-aligned slots of one integer, 2e-1 slots per power of t, so a
series product is one bigint multiplication.  Reduction by the modulus is
e-1 more shifts and multiplications of that integer; then only the slots of
the coefficients the result keeps are unpacked and reduced mod M.  A
one-term operand c t^v is not packed: the other operand's coefficients are
cut to the product's precision, min(prec - val) over the operands, and
multiplied by c, or taken as they are when c is one, at valuation val + v.
An integer multiple m s reads m mod M: 0 gives zero to s's precision and 1
gives s, with no coefficient product.

A sum a + b is known to min(prec) and is built only over the span
[min val, min(prec, max end)) of the operands' known coefficients: the lower
operand's coefficients are copied and the other's nonzero ones added in.  An
operand that starts at or past min(prec), zero among them, leaves the other
cut to min(prec).  Zeros appear only where the spans overlap and cancel.

A power x^n over GF(p^e) with n = m p^k, k >= 1, is x^m followed by
c -> c^(p^k) on each coefficient, placed at exponents p^k (val + j): the
Frobenius is a ring map in characteristic p.  Its precision is the product
rule's over any multiplication chain, prec + (n-1) val, and only the
coefficients below it are built.  Over a Galois ring x -> x^p is not a ring
map, so powers there are products.

A quotient a/b, b with a unit leading coefficient, has valuation val a - val b
and relative precision min(prec - val) over a and b: what they determine.
`_divide`, the power-series recurrence, is the one division loop: `inverse` is
1/b, `dlog` is b'/b, and `_series_div` expands a quotient of polynomials to
exactly the precision asked for, with no padding.
"""

import sys
from array import array
from functools import lru_cache

from .errors import ConfigMismatch, DivisionByZero, PrecisionExhausted
from .gf import GF
from .power import binary_power
from .render import format_gf_coeff, format_monomial

DEFAULT_PREC = 16

# array typecodes by item size; a slot wider than the widest item is
# converted digit by digit
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}
_SWAP = sys.byteorder == "big"
# the array item size for a slot of n bytes, n <= 8
_ITEM_BYTES = [min(w for w in _TYPECODES if w >= n) for n in range(9)]


def _pack(digits, width):
    """The integer whose width-byte slots, least significant first, hold
    the digits."""
    code = _TYPECODES.get(width)
    if code is None:
        return int.from_bytes(b"".join(d.to_bytes(width, "little")
                                       for d in digits), "little")
    arr = array(code, digits)
    if _SWAP:
        arr.byteswap()
    return int.from_bytes(arr.tobytes(), "little")


def _unpack(x, count, width):
    """The lowest count width-byte slots of x >= 0, least significant first."""
    size = width * count
    buf = (x & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    code = _TYPECODES.get(width)
    if code is None:
        return [int.from_bytes(buf[i:i + width], "little")
                for i in range(0, size, width)]
    arr = array(code, buf)
    if _SWAP:
        arr.byteswap()
    return arr.tolist()


@lru_cache(maxsize=None)
def _reduction_rows(modulus, m, width):
    """z^e, ..., z^(2e-2) modulo the monic modulus and m, each packed into e
    width-byte slots."""
    e = len(modulus) - 1
    row = [-c % m for c in modulus[:e]]
    rows = []
    for _ in range(e - 1):
        rows.append(_pack(row, width))
        top = row[-1]
        row = [(lo - top * c) % m for lo, c in zip([0] + row[:-1], modulus)]
    return rows


def _packed_product(ring, a, b, n):
    """The first n coefficients of the product of two coefficient tuples.

    Power k of t owns slots k(2e-1) .. k(2e-1)+2e-2 of the product, holding
    the unreduced product of two degree-(e-1) digit polynomials.  Reducing
    by the modulus adds, for each high slot, its value times the packed
    z^(e+j) mod (modulus, M) to the low e slots of the same power; the high
    slots are never read after that.  A low
    slot then holds at most B(1 + (e-1)(M-1)) with B = min(len a, len b)
    * e * (M-1)^2, the bound on a slot of the product, so no slot carries.
    """
    a, b = a[:n], b[:n]
    e, m = ring.e, ring.digit_modulus
    step = 2 * e - 1
    bound = min(len(a), len(b)) * e * (m - 1) ** 2 * (1 + (e - 1) * (m - 1))
    width = (bound.bit_length() + 7) // 8
    if width <= 8:
        width = _ITEM_BYTES[width]
    pad = (0,) * (e - 1)
    prod = (_pack([d for c in a for d in c.coeffs + pad], width)
            * _pack([d for c in b for d in c.coeffs + pad], width))
    groups = min(n, len(a) + len(b) - 1)
    if e > 1:
        first = int.from_bytes((b"\xff" * width + bytes(width * (step - 1)))
                               * groups, "little")
        bits = 8 * width
        for j, row in enumerate(_reduction_rows(ring.modulus, m, width)):
            prod += ((prod >> (bits * (e + j))) & first) * row
    digits = [v % m for v in _unpack(prod, groups * step, width)]
    return list(map(ring._make, zip(*[digits[j::step] for j in range(e)])))


class Laurent:
    __slots__ = ("ring", "val", "coeffs", "prec")

    def __init__(self, ring, val, coeffs, prec):
        coeffs = tuple(coeffs)
        # keep the known range without its leading and trailing zeros
        end = min(len(coeffs), max(0, prec - val))
        start = 0
        while start < end and not coeffs[start]:
            start += 1
        while end > start and not coeffs[end - 1]:
            end -= 1
        self.ring = ring
        self.val = val + start if start < end else prec
        self.coeffs = coeffs[start:end]
        self.prec = prec

    @classmethod
    def zero(cls, ring, prec=DEFAULT_PREC):
        return cls(ring, prec, [], prec)

    @classmethod
    def one(cls, ring, prec=DEFAULT_PREC):
        return cls(ring, 0, [ring.one], prec)

    @classmethod
    def monomial(cls, ring, c, n, prec=DEFAULT_PREC):
        return cls(ring, n, [c], prec)

    def is_zero(self):
        """True when no nonzero coefficient is known (zero to precision)."""
        return not self.coeffs

    def coeff(self, n):
        if n >= self.prec:
            raise PrecisionExhausted(
                f"coefficient of t^{n} beyond precision O(t^{self.prec})")
        if n < self.val or n >= self.val + len(self.coeffs):
            return self.ring.zero
        return self.coeffs[n - self.val]

    def _check(self, other):
        if not isinstance(other, Laurent) or other.ring is not self.ring:
            raise ConfigMismatch("series over different coefficient rings")

    def __eq__(self, other):
        return (isinstance(other, Laurent) and self.ring is other.ring
                and self.val == other.val and self.coeffs == other.coeffs
                and self.prec == other.prec)

    def __hash__(self):
        return hash((self.val, self.coeffs, self.prec))

    def __add__(self, other):
        self._check(other)
        prec = min(self.prec, other.prec)
        # a is the operand that starts lower; an operand starting at or past
        # prec (zero among them) leaves the other one cut to prec
        a, b = (self, other) if self.val <= other.val else (other, self)
        if b.val >= prec:
            return a if a.prec == prec else a.truncate(prec)
        end = min(prec, max(a.val + len(a.coeffs), b.val + len(b.coeffs)))
        out = list(a.coeffs[:end - a.val])
        out.extend([self.ring.zero] * (end - a.val - len(out)))
        for j, c in enumerate(b.coeffs[:end - b.val], b.val - a.val):
            if c:
                out[j] = out[j] + c
        return Laurent(self.ring, a.val, out, prec)

    def __neg__(self):
        return Laurent(self.ring, self.val, [-c for c in self.coeffs],
                       self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other %= self.ring.digit_modulus
            if not other:
                return Laurent.zero(self.ring, self.prec)
            if other == 1:
                return self
            return Laurent(self.ring, self.val,
                           [c * other for c in self.coeffs], self.prec)
        self._check(other)
        # sound precision: min over operands of (own precision + other's val)
        prec = min(self.prec + other.val, other.prec + self.val)
        if self.is_zero() or other.is_zero():
            return Laurent.zero(self.ring, prec)
        lo = self.val + other.val
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # c t^v: scale the other operand, or shift it when c is one
            c = b[0]
            a = a[:prec - lo]
            return Laurent(self.ring, lo,
                           a if c == self.ring.one else [x * c for x in a],
                           prec)
        return Laurent(self.ring, lo,
                       _packed_product(self.ring, a, b, prec - lo), prec)

    __rmul__ = __mul__

    def shift(self, n):
        """Multiply by t^n."""
        return Laurent(self.ring, self.val + n, self.coeffs, self.prec + n)

    def inverse(self):
        return Laurent.one(self.ring, self.prec - self.val) / self

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("division by a series zero to precision")
        val = self.val - other.val
        rel = min(self.prec - self.val, other.prec - other.val)
        return Laurent(self.ring, val,
                       _divide(self.ring, self.coeffs, other.coeffs, rel),
                       val + rel)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return Laurent.one(self.ring, prec=max(self.prec - self.val, 1))
        if self.is_zero():
            return Laurent.zero(self.ring, n * self.prec)
        ring = self.ring
        if not isinstance(ring, GF) or n % ring.p:
            return binary_power(self, n)
        # n = m q with q = p^k: the m-th power, then c -> c^q on each
        # coefficient, spread q apart; the product rule's precision
        prec = self.prec + (n - 1) * self.val
        m, k = n, 0
        while m % ring.p == 0:
            m //= ring.p
            k += 1
        q = n // m
        base = binary_power(self, m)
        val = q * base.val
        # the coefficients at val + q j below prec
        coeffs = base.coeffs[:-((val - prec) // q)]
        # c^(p^e) = c in GF(p^e)
        for _ in range(k % ring.e):
            coeffs = [c.frobenius() for c in coeffs]
        out = [ring.zero] * ((len(coeffs) - 1) * q + 1)
        out[::q] = coeffs
        return Laurent(ring, val, out, prec)

    def derivative(self):
        coeffs = [c * (self.val + j) for j, c in enumerate(self.coeffs)]
        return Laurent(self.ring, self.val - 1, coeffs, self.prec - 1)

    def dlog(self):
        """d(self)/self; valuation contributes val * t^-1."""
        return self.derivative() / self

    def truncate(self, prec):
        if prec > self.prec:
            raise PrecisionExhausted(
                f"cannot extend precision O(t^{self.prec}) to O(t^{prec})")
        return Laurent(self.ring, self.val, self.coeffs, prec)

    def map_coeffs(self, ring, fn):
        return Laurent(ring, self.val, [fn(c) for c in self.coeffs],
                       self.prec)

    def __repr__(self):
        return " + ".join([format_monomial(format_gf_coeff(c),
                                           (self.val + j,), ("t",))
                           for j, c in enumerate(self.coeffs) if c]
                          + [f"O(t^{self.prec})"])


def _divide(ring, num, den, count):
    """The first count coefficients of num/den, den[0] a unit: q_n = den[0]^-1
    (num[n] - sum_{1<=j<=min(n, deg den)} den[j] q_(n-j)), num[n] = 0 past
    its end (von zur Gathen-Gerhard, Modern Computer Algebra, 9.1)."""
    inv0 = ring.inv(den[0])
    out = []
    for n in range(count):
        s = num[n] if n < len(num) else ring.zero
        for j in range(1, min(n, len(den) - 1) + 1):
            s = s - den[j] * out[n - j]
        out.append(inv0 * s)
    return out


def _series_div(num, den, ring, prec):
    """num(t)/den(t) for coefficient lists over a field, to precision prec."""
    nv = next((i for i, c in enumerate(num) if c), None)
    if nv is None:
        return Laurent.zero(ring, prec)
    dv = next(i for i, c in enumerate(den) if c)
    val = nv - dv
    return Laurent(ring, val, _divide(ring, num[nv:], den[dv:], prec - val),
                   prec)
