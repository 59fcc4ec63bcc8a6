"""Rational function fields F_q(x_1, ..., x_k) with exact arithmetic.

A RatFunc is numerator/denominator in lowest terms with the denominator
normalized graded-lex monic; zero is 0/1.  Every operand satisfies this
invariant, so arithmetic keeps it by cross-cancellation instead of taking
the GCD of the whole result (Henrici, JACM 1956; Knuth, TAOCP 2, 4.5.1):

* a product cancels gcd(n1, d2) and gcd(n2, d1); a quotient is the product
  with the inverse;
* a sum takes g = gcd(d1, d2); for g = 1 the cross sum is already in lowest
  terms, otherwise one more GCD, of the cross sum with g, finishes it;
* powers, inverses, negation, integer multiples and zero operands run no
  GCD, only the rescale that keeps the denominator monic, and a product
  with the field's ``one`` as a factor is the other factor itself.

Only construction from outside (RatFunc(field, num, den)), derivative and
the p-power components run the full normalization, one GCD of num and den;
for a component that den is x^t R S below, not f's own denominator.
Among the forms and symbols, that means DiffForm.d, the Cartier operator,
and one RatFunc per symbol and index set of a nonzero milnor.d_symbol
coefficient.  The rest does not: forms.dlog reduces (n'd - nd')/(nd), for
n/d in lowest terms, by its common factor gcd(n, n') gcd(d, d'), two small
GCDs; DiffForm.is_closed and a zero d_symbol coefficient are decided by
`_fractions_vanish`, over a common denominator by polynomial products,
with no GCD at all.  The numerator n'd - nd' of a partial derivative is
written once, in `_quotient_rule`, for RatFunc.derivative, DiffForm.d and
its closedness test, and the dlog rows of milnor.d_symbol.

The p-power decomposition f = sum_e g_e^p * x^e over e in {0..p-1}^k is the
workhorse behind the Cartier operator.  The denominator den = x^a D1 (a its
componentwise minimum exponent) is cleared by the p-th power (x^t R S)^p,
t = ceil(a/p): R = D1^(1/p), read off coefficient-wise, when every exponent
of D1 is a multiple of p, and S = D1 otherwise (the other one is 1).  The
polynomial num x^(pt - a) S^(p-1) splits coefficient-wise using p-th roots,
and each component is its part over x^t R S.  For the den = d^p of an
inverse Cartier image that takes no polynomial product, and the normalizing
GCD runs against d, not d^p.
"""

from functools import lru_cache
from itertools import product
from operator import add as _exp_add, sub as _exp_sub

from .errors import ConfigMismatch, DivisionByZero, NotConstant
from .mpoly import MPoly, exact_div, format_mpoly, mpoly_gcd
from .render import parenthesize


class FuncField:
    """Descriptor of F_q(vars); also the factory for its elements."""

    def __init__(self, base, vars):
        self.base = base
        self.vars = tuple(vars)
        self.k = len(self.vars)
        if len(set(self.vars)) != self.k:
            raise ConfigMismatch(f"repeated variable in {self.vars}")
        one = MPoly.const(base, self.k, 1)
        self.zero = RatFunc(self, MPoly.const(base, self.k, 0), one, _norm=False)
        self.one = RatFunc(self, one, one, _norm=False)

    def __repr__(self):
        return f"{self.base!r}({', '.join(self.vars)})"

    def var(self, name):
        j = self.vars.index(name)
        one = MPoly.const(self.base, self.k, 1)
        return RatFunc(self, MPoly.var(self.base, self.k, j), one, _norm=False)

    def const(self, c):
        one = MPoly.const(self.base, self.k, 1)
        return RatFunc(self, MPoly.const(self.base, self.k, c), one, _norm=False)

    def from_poly(self, num, den=None):
        one = MPoly.const(self.base, self.k, 1)
        return RatFunc(self, num, den if den is not None else one)


@lru_cache(maxsize=None)
def func_field(base, vars):
    return FuncField(base, vars)


class RatFunc:
    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den, _norm=True):
        if _norm:
            if den.is_zero():
                raise DivisionByZero("zero denominator")
            if num.is_zero():
                num = MPoly.const(field.base, field.k, 0)
                den = MPoly.const(field.base, field.k, 1)
            else:
                g = mpoly_gcd(num, den)
                if not g.is_const():   # mpoly_gcd answers monic: 1
                    num = exact_div(num, g)
                    den = exact_div(den, g)
                num, den = _monic_den(num, den)
        self.field = field
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        if not self.is_const():
            raise NotConstant(f"{self!r} is not a constant")
        return self.num.const_value()

    def _check(self, other):
        if not isinstance(other, RatFunc) or other.field is not self.field:
            raise ConfigMismatch("rational functions over different fields")

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.field is other.field
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    # Operands are in lowest terms with monic denominators, and an exact
    # quotient or a product of graded-lex monic polynomials is monic, so
    # the results below are built with _norm=False.

    def __add__(self, other):
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g = mpoly_gcd(d1, d2)
        if g.is_const():
            num, den = n1 * d2 + n2 * d1, d1 * d2
        else:
            d1g = exact_div(d1, g)
            num = n1 * exact_div(d2, g) + n2 * d1g
            g2 = mpoly_gcd(num, g)
            num, den = _cancel(num, g2), d1g * _cancel(d2, g2)
        if num.is_zero():
            return self.field.zero
        return RatFunc(self.field, num, den, _norm=False)

    def __neg__(self):
        return RatFunc(self.field, -self.num, self.den, _norm=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        if isinstance(other, int):
            num = self.num.scale(F.base.elem(other))
            if num.is_zero():
                return F.zero
            return RatFunc(F, num, self.den, _norm=False)
        self._check(other)
        if other is F.one:
            return self
        if self is F.one:
            return other
        if self.is_zero() or other.is_zero():
            return F.zero
        g1 = mpoly_gcd(self.num, other.den)
        g2 = mpoly_gcd(other.num, self.den)
        return RatFunc(F, _cancel(self.num, g1) * _cancel(other.num, g2),
                       _cancel(self.den, g2) * _cancel(other.den, g1),
                       _norm=False)

    __rmul__ = __mul__

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("division by zero rational function")
        num, den = _monic_den(self.den, self.num)
        return RatFunc(self.field, num, den, _norm=False)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc(self.field, self.num ** n, self.den ** n, _norm=False)

    def derivative(self, var):
        j = self.field.vars.index(var) if isinstance(var, str) else var
        return RatFunc(self.field, _quotient_rule(self.num, self.den, j),
                       self.den * self.den)

    def subs(self, var, value):
        """Substitute a RatFunc of the same field for a variable."""
        F = self.field
        j = F.vars.index(var) if isinstance(var, str) else var
        return self.map_to(F, [value if i == j else F.var(name)
                               for i, name in enumerate(F.vars)])

    def map_to(self, other_field, var_images):
        """Ring map sending variable i to var_images[i] (RatFuncs over
        other_field) and coefficients through identical base fields."""
        if other_field.base is not self.field.base:
            raise ConfigMismatch("different coefficient fields")
        num = _map_poly(self.num, other_field, var_images)
        den = _map_poly(self.den, other_field, var_images)
        return num / den

    def sort_key(self):
        return (self.num.sort_key(), self.den.sort_key())

    def __repr__(self):
        n = format_mpoly(self.num, self.field.vars)
        if self.den.is_const():
            return n
        d = format_mpoly(self.den, self.field.vars)
        return f"{parenthesize(n)}/{parenthesize(d, '+-*/')}"


def _monic_den(num, den):
    """(num, den) rescaled so den is graded-lex monic."""
    _, lc = den.leading()
    if lc == den.field.one:
        return num, den
    inv = lc.inverse()
    return num.scale(inv), den.scale(inv)


def _cancel(a, g):
    """a / g for a factor g (graded-lex monic) of a."""
    return a if g.is_const() else exact_div(a, g)


def _quotient_rule(num, den, j):
    """(d/dx_j num) den - num (d/dx_j den): the partial derivative of
    num/den in x_j is this over den^2."""
    return num.derivative(j) * den - num * den.derivative(j)


def _fractions_vanish(pieces, factor):
    """Whether the sum of top / prod_{k in keys} factor(k) over the pieces
    (top, keys) is zero, for nonzero tops and keys without repeats.

    It is exactly when the numerator over the common denominator, the
    product of factor(k) over the distinct keys, is: each top times the
    factors of the keys it lacks, summed.  A single piece is not zero and
    is answered before any product; polynomial products only, no GCD."""
    if len(pieces) == 1:
        return False
    keys = list(dict.fromkeys(k for _, ks in pieces for k in ks))
    factors = [factor(k) for k in keys]
    total = None
    for top, ks in pieces:
        for k, f in zip(keys, factors):
            if k not in ks:
                top = top * f
        total = top if total is None else total + top
    return total.is_zero()


def _map_poly(f, field, var_images):
    out = field.zero
    for e, c in f.terms.items():
        term = field.const(f.field.from_code(c))
        for i, exp in enumerate(e):
            if exp:
                term = term * var_images[i] ** exp
        out = out + term
    return out


def _p_power_split(f, pattern=None):
    """({e: {m: c^(1/p)}}, x^t R S): f = P / (x^t R S)^p for the polynomial
    P with the terms c x^(p m + e), c and c^(1/p) element codes, restricted
    to e == pattern when a pattern is given.

    For den = x^a D1, a the componentwise minimum exponent of den, and
    t = ceil(a / p): when every exponent of D1 is a multiple of p, D1 = R^p
    with R read off coefficient-wise and S = 1; otherwise R = 1 and S = D1.
    Then f = num x^(pt - a) S^(p-1) / (x^t R S)^p, so the component g_e of
    f is the polynomial with these terms over x^t R S.  The monomials are
    exponent shifts, and R is monic because den is.
    """
    base = f.field.base
    p = base.p
    n = p ** (base.e - 1)     # c^(1/p) = c^(p^(e-1)) in GF(p^e)
    den = f.den.terms
    a = tuple(map(min, zip(*den)))
    t = tuple(-(-x // p) for x in a)
    d1 = [(tuple(map(_exp_sub, m, a)), c) for m, c in den.items()]
    if all(x % p == 0 for m, _ in d1 for x in m):
        top = f.num.terms
        bottom = {tuple(x // p + y for x, y in zip(m, t)): base._code_pow(c, n)
                  for m, c in d1}
    else:
        S = MPoly._from_codes(base, f.field.k, dict(d1))
        top = (f.num * S ** (p - 1)).terms
        bottom = {tuple(map(_exp_add, m, t)): c for m, c in d1}
    shift = tuple(p * y - x for x, y in zip(a, t))
    parts = {}
    for mono, c in top.items():
        mono = tuple(map(_exp_add, mono, shift))
        e = tuple(x % p for x in mono)
        if pattern is None or e == pattern:
            root = tuple(x // p for x in mono)
            parts.setdefault(e, {})[root] = base._code_pow(c, n)
    return parts, MPoly._from_codes(base, f.field.k, bottom)


def p_power_decompose(f):
    """{e in {0..p-1}^k: g_e} with f = sum_e g_e^p * x^e, exactly and uniquely.

    Denominators are cleared with the p-th power (x^t R S)^p of
    `_p_power_split`: the polynomial num x^(pt - a) S^(p-1) splits
    term-by-term via p-th roots of coefficients and exponent residues, and
    each component is that part over x^t R S, normalized.
    """
    F = f.field
    parts, den = _p_power_split(f)
    return {e: RatFunc(F, MPoly._from_codes(F.base, F.k, parts.get(e, {})),
                       den)
            for e in product(range(F.base.p), repeat=F.k)}


def p_power_component(f, e):
    """The component g_e of p_power_decompose(f), computed alone."""
    F = f.field
    parts, den = _p_power_split(f, e)
    return RatFunc(F, MPoly._from_codes(F.base, F.k, parts.get(e, {})), den)

