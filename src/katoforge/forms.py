"""Kaehler differentials of F_q(x_1..x_k) as free modules on dx_I.

The variables are a p-basis, so a degree-n form is a finite map from strictly
increasing index sets I (|I| = n) to rational-function coefficients, and all
of d, wedge, dlog, and the two Cartier directions are finite linear algebra.

cartier_inv sends f dx_I to f^p x^((p-1)1_I) dx_I; that representative is
closed, so the inverse direction is total on it.  cartier demands a closed
argument, splits every coefficient into p-th-power components, keeps the
component matching the (p-1)-pattern of its index set, and drops the rest
(which is exactly the exact part).  Fixed points of cartier among closed
forms are the logarithmic forms; the kernel is the exact forms, which gives
both the exactness test and the membership test for the span of dlog wedges.
"""

from .errors import (ConfigMismatch, DegreeOverflow, DlogOfZero, NotClosed)
from .mpoly import MPoly, mpoly_gcd
from .rational import RatFunc, _cancel, _monic_den, p_power_component
from .render import parenthesize_if_sum


class DiffForm:
    __slots__ = ("field", "degree", "terms")

    def __init__(self, field, degree, terms):
        if not (0 <= degree <= field.k):
            raise DegreeOverflow(
                f"form degree {degree} outside 0..{field.k}")
        self.field = field
        self.degree = degree
        self.terms = {I: c for I, c in terms.items() if not c.is_zero()}

    @classmethod
    def zero(cls, field, degree):
        return cls(field, degree, {})

    @classmethod
    def from_function(cls, f):
        return cls(f.field, 0, {(): f})

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if (not isinstance(other, DiffForm) or other.field is not self.field
                or other.degree != self.degree):
            raise ConfigMismatch("forms of different spaces")

    def __eq__(self, other):
        return (isinstance(other, DiffForm) and self.field is other.field
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.terms))))

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for I, c in other.terms.items():
            t[I] = t[I] + c if I in t else c
        return DiffForm(self.field, self.degree, t)

    def __neg__(self):
        return DiffForm(self.field, self.degree,
                        {I: -c for I, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        """Multiply by a rational function."""
        return DiffForm(self.field, self.degree,
                        {I: c * f for I, c in self.terms.items()})

    def wedge(self, other):
        self._check_field(other)
        n = self.degree + other.degree
        if n > self.field.k:
            raise DegreeOverflow(
                f"wedge degree {n} exceeds {self.field.k} variables")
        out = {}
        for I, c in self.terms.items():
            for J, d in other.terms.items():
                merged = _merge_indices(I, J)
                if merged is None:
                    continue
                K, sign = merged
                v = c * d * sign
                out[K] = out[K] + v if K in out else v
        return DiffForm(self.field, n, out)

    def _check_field(self, other):
        if not isinstance(other, DiffForm) or other.field is not self.field:
            raise ConfigMismatch("forms over different fields")

    def d(self):
        """Exterior derivative; top-degree forms map into the zero space."""
        F = self.field
        if self.degree >= F.k:
            return DiffForm.zero(F, F.k)
        out = DiffForm.zero(F, self.degree + 1)
        for I, c in self.terms.items():
            for j in range(F.k):
                if j in I:
                    continue
                dc = c.derivative(j)
                if dc.is_zero():
                    continue
                merged = _merge_indices((j,), I)
                if merged is None:
                    continue
                K, sign = merged
                piece = DiffForm(F, self.degree + 1, {K: dc * sign})
                out = out + piece
        return out

    def is_closed(self):
        """Whether d(self) = 0, decided without normalizing it.

        For c_I = n_I/d_I the coefficient of dx_K in d(self) is
        sum sign (d/dx_j n_I d_I - n_I d/dx_j d_I)/d_I^2 over the I, j with
        {j} + I = K; it is zero exactly when the numerator over the common
        denominator, the product of the distinct d_I^2, is.  Polynomial
        products only, no GCD."""
        F = self.field
        if self.degree >= F.k:
            return True
        parts = {}       # K -> [(signed numerator, d_I)]
        for I, c in self.terms.items():
            n, d = c.num, c.den
            for j in range(F.k):
                if j in I:
                    continue
                top = n.derivative(j) * d - n * d.derivative(j)
                if top.is_zero():
                    continue
                K, sign = _merge_indices((j,), I)
                parts.setdefault(K, []).append((top if sign > 0 else -top, d))
        for pieces in sorted(parts.values(), key=len):
            if len(pieces) == 1:
                return False
            dens = []
            for _, d in pieces:
                if d not in dens:
                    dens.append(d)
            squares = [d * d for d in dens]
            total = None
            for top, d in pieces:
                for e, sq in zip(dens, squares):
                    if e != d:
                        top = top * sq
                total = top if total is None else total + top
            if not total.is_zero():
                return False
        return True

    def cartier_inv(self):
        """Inverse Cartier: f dx_I -> f^p x^((p-1)1_I) dx_I, termwise."""
        F = self.field
        p = F.base.p
        out = {}
        for I, c in self.terms.items():
            e = tuple(p - 1 if j in I else 0 for j in range(F.k))
            mult = RatFunc(F, MPoly._from_codes(F.base, F.k, {e: 1}),
                           F.one.den, _norm=False)
            out[I] = c ** p * mult
        return DiffForm(F, self.degree, out)

    def cartier(self):
        """Cartier operator on closed forms; kernel = exact forms."""
        if not self.is_closed():
            raise NotClosed(self)
        return self._cartier_closed()

    def _cartier_closed(self):
        """cartier() for a form already known to be closed."""
        F = self.field
        p = F.base.p
        out = {}
        for I, c in self.terms.items():
            pattern = tuple(p - 1 if j in I else 0 for j in range(F.k))
            out[I] = p_power_component(c, pattern)
        return DiffForm(F, self.degree, out)

    def is_exact(self):
        """Membership in the image of d (Cartier-kernel characterization)."""
        if not self.is_closed():
            return False
        return self._cartier_closed().is_zero()

    def is_logarithmic(self):
        """Membership in the span of dlog wedges: closed + Cartier-fixed."""
        if not self.is_closed():
            return False
        return self._cartier_closed() == self

    def __repr__(self):
        if self.is_zero():
            return "0"
        F = self.field
        parts = []
        for I in sorted(self.terms):
            c = self.terms[I]
            basis = "^".join(f"d{F.vars[j]}" for j in I)
            cs = parenthesize_if_sum(repr(c))
            if not basis:
                parts.append(cs)
            elif cs == "1":
                parts.append(basis)
            else:
                parts.append(f"{cs} {basis}")
        return " + ".join(parts)


def _merge_indices(I, J):
    """The sorted concatenation of I and J and the sign of the permutation
    that sorts it; None if an index repeats."""
    if len(set(I + J)) < len(I) + len(J):
        return None
    merged = tuple(sorted(I + J))
    # sign of the permutation sorting I+J
    seq = list(I + J)
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return merged, sign


def d_of_function(f):
    """df for a rational function, as a 1-form."""
    F = f.field
    terms = {}
    for j in range(F.k):
        dc = f.derivative(j)
        if not dc.is_zero():
            terms[(j,)] = dc
    return DiffForm(F, 1, terms)


def dlog(f):
    """df/f for a nonzero rational function.

    The coefficient of dx_j is (n'd - nd')/(nd) for f = n/d, ' the partial
    in x_j.  As gcd(n, d) = 1, gcd(n'd - nd', nd) = gcd(n, n') gcd(d, d'),
    so two small GCDs put it in lowest terms."""
    if f.is_zero():
        raise DlogOfZero("dlog of zero")
    F = f.field
    n, d = f.num, f.den
    nd = n * d
    terms = {}
    for j in range(F.k):
        dn, dd = n.derivative(j), d.derivative(j)
        top = dn * d - n * dd
        if not top.is_zero():
            g = mpoly_gcd(n, dn) * mpoly_gcd(d, dd)
            num, den = _monic_den(_cancel(top, g), _cancel(nd, g))
            terms[(j,)] = RatFunc(F, num, den, _norm=False)
    return DiffForm(F, 1, terms)


def form_from_terms(field, degree, assignments):
    """Build a form from {index tuple: RatFunc}; indices get sorted with sign."""
    out = DiffForm.zero(field, degree)
    for I, c in assignments.items():
        merged = _merge_indices(I, ())
        if merged is None:
            continue
        K, sign = merged
        out = out + DiffForm(field, degree, {K: c * sign})
    return out
