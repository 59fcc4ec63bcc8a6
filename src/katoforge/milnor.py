"""Milnor symbols mod p and the differential symbol normal form.

A MilnorElement is a formal integer combination of symbols {a_1,...,a_n}.
Equality is decided modulo p by comparing differential-symbol images
dlog a_1 ^ ... ^ dlog a_n exactly; the symbol map is injective mod p with
image the logarithmic forms, so this comparison is a sound and complete
normal form for k_n = K_n/p (integral equality is not decidable here).

The image is a determinant: for a_i = n_i/d_i and
T_a[j] = (d/dx_j n) d - n (d/dx_j d), rational's one quotient-rule
numerator, the coefficient of dx_K in dlog a_1 ^ ... ^ dlog a_n is
det(T_{a_i}[K_j]) / prod n_i d_i.  d_symbol takes these determinants as
polynomials, and decides whether a sum of symbols vanishes at K with the
one common-denominator zero test, rational._fractions_vanish, which
DiffForm.is_closed uses too, so a zero image (a Steinberg or bilinearity
relation, kn_equal on equal elements) runs no GCD; only nonzero
coefficients are normalized.

symbol_expand is a k_n-level normalization: bilinearity splits entries along
a fixed factorization strategy (univariate entries factor into irreducibles,
multivariate entries shed their constant and monomial parts), Steinberg pairs
a + b = 1 drop, repeated slots drop ({a,a} = {-1,a} and -1 = (-1)^p, so such
symbols die mod p in every characteristic), and constant entries drop because
every constant of F_q is a p-th power.  Coefficients come out reduced mod p.
The same expansion (multilinear_expansion over _entry_factors) normalizes
the entries of kato's Witt-symbol classes.

The cyclic extensions are the rational Artin-Schreier ones: L = F_q(u) over
F = F_q(t) with t = u^p - u and sigma(u) = u + 1, so all differential-form
machinery applies verbatim over L.
"""

from itertools import combinations

from .errors import (ConfigMismatch, DegreeMismatch, DlogOfZero,
                     IntegralityViolation, NormShapeUnsupported,
                     UnsupportedField)
from .forms import DiffForm
from .mpoly import MPoly
from .poly import factor_ratfunc, to_dense, to_mpoly
from .rational import RatFunc, _fractions_vanish, _quotient_rule, func_field


class MilnorElement:
    __slots__ = ("field", "degree", "terms")

    def __init__(self, field, degree, terms):
        self.field = field
        self.degree = degree
        self.terms = {s: c for s, c in terms.items() if c}

    @classmethod
    def _from_terms(cls, field, degree, terms):
        """The element whose terms are the dict ``terms`` of nonzero
        coefficients, taken as it is."""
        x = cls.__new__(cls)
        x.field = field
        x.degree = degree
        x.terms = terms
        return x

    @classmethod
    def symbol(cls, field, entries, coeff=1):
        entries = tuple(entries)
        for a in entries:
            if a.is_zero():
                raise DlogOfZero("symbol entries must be nonzero")
        return cls._from_terms(field, len(entries),
                               {entries: coeff} if coeff else {})

    @classmethod
    def zero(cls, field, degree):
        return cls._from_terms(field, degree, {})

    def is_formally_zero(self):
        return not self.terms

    def _check(self, other):
        if not isinstance(other, MilnorElement) or other.field is not self.field:
            raise ConfigMismatch("symbols over different fields")
        if other.degree != self.degree:
            raise DegreeMismatch(
                f"degree {self.degree} vs {other.degree}")

    def _plus(self, other, sign):
        """self + sign * other; a term whose sum is 0 is deleted in place."""
        self._check(other)
        t = dict(self.terms)
        for s, c in other.terms.items():
            c = t.get(s, 0) + sign * c
            if c:
                t[s] = c
            else:
                del t[s]
        return MilnorElement._from_terms(self.field, self.degree, t)

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return MilnorElement._from_terms(
            self.field, self.degree, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def int_mul(self, m):
        return MilnorElement._from_terms(
            self.field, self.degree,
            {s: m * c for s, c in self.terms.items()} if m else {})

    def map_entries(self, fn, field=None):
        out = MilnorElement.zero(field or self.field, self.degree)
        for s, c in self.terms.items():
            out = out + MilnorElement.symbol(field or self.field,
                                             [fn(a) for a in s], c)
        return out

    def sorted_terms(self):
        items = list(self.terms.items())
        if len(items) > 1:
            items.sort(key=lambda sc: tuple(a.sort_key() for a in sc[0]))
        return items

    def __repr__(self):
        if not self.terms:     # a literal that reads back as this element
            ones = ", ".join(["1"] * self.degree)
            return f"0*{{{ones}}}" if ones else "0"
        parts = []
        for s, c in self.sorted_terms():
            body = "{" + ", ".join(repr(a) for a in s) + "}"
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)


def _entry_factors(a):
    """[(factor, multiplicity)] with a = prod f^m, per the expansion strategy.

    Univariate: monic irreducibles (constant lead absorbed and dropped mod p).
    Multivariate: variable powers split off, non-monomial parts stay intact.
    """
    F = a.field
    out = []
    if F.k == 1:
        return [(F.from_poly(to_mpoly(f)), m) for f, m in factor_ratfunc(a)]
    for mp, sgn in ((a.num, 1), (a.den, -1)):
        if mp.is_const():
            continue
        common = None
        for e in mp.terms:
            common = e if common is None else tuple(
                min(x, y) for x, y in zip(common, e))
        for j, m in enumerate(common):
            if m:
                out.append((F.var(F.vars[j]), sgn * m))
        rest = {tuple(x - y for x, y in zip(e, common)): c
                for e, c in mp.terms.items()}
        rest_poly = MPoly._from_codes(F.base, F.k, rest)
        if not rest_poly.is_const():
            out.append((F.from_poly(rest_poly.monic_grlex()), sgn))
    return out


def multilinear_expansion(entries, factors_of, coeff=1):
    """[(factors, c)]: one tuple per choice of a factor in every entry, with
    c = coeff times the product of the chosen multiplicities.  factors_of
    maps an entry to [(factor, multiplicity)] and runs once per entry."""
    out = [((), coeff)]
    for a in entries:
        factors = factors_of(a)
        out = [(prefix + (f,), c * m) for prefix, c in out for f, m in factors]
    return out


def symbol_expand(s):
    """Normal form mod p: bilinear expansion, Steinberg and repeat drops."""
    F = s.field
    p = F.base.p
    out = {}
    for sym, coeff in s.terms.items():
        for entries, c in multilinear_expansion(sym, _entry_factors, coeff):
            c %= p
            if c == 0:
                continue
            if len(set(entries)) != len(entries):
                continue   # repeated slot: dies mod p in every characteristic
            if _has_steinberg_pair(entries, F):
                continue
            out[entries] = (out.get(entries, 0) + c) % p
    return MilnorElement._from_terms(F, s.degree,
                                     {k: v for k, v in out.items() if v})


def _has_steinberg_pair(entries, F):
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if entries[i] + entries[j] == F.one:
                return True
    return False


def _dlog_rows(a):
    """(T, n d) for a = n/d, T[j] = `_quotient_rule` of n, d in x_j: dlog a
    is sum_j T[j]/(n d) dx_j.  Polynomial products only, no GCD."""
    n, d = a.num, a.den
    return [_quotient_rule(n, d, j) for j in range(a.field.k)], n * d


def _det(rows, cols, zero, one):
    """det(rows[i][cols[j]]) by cofactor expansion along the first row; the
    empty matrix has determinant one."""
    if not rows:
        return one
    if len(rows) == 1:
        return rows[0][cols[0]]
    out = zero
    for j, col in enumerate(cols):
        a = rows[0][col]
        if a.is_zero():
            continue
        minor = _det(rows[1:], cols[:j] + cols[j + 1:], zero, one)
        if not minor.is_zero():
            out = out - a * minor if j % 2 else out + a * minor
    return out


def _product(polys, one):
    out = None
    for f in polys:
        out = f if out is None else out * f
    return one if out is None else out


def d_symbol(s):
    """{a_1,...,a_n} -> dlog a_1 ^ ... ^ dlog a_n, extended additively.

    With a_i = n_i/d_i and T_i the rows of `_dlog_rows`, the coefficient
    of dx_K is det(T_i[K_j]) / prod n_i d_i in every degree (degree 0 has
    the one index set K = () and the empty determinant 1): a polynomial
    determinant per index set K, and a symbol with a repeated entry maps
    to 0 (w ^ w = 0 for a 1-form w).  The element's coefficient at K, the
    sum of c det_K(sym) over the n_a d_a of the entries of each symbol, is
    decided by `_fractions_vanish`, keyed by entry, so equal entries share
    one factor; only a nonzero coefficient is put in lowest terms, one
    RatFunc per symbol, summed.  A zero image runs no GCD."""
    F = s.field
    p = F.base.p
    n = s.degree
    if n > F.k:
        return DiffForm.zero(F, F.k)   # the target module is zero
    zero, one = F.zero.num, F.one.num
    index_sets = list(combinations(range(F.k), n))
    pos = {}            # entry -> position; rows are read by position
    rows, nds = {}, {}  # T and n d of the entry at a position
    parts = {}          # K -> [(c det_K, positions of the entries)]
    for sym, c in s.terms.items():
        c %= p
        if c == 0:
            continue
        idx = tuple(pos.setdefault(a, len(pos)) for a in sym)
        if len(set(idx)) < n:
            continue
        for a, i in zip(sym, idx):
            if i not in rows:
                rows[i], nds[i] = _dlog_rows(a)
        mat = [rows[i] for i in idx]
        for K in index_sets:
            det = _det(mat, K, zero, one)
            if not det.is_zero():
                parts.setdefault(K, []).append(
                    (det.scale(F.base.elem(c)), idx))
    dens = {}           # positions of a symbol's entries -> prod n_i d_i
    out = {}
    for K, pieces in parts.items():
        if _fractions_vanish(pieces, nds.__getitem__):
            continue
        for _, idx in pieces:
            if idx not in dens:
                dens[idx] = _product((nds[i] for i in idx), one)
        out[K] = sum((RatFunc(F, det, dens[idx]) for det, idx in pieces),
                     F.zero)
    return DiffForm(F, n, out)


def kn_equal(s1, s2):
    """Equality in K_n/p, decided through the differential symbol."""
    s1._check(s2)
    return d_symbol(s1 - s2).is_zero()


class ASExtension:
    """L = F_q(u) over F = F_q(t) with t = u^p - u, sigma: u -> u + 1."""

    def __init__(self, base_field, ext_var="u"):
        if base_field.k != 1:
            raise UnsupportedField(
                f"Artin-Schreier extensions of {base_field!r} need one "
                "variable")
        self.F = base_field
        self.L = func_field(base_field.base, (ext_var,))
        self.p = base_field.base.p
        u = self.L.var(ext_var)
        self.u = u
        self.t_image = u ** self.p - u

    def sigma_rf(self, a):
        """The generator of Gal(L/F) on a rational function of L."""
        return a.subs(0, self.u + self.L.one)

    def restrict_rf(self, a):
        """F -> L along t -> u^p - u."""
        return a.map_to(self.L, [self.t_image])

    def is_invariant(self, a):
        return self.sigma_rf(a) == a

    def norm_rf(self, a):
        """N_{L/F} of a in L*, returned as an element of F."""
        prod = self.L.one
        x = a
        for _ in range(self.p):
            prod = prod * x
            x = self.sigma_rf(x)
        return self.descend_rf(prod)

    def descend_rf(self, a):
        """Rewrite a sigma-invariant element of L as an element of F."""
        if not self.is_invariant(a):
            raise ConfigMismatch(f"{a!r} is not Galois-invariant")
        num = self._descend_poly(a.num)
        den = self._descend_poly(a.den)
        return num / den

    def _descend_poly(self, mp):
        """Invariant polynomial in u -> polynomial in t = u^p - u."""
        base = self.F.base
        cur = to_dense(mp)
        out = self.F.zero
        tau = to_dense(self.t_image.num)
        tvar = self.F.var(self.F.vars[0])
        while cur.degree >= 1:
            m = cur.degree
            if m % self.p:
                raise IntegralityViolation(
                    f"invariant polynomial of degree {m} prime to p")
            c = cur.coeffs[-1]
            out = out + self.F.const(c) * tvar ** (m // self.p)
            cur = cur - tau ** (m // self.p) * type(cur).const(base, c)
        if cur.degree == 0 and cur.coeffs:
            out = out + self.F.const(cur.coeffs[0])
        return out

    # -- maps on Milnor elements --

    def sigma(self, x):
        return x.map_entries(self.sigma_rf)

    def one_minus_sigma(self, x):
        return x - self.sigma(x)

    def restrict(self, x):
        """K_n(F) -> K_n(L)."""
        if x.field is not self.F:
            raise ConfigMismatch("restriction takes elements of K_n(F)")
        return x.map_entries(self.restrict_rf, field=self.L)

    def norm_proj(self, x):
        """N_{L/F} on projection-formula-shaped elements.

        Each symbol may carry at most one entry outside the image of F; the
        norm multiplies that entry's p conjugates and descends, the invariant
        entries descend unchanged.  All-invariant symbols pick up a factor p.
        """
        if x.field is not self.L:
            raise ConfigMismatch("the norm takes elements of K_n(L)")
        out = MilnorElement.zero(self.F, x.degree)
        for sym, c in x.terms.items():
            invariant = [self.is_invariant(a) for a in sym]
            outside = [k for k, inv in enumerate(invariant) if not inv]
            if len(outside) > 1:
                raise NormShapeUnsupported(
                    "more than one entry outside the base field")
            entries = []
            for k, a in enumerate(sym):
                if invariant[k]:
                    entries.append(self.descend_rf(a))
                else:
                    entries.append(self.norm_rf(a))
            mult = c if outside else c * self.p
            out = out + MilnorElement.symbol(self.F, entries, mult)
        return out
