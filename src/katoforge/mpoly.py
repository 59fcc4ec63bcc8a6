"""Sparse multivariate polynomials over GF(q).

Terms live in a dict {exponent tuple: nonzero element code} (``GF.from_code``)
and every coefficient operation reads the field's ``tables``; the term order
is graded lexicographic (total degree first, then lex on the exponent tuple).
The public constructor takes GFElem coefficients, and ``leading``,
``const_value``, ``sort_key`` and printing give them back as GFElems.

This module also holds the library's one dense univariate arithmetic: the
kernels ``_code_trim``, ``_code_eval``, ``_code_addmul``, ``_code_mul``,
``_code_divmod``, ``_code_gcd`` and ``_code_exact_div`` on lists of element
codes.  ``poly.Poly`` runs on them; this module imports neither ``poly``
nor ``gf`` at load time.

``mpoly_gcd`` answers equal operands and a one-term operand directly.  For
other operands the GCD is Euclid on these kernels when one variable occurs,
and otherwise one loop of evaluation and interpolation (Brown, JACM 1971,
section 4) that recurses in the variables: the first variable is evaluated
at points of an extension field that grows until enough of them are lucky,
the image GCDs in the other variables come from the same two algorithms on
code dicts, and exact division checks the interpolated candidate.
"""

from operator import add as _exp_add, sub as _exp_sub

from .errors import ConfigMismatch, DivisionByZero, IntegralityViolation
from .power import binary_power


def _grlex(e):
    """Sort key of an exponent tuple in graded-lex order."""
    return sum(e), e


class MPoly:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        codes = {}
        for e, c in terms.items():
            if type(e) is not tuple or len(e) != nvars or not all(
                    type(x) is int and x >= 0 for x in e):
                raise ConfigMismatch(f"exponent {e!r} is not a tuple of "
                                     f"{nvars} non-negative ints")
            if getattr(c, "field", None) is not field:
                raise ConfigMismatch(f"coefficient {c!r} is not in {field!r}")
            if c:
                codes[e] = c.idx
        self.field = field
        self.nvars = nvars
        self.terms = codes

    @classmethod
    def _from_codes(cls, field, nvars, terms):
        """The polynomial whose terms are the dict ``terms`` of nonzero
        element codes, taken as it is."""
        f = cls.__new__(cls)
        f.field = field
        f.nvars = nvars
        f.terms = terms
        return f

    @classmethod
    def const(cls, field, nvars, c):
        c = field.elem(c)
        return cls._from_codes(field, nvars,
                               {(0,) * nvars: c.idx} if c else {})

    @classmethod
    def var(cls, field, nvars, j):
        e = tuple(1 if i == j else 0 for i in range(nvars))
        return cls._from_codes(field, nvars, {e: 1})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return all(not any(e) for e in self.terms)

    def const_value(self):
        return self.field.from_code(self.terms.get((0,) * self.nvars, 0))

    def degree_in(self, j):
        return max((e[j] for e in self.terms), default=0)

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.field is other.field
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.field), self.nvars,
                     frozenset(self.terms.items())))

    def _terms_of(self, other):
        if not isinstance(other, MPoly) or other.field is not self.field \
                or other.nvars != self.nvars:
            raise ConfigMismatch("polynomials over different rings")
        return other.terms

    def _plus(self, items):
        """self plus the terms (exponent, code) in ``items``."""
        add = self.field.tables[0]
        terms = dict(self.terms)
        for e, c in items:
            s = terms.get(e)
            if s is None:
                terms[e] = c
            else:
                s = add[s][c]
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return MPoly._from_codes(self.field, self.nvars, terms)

    def __add__(self, other):
        return self._plus(self._terms_of(other).items())

    def __neg__(self):
        neg = self.field.tables[2]
        return MPoly._from_codes(self.field, self.nvars,
                                 {e: neg[c] for e, c in self.terms.items()})

    def __sub__(self, other):
        neg = self.field.tables[2]
        return self._plus((e, neg[c])
                          for e, c in self._terms_of(other).items())

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.field.elem(other))
        b = self._terms_of(other).items()
        add, mul = self.field.tables[:2]
        out = {}
        get = out.get
        for e1, c1 in self.terms.items():
            row = mul[c1]
            for e2, c2 in b:
                e = tuple(map(_exp_add, e1, e2))
                s = get(e)
                out[e] = row[c2] if s is None else add[s][row[c2]]
        return MPoly._from_codes(self.field, self.nvars,
                                 {e: c for e, c in out.items() if c})

    def scale(self, c):
        if getattr(c, "field", None) is not self.field:
            raise ConfigMismatch("scalar from a different field")
        if not c:
            return MPoly._from_codes(self.field, self.nvars, {})
        row = self.field.tables[1][c.idx]
        return MPoly._from_codes(self.field, self.nvars,
                                 {e: row[a] for e, a in self.terms.items()})

    def __pow__(self, n):
        if not n:
            return MPoly.const(self.field, self.nvars, 1)
        return binary_power(self, n)

    def leading(self):
        """(exponent, coeff) in graded-lex order."""
        e = max(self.terms, key=_grlex)
        return e, self.field.from_code(self.terms[e])

    def monic_grlex(self):
        """Scaled so the graded-lex leading coefficient is 1."""
        if self.is_zero():
            return self
        return MPoly._from_codes(self.field, self.nvars,
                                 _monic(self.terms, self.field.tables))

    def divmod_exact(self, other):
        """Quotient when other divides self exactly; None otherwise."""
        b = self._terms_of(other)
        if not b:
            raise DivisionByZero("division by the zero polynomial")
        q = _code_divexact(self.terms, b, self.field.tables)
        return None if q is None else \
            MPoly._from_codes(self.field, self.nvars, q)

    def derivative(self, j):
        mul, p = self.field.tables[1], self.field.p
        out = {}
        for e, c in self.terms.items():
            k = e[j] % p
            if k:
                out[e[:j] + (e[j] - 1,) + e[j + 1:]] = mul[c][k]
        return MPoly._from_codes(self.field, self.nvars, out)

    def sort_key(self):
        from_code = self.field.from_code
        return tuple(sorted(((e, from_code(c).coeffs)
                             for e, c in self.terms.items()), reverse=True))

    def __repr__(self):
        return format_mpoly(self, tuple(f"x{i}" for i in range(self.nvars)))


def exact_div(f, g):
    """f / g where g is known to divide f; IntegralityViolation otherwise."""
    q = f.divmod_exact(g)
    if q is None:
        raise IntegralityViolation("polynomial division expected to be exact "
                                   "left a remainder")
    return q


def format_mpoly(f, vars):
    from .render import format_gf_coeff, format_monomial
    if f.is_zero():
        return "0"
    items = sorted(f.terms.items(), key=lambda ec: _grlex(ec[0]),
                   reverse=True)
    return "+".join(format_monomial(format_gf_coeff(f.field.from_code(c)),
                                    e, vars)
                    for e, c in items)


# -- dense univariate arithmetic on element codes --
# A polynomial is a list of codes (GF.from_code), index = degree, whose last
# entry is nonzero; the zero polynomial is [].  T is the field's ``tables``,
# (add, mul, neg, inv) indexed by code.

def _code_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _code_eval(a, x, T):
    add, mx = T[0], T[1][x]
    acc = 0
    for c in reversed(a):
        acc = add[mx[acc]][c]
    return acc


def _code_addmul(r, a, b, T):
    """r + a*b."""
    out = list(r)
    if not a or not b:
        return out
    add, mul = T[0], T[1]
    out += [0] * (len(a) + len(b) - 1 - len(out))
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for k, y in enumerate(b, i):
                out[k] = add[out[k]][row[y]]
    return _code_trim(out)


def _code_mul(a, b, T):
    return _code_addmul([], a, b, T)


def _code_divmod(a, b, T):
    """(quotient, remainder) of a by a nonzero b."""
    add, mul, neg, inv = T
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    r = list(a)
    nb = [neg[c] for c in b[:-1]]
    lead_inv = inv[b[-1]]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db]
        if c:
            c = q[k] = mul[c][lead_inv]
            row = mul[c]
            for i, y in enumerate(nb, k):
                r[i] = add[r[i]][row[y]]
    del r[db:]
    return q, _code_trim(r)


def _code_gcd(a, b, T):
    """Monic gcd; [] when both are zero."""
    while b:
        a, b = b, _code_divmod(a, b, T)[1]
    if not a:
        return a
    row = T[1][T[3][a[-1]]]
    return [row[c] for c in a]


def _code_exact_div(a, b, T):
    q, r = _code_divmod(a, b, T)
    if r:
        raise IntegralityViolation("polynomial division expected to be exact "
                                   "left a remainder")
    return q


# -- sparse arithmetic on code dicts --
# A polynomial is a dict {exponent tuple: nonzero element code}, as in
# ``MPoly.terms``; T is the field's ``tables``.

def _monic(a, T):
    """The nonzero code dict a scaled so its graded-lex leading code is 1."""
    lc = a[max(a, key=_grlex)]
    if lc == 1:
        return a
    row = T[1][T[3][lc]]
    return {e: row[c] for e, c in a.items()}


def _code_divexact(a, b, T):
    """The quotient dict a / b for a nonzero b that divides a exactly; None
    otherwise.  One pass, reducing a copy of a in place."""
    add, mul, neg, inv = T
    lb = max(b, key=_grlex)
    linv = inv[b[lb]]
    rest = [(e, neg[c]) for e, c in b.items() if e != lb]
    rem = dict(a)
    quot = {}
    while rem:
        le = max(rem, key=_grlex)
        qe = tuple(map(_exp_sub, le, lb))
        if min(qe, default=0) < 0:
            return None
        qc = quot[qe] = mul[rem.pop(le)][linv]
        row = mul[qc]
        for e, c in rest:
            e = tuple(map(_exp_add, qe, e))
            s = rem.get(e)
            if s is None:
                rem[e] = row[c]
            else:
                s = add[s][row[c]]
                if s:
                    rem[e] = s
                else:
                    del rem[e]
    return quot


# ---------------------------------------------------------------- gcd ----
# Rows of a code dict with respect to x_j: {monomial in the other variables,
# slot j zero: code polynomial in x_j}.

def _rows(a, j):
    rows = {}
    for e, c in a.items():
        k = e[j]
        row = rows.setdefault(e[:j] + (0,) + e[j + 1:], [])
        if len(row) <= k:
            row += [0] * (k + 1 - len(row))
        row[k] = c
    return rows


def _from_rows(rows, j):
    return {m[:j] + (k,) + m[j + 1:]: c
            for m, r in rows.items() for k, c in enumerate(r) if c}


def _rows_content_pp(rows, T):
    """The content, a monic code polynomial in x_j, and the primitive
    part."""
    cont = []
    for r in rows.values():
        cont = _code_gcd(cont, r, T)
        if len(cont) == 1:
            return cont, rows
    return cont, {m: _code_exact_div(r, cont, T) for m, r in rows.items()}


def _active(a, b):
    """The variables that occur in the code dict a or b."""
    return [j for j, col in enumerate(zip(*a, *b)) if any(col)]


def mpoly_gcd(f, g):
    """GCD, normalized graded-lex monic.

    Two cases are answered without a GCD loop: equal operands give the
    monic operand, and when either operand is one term the GCD is the
    monomial x^m, m the componentwise minimum of every exponent of f and g
    (the divisors of a monomial are monomials, and x^m divides a polynomial
    exactly when m is below each of its exponents)."""
    F = f.field
    f._terms_of(g)
    if f.is_zero():
        return g.monic_grlex()
    if g.is_zero():
        return f.monic_grlex()
    if f.is_const() or g.is_const():
        return MPoly.const(F, f.nvars, 1)
    if f.terms == g.terms:
        return f.monic_grlex()
    if len(f.terms) == 1 or len(g.terms) == 1:
        m = tuple(map(min, zip(*f.terms, *g.terms)))
        return MPoly._from_codes(F, f.nvars, {m: 1})
    active = _active(f.terms, g.terms)
    if len(active) > 1:
        return _gcd_bivariate(f, g, active)
    return MPoly._from_codes(F, f.nvars,
                             _euclid(f.terms, g.terms, active[0], F.tables))


def _gcd_codes(a, b, F):
    """Graded-lex monic gcd of the nonzero code dicts a, b over F."""
    active = _active(a, b)
    if len(active) > 1:
        return _brown(a, b, active, F)
    return _euclid(a, b, active[0] if active else 0, F.tables)


def _euclid(a, b, j, T):
    """Euclid on nonzero code dicts in which no variable but x_j occurs."""
    (m, ra), = _rows(a, j).items()
    (_, rb), = _rows(b, j).items()
    return _from_rows({m: _code_gcd(ra, rb, T)}, j)


def _gcd_bivariate(f, g, active):
    """GCD of f and g, in which the variables ``active`` occur, by Brown's
    loop; it serves any number of them from two on."""
    F = f.field
    return MPoly._from_codes(F, f.nvars, _brown(f.terms, g.terms, active, F))


def _rows_interpolate(points, images, T):
    """Rows {monomial: code polynomial in x of degree < n = len(points)}
    taking the value images[k].get(monomial, 0) at x = points[k]: Newton's
    divided differences, then Horner in the Newton basis, O(n^2) per
    monomial."""
    add, mul, neg, inv = T
    n = len(points)
    negp = [neg[a] for a in points]
    # dinv[j][k] = 1 / (points[k] - points[k - j])
    dinv = [None] + [[None] * j + [inv[add[points[k]][negp[k - j]]]
                                   for k in range(j, n)]
                     for j in range(1, n)]
    rows = {}
    for mono in set().union(*images):
        c = [img.get(mono, 0) for img in images]
        for j in range(1, n):
            dj = dinv[j]
            for k in range(n - 1, j - 1, -1):
                c[k] = mul[add[c[k]][neg[c[k - 1]]]][dj[k]]
        poly = [c[-1]]
        for k in range(n - 2, -1, -1):
            mna = mul[negp[k]]
            poly = ([add[mna[poly[0]]][c[k]]]
                    + [add[poly[i - 1]][mna[poly[i]]]
                       for i in range(1, len(poly))]
                    + [poly[-1]])
        if _code_trim(poly):
            rows[mono] = poly
    return rows


def _brown(a, b, active, F):
    """Graded-lex monic gcd of nonzero code dicts a, b over F in which the
    variables ``active``, two or more, occur.  After the contents in F[x]
    (x the first active variable) are split off, the primitive parts A, B
    are evaluated at x = t over GF(p, e*m), m growing as points run out,
    and their gcds in the other variables are taken by ``_gcd_codes``.

    Leading monomials are graded-lex in the other variables.  At a point
    where gamma = gcd of the leading coefficients of A and B (in F[x]) does
    not vanish, the image of the true gcd G keeps its leading monomial and
    divides the image gcd, so an image whose leading monomial is larger
    than the least one seen is unlucky.  The images gamma(t) * (monic image
    gcd) interpolate, per monomial, to gamma / lc(G) * G, whose x-degree
    is below npoints; a candidate that fails the exact-division check
    proves G's leading monomial strictly below its own.

    Raises ResourceLimit when GF(p, e*m) would pass the field-size bound of
    ``gf`` (2^24): over a base field of more than 2^12 elements, a GCD that
    needs more points than the base field has, or finds too few lucky ones
    in it, cannot move on to an extension."""
    from .embed import subfield_codes
    from .gf import gf
    T = F.tables
    j = active[0]
    ca, A = _rows_content_pp(_rows(a, j), T)
    cb, B = _rows_content_pp(_rows(b, j), T)
    cont = _code_gcd(ca, cb, T)
    zero = (0,) * len(next(iter(a)))
    if A.keys() == {zero} or B.keys() == {zero}:
        # a primitive part free of the other variables is 1
        return _from_rows({zero: cont}, j)
    gamma = _code_gcd(A[max(A, key=_grlex)], B[max(B, key=_grlex)], T)
    gdeg = len(gamma) - 1
    npoints = min(max(map(len, A.values())), max(map(len, B.values()))) \
        + gdeg
    m = 1
    while F.order ** m < npoints + gdeg + 2:
        m += 1
    least = None   # graded-lex key of the images collected
    above = None   # G's leading monomial lies strictly below this key
    while True:
        E = gf(F.p, F.e * m)
        TE = E.tables
        if E is F:
            Al, Bl, gl, drop = A, B, gamma, None
        else:
            lift, drop = subfield_codes(F, E)
            Al = {k: [lift[c] for c in r] for k, r in A.items()}
            Bl = {k: [lift[c] for c in r] for k, r in B.items()}
            gl = [lift[c] for c in gamma]
        mul = TE[1]
        points, images = [], []
        for t in range(E.order):
            gt = _code_eval(gl, t, TE)
            if not gt:
                continue
            h = _gcd_codes(
                {k: v for k, r in Al.items() if (v := _code_eval(r, t, TE))},
                {k: v for k, r in Bl.items() if (v := _code_eval(r, t, TE))},
                E)
            key = _grlex(max(h, key=_grlex))
            if not key[0]:
                return _from_rows({zero: cont}, j)
            if above is not None and key >= above \
                    or least is not None and key > least:
                continue
            if least is None or key < least:
                least, points, images = key, [], []
            points.append(t)
            row = mul[gt]
            images.append({k: row[c] for k, c in h.items()})
            if len(points) < npoints:
                continue
            cand = _rows_interpolate(points, images, TE)
            if drop is not None:
                try:
                    cand = {k: [drop[c] for c in r] for k, r in cand.items()}
                except KeyError:   # a coefficient outside F
                    cand = None
            if cand is not None:
                _, cand = _rows_content_pp(cand, T)
                c = _from_rows(cand, j)
                if _code_divexact(a, c, T) is not None \
                        and _code_divexact(b, c, T) is not None:
                    return _monic(_from_rows(
                        {k: _code_mul(r, cont, T) for k, r in cand.items()},
                        j), T)
            above, least, points, images = least, None, [], []
        m += 1
