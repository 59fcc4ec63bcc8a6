"""Sparse multivariate polynomials over GF(q).

Terms live in a dict {exponent tuple: nonzero GFElem}; the term order is
graded lexicographic (total degree first, then lex on the exponent tuple).

This module also holds the library's one dense univariate arithmetic: the
kernels ``_code_trim``, ``_code_eval``, ``_code_addmul``, ``_code_mul``,
``_code_divmod``, ``_code_gcd`` and ``_code_exact_div`` on lists of element
codes (``GF.from_code``), reading the field's ``tables`` instead of building
GFElem objects.  ``poly.Poly`` and the multiplication of large fields in
``gf`` run on them; this module imports neither at load time.

GCDs in one or two active variables run on these kernels: Euclid in one
variable; in two, row contents, then evaluation and Newton interpolation
(Brown), projection back to the base field and exact division checks.  In
three or more variables the GCD is content/primitive-part recursion with a
primitive PRS in the last variable, which stays exact in characteristic p.
"""

from .errors import DivisionByZero, IntegralityViolation


class MPoly:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        self.field = field
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def const(cls, field, nvars, c):
        c = field.elem(c) if isinstance(c, int) else c
        return cls(field, nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def var(cls, field, nvars, j):
        e = tuple(1 if i == j else 0 for i in range(nvars))
        return cls(field, nvars, {e: field.one})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return all(not any(e) for e in self.terms)

    def const_value(self):
        return self.terms.get((0,) * self.nvars, self.field.zero)

    def degree_in(self, j):
        return max((e[j] for e in self.terms), default=0)

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.field is other.field
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.field), self.nvars,
                     tuple(sorted((e, c.coeffs) for e, c in self.terms.items()))))

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = s + c if s is not None else c
        return MPoly(self.field, self.nvars, terms)

    def __neg__(self):
        return MPoly(self.field, self.nvars,
                     {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = MPoly.const(self.field, self.nvars, other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                out[e] = s + c if s is not None else c
        return MPoly(self.field, self.nvars, out)

    def scale(self, c):
        return MPoly(self.field, self.nvars,
                     {e: a * c for e, a in self.terms.items()})

    def __pow__(self, n):
        result = MPoly.const(self.field, self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def leading(self):
        """(exponent, coeff) in graded-lex order."""
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    def monic_grlex(self):
        """Scaled so the graded-lex leading coefficient is 1."""
        if self.is_zero():
            return self
        _, c = self.leading()
        return self.scale(c.inverse())

    def divmod_exact(self, other):
        """Quotient when other divides self exactly; None otherwise."""
        if other.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        F = self.field
        rem = self
        quot = MPoly.const(F, self.nvars, 0)
        le, lc = other.leading()
        lcinv = lc.inverse()
        while not rem.is_zero():
            re, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re, le))
            if any(x < 0 for x in qe):
                return None
            qc = rc * lcinv
            qterm = MPoly(F, self.nvars, {qe: qc})
            quot = quot + qterm
            rem = rem - qterm * other
        return quot

    def derivative(self, j):
        out = {}
        for e, c in self.terms.items():
            if e[j] == 0:
                continue
            d = c * e[j]
            if d:
                ne = tuple(x - 1 if i == j else x for i, x in enumerate(e))
                s = out.get(ne)
                out[ne] = s + d if s is not None else d
        return MPoly(self.field, self.nvars, out)

    def sort_key(self):
        return tuple(sorted(
            ((e, c.coeffs) for e, c in self.terms.items()), reverse=True))

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
    items = sorted(f.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]),
                   reverse=True)
    return "+".join(format_monomial(format_gf_coeff(c), e, vars)
                    for e, c in items)


# ---------------------------------------------------------------- gcd ----

def _to_univariate(f, j):
    """View f as a dense coefficient list in x_j, coefficients MPolys with
    exponent 0 in slot j."""
    deg = f.degree_in(j)
    out = [dict() for _ in range(deg + 1)]
    for e, c in f.terms.items():
        rest = tuple(0 if i == j else x for i, x in enumerate(e))
        out[e[j]][rest] = c
    return [MPoly(f.field, f.nvars, d) for d in out]


def _from_univariate(coeffs, field, nvars, j):
    terms = {}
    for d, c in enumerate(coeffs):
        for e, v in c.terms.items():
            terms[tuple(d if i == j else x for i, x in enumerate(e))] = v
    return MPoly(field, nvars, terms)


def _utrim(cs):
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _uscale(a, c):
    return _utrim([x * c for x in a])


def _usub(a, b, field, nvars):
    n = max(len(a), len(b))
    zero = MPoly.const(field, nvars, 0)
    a = a + [zero] * (n - len(a))
    b = b + [zero] * (n - len(b))
    return _utrim([x - y for x, y in zip(a, b)])


def _pseudo_rem(a, b, field, nvars):
    """Pseudo-remainder of a by b (dense lists of MPoly coefficients)."""
    if not b:
        raise DivisionByZero("pseudo-division by zero")
    lb = b[-1]
    r = list(a)
    while len(r) >= len(b):
        lr = r[-1]
        shift = len(r) - len(b)
        zero = MPoly.const(field, nvars, 0)
        prev = len(r)
        r = _usub(_uscale(r, lb), [zero] * shift + _uscale(b, lr),
                  field, nvars)
        if len(r) >= prev:
            raise IntegralityViolation("pseudo-remainder degree did not drop")
    return r


def mpoly_gcd(f, g):
    """GCD, normalized graded-lex monic."""
    F = f.field
    if f.is_zero():
        return g.monic_grlex()
    if g.is_zero():
        return f.monic_grlex()
    if f.is_const() or g.is_const():
        return MPoly.const(F, f.nvars, 1)
    active = [j for j in range(f.nvars)
              if f.degree_in(j) > 0 or g.degree_in(j) > 0]
    if len(active) == 1:
        return _gcd_univar(f, g, active[0])
    if len(active) == 2:
        return _gcd_bivariate(f, g, active[0], active[1])
    return _gcd_rec(f, g, active[-1])


def _gcd_univar(f, g, j):
    """Both polynomials effectively univariate in x_j: Euclid on codes."""
    F = f.field
    d = _code_gcd(_to_codes(f, j), _to_codes(g, j), F.tables)
    return MPoly(F, f.nvars, {
        tuple(deg if i == j else 0 for i in range(f.nvars)): F.from_code(c)
        for deg, c in enumerate(d) if c})


def _content_pp(u, field, nvars):
    """Content (gcd of coefficients) and primitive part of a dense list."""
    one = MPoly.const(field, nvars, 1)
    cont = MPoly.const(field, nvars, 0)
    for c in u:
        cont = mpoly_gcd(cont, c)
        if cont.is_const() and not cont.is_zero():
            return one, u
    return cont, [exact_div(c, cont) for c in u]


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


# -- dense bivariate gcd on codes --
# A bivariate polynomial is a list of rows, index = degree in y, each row a
# code polynomial in x; the last row is nonzero.  Evaluation in x at points
# of an extension field and interpolation (Brown, JACM 1971); a candidate
# that fails the exact-division check proves its image degree unlucky, and
# evaluation goes on below that degree.

def _to_codes(f, j):
    """f, in which only x_j occurs, as a code polynomial in x_j."""
    out = [0] * (f.degree_in(j) + 1)
    for e, c in f.terms.items():
        out[e[j]] = c.idx
    return out


def _to_rows(f, jx, jy):
    by_y = {}
    for e, c in f.terms.items():
        by_y.setdefault(e[jy], {})[e[jx]] = c.idx
    rows = []
    for dy in range(max(by_y) + 1):
        terms = by_y.get(dy, {})
        row = [0] * (max(terms, default=-1) + 1)
        for dx, c in terms.items():
            row[dx] = c
        rows.append(row)
    return rows


def _from_rows(rows, F, nvars, jx, jy):
    terms = {}
    for dy, row in enumerate(rows):
        for dx, c in enumerate(row):
            if c:
                e = [0] * nvars
                e[jx], e[jy] = dx, dy
                terms[tuple(e)] = F.from_code(c)
    return MPoly(F, nvars, terms)


def _rows_content_pp(rows, T):
    cont = []
    for r in rows:
        cont = _code_gcd(cont, r, T)
        if len(cont) == 1:
            return cont, rows
    return cont, [_code_exact_div(r, cont, T) for r in rows]


def _rows_divide(d, a, T):
    """Whether d divides a exactly."""
    neg = T[2]
    r = list(a)
    n = len(d) - 1
    while len(r) > n:
        q, rem = _code_divmod(r[-1], d[-1], T)
        if rem:
            return False
        nq = [neg[c] for c in q]
        shift = len(r) - 1 - n
        for k in range(n):
            r[shift + k] = _code_addmul(r[shift + k], d[k], nq, T)
        r.pop()
        while r and not r[-1]:
            r.pop()
    return not r


def _rows_interpolate(points, images, T):
    """Rows in y of the polynomials in x of degree < n = len(points) that
    take the value images[k] (a code polynomial in y) at x = points[k]:
    Newton's divided differences, then Horner in the Newton basis, O(n^2)
    per row."""
    add, mul, neg, inv = T
    n = len(points)
    negp = [neg[a] for a in points]
    # dinv[j][k] = 1 / (points[k] - points[k - j])
    dinv = [None] + [[None] * j + [inv[add[points[k]][negp[k - j]]]
                                   for k in range(j, n)]
                     for j in range(1, n)]
    rows = []
    for dy in range(len(images[0])):
        c = [img[dy] for img in images]
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
        rows.append(_code_trim(poly))
    return _code_trim(rows)


def _gcd_bivariate(f, g, jx, jy):
    F = f.field
    T = F.tables
    ca, A = _rows_content_pp(_to_rows(f, jx, jy), T)
    cb, B = _rows_content_pp(_to_rows(g, jx, jy), T)
    cont = _code_gcd(ca, cb, T)
    if len(A) == 1 or len(B) == 1:
        # a primitive part free of y is 1, so the gcd is the content gcd
        rows = [cont]
    else:
        if len(A) < len(B):
            A, B = B, A
        rows = [_code_mul(r, cont, T) for r in _brown_pp_gcd(A, B, F, T)]
    return _from_rows(rows, F, f.nvars, jx, jy).monic_grlex()


def _brown_pp_gcd(A, B, F, T):
    """GCD of primitive bivariate polynomials of positive degree in y over
    F, by evaluation at x = a and interpolation over GF(p, e*m), with m
    growing as points run out.  At a point where gamma = gcd of the leading
    rows does not vanish, the image gcd has y-degree at least that of the
    true gcd, so the least image degree seen bounds it, and images of
    higher degree are unlucky.

    Raises ResourceLimit when GF(p, e*m) would pass the field-size bound of
    ``gf`` (2^24): over a base field of more than 2^12 elements, a GCD that
    needs more points than the base field has, or finds too few lucky ones
    in it, cannot move on to an extension."""
    from .embed import subfield_codes
    from .gf import gf
    gamma = _code_gcd(A[-1], B[-1], T)
    gdeg = len(gamma) - 1
    npoints = min(max(map(len, A)), max(map(len, B))) + gdeg
    m = 1
    while F.order ** m < npoints + gdeg + 2:
        m += 1
    # deg bounds the y-degree of the gcd; collected images all have degree deg
    deg = len(B) - 1
    while True:
        E = gf(F.p, F.e * m)
        TE = E.tables
        if E is F:
            Al, Bl, gl, drop = A, B, gamma, None
        else:
            lift, drop = subfield_codes(F, E)
            Al = [[lift[c] for c in r] for r in A]
            Bl = [[lift[c] for c in r] for r in B]
            gl = [lift[c] for c in gamma]
        mul = TE[1]
        points, images = [], []
        for a in range(E.order):
            ga = _code_eval(gl, a, TE)
            if not ga:
                continue
            h = _code_gcd(_code_trim([_code_eval(r, a, TE) for r in Al]),
                          _code_trim([_code_eval(r, a, TE) for r in Bl]), TE)
            if len(h) == 1:
                return [[1]]
            if len(h) - 1 > deg:
                continue
            if len(h) - 1 < deg:
                deg, points, images = len(h) - 1, [], []
            points.append(a)
            row = mul[ga]
            images.append([row[c] for c in h])
            if len(points) < npoints:
                continue
            cand = _rows_interpolate(points, images, TE)
            if drop is not None:
                try:
                    cand = [[drop[c] for c in r] for r in cand]
                except KeyError:   # a coefficient outside F
                    cand = None
            if cand is not None:
                _, cand = _rows_content_pp(cand, T)
                if _rows_divide(cand, A, T) and _rows_divide(cand, B, T):
                    return cand
            deg, points, images = deg - 1, [], []
        m += 1


def _gcd_rec(f, g, j):
    """Primitive PRS in the main variable x_j."""
    F = f.field
    nv = f.nvars
    a, b = _to_univariate(f, j), _to_univariate(g, j)
    if len(a) < len(b):
        a, b = b, a
    ca, a = _content_pp(a, F, nv)
    cb, b = _content_pp(b, F, nv)
    cont = mpoly_gcd(ca, cb)
    while b:
        r = _pseudo_rem(a, b, F, nv)
        if not r:
            break
        _, r = _content_pp(r, F, nv)
        a, b = b, r
    if b:
        a = b
    _, a = _content_pp(a, F, nv)
    h = _from_univariate(a, F, nv, j) * cont
    return h.monic_grlex()
