"""Sparse multivariate polynomials over GF(q).

Terms live in a dict {exponent tuple: nonzero GFElem}; the term order is
graded lexicographic (total degree first, then lex on the exponent tuple).
GCDs in two active variables use evaluation and interpolation (Brown); in
three or more, content/primitive-part recursion with a primitive PRS in the
last variable, which stays exact in characteristic p.
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
    """Both polynomials effectively univariate in x_j: use dense Euclid."""
    from .poly import Poly
    F = f.field

    def dense(h):
        cs = [F.zero] * (h.degree_in(j) + 1)
        for e, c in h.terms.items():
            cs[e[j]] = cs[e[j]] + c
        return Poly(F, cs)

    d = dense(f).gcd(dense(g))
    terms = {}
    for deg, c in enumerate(d.coeffs):
        if c:
            e = tuple(deg if i == j else 0 for i in range(f.nvars))
            terms[e] = c
    return MPoly(F, f.nvars, terms)


def _content_pp(u, field, nvars):
    """Content (gcd of coefficients) and primitive part of a dense list."""
    one = MPoly.const(field, nvars, 1)
    cont = MPoly.const(field, nvars, 0)
    for c in u:
        cont = mpoly_gcd(cont, c)
        if cont.is_const() and not cont.is_zero():
            return one, u
    return cont, [exact_div(c, cont) for c in u]


# dense bivariate gcd: evaluation in x at points of an extension field and
# interpolation (Brown); a candidate that fails the exact-division check
# proves its image degree unlucky, and evaluation goes on below that degree

def _gcd_bivariate(f, g, jx, jy):
    F = f.field
    A = _to_bipoly(f, jx, jy)
    B = _to_bipoly(g, jx, jy)
    ca, A = _bi_content_pp(A, F)
    cb, B = _bi_content_pp(B, F)
    cont = ca.gcd(cb)
    if len(A) < len(B):
        A, B = B, A
    pp = _brown_pp_gcd(A, B, F)
    out = _from_bipoly([c * cont for c in pp], F, f.nvars, jx, jy)
    return out.monic_grlex()


def _brown_pp_gcd(A, B, F):
    """GCD of primitive bipolys (rows in y of Polys in x) by evaluation at
    x = a and interpolation, over GF(p, e*m) with m growing as points run
    out.  At a point where gamma = gcd of the leading rows does not vanish,
    the image gcd has y-degree at least that of the true gcd, so the least
    image degree seen bounds it, and images of higher degree are unlucky.

    Raises ResourceLimit when GF(p, e*m) would pass the field-size bound of
    ``gf`` (2^24): over a base field of more than 2^12 elements, a GCD that
    needs more points than the base field has, or finds too few lucky ones
    in it, cannot move on to an extension."""
    from .embed import subfield_embedding
    from .gf import gf
    from .poly import Poly
    gamma = A[-1].gcd(B[-1])
    dx_bound = min(max(c.degree for c in A), max(c.degree for c in B))
    npoints = dx_bound + gamma.degree + 1
    m = 1
    while F.order ** m < npoints + gamma.degree + 2:
        m += 1
    # deg bounds the y-degree of the gcd; collected images all have degree deg
    deg = len(B) - 1
    while True:
        E = gf(F.p, F.e * m)
        fwd, inverse = subfield_embedding(F, E)
        Alift = [[fwd(c) for c in pol.coeffs] for pol in A]
        Blift = [[fwd(c) for c in pol.coeffs] for pol in B]
        gamma_l = [fwd(c) for c in gamma.coeffs]
        points, images = [], []
        for a in E.elements():
            ga = _eval_row(gamma_l, a, E)
            if not ga:
                continue
            Aa = Poly(E, [_eval_row(c, a, E) for c in Alift])
            Ba = Poly(E, [_eval_row(c, a, E) for c in Blift])
            h = Aa.gcd(Ba)
            if h.degree == 0:
                return [Poly.const(F, 1)]
            if h.degree > deg:
                continue
            if h.degree < deg:
                deg, points, images = h.degree, [], []
            points.append(a)
            images.append(h.scale(ga))
            if len(points) < npoints:
                continue
            cand = _interpolate_bipoly(points, images, E)
            proj = _project_bipoly(cand, inverse, F)
            if proj is not None:
                _, proj = _bi_content_pp(proj, F)
                if _bi_divides(proj, A, F) and _bi_divides(proj, B, F):
                    return proj
            deg, points, images = deg - 1, [], []
        m += 1


def _eval_row(coeffs, a, E):
    acc = E.zero
    for c in reversed(coeffs):
        acc = acc * a + c
    return acc


def _interpolate_bipoly(points, images, E):
    """Lagrange interpolation in x of Polys in y; returns rows over E."""
    from .poly import Poly
    n = len(points)
    ydeg = max(h.degree for h in images)
    rows = [[E.zero] * n for _ in range(ydeg + 1)]
    # basis polynomial for each point, as dense coefficient lists in x
    for k, (a, h) in enumerate(zip(points, images)):
        denom = E.one
        basis = [E.one]
        for j, b in enumerate(points):
            if j == k:
                continue
            denom = denom * (a - b)
            nxt = [E.zero] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d + 1] = nxt[d + 1] + c
                nxt[d] = nxt[d] - c * b
            basis = nxt
        scale = denom.inverse()
        for dy in range(h.degree + 1):
            cy = h.coeffs[dy] if dy < len(h.coeffs) else E.zero
            if not cy:
                continue
            w = cy * scale
            row = rows[dy]
            for d, c in enumerate(basis):
                if c:
                    row[d] = row[d] + c * w
    return [Poly(E, r) for r in rows]


def _project_bipoly(rows, inverse, F):
    from .poly import Poly
    out = []
    for pol in rows:
        coeffs = []
        for c in pol.coeffs:
            small = inverse(c)
            if small is None:
                return None
            coeffs.append(small)
        out.append(Poly(F, coeffs))
    return _bi_trim(out)


def _bi_divides(d, A, F):
    """Exact bipoly division test A / d with remainder zero."""
    from .poly import Poly
    if not d:
        return False
    r = [Poly(F, list(c.coeffs)) for c in A]
    ld = d[-1]
    while len(r) >= len(d):
        q, rem = r[-1].divmod(ld)
        if not rem.is_zero():
            return False
        shift = len(r) - len(d)
        for k, c in enumerate(d):
            r[shift + k] = r[shift + k] - c * q
        if not r[-1].is_zero():
            return False
        r.pop()
        r = _bi_trim(r)
        if not r:
            return True
    return not r or all(c.is_zero() for c in r)


def _to_bipoly(f, jx, jy):
    from .poly import Poly
    F = f.field
    rows = [[F.zero] * (f.degree_in(jx) + 1)
            for _ in range(f.degree_in(jy) + 1)]
    for e, c in f.terms.items():
        rows[e[jy]][e[jx]] = c
    out = [Poly(F, r) for r in rows]
    while out and out[-1].is_zero():
        out.pop()
    return out


def _from_bipoly(coeffs, field, nvars, jx, jy):
    terms = {}
    for dy, pol in enumerate(coeffs):
        for dx, c in enumerate(pol.coeffs):
            if c:
                e = tuple(dx if i == jx else (dy if i == jy else 0)
                          for i in range(nvars))
                terms[e] = c
    return MPoly(field, nvars, terms)


def _bi_trim(cs):
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _bi_content_pp(u, field):
    from .poly import Poly
    cont = Poly(field, [])
    for c in u:
        cont = cont.gcd(c)
        if cont.degree == 0 and not cont.is_zero():
            return Poly.const(field, 1), u
    pp = [_poly_exact_div(c, cont) for c in u]
    return cont, pp


def _poly_exact_div(a, b):
    q, r = a.divmod(b)
    if not r.is_zero():
        raise IntegralityViolation("polynomial division expected to be exact "
                                   "left a remainder")
    return q


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
