"""The primitive PRS gcd of multivariate polynomials: the tests' oracle for
``mpoly_gcd``.

Content/primitive-part recursion with a primitive pseudo-remainder sequence
in the last variable that occurs; it stays exact in characteristic p.  The
contents are taken by this same function, so the oracle shares nothing with
the library's Euclid and Brown code but MPoly arithmetic, which
test_mpoly.py checks against a schoolbook.
"""

from katoforge import MPoly


def prs_gcd(f, g):
    """GCD of two MPolys, normalized graded-lex monic."""
    F, nv = f.field, f.nvars
    if f.is_zero():
        return g.monic_grlex()
    if g.is_zero():
        return f.monic_grlex()
    if f.is_const() or g.is_const():
        return MPoly.const(F, nv, 1)
    j = max(i for i in range(nv) if f.degree_in(i) or g.degree_in(i))
    a, b = _coeffs(f, j), _coeffs(g, j)
    if len(a) < len(b):
        a, b = b, a
    ca, a = _content_pp(a)
    cb, b = _content_pp(b)
    while True:
        r = _pseudo_rem(a, b)
        if not r:
            break
        a, b = b, _content_pp(r)[1]
    h = MPoly.const(F, nv, 0)
    xj = MPoly.var(F, nv, j)
    for d, c in enumerate(b):
        h = h + c * xj ** d
    return (h * prs_gcd(ca, cb)).monic_grlex()


def _coeffs(f, j):
    """f as a dense list in x_j of MPoly coefficients free of x_j."""
    F = f.field
    out = [{} for _ in range(f.degree_in(j) + 1)]
    for e, c in f.terms.items():
        out[e[j]][e[:j] + (0,) + e[j + 1:]] = F.from_code(c)
    return [MPoly(F, f.nvars, d) for d in out]


def _trim(u):
    while u and u[-1].is_zero():
        u.pop()
    return u


def _content_pp(u):
    cont = MPoly.const(u[0].field, u[0].nvars, 0)
    for c in u:
        cont = prs_gcd(cont, c)
    pp = [c.divmod_exact(cont) for c in u]
    assert None not in pp
    return cont, pp


def _pseudo_rem(a, b):
    """Pseudo-remainder of a by b (dense lists of MPoly coefficients)."""
    r = list(a)
    lb = b[-1]
    while len(r) >= len(b):
        lr, shift, prev = r[-1], len(r) - len(b), len(r)
        r = [x * lb for x in r]
        for k, y in enumerate(b):
            r[shift + k] = r[shift + k] - y * lr
        _trim(r)
        assert len(r) < prev, "pseudo-remainder degree did not drop"
    return r
