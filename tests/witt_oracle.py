"""The m-fold universal-polynomial sum: the tests' oracle for
``WittVector.int_mul``, which takes m = p^k u as V^k F^k(u w).

``check_int_mul`` runs every residue m mod p^i, and for each also m + p^i
and m - p^i.  Over F_q(t), or any exact coordinates, the multiple equals
the sum.  Over F_q((t)) the two agree up to the lower precision, the
multiple's precision is never below the sum's, and a longer input (the same
coefficients known further) agrees with the multiple up to its precision,
so that precision is sound.
"""

from katoforge import Laurent


def check_int_mul(w, longer=None):
    """AssertionError unless w.int_mul(m) agrees with w + ... + w for every
    m (module docstring); longer, if given, is w known further."""
    mod = w.p ** w.level
    added = None    # the m-fold sum; None for m = 0
    for m in range(mod):
        for n in (m, m + mod, m - mod):
            got = w.int_mul(n)
            assert got.level == w.level, (n, got)
            if added is None:
                assert all(c.is_zero() for c in got.coords), (n, got)
                continue
            for x, y in zip(got.coords, added.coords):
                if not isinstance(x, Laurent):
                    assert x == y, (n, got, added)
                    continue
                assert x.prec >= y.prec, (n, got, added)
                assert x.truncate(y.prec) == y, (n, got, added)
            if longer is not None:
                for x, z in zip(got.coords, longer.int_mul(n).coords):
                    assert z.truncate(x.prec) == x, (n, got, longer)
        added = w if added is None else added + w
