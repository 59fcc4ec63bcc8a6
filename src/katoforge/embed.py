"""Canonical subfield embeddings GF(p^e) -> GF(p^(e*m)).

The generator of the small field maps to the lexicographically least root of
its modulus in the big field, which pins the embedding deterministically; a
field embeds in itself by the identity.  The forward map is a lookup table
(the small field is small); the inverse maps an element of the big field back
to the small one, or to None when it lies outside the subfield.
``subfield_codes`` is the same embedding on element codes (``GF.from_code``).
"""

from functools import lru_cache

from .errors import ConfigMismatch


def least_root(f):
    """Lexicographically least root of a Poly in its coefficient field, or
    None when it has no root there."""
    from .poly import factor
    roots = [(-g.coeffs[0]) * g.coeffs[1].inverse()
             for g, _ in factor(f) if g.degree == 1]
    return min(roots, key=lambda a: a.coeffs, default=None)


def _identity(a):
    return a


@lru_cache(maxsize=None)
def subfield_embedding(small, big):
    """(forward map, inverse map) for the canonical embedding."""
    if small is big:
        return _identity, _identity
    if big.p != small.p or big.e % small.e:
        raise ConfigMismatch(f"{big!r} does not contain {small!r}")
    from .poly import Poly
    root = least_root(Poly(big, [big.elem(int(c)) for c in small.modulus]))
    table = {}
    for a in small.elements():
        img = big.zero
        for c in reversed(a.coeffs):
            img = img * root + big.elem(int(c))
        table[a.coeffs] = img
    inverse = {img.coeffs: small._make(c) for c, img in table.items()}

    def fwd(a, _t=table):
        return _t[a.coeffs]

    def inv(a, _i=inverse):
        return _i.get(a.coeffs)

    return fwd, inv


@lru_cache(maxsize=None)
def subfield_codes(small, big):
    """The canonical embedding on element codes: (lift, drop), lift[c] the
    code in ``big`` of the element of ``small`` with code c, and drop the
    dict back from those codes; codes outside the subfield are not in it."""
    fwd, _ = subfield_embedding(small, big)
    lift = [fwd(small.from_code(c)).idx for c in range(small.order)]
    return lift, {b: a for a, b in enumerate(lift)}
