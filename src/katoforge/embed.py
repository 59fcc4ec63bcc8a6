"""The canonical subfield embedding GF(p^e) -> GF(p^(e*m)), on element codes.

The generator of the small field maps to the lexicographically least root of
its modulus in the big field, which pins the embedding deterministically; a
field embeds in itself by the identity.  ``subfield_codes`` gives it as a
list on codes (``GF.from_code``) and its partial inverse as a dict, which
misses the codes outside the subfield.
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


@lru_cache(maxsize=None)
def subfield_codes(small, big):
    """The canonical embedding on element codes: (lift, drop), lift[c] the
    code in ``big`` of the element of ``small`` with code c, and drop the
    dict back from those codes; codes outside the subfield are not in it."""
    if small is big:
        lift = list(range(small.order))
    elif big.p != small.p or big.e % small.e:
        raise ConfigMismatch(f"{big!r} does not contain {small!r}")
    else:
        from .poly import Poly
        # the code of a prime-field element is its value, in either field
        root = least_root(Poly._from_codes(big, list(small.modulus))).idx
        add, mul = big.tables[:2]
        p = small.p
        # Horner: code c is the element c % p + z * (the one of code c // p)
        lift = [0]
        for c in range(1, small.order):
            lift.append(add[mul[lift[c // p]][root]][c % p])
    return lift, {b: a for a, b in enumerate(lift)}
