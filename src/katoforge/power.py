"""Binary powering: the one square-and-multiply loop of the library.

Every ring's ``**`` (field elements and codes, Galois rings, series,
polynomials, integer polynomials), ``Poly.powmod`` and the multiples of a
Witt vector call ``binary_power``; each caller handles n = 0 and n < 0
itself, with its own identity or inverse.
"""

import operator

from .errors import ResourceLimit


def binary_power(x, n, op=operator.mul):
    """x op x op ... op x with n operands, for an int n >= 1 and an
    associative op (Knuth, TAOCP 2, 4.6.3).  It takes no product with an
    identity and no square after the last bit: n = 1 returns x itself and
    n = 2 is one op."""
    if n < 1:
        raise ResourceLimit(f"binary powering needs an exponent >= 1, "
                            f"got {n}")
    result = None
    while True:
        if n & 1:
            result = x if result is None else op(result, x)
        n >>= 1
        if not n:
            return result
        x = op(x, x)
