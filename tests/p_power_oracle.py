"""The p-power component with the denominator cleared by den^p: the tests'
oracle for ``rational.p_power_component`` and ``p_power_decompose``.

For f = num/den, f = num den^(p-1) / den^p, so the component g_e is the
part of num den^(p-1) with exponents p m + e, read as
sum c^(1/p) x^m, over den and normalized.  It takes the whole product
den^(p-1) and a normalizing GCD against den, whatever den's shape.
"""

from katoforge import MPoly, RatFunc


def p_power_component_full(f, e):
    """g_e of f = sum_e g_e^p x^e, by clearing the denominator with den^p."""
    F = f.field
    base = F.base
    p = base.p
    n = p ** (base.e - 1)     # c^(1/p) = c^(p^(e-1)) in GF(p^e)
    terms = {}
    for mono, c in (f.num * f.den ** (p - 1)).terms.items():
        if tuple(x % p for x in mono) == e:
            terms[tuple(x // p for x in mono)] = base._code_pow(c, n)
    return RatFunc(F, MPoly._from_codes(base, F.k, terms), f.den)
