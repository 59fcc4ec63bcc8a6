"""Canonical text rendering, shared by __repr__ and the CLI printer.

Round-trip contract: everything printed here is parsed back to an equal value
by the CLI grammar, so formats are deterministic and unambiguous.
"""


def format_gf_coeff(c):
    """A field element used as a coefficient; parenthesized if it is a sum."""
    s = repr(c)
    if "+" in s or "-" in s:
        return f"({s})"
    return s


def format_poly(f, var):
    """Dense univariate polynomial, highest degree first."""
    if f.is_zero():
        return "0"
    terms = []
    coeffs = f.coeffs
    for d in range(f.degree, -1, -1):
        c = coeffs[d]
        if not c:
            continue
        cs = format_gf_coeff(c)
        if d == 0:
            terms.append(cs)
        else:
            v = var if d == 1 else f"{var}^{d}"
            terms.append(v if cs == "1" else f"{cs}*{v}")
    return "+".join(terms)


def format_monomial(coeff_str, exps, vars):
    parts = []
    for v, e in zip(vars, exps):
        if e == 0:
            continue
        parts.append(v if e == 1 else f"{v}^{e}")
    if not parts:
        return coeff_str
    body = "*".join(parts)
    return body if coeff_str == "1" else f"{coeff_str}*{body}"


def parenthesize_if_sum(s):
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            return f"({s})"
    return s


def parenthesize_factor(s):
    """Parenthesize anything that is not a single atom or power."""
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-*/" and depth == 0:
            return f"({s})"
    return s
