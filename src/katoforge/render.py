"""Canonical text rendering, shared by __repr__ and the CLI printer.

Round-trip contract: everything printed here is parsed back to an equal value
by the CLI grammar, so formats are deterministic and unambiguous.

It owns the one term writer, ``format_monomial``, and the one
parenthesizer, ``parenthesize``: field elements, polynomials and places
(through ``mpoly.format_mpoly``), series, rational functions and forms all
print through them.
"""


def format_gf_coeff(c):
    """A field element used as a coefficient; parenthesized if it is a sum."""
    s = repr(c)
    if "+" in s or "-" in s:
        return f"({s})"
    return s


def format_monomial(coeff_str, exps, vars):
    """The term coeff_str*v^e*...; a power or a coefficient 1 is left out."""
    parts = []
    for v, e in zip(vars, exps):
        if e == 0:
            continue
        parts.append(v if e == 1 else f"{v}^{e}")
    if not parts:
        return coeff_str
    body = "*".join(parts)
    return body if coeff_str == "1" else f"{coeff_str}*{body}"


def parenthesize(s, ops="+-"):
    """s in parentheses if one of ops occurs in it outside parentheses."""
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in ops and depth == 0:
            return f"({s})"
    return s
