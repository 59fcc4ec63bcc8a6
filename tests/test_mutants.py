"""Oracles shown to bite: each case rewrites one line of a fast path with a
named defect, patches the mutant in, and requires the oracle test's body to
fail on a fixed small input set.

A mutant is a list of (old, new) source replacements.  The old text must
occur in the function's source, so a mutant that no longer matches the code
fails here instead of passing unmutated.
"""

import inspect
import random
import textwrap

import pytest

from katoforge import Laurent, WittVector, func_field, gf, witt

from conftest import random_ratfunc
from witt_oracle import check_int_mul


def _mutant(func, edits):
    """func recompiled from its source with every (old, new) of edits
    applied, in the globals of its module."""
    src = textwrap.dedent(inspect.getsource(func))
    for old, new in edits:
        assert old in src, f"mutation site {old!r} is gone"
        src = src.replace(old, new)
    namespace = dict(vars(inspect.getmodule(func)))
    exec(compile(src, f"<mutant of {func.__qualname__}>", "exec"), namespace)
    return namespace[func.__name__]


def _int_mul_inputs():
    """Level-2 and level-3 vectors over F_2((t)) and F_3((t)), with the
    same series known 4 coefficients further, and over F_2(t)."""
    rng = random.Random("int_mul mutants")
    out = []
    for p, level in [(2, 3), (3, 2)]:
        F = gf(p)
        elems = list(F.elements())
        low, high = [], []
        for j in range(level):
            known = [F.one] + [rng.choice(elems) for _ in range(4)]
            tail = [rng.choice(elems) for _ in range(4)]
            low.append(Laurent(F, j - 2, known, j + 3))
            high.append(Laurent(F, j - 2, known + tail, j + 7))
        out.append((WittVector(p, low), WittVector(p, high)))
    K = func_field(gf(2), ("t",))
    out.append((WittVector(2, [random_ratfunc(rng, K, max_deg=2)
                               for _ in range(3)]), None))
    return out


INT_MUL_MUTANTS = {
    "frobenius dropped": [("tuple(c ** q for c in x.coords)",
                           "tuple(x.coords)")],
    "shift by k - 1": [("self.truncate(level - k)",
                        "self.truncate(level - k + 1)"),
                       ("(self.coords[0] * 0,) * k",
                        "(self.coords[0] * 0,) * (k - 1)")],
    "sign of the residue ignored": [("x = -x", "x = x")],
}


@pytest.mark.parametrize("name", sorted(INT_MUL_MUTANTS))
def test_int_mul_mutants_fail_the_sum_oracle(name, monkeypatch):
    inputs = _int_mul_inputs()
    for w, longer in inputs:
        check_int_mul(w, longer)
    monkeypatch.setattr(WittVector, "int_mul",
                        _mutant(witt.WittVector.int_mul,
                                INT_MUL_MUTANTS[name]))
    with pytest.raises(AssertionError):
        for w, longer in inputs:
            check_int_mul(w, longer)
