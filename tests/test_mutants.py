"""Oracles shown to bite: each case rewrites one line of a fast path with a
named defect, patches the mutant in, and requires the oracle test's body to
fail on a fixed small input set.

A mutant is a list of (old, new) source replacements.  The old text must
occur in the function's source, so a mutant that no longer matches the code
fails here instead of passing unmutated.
"""

import inspect
import operator
import random
import textwrap
from functools import reduce
from itertools import product

import pytest

from katoforge import (DiffForm, GaloisRing, HClass, KatoforgeError, Laurent,
                       MilnorElement, MPoly, RatFunc, WittVector, cli,
                       d_of_function, d_symbol, dlog, forms, func_field, gf,
                       kato, laurent_field, milnor, mpoly, poly, rational,
                       reciprocity_check, WildClass, witt)
from katoforge.cli import Parser
from katoforge.places import Place, PlaceContext, support_places
from katoforge.poly import Poly, to_dense

import test_cli as cli_tests
import test_kato as kato_tests
import test_mpoly as mpoly_tests
import test_places as places_tests
import test_poly as poly_tests
from conftest import random_form, random_mpoly, random_ratfunc
from forms_oracle import (d_termwise, degree_one_sums, dlog_sum,
                          wedge_of_dlogs)
from ghost_oracle import ghost_inversion_symbol, uniform_series_inputs
from literal_oracle import (check_forms, check_literals, form_inputs,
                            literal_inputs)
from p_power_oracle import p_power_component_full
from prs_oracle import prs_gcd
from series_oracle import (check_expansions, dense_sum, expansion_places,
                           polynomials)
from standard_form_oracle import (answer, check_standard_form, check_step,
                                  standard_form_inputs)
from unramified_oracle import (check_unit_completions, check_unramified,
                               classes, short_standard_form_terms,
                               unit_entry_inputs, unramified_terms)
from witt_oracle import (all_vectors, as_solve_inputs, check_as_solve,
                         check_int_mul)


def _mutant(func, edits, **names):
    """func recompiled from its source with every (old, new) of edits
    applied, in the globals of its module and names.  A memoized func is
    recompiled with its decorator, so the mutant has a memo of its own."""
    src = textwrap.dedent(inspect.getsource(func))
    for old, new in edits:
        assert old in src, f"mutation site {old!r} is gone"
        src = src.replace(old, new)
    namespace = dict(vars(inspect.getmodule(func)))
    namespace.update(names)
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


# --------------------------------------------------- ASW solving ----

# over GF(p) the Frobenius twists are the identity, so the inputs hold
# fields with e >= 2 for the first two mutants to show
AS_SOLVE_MUTANTS = {
    "twist on the residue dropped": [
        ("_frobenius_power(R.reduce(s), k % F.e)", "R.reduce(s)")],
    "inverse twist on the root dropped": [
        ("x = _frobenius_power(y, -k % F.e)", "x = y")],
    "teich(x^p) read as teich(x)": [
        ("R.teich(x.frobenius())", "R.teich(x)")],
}


def _as_solve_mutant_inputs():
    """All of W_3(F_4) and W_2(F_9), and 100 seeded vectors."""
    return (all_vectors(2, 2, 3) + all_vectors(3, 2, 2)
            + as_solve_inputs(100, "as_solve mutants"))


@pytest.mark.parametrize("name", sorted(AS_SOLVE_MUTANTS))
def test_as_solve_mutants_fail_the_coordinate_oracle(name):
    inputs = _as_solve_mutant_inputs()
    check_as_solve(inputs, witt.witt_as_solve)
    mutant = _mutant(witt.witt_as_solve, AS_SOLVE_MUTANTS[name])
    with pytest.raises(AssertionError):
        check_as_solve(inputs, mutant)


# ------------------------------------------------------ standard form ----

STANDARD_FORM_MUTANTS = {
    "cancellation check dropped": [
        ("if not a.is_zero() and a.coeff(idx):", "if False:")],
    "zero-to-precision stop dropped": [
        ("while idx < 0 and not a.is_zero():", "while idx < 0:")],
    "wild poles not recorded": [("wild.append((j, -idx))", "pass")],
}


def _check_standard_form(standard_form, monkeypatch):
    """AssertionError unless standard_form answers as the restart loop on
    40 seeded vectors, the first of them left zero to precision by a step,
    and raises ResourceLimit when a step cancels nothing."""
    check_standard_form(standard_form_inputs(40, "standard-form mutants"),
                        standard_form)
    F2 = gf(2)
    w = WittVector(2, (Laurent(F2, -2, [F2.one], 8),))

    with monkeypatch.context() as patch:
        # in the globals standard_form reads, a mutant's copy among them
        patch.setitem(standard_form.__globals__, "_standard_form_step",
                      lambda p, tail, d: tail)
        assert answer(standard_form, w, F2).startswith("ResourceLimit")


@pytest.mark.parametrize("name", sorted(STANDARD_FORM_MUTANTS))
def test_standard_form_mutants_fail_the_restart_oracle(name, monkeypatch):
    _check_standard_form(kato.witt_standard_form, monkeypatch)
    mutant = _mutant(kato.witt_standard_form, STANDARD_FORM_MUTANTS[name])
    with pytest.raises(AssertionError):
        _check_standard_form(mutant, monkeypatch)


# the one pass that sums a one-term family, patched in where the step
# reads it
STEP_MUTANTS = {
    "c_y^k scalar dropped": [("scalars[k] = (cy ** k).idx",
                              "scalars[k] = 1")],
    "term precision from m alone": [
        ("mprec + k * v,", "mprec,"),
        ("val + yprec + (k - 1) * v if k else mprec)", "mprec)")],
    "offset k v read as (k - 1) v": [("(val + k * v, coeffs",
                                      "(val + (k - 1) * v, coeffs")],
}


@pytest.mark.parametrize("name", sorted(STEP_MUTANTS))
def test_standard_form_step_mutants_fail_the_restart_oracle(name,
                                                            monkeypatch):
    _check_standard_form(kato.witt_standard_form, monkeypatch)
    monkeypatch.setattr(kato, "_add_one_term",
                        _mutant(kato._add_one_term, STEP_MUTANTS[name]))
    with pytest.raises(AssertionError):
        _check_standard_form(kato.witt_standard_form, monkeypatch)


# the step past p = 7: two passes of a + [y], by [d] and then by [-d^p]
TWO_PASS_STEP_MUTANTS = {
    "-[d^p] read as [d^p]": [("-(d ** p), polys)", "d ** p, polys)")],
}


def _two_pass_steps():
    """(p, tail, d) at p = 11 on level-2 and level-1 tails, and at
    p = 1021, the largest prime with W_2, on a level-1 tail (its W_2
    family takes about a second to generate), with poles of orders 1-3
    and one-term d of valuation -1 and -2."""
    out = []
    for p, levels in [(11, (2, 1)), (1021, (1,))]:
        F = gf(p)
        c = [F.from_code(k) for k in (5, 7, 3, 2, 10)]
        for d_val in (-1, -2):
            d = Laurent(F, d_val, [c[4]], 8)
            for level in levels:
                tail = (Laurent(F, -3, [c[0], c[1], F.one], 2),
                        Laurent(F, -2, [c[2], F.zero, c[3]], 3))[:level]
                out.append((p, tail, d))
    return out


@pytest.mark.parametrize("name", sorted(TWO_PASS_STEP_MUTANTS))
def test_two_pass_step_mutants_fail_the_two_sums(name):
    steps = _two_pass_steps()
    check_step(kato._standard_form_step, steps)
    mutant = _mutant(kato._standard_form_step, TWO_PASS_STEP_MUTANTS[name])
    with pytest.raises(AssertionError):
        check_step(mutant, steps)


# ----------------------------------------------- the residue's reads ----

PRECISION_NEEDS_MUTANTS = {
    "coordinates read one short": [("needs = [1 - (n - 1)",
                                    "needs = [-(n - 1)")],
    "coordinates read one further": [("needs = [1 - (n - 1)",
                                      "needs = [2 - (n - 1)")],
    "entry read one short": [("rel = 1 - min(", "rel = -min(")],
}


def _residue_inputs():
    """(F, level, full coords, full b, needs, rel) over GF(2)((t)) at
    level 3 and GF(3)((t)) at level 2, with needs and rel written out from
    the product rule: N_j = 1 - (p^(level-1-j) - 1) min(v_j, 0) and
    rel = 1 - min(0, min_j p^(level-1-j) v_j).  Every series is known 8
    coefficients past what the residue reads."""
    rng = random.Random("precision-needs mutants")
    out = []
    for p, level in [(2, 3), (3, 2)]:
        F = gf(p)
        powers = [p ** (level - 1 - j) for j in range(level)]

        def series(val, prec):
            return Laurent(F, val, [F.from_code(rng.randrange(1, p))]
                           + [F.from_code(rng.randrange(p))
                              for _ in range(prec - val - 1)], prec)
        for vals in ([-1] * level, [-2] + [0] * (level - 1),
                     [1] * (level - 1) + [-2]):
            needs = [1 - (n - 1) * min(v, 0) for n, v in zip(powers, vals)]
            rel = 1 - min(0, min(n * v for n, v in zip(powers, vals)))
            bval = rng.randint(-1, 1)
            out.append((F, level,
                        [series(v, n + 8) for v, n in zip(vals, needs)],
                        series(bval, bval + rel + 8), needs, rel))
    return out


def _invariant(F, level, coords, b):
    """local_invariant of (coords | b) over F((t)), taken as it is, or the
    type and message of the KatoforgeError raised."""
    LF = laurent_field(F)
    c = kato.HClass.__new__(kato.HClass)
    c.field, c.degree, c.level = LF, 1, level
    c.terms = {(WittVector(F.p, coords), (b,)): 1}
    try:
        return kato.local_invariant(c, kato._t_place(LF)).value
    except KatoforgeError as exc:
        return f"{type(exc).__name__}: {exc}"


def _check_residue_reads(inputs):
    """AssertionError unless local_invariant gives the ghost oracle's
    symbol on inputs known exactly as far as the residue reads them, and
    refuses each coordinate and the entry one coefficient short."""
    for F, level, full, b, needs, rel in inputs:
        exact = [a.truncate(n) for a, n in zip(full, needs)]
        b_exact = b.truncate(b.val + rel)
        want = ghost_inversion_symbol(F, level, full, b)
        assert _invariant(F, level, exact, b_exact) == want
        for j, n in enumerate(needs):
            short = exact[:j] + [exact[j].truncate(n - 1)] + exact[j + 1:]
            assert str(_invariant(F, level, short, b_exact)).startswith(
                f"PrecisionExhausted: Witt coordinate {j} known")
        if rel > 1:
            assert str(_invariant(F, level, exact, b.truncate(
                b.val + rel - 1))).startswith(
                    "PrecisionExhausted: entry known")


@pytest.mark.parametrize("name", sorted(PRECISION_NEEDS_MUTANTS))
def test_precision_needs_mutants_fail_the_ghost_oracle(name, monkeypatch):
    inputs = _residue_inputs()
    _check_residue_reads(inputs)
    monkeypatch.setattr(kato, "_precision_needs",
                        _mutant(kato._precision_needs,
                                PRECISION_NEEDS_MUTANTS[name]))
    with pytest.raises(AssertionError):
        _check_residue_reads(inputs)


# ------------------------------------------------------- series sums ----

LAURENT_ADD_MUTANTS = {
    "span ends with the lower operand": [
        ("max(a.val + len(a.coeffs), b.val + len(b.coeffs))",
         "a.val + len(a.coeffs)")],
    "last coefficient of the upper operand dropped": [
        ("b.coeffs[:end - b.val]", "b.coeffs[:end - b.val - 1]")],
    "operand past the precision not cut": [
        ("return a if a.prec == prec else a.truncate(prec)", "return a")],
}


def _sum_inputs():
    """Seeded pairs of series over GF(4) and GF(3): valuations -4..4, up
    to 8 coefficients, precisions from 2 below the last coefficient to 4
    past it, so spans overlap, nest, lie apart and pass the precision."""
    rng = random.Random("Laurent.__add__ mutants")
    out = []
    for F in (gf(2, 2), gf(3)):
        elems = list(F.elements())

        def series():
            val, size = rng.randint(-4, 4), rng.randint(0, 8)
            coeffs = [rng.choice(elems) for _ in range(size)]
            return Laurent(F, val, coeffs,
                           max(val + 1, val + size + rng.randint(-2, 4)))
        out.extend((series(), series()) for _ in range(30))
    return out


def _check_sums(inputs):
    """AssertionError unless a + b and b + a agree with the dense sum, in
    valuation, coefficients and precision."""
    def parts(s):
        return s.val, s.coeffs, s.prec
    for a, b in inputs:
        assert parts(a + b) == parts(dense_sum(a, b)), (a, b)
        assert parts(b + a) == parts(dense_sum(b, a)), (b, a)


@pytest.mark.parametrize("name", sorted(LAURENT_ADD_MUTANTS))
def test_laurent_add_mutants_fail_the_dense_sum(name, monkeypatch):
    inputs = _sum_inputs()
    _check_sums(inputs)
    monkeypatch.setattr(Laurent, "__add__",
                        _mutant(Laurent.__add__, LAURENT_ADD_MUTANTS[name]))
    # a span short of the upper operand's start slices its coefficients
    # from the end, and the sum fails outright
    with pytest.raises((AssertionError, IndexError)):
        _check_sums(inputs)


# ----------------------------------------------- polynomial expansions ----

EXPAND_MUTANTS = {
    "valuation at infinity off by one": [("-num.degree, ",
                                          "1 - num.degree, ")],
    "coefficients not reversed": [("-num.degree, num.coeffs[::-1]",
                                   "-num.degree, num.coeffs")],
    "Taylor shift skipped": [
        ("num.shift(self.theta, self.lift).coeffs, prec)",
         "num.shift(self.theta.field.zero, self.lift).coeffs, prec)")],
}


def _polynomial_inputs():
    """(K, polynomials, places) over GF(2), GF(3) and GF(4): zero, the
    constants and degrees 1-4, at t, t+1, a quadratic place and infinity."""
    rng = random.Random("expand mutants")
    out = []
    for F in (gf(2), gf(3), gf(2, 2)):
        K = func_field(F, ("t",))
        out.append((K, polynomials(rng, K), expansion_places(F)))
    return out


def _check_polynomial_expansions(inputs):
    for K, rs, places in inputs:
        check_expansions(K, rs, places)


@pytest.mark.parametrize("name", sorted(EXPAND_MUTANTS))
def test_expand_mutants_fail_the_series_oracle(name, monkeypatch):
    inputs = _polynomial_inputs()
    _check_polynomial_expansions(inputs)
    monkeypatch.setattr(PlaceContext, "expand",
                        _mutant(PlaceContext.expand, EXPAND_MUTANTS[name]))
    with pytest.raises(AssertionError):
        _check_polynomial_expansions(inputs)


# ---------------------------------------------------- the normal form ----

# above the p-rank of its field a class keeps no term and no entry is
# expanded; over F_q((t)) a unit entry that reads 1 stays unless a power of
# t carries its precision: each mutant is (owner, function, edits), the
# function patched into its owner
NORMAL_FORM_MUTANTS = {
    "rank shortcut dropped": (HClass, HClass.__init__, [
        ("degree > _p_rank(field)", "False")]),
    "unit rule dropped": (kato, kato._expand_entry, [
        ("if not v or unit.coeffs", "if unit.coeffs")]),
}


def _above_rank_inputs():
    """(field, degree, terms) of degree 2 over GF(2)(t) and GF(3)((t)),
    p-rank 1, and degree 3 over GF(2)(x, y), p-rank 2."""
    K = func_field(gf(2), ("t",))
    t = K.var("t")
    F3 = gf(3)
    Kxy = func_field(gf(2), ("x", "y"))
    x, y = Kxy.var("x"), Kxy.var("y")
    return [(K, 2, [(WittVector(2, (K.one / t,)), (t, t + K.one))]),
            (laurent_field(F3), 2, [
                (WittVector(3, (Laurent(F3, -1, [F3.one], 8),)),
                 (Laurent(F3, 1, [F3.one, F3.one], 8),
                  Laurent(F3, 0, [F3.one, F3.one], 8)))]),
            (Kxy, 3, [(WittVector(2, (Kxy.one / x,)), (x, y, x + y))])]


def _check_normal_form(inputs, units, monkeypatch):
    """AssertionError unless every class of inputs keeps no term, with no
    entry expanded, and unit entries answer as every completion of their
    unit."""
    def expanded(*args):
        raise AssertionError("an entry was expanded")
    with monkeypatch.context() as m:
        m.setattr(kato, "_expand_entry", expanded)
        for field, degree, terms in inputs:
            assert HClass(field, degree, 1, terms).terms == {}, terms
    check_unit_completions(units)


@pytest.mark.parametrize("name", sorted(NORMAL_FORM_MUTANTS))
def test_normal_form_mutants_fail_the_rank_and_completion_checks(
        name, monkeypatch):
    inputs = _above_rank_inputs()
    units = unit_entry_inputs(40, "normal-form mutants")
    _check_normal_form(inputs, units, monkeypatch)
    owner, func, edits = NORMAL_FORM_MUTANTS[name]
    monkeypatch.setattr(owner, func.__name__, _mutant(func, edits))
    with pytest.raises(AssertionError):
        _check_normal_form(inputs, units, monkeypatch)


# a class is a Z/p^level-combination of symbols: the canonical step merges
# equal symbols, reads each multiplicity modulo p^(level - z) and folds
# its p-power part into V^k w
MULTIPLICITY_MUTANTS = {
    "equal symbols not merged": [
        ("merged.setdefault(_term_key(w, ent), [w, ent, 0])",
         "merged.setdefault(_term_key(w, ent) + (len(merged),), "
         "[w, ent, 0])")],
    "multiplicity not reduced": [("m %= w.p ** (", "m += 0 * w.p ** (")],
    "p-power part kept as a coefficient (no V-fold)": [
        ("while m and not m % w.p:", "while False:")],
}


@pytest.mark.parametrize("name", sorted(MULTIPLICITY_MUTANTS))
def test_multiplicity_mutants_fail_the_merge_checks(name, monkeypatch):
    cells = [("F_2(t)", 2), ("F_3(t)", 1), ("F_2((t))", 2)]
    kato_tests.check_multiplicities(cells)
    monkeypatch.setattr(kato, "_canonical", _mutant(
        kato._canonical, MULTIPLICITY_MUTANTS[name]))
    with pytest.raises(AssertionError):
        kato_tests.check_multiplicities(cells)


# ------------------------------------------------- the zero tests' reads ----

# degree 1 over F_q(t) reads the finite places, all but infinity, last
DEGREE_ONE_ZERO_MUTANTS = {
    "last finite place skipped": [("for pl in places[:-1])",
                                   "for pl in places[:-2])")],
}


def _degree_one_classes():
    """Seeded degree-1 classes over GF(2)(t), GF(3)(t) and GF(4)(t) at
    levels 1 and 2: one term, w and its entry of degree at most 1 over at
    most 1, so some classes have one finite place."""
    rng = random.Random("degree-1 zero test mutants")
    out = []
    for p, e in [(2, 1), (3, 1), (2, 2)]:
        K = func_field(gf(p, e), ("t",))
        for level in (1, 2):
            for _ in range(4):
                w = WittVector(p, tuple(random_ratfunc(rng, K, max_deg=1)
                                        for _ in range(level)))
                b = random_ratfunc(rng, K, max_deg=1, max_terms=2)
                out.append(HClass.build(K, w, (b,)))
    return out


def _check_degree_one_zero_test(zero_test, classes):
    """AssertionError unless zero_test answers as the whole reciprocity
    table, with some classes nonzero."""
    answers = []
    for c in classes:
        want = all(inv.value == 0 for inv in reciprocity_check(c)[1])
        assert zero_test(c) == want, c
        answers.append(want)
    assert not all(answers)


@pytest.mark.parametrize("name", sorted(DEGREE_ONE_ZERO_MUTANTS))
def test_degree_one_zero_test_mutants_fail_the_table(name):
    classes = _degree_one_classes()
    _check_degree_one_zero_test(kato.h_zero_test, classes)
    mutant = _mutant(kato.h_zero_test, DEGREE_ONE_ZERO_MUTANTS[name])
    with pytest.raises(AssertionError):
        _check_degree_one_zero_test(mutant, classes)


# ------------------------------------------------ the table's reads ----

# a term whose coordinates are integral at the place reads its residue
# off the residue field: ord b times the trace of the digits
INTEGRAL_TERM_MUTANTS = {
    "entry order dropped": [("total += ord_b * R.trace_int(",
                             "total += R.trace_int(")],
    "digits reversed": [("[at(a, 1).coeff(0) for a in w.coords]",
                         "[at(a, 1).coeff(0) for a in w.coords][::-1]")],
}


def _integral_term_cases():
    """(c, place, series residue) for one-term level-2 classes over
    GF(2)(t), GF(3)(t) and GF(4)(t), taken outside the normal form, at a
    place t + c and at infinity: every coordinate integral there and the
    entry of order -1, 1 or 2, so ord b is no unit that a dropped factor
    would match."""
    rng = random.Random("integral-term mutants")
    out = []
    for p, e in [(2, 1), (3, 1), (2, 2)]:
        K = func_field(gf(p, e), ("t",))
        F, t, one = K.base, K.var("t"), K.one
        f = t + K.const(F.from_code(rng.randrange(F.order)))
        for pi, unit, other, place in [
                (f, f + one, one, Place(to_dense(f.num))),
                (one / t, t * t + t + one, t * t + one, Place.infinity())]:
            for k in (-1, 1, 2):
                coords = [K.from_poly(random_mpoly(rng, F, 1, 2)) / unit
                          for _ in range(2)]
                b = pi ** k * K.const(F.from_code(
                    rng.randrange(1, F.order))) * unit / other
                c = HClass.__new__(HClass)
                c.field, c.degree, c.level = K, 1, 2
                c.terms = {(WittVector(p, coords), (b,)): 1}
                want = sum(kato.local_symbol(k, 2, series, entry)
                           for k, series, entry
                           in uniform_series_inputs(c, place))
                out.append((c, place, want % p ** 2))
    return out


def _check_integral_terms(local_invariant, cases):
    """AssertionError unless local_invariant gives the series residue,
    with some residues nonzero."""
    for c, place, want in cases:
        assert local_invariant(c, place).value == want, (c, place)
    assert any(want for _, _, want in cases)


@pytest.mark.parametrize("name", sorted(INTEGRAL_TERM_MUTANTS))
def test_integral_term_mutants_fail_the_series_residue(name):
    cases = _integral_term_cases()
    _check_integral_terms(kato.local_invariant, cases)
    mutant = _mutant(kato.local_invariant, INTEGRAL_TERM_MUTANTS[name])
    with pytest.raises(AssertionError):
        _check_integral_terms(mutant, cases)


# over F_q((t)) the normal form keeps a term in its standard form, whose
# constant terms local_invariant reads off the residue field and
# decompose_local returns: each mutant is (function, edits), patched into
# the module
UNRAMIFIED_TERM_MUTANTS = {
    "entry order dropped": (kato.local_invariant, [
        ("total += ord_b * R.trace_int(", "total += R.trace_int(")]),
    "reduced coordinates reversed": (kato._standard_form_term, [
        ("return witt_standard_form(w, base)[0]",
         "return WittVector(w.p, "
         "witt_standard_form(w, base)[0].coords[::-1])")]),
    "wild list ignored": (kato.decompose_local, [
        ("if min(a.val for a in w.coords) < 0:", "if False:")]),
    "precision guard removed": (kato._standard_form_term, [
        ("any(a.prec < n for", "any(False and a.prec < n for")]),
    "standard form skipped": (kato._canonical, [
        ("if k and isinstance(field, LaurentField) and len(ent) == 1:",
         "if False:")]),
}


def _unramified_sums():
    """[(terms, kind)]: six sums of terms u + wp(y) over GF(2)((t)) at
    levels 1-3, GF(3)((t)) and GF(4)((t)) at level 2, every third one
    "wild", the others "integral" in normal form; the term known "short"
    of what the standard form reads; and over GF(2)((t)) and GF(3)((t))
    at level 2 sums of "integral" terms (u | t^j unit), j in {-2, -1, 2},
    whose raw class reads ord b = j; and over GF(2)((t)) at level 3 the
    term of short_standard_form_terms twice, known too short for its
    standard form, so that only the "canonical" step reduces the pole t^-2
    that the fold of its multiplicity 2 puts into coordinate 1 of
    V w."""
    out = [(terms, "wild" if wild else "integral")
           for p, e, level in [(2, 1, 1), (2, 1, 2), (2, 1, 3),
                               (3, 1, 2), (2, 2, 2)]
           for terms, wild in unramified_terms(p, e, level, 6, "mutants")]
    out.append((short_standard_form_terms(), "short"))
    rng = random.Random("integral local terms")
    for p in (2, 3):
        F = gf(p)

        def series(val):
            return Laurent(F, val, [F.from_code(rng.randrange(1, p))]
                           + [F.from_code(rng.randrange(p))
                              for _ in range(3)], 12)
        for _ in range(3):
            out.append(([(WittVector(p, [series(rng.randint(0, 1))
                                         for _ in range(2)]),
                          series(rng.choice((-2, -1, 2))))
                         for _ in range(2)], "integral"))
    out.append((short_standard_form_terms() * 2, "canonical"))
    return out


def _check_unramified(sums, calls):
    """check_unramified on kato.local_invariant; then on each integral
    normal-form class no local_symbol call (calls records them) and a
    residue from decompose_local that traces to the invariant, on each
    wild one WildClass from decompose_local, and each canonical one in
    normal form."""
    check_unramified(kato.local_invariant, [terms for terms, _ in sums])
    for terms, kind in sums:
        if kind == "integral":
            c = classes(terms)[0]
            calls.clear()
            inv = kato.local_invariant(c, kato._t_place(c.field)).value
            assert not calls, c
            resid = kato.decompose_local(c)[1]
            assert sum(w.trace_int() for w, _ in resid.terms) % (
                c.field.base.p ** c.level) == inv, c
        elif kind == "wild":
            c = classes(terms)[0]
            try:
                kato.decompose_local(c)
            except WildClass:
                continue
            raise AssertionError(f"{c!r} decomposed")
        elif kind == "canonical":
            c = classes(terms)[0]
            assert kato_tests._is_normal(c), c


@pytest.mark.parametrize("name", sorted(UNRAMIFIED_TERM_MUTANTS))
def test_unramified_term_mutants_fail_the_series_residue(name, monkeypatch):
    sums = _unramified_sums()
    calls = []
    local_symbol = kato.local_symbol

    def counting(*args):
        calls.append(args)
        return local_symbol(*args)

    monkeypatch.setattr(kato, "local_symbol", counting)
    _check_unramified(sums, calls)
    func, edits = UNRAMIFIED_TERM_MUTANTS[name]
    monkeypatch.setattr(kato, func.__name__, _mutant(func, edits))
    with pytest.raises(AssertionError):
        _check_unramified(sums, calls)


# over F_q((t)) the expanding constructor reduces each degree-1 source
# vector once, before the expansion, so that every multiple of it starts
# from the reduced vector
SOURCE_VECTOR_MUTANTS = {
    "source vector not reduced": [
        ("w = _standard_form_term(w, field.base)", "pass")],
}


def _source_vector_inputs():
    """(field, w, b): w = u + wp(y) over GF(2)((t)) at levels 1-3 and over
    GF(3)((t)) and GF(4)((t)) at level 2, u integral and y = (y_0, 0, ..)
    a pole of order 1 or 2, and b = t^j u' for j in {-2, -1, 2}, u' a unit
    that does not read 1."""
    rng = random.Random("source vectors")
    out = []
    for p, e, level in [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 2),
                        (2, 2, 2)]:
        F = gf(p, e)
        prec = 12 + 4 * p ** level

        def series(val, n):
            return Laurent(F, val, [F.from_code(rng.randrange(1, F.order))
                                    for _ in range(n)], prec)
        for j in (-2, -1, 2):
            u = WittVector(p, [series(rng.randint(0, 1), 3)
                               for _ in range(level)])
            y = WittVector(p, [series(-rng.randint(1, 2), 2)]
                           + [Laurent.zero(F, prec)] * (level - 1))
            out.append((laurent_field(F), u + y.wp(), series(j, 3)))
    return out


def _check_reduced_once(inputs, monkeypatch):
    """AssertionError unless building (w | b) runs _standard_form_step as
    often as witt_standard_form(w) alone, and at least once."""
    steps = []
    step = kato._standard_form_step

    def counting(*args):
        steps.append(args)
        return step(*args)
    with monkeypatch.context() as m:
        m.setattr(kato, "_standard_form_step", counting)
        for field, w, b in inputs:
            steps.clear()
            kato.witt_standard_form(w, field.base)
            alone = len(steps)
            steps.clear()
            HClass.build(field, w, (b,))
            assert len(steps) == alone > 0, (w, b)


@pytest.mark.parametrize("name", sorted(SOURCE_VECTOR_MUTANTS))
def test_source_vector_mutants_fail_the_step_count(name, monkeypatch):
    inputs = _source_vector_inputs()
    _check_reduced_once(inputs, monkeypatch)
    monkeypatch.setattr(kato, "_expanded_terms", _mutant(
        kato._expanded_terms, SOURCE_VECTOR_MUTANTS[name]))
    with pytest.raises(AssertionError):
        _check_reduced_once(inputs, monkeypatch)


# the table's places and orders come from one factorization per
# coordinate denominator and the entries, read by reciprocity_check
FACTOR_PASS_MUTANTS = {
    "entry order read as 0": [("v[f] = 1", "v[f] = 0")],
    "first factor of a denominator dropped": [
        ("polys.update(f for f, _ in den_factors[a.den])",
         "polys.update(f for f, _ in den_factors[a.den][1:])")],
}


def _table_classes():
    """Seeded degree-1 classes over GF(2)(t), GF(3)(t) and GF(4)(t) at
    levels 1 and 2, one or two terms of coordinates and entries of degree
    at most 2 over at most 2."""
    rng = random.Random("factor-pass mutants")
    out = []
    for p, e in [(2, 1), (3, 1), (2, 2)]:
        K = func_field(gf(p, e), ("t",))
        for level in (1, 2):
            for nterms in (1, 2):
                terms = []
                for _ in range(nterms):
                    w = WittVector(p, tuple(random_ratfunc(rng, K, max_deg=2)
                                            for _ in range(level)))
                    terms.append((w, (random_ratfunc(rng, K, max_deg=2),)))
                out.append(HClass(K, 1, level, terms))
    return out


def _check_tables(classes):
    """AssertionError unless reciprocity_check's table holds every nonzero
    invariant at the places support_places finds in the coordinates and
    entries, and infinity, each computed by local_invariant through
    place_order, and nothing else nonzero; some invariants are nonzero."""
    nonzero = 0
    for c in classes:
        found = set()
        for w, (b,) in c.terms:
            for x in (b,) + tuple(a for a in w.coords if not a.is_zero()):
                found |= support_places(x)
        want = {repr(pl): kato.local_invariant(c, pl).value
                for pl in list(found) + [Place.infinity()]}
        want = {pl: v for pl, v in want.items() if v}
        ok, table = reciprocity_check(c)
        assert {repr(inv.place): inv.value
                for inv in table if inv.value} == want, c
        assert ok, c
        nonzero += bool(want)
    assert nonzero


@pytest.mark.parametrize("name", sorted(FACTOR_PASS_MUTANTS))
def test_factor_pass_mutants_fail_the_place_order_table(name, monkeypatch):
    classes = _table_classes()
    _check_tables(classes)
    monkeypatch.setattr(kato, "_factor_pass",
                        _mutant(kato._factor_pass, FACTOR_PASS_MUTANTS[name]))
    with pytest.raises(AssertionError):
        _check_tables(classes)


# ------------------------------------------------ Galois-ring inverses ----

# the memo keyed on the first digit-polynomial coefficient alone; over
# GR(p^i, 1) that is the whole unit, so the ring has e >= 2
INVERSE_MEMO_MUTANTS = {
    "memo keyed on the first coefficient": [
        ("self._inv_cache.get(self._own(u).coeffs)",
         "self._inv_cache.get(self._own(u).coeffs[:1])"),
        ("self._inv_cache[u.coeffs] = x",
         "self._inv_cache[u.coeffs[:1]] = x")],
}


def _check_inverses(R):
    """AssertionError unless u * R.inv(u) is one for every unit of R,
    asked twice, so the second round reads the memo."""
    for _ in range(2):
        for c in product(range(R.p ** R.length), repeat=R.e):
            u = R.elem(list(c))
            if R.reduce(u):
                assert u * R.inv(u) == R.one, u


@pytest.mark.parametrize("name", sorted(INVERSE_MEMO_MUTANTS))
def test_inverse_memo_mutants_fail_the_unit_oracle(name, monkeypatch):
    _check_inverses(GaloisRing(gf(2, 2), 3))
    monkeypatch.setattr(GaloisRing, "inv",
                        _mutant(GaloisRing.inv, INVERSE_MEMO_MUTANTS[name]))
    with pytest.raises(AssertionError):
        _check_inverses(GaloisRing(gf(2, 2), 3))


# ------------------------------------------------------- CLI literals ----

PARSER_MUTANTS = {
    "division of polynomials not normalized": (Parser._binary, [
        ("return RatFunc(self.field, x, y)",
         "return RatFunc(self.field, x, y, _norm=False)")]),
    "zero polynomial divisor not left to RatFunc": (Parser._binary, [
        ("if not y.is_zero():", "if True:")]),
    "polynomial minus read as plus": (Parser._binary, [
        ("return _OPS[op](x, y)",
         'return _OPS["+" if op == "-" else op](x, y)')]),
    "polynomial given the denominator 2": (Parser._coerce, [
        ("self.field.one.den, _norm=False)",
         "self.field.one.den * 2, _norm=False)")]),
}


@pytest.mark.parametrize("name", sorted(PARSER_MUTANTS))
def test_parser_mutants_fail_the_literal_oracle(name, monkeypatch):
    inputs = literal_inputs(60, "parser mutants")
    check_literals(inputs)
    method, edits = PARSER_MUTANTS[name]
    monkeypatch.setattr(Parser, method.__name__, _mutant(method, edits))
    with pytest.raises(AssertionError):
        check_literals(inputs)


# `set precision` is the one check of the series precision N
PRECISION_BOUND_MUTANTS = {
    "MAX_PRECISION + 1 accepted": [
        ("n > MAX_PRECISION:", "n > MAX_PRECISION + 1:")],
}


@pytest.mark.parametrize("name", sorted(PRECISION_BOUND_MUTANTS))
def test_precision_bound_mutants_fail_the_bound_test(name, tmp_path, capsys,
                                                      monkeypatch):
    cli_tests.test_precision_is_bounded_in_scripts_and_flags(tmp_path, capsys)
    monkeypatch.setattr(cli, "run_statement",
                        _mutant(cli.run_statement,
                                PRECISION_BOUND_MUTANTS[name]))
    with pytest.raises(AssertionError):
        cli_tests.test_precision_is_bounded_in_scripts_and_flags(tmp_path,
                                                                 capsys)


FORM_LITERAL_MUTANTS = {
    "every differential read as dx_0": (Parser, Parser.diff_atom, [
        ("{(f.vars.index(var),): f.one}", "{(0,): f.one}")]),
    "product by one gives one": (RatFunc, RatFunc.__mul__, [
        ("if self is F.one:\n        return other",
         "if self is F.one:\n        return self")]),
}


@pytest.mark.parametrize("name", sorted(FORM_LITERAL_MUTANTS))
def test_form_literal_mutants_fail_the_form_oracle(name, monkeypatch):
    inputs = form_inputs(6, "form literal mutants")
    check_forms(inputs)
    owner, method, edits = FORM_LITERAL_MUTANTS[name]
    monkeypatch.setattr(owner, method.__name__, _mutant(method, edits))
    with pytest.raises(AssertionError):
        check_forms(inputs)


# ------------------ the zero test of forms, p-th powers and the Brown GCD ----

FRACTIONS_VANISH_MUTANTS = {
    "multiplier of one factor dropped": [
        ("factors = [factor(k) for k in keys]",
         "factors = [factor(k) for k in keys[:-1]]")],
    "single piece read as zero": [
        ("if len(pieces) == 1:\n        return False",
         "if len(pieces) == 1:\n        return True")],
}


def _forms_and_symbols():
    """Seeded forms over GF(2)(x, y) and GF(3)(x, y): plain 1-forms, the
    closed forms cartier_inv(w) and dlog f + dg, and 2-forms; and
    symbols of degrees 1 and 2, with a bilinearity relation among them."""
    rng = random.Random("fractions_vanish mutants")
    ws, symbols = [], []
    for p in (2, 3):
        K = func_field(gf(p), ("x", "y"))

        def rf():
            return random_ratfunc(rng, K, max_deg=2, max_terms=2)
        for _ in range(4):
            w = random_form(K, 1, rng, rf)
            ws += [w, w.cartier_inv(), dlog(rf()) + d_of_function(rf()),
                   random_form(K, 2, rng, rf)]
            a, b, c = rf(), rf(), rf()
            symbols += [MilnorElement.symbol(K, [a]),
                        MilnorElement.symbol(K, [a, b])
                        + MilnorElement.symbol(K, [c, b], 2),
                        MilnorElement.symbol(K, [a * c, b])
                        - MilnorElement.symbol(K, [a, b])
                        - MilnorElement.symbol(K, [c, b])]
    return ws, symbols


def _check_forms_and_symbols(inputs):
    """AssertionError unless d and is_closed agree with the term-by-term
    oracle and d_symbol with the wedge of dlogs."""
    ws, symbols = inputs
    for w in ws:
        dw = d_termwise(w)
        assert w.d() == dw
        assert w.is_closed() == dw.is_zero()
    for s in symbols:
        assert d_symbol(s) == wedge_of_dlogs(s)


@pytest.mark.parametrize("name", sorted(FRACTIONS_VANISH_MUTANTS))
def test_fractions_vanish_mutants_fail_the_forms_oracles(name, monkeypatch):
    inputs = _forms_and_symbols()
    _check_forms_and_symbols(inputs)
    mutant = _mutant(rational._fractions_vanish,
                     FRACTIONS_VANISH_MUTANTS[name])
    monkeypatch.setattr(forms, "_fractions_vanish", mutant)
    monkeypatch.setattr(milnor, "_fractions_vanish", mutant)
    with pytest.raises(AssertionError):
        _check_forms_and_symbols(inputs)


# a degree-1 symbol's determinant is one row read at the column of its
# index set; column 0 is the same in one variable, so only the sums in two
# and three variables can kill the mutant
DET_MUTANTS = {
    "one-row determinant read at column 0": [
        ("return rows[0][cols[0]]", "return rows[0][0]")],
}


def _degree_one_cells():
    """The sums of `degree_one_sums` over GF(2)(x, y), GF(3)(x, y) and
    GF(4)(x, y, z)."""
    return [s for p, e, names in [(2, 1, ("x", "y")), (3, 1, ("x", "y")),
                                  (2, 2, ("x", "y", "z"))]
            for s in degree_one_sums(func_field(gf(p, e), names))]


def _check_degree_one(sums):
    for s in sums:
        assert d_symbol(s) == dlog_sum(s), s


@pytest.mark.parametrize("name", sorted(DET_MUTANTS))
def test_det_mutants_fail_the_dlog_sum(name, monkeypatch):
    sums = _degree_one_cells()
    _check_degree_one(sums)
    monkeypatch.setattr(milnor, "_det",
                        _mutant(milnor._det, DET_MUTANTS[name]))
    with pytest.raises(AssertionError):
        _check_degree_one(sums)


P_POWER_SPLIT_MUTANTS = {
    "every denominator read as a p-th power": [
        ("if all(x % p == 0 for m, _ in d1 for x in m):", "if True:")],
}


def _p_power_inputs():
    """Seeded f over GF(2)(x, y), GF(3)(x, y) and GF(4)(x, y) with
    denominators d, d^p and x d^p, d a drawn polynomial plus x + 1, so
    that d is no monomial times a p-th power."""
    rng = random.Random("p-power split mutants")
    out = []
    for p, e in [(2, 1), (3, 1), (2, 2)]:
        K = func_field(gf(p, e), ("x", "y"))
        x, one = MPoly.var(K.base, 2, 0), MPoly.const(K.base, 2, 1)
        for _ in range(3):
            num = random_mpoly(rng, K.base, 2, 2, 3)
            d = random_mpoly(rng, K.base, 2, 2, 3) + x + one
            if num.is_zero() or d.is_zero():
                continue
            for den in (d, d ** p, x * d ** p):
                out.append(K.from_poly(num, den))
    return out


def _check_p_power_components(inputs):
    for f in inputs:
        p, k = f.field.base.p, f.field.k
        for pattern in product(range(p), repeat=k):
            assert rational.p_power_component(f, pattern) == \
                p_power_component_full(f, pattern)


@pytest.mark.parametrize("name", sorted(P_POWER_SPLIT_MUTANTS))
def test_p_power_split_mutants_fail_the_full_denominator(name, monkeypatch):
    inputs = _p_power_inputs()
    _check_p_power_components(inputs)
    monkeypatch.setattr(rational, "_p_power_split",
                        _mutant(rational._p_power_split,
                                P_POWER_SPLIT_MUTANTS[name]))
    with pytest.raises(AssertionError):
        _check_p_power_components(inputs)


BROWN_MUTANTS = {
    "exact-division check of the candidate dropped": [
        ("_code_divexact(a, c, T) is not None", "True"),
        ("_code_divexact(b, c, T) is not None", "True")],
}


def _gcd_inputs():
    """(f, g) over GF(3): (x^3 + y^3)(y + 1) and y^2 (y + 1), whose first
    and only point x = 0 is unlucky; and seeded a c, b c in two and three
    variables over GF(2), GF(3) and GF(4)."""
    F3 = gf(3)
    x, y = MPoly.var(F3, 2, 0), MPoly.var(F3, 2, 1)
    c = y + MPoly.const(F3, 2, 1)
    out = [((x ** 3 + y ** 3) * c, y ** 2 * c)]
    rng = random.Random("brown mutants")
    for p, e in [(2, 1), (3, 1), (2, 2)]:
        for nv in (2, 3):
            for _ in range(3):
                a, b, c = (random_mpoly(rng, gf(p, e), nv, 2, 3)
                           for _ in range(3))
                if not (a.is_zero() or b.is_zero() or c.is_zero()):
                    out.append((a * c, b * c))
    return out


def _check_gcds(inputs):
    for f, g in inputs:
        assert mpoly.mpoly_gcd(f, g) == prs_gcd(f, g)


@pytest.mark.parametrize("name", sorted(BROWN_MUTANTS))
def test_brown_mutants_fail_the_prs_oracle(name, monkeypatch):
    inputs = _gcd_inputs()
    _check_gcds(inputs)
    monkeypatch.setattr(mpoly, "_brown",
                        _mutant(mpoly._brown, BROWN_MUTANTS[name]))
    with pytest.raises(AssertionError):
        _check_gcds(inputs)


# ----------------------------------------------- series p-th powers ----

# x ** n with p | n: the m-th power, each coefficient raised to q = n / m,
# spread q apart
FROBENIUS_POWER_MUTANTS = {
    "Frobenius skipped": [("coeffs = [c.frobenius() for c in coeffs]",
                           "coeffs = list(coeffs)")],
    "spread by p": [("val = q * base.val", "val = ring.p * base.val")],
}


def _power_inputs():
    """(x, n): seeded series over GF(2), GF(3) and GF(4) at valuations -2,
    0 and 1, with n in p, p^2, 2p and 3p."""
    rng = random.Random("Laurent.__pow__ mutants")
    out = []
    for F in (gf(2), gf(3), gf(2, 2)):
        elems = list(F.elements())
        for val in (-2, 0, 1):
            x = Laurent(F, val, [F.one] + [rng.choice(elems)
                                           for _ in range(4)], val + 6)
            p = F.p
            out += [(x, n) for n in (p, p * p, 2 * p, 3 * p)]
    return out


def _check_powers(inputs):
    """AssertionError unless x ** n is the repeated product, in valuation,
    coefficients and precision."""
    for x, n in inputs:
        want = reduce(operator.mul, [x] * n)
        got = x ** n
        assert (got.val, got.coeffs, got.prec) == \
            (want.val, want.coeffs, want.prec), (x, n)


@pytest.mark.parametrize("name", sorted(FROBENIUS_POWER_MUTANTS))
def test_frobenius_power_mutants_fail_the_repeated_product(name,
                                                           monkeypatch):
    inputs = _power_inputs()
    _check_powers(inputs)
    monkeypatch.setattr(Laurent, "__pow__",
                        _mutant(Laurent.__pow__,
                                FROBENIUS_POWER_MUTANTS[name]))
    with pytest.raises(AssertionError):
        _check_powers(inputs)


# ------------------------------------------ the GCD's two short cuts ----

GCD_SHORTCUT_MUTANTS = {
    "one-term GCD reads one operand": [("zip(*f.terms, *g.terms)",
                                        "zip(*f.terms)")],
    "equal operands by term count": [
        ("if f.terms == g.terms:", "if len(f.terms) == len(g.terms):")],
}


def _shortcut_inputs():
    """Seeded (f, g), (m, f g), (f g, m) and (f, f), m a monomial of
    positive degree, over GF(2), GF(3) and GF(4) in one and two
    variables."""
    rng = random.Random("mpoly_gcd short-cut mutants")
    out = []
    for p, e in [(2, 1), (3, 1), (2, 2)]:
        F = gf(p, e)
        nonzero = [c for c in F.elements() if c]
        for nv in (1, 2):
            for _ in range(3):
                f, g = (random_mpoly(rng, F, nv, 3, 3) for _ in range(2))
                exps = (rng.randint(1, 3),) + tuple(rng.randint(0, 3)
                                                    for _ in range(nv - 1))
                m = MPoly(F, nv, {exps: rng.choice(nonzero)})
                out += [(f, g), (m, f * g), (f * g, m), (f, f)]
    return out


@pytest.mark.parametrize("name", sorted(GCD_SHORTCUT_MUTANTS))
def test_gcd_shortcut_mutants_fail_the_prs_oracle(name, monkeypatch):
    inputs = _shortcut_inputs()
    _check_gcds(inputs)
    monkeypatch.setattr(mpoly, "mpoly_gcd",
                        _mutant(mpoly.mpoly_gcd, GCD_SHORTCUT_MUTANTS[name]))
    with pytest.raises(AssertionError):
        _check_gcds(inputs)


# ------------------------------ the sparse kernel's trivial operands ----

# each mutant is (owner, function, edits), the function patched into its
# owner: the product's shortcuts, then is_const's and monic_grlex's
MUL_SHORTCUT_MUTANTS = {
    "unit test ignores the exponent": (
        MPoly, MPoly.__mul__, [("c == 1 and not any(e)", "c == 1")]),
    "unit test ignores the coefficient": (
        MPoly, MPoly.__mul__, [("c == 1 and not any(e)", "not any(e)")]),
    "one-term product drops the coefficient product": (
        MPoly, MPoly._times_term, [("row[c1]", "c1")]),
    "zero shortcut returns the other operand": (
        MPoly, MPoly.__mul__, [("return self if not a else other",
                                "return other if not a else self")]),
    "is_const reads the term count only": (
        MPoly, MPoly.is_const, [("return not any(e)", "return True")]),
    "monic_grlex returns every one-term operand": (
        MPoly, MPoly.monic_grlex, [("a is self.terms", "len(a) == 1")]),
}


@pytest.mark.parametrize("name", sorted(MUL_SHORTCUT_MUTANTS))
def test_mul_shortcut_mutants_fail_the_shape_oracle(name, monkeypatch):
    mpoly_tests.check_operand_shapes()
    owner, func, edits = MUL_SHORTCUT_MUTANTS[name]
    monkeypatch.setattr(owner, func.__name__, _mutant(func, edits))
    with pytest.raises(AssertionError):
        mpoly_tests.check_operand_shapes()


# ------------------------------------------------ the factorization memo ----

def test_a_shared_answer_fails_the_fresh_list_test():
    """A memo that hands out its own list lets a caller's edit reach the
    next caller."""
    poly_tests.check_fresh_lists(poly.factor)
    shared = _mutant(poly._factor, [("return tuple(sorted(",
                                     "return list(sorted(")])
    mutant = _mutant(poly.factor, [("return list(_factor(f))",
                                    "return _factor(f)")])
    mutant.__globals__["_factor"] = shared
    with pytest.raises(AssertionError):
        poly_tests.check_fresh_lists(mutant)


def test_a_key_without_the_field_fails_the_fields_apart_test(monkeypatch):
    """Over GF(2) and GF(3) the same codes would share one memo entry."""
    poly_tests.test_the_memo_tells_fields_apart((2, 3), False)
    monkeypatch.setattr(Poly, "__eq__", _mutant(
        Poly.__eq__, [("and self.field is other.field", "")]))
    monkeypatch.setattr(Poly, "__hash__", _mutant(
        Poly.__hash__, [("hash((id(self.field), self._codes))",
                         "hash(self._codes)")]))
    try:
        with pytest.raises(AssertionError):
            poly_tests.test_the_memo_tells_fields_apart((2, 3), False)
    finally:
        # entries stored under the mutant's hash are never found again,
        # but drop them
        poly._factor.cache_clear()
        poly.is_irreducible.cache_clear()


# ------------------------------------------------ the residue's memos ----

def _memo_without(pos):
    """A memo decorator whose key leaves out argument pos."""
    def decorate(fn):
        memo = {}

        def wrapper(*args):
            key = args[:pos] + args[pos + 1:]
            if key not in memo:
                memo[key] = fn(*args)
            return memo[key]
        return wrapper
    return decorate


# each mutant is (owner, function, edits, check), the function patched into
# its owner; a memo key without the ring hands a ghost term over the wrong
# Galois ring to a sum or product over the right one, which refuses it
RESIDUE_MEMO_MUTANTS = {
    "precision left out of the expansion key": (
        PlaceContext, PlaceContext.expand,
        [("@lru_cache(maxsize=512)", "@_memo_without(2)")],
        lambda m: places_tests.test_the_expansion_memo_keeps_each_precision(
            (-1, 1, 9))),
    "ring left out of the ghost-term key": (
        kato, kato._ghost_term,
        [("@lru_cache(maxsize=512)", "@_memo_without(0)")],
        lambda m: kato_tests.test_the_ghost_memo_tells_levels_apart(
            2, 1, (1, 2, 3))),
    "entry truncated after the lookup": (
        kato, kato.local_symbol,
        [("_lifted_dlog(R, b.truncate(min(b.prec, b.val + 1 - g.val)))",
          "_lifted_dlog(R, b).truncate(-g.val)")],
        kato_tests.test_inputs_known_further_read_the_memos),
}


@pytest.mark.parametrize("name", sorted(RESIDUE_MEMO_MUTANTS))
def test_residue_memo_mutants_fail_the_memo_tests(name, monkeypatch):
    owner, func, edits, check = RESIDUE_MEMO_MUTANTS[name]
    check(monkeypatch)
    monkeypatch.setattr(owner, func.__name__,
                        _mutant(func, edits, _memo_without=_memo_without))
    with pytest.raises((AssertionError, KatoforgeError)):
        check(monkeypatch)
