import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import katoforge
from katoforge import (ConfigMismatch, DivisionByZero, HClass,
                       IntegralityViolation, Laurent, ResourceLimit,
                       WittStructure,
                       WittVector, func_field, gf, int_to_witt,
                       kato, verify_ghost_identities, witt, witt_as_solve,
                       witt_structure, witt_to_int)
from katoforge.gring import GaloisRing, galois_ring
from katoforge.witt import (_eval_terms, _generate, _invert_ghost,
                            _one_term_sum, _one_term_targets,
                            from_galois_ring, max_structure_level)

from conftest import random_ratfunc, run_optimized
from standard_form_oracle import (check_step, neg_teichmuller,
                                  standard_form_inputs, two_sum_step)
from witt_oracle import (all_vectors, as_solve_inputs, check_as_solve,
                         check_int_mul)


def test_structure_polynomials():
    st = witt_structure(2, 2)
    # S_0 = a_0 + b_0, P_0 = a_0 b_0, S_1 = a_1 + b_1 - a_0 b_0
    assert st.sums[0] == {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}
    assert st.prods[0] == {(1, 0, 1, 0): 1}
    assert st.sums[1] == {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (1, 0, 1, 0): -1}


def _structure_text(st):
    """The structure as text: a header line, then per polynomial of S, P
    and N a ``POLY <tag> <n>`` line and one line per term, its coefficient
    and its 2i exponents, in exponent order."""
    lines = [f"WITTPOLY v1 p={st.p} i={st.i}"]
    for tag, polys in (("S", st.sums), ("P", st.prods), ("N", st.negs)):
        for n, terms in enumerate(polys):
            lines.append(f"POLY {tag} {n}")
            for e in sorted(terms):
                lines.append(str(terms[e]) + " " + " ".join(map(str, e)))
    return "\n".join(lines) + "\n"


# sha256 of _structure_text(WittStructure(p, i, *_generate(p, i))) for
# every (p, i) within max_structure_level, as the Fraction-coefficient
# solver of the ghost equations produced them
STRUCTURE_SHA256 = {
    (2, 1): "55f5a2ba0d44aced73da0d32c6ecca0a"
        "a8a2a94e31c84e933727ae9eb7010cf1",
    (2, 2): "d2ab8d976f5ede8df616c8687404befb"
        "9849ad98ea030703dfb48345a035609c",
    (2, 3): "1112f11492c8437901509c46d8af1ea0"
        "059555e3c030c36cffcec4e30425341e",
    (2, 4): "918f698bd005d48044dd0e236b80b5a2"
        "a299317bc87f77bc19c0dee9aa434842",
    (2, 5): "3281727ace77de7bcfcadcb6994b5627"
        "7b8f09ac1c3e00e577887c7130dab9e7",
    (3, 1): "ef7bec3d633bec1d4cc4df0eae7303e9"
        "312dc46c9d454969e11e91d073c99df4",
    (3, 2): "3c57509cdcaa882568bdc087e59f06a4"
        "598105ded3e9700bdbdf43da32676cbd",
    (3, 3): "d5c4ca42cc249ba133b4b895a00bdc9a"
        "b010a8a4fa7fd97e66de12930c79478d",
    (3, 4): "cd22e5df190588628acb595bf35e6a4f"
        "f9584deed807175098c75bce9ef9fe9e",
    (5, 1): "330c57d6fd3514713204a945111c28ce"
        "fa0b927e539c398e266bd6713fab3d3b",
    (5, 2): "82881a6db3e15ca4145eba1975bc7e0d"
        "8fd7fede22d36dfd7cf24299cd021f48",
    (5, 3): "af6cbbfa75f391fb95f014b6a9510513"
        "227048776d711be27139e10d9c6e79d7",
    (7, 1): "beb64000546196e86c9f56db885710b1"
        "862fc5efa04821b07a9c3bf15bf9de06",
    (7, 2): "c4bb82b085e9e658696a3d0e337bf20b"
        "a5c9cdf1ece5d29a775a2c64a1b5798f",
    (7, 3): "3fdbed1c63658a2ec30ea3c289fc0534"
        "daeada116a7852c8c8eb8293f0b2e90b",
    (11, 1): "b351c00bc17c1d88a14ade1d9a70099e"
        "3bd7f562d8f87f7aa54f00cd7d2f3c9e",
    (11, 2): "7406ef82ffce6c4203c14eda3eda0c2e"
        "8dd7ea5ef52281821fdd4c4ddbed9d52",
    (13, 1): "55c29862b817fc336a005eb2563d6daa"
        "504aeabf8071a4cae9d66e64d20358d3",
    (13, 2): "680b19f07281c3b2b97c47037c3a0f50"
        "9c98ac1b9e449368ffc09e3f1a5a1390",
}
WITHIN_BOUND = [(p, i) for p in (2, 3, 5, 7, 11, 13)
                for i in range(1, max_structure_level(p) + 1)]


def test_structure_digests_pinned():
    assert sorted(STRUCTURE_SHA256) == WITHIN_BOUND
    for (p, i), digest in STRUCTURE_SHA256.items():
        text = _structure_text(WittStructure(p, i, *_generate(p, i)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (p, i)


@pytest.mark.parametrize("p,i", WITHIN_BOUND)
def test_ghost_identities(p, i):
    assert verify_ghost_identities(p, i)


def _ghost_at(p, xs, n):
    """w_n of the integer vector xs."""
    return sum(p ** j * x ** p ** (n - j) for j, x in enumerate(xs[:n + 1]))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_one_term_sums_satisfy_their_ghost_identity(p):
    """The integer polynomials X(a, y) of a + [y] - [y^p] (through p = 7)
    and of a + [y] satisfy w_n(X) = w_n(a) + sum c y^(k p^n) at seeded
    integer points, at every level up to max_structure_level(p), and
    _one_term_sum is X with its coefficients taken mod p."""
    rng = random.Random(f"one-term sums:{p}")
    families = [((1, 1),)] + [((1, 1), (p, -1))] * (p <= 7)
    for i, terms in itertools.product(
            range(1, max_structure_level(p) + 1), families):
        polys = _invert_ghost(p, _one_term_targets(p, i, terms))
        for _ in range(3):
            point = [rng.randint(-99, 99) for _ in range(i + 1)]
            a, y = point[:i], point[i]
            xs = [sum(c * math.prod(map(pow, point, e))
                      for e, c in poly.items())
                  for poly in polys]
            for n in range(i):
                assert _ghost_at(p, xs, n) == _ghost_at(p, a, n) + sum(
                    c * y ** (k * p ** n) for k, c in terms)
        assert _one_term_sum(p, i, terms) == [
            [(e, c % p) for e, c in sorted(poly.items()) if c % p]
            for poly in polys]


def test_standard_form_step_stays_cheap_up_to_the_prime_bound():
    """Past p = 7 the step is two passes of a + [y], which has p + 2 terms
    at W_2, so it stays cheap for every prime that has W_2: at p = 1021,
    the largest, the family is generated and one step on level-2 tails
    over GF(1021)((t)) runs, equal to the two Witt sums, within seconds.
    Past the bound the family is refused like W_2 itself."""
    p = 1021
    start = time.perf_counter()
    assert sum(map(len, _one_term_sum(p, 2, ((1, 1),)))) == p + 2
    F = gf(p)
    tail = (Laurent(F, -3, [F.from_code(5), F.from_code(7), F.one], 2),
            Laurent(F, -2, [F.from_code(3), F.zero, F.from_code(2)], 3))
    d = Laurent(F, -1, [F.from_code(11)], 8)
    assert kato._standard_form_step(p, tail, d) == two_sum_step(p, tail, d)
    assert time.perf_counter() - start < 10
    with pytest.raises(ResourceLimit, match="max i=1"):
        _one_term_sum(1031, 2, ((1, 1),))


def _steps(inputs, monkeypatch):
    """The (p, tail, d) of every step the standard form takes on inputs,
    which it takes with no Witt sum."""
    steps = []
    step = kato._standard_form_step

    def record(p, tail, d):
        steps.append((p, tail, d))
        return step(p, tail, d)

    def no_sum(u, v):
        raise AssertionError("the standard form took a Witt sum")
    with monkeypatch.context() as patch:
        patch.setattr(kato, "_standard_form_step", record)
        patch.setattr(WittVector, "__add__", no_sum)
        for w, base in inputs:
            try:
                kato.witt_standard_form(w, base)
            except katoforge.KatoforgeError:
                pass
    return steps


def test_standard_form_step_matches_the_two_sums(monkeypatch):
    """Every step the standard form takes on seeded vectors over GF(p^e),
    p = 2, 3, 5, 7, 11, gives the coordinates, valuations and precisions
    of tail + [d] + (-[d^p]) by two Witt sums.  The steps at p = 7 reach
    level 3, which the restart-loop oracle's inputs never do, and those at
    p = 11 take the two passes of a + [y]."""
    steps = _steps(standard_form_inputs(40, "fused step 2")
                   + standard_form_inputs(6, "p = 7", {7: 3})
                   + standard_form_inputs(6, "p = 11", {11: 2}), monkeypatch)
    assert {(p, len(tail)) for p, tail, _ in steps} >= {
        (2, 4), (3, 3), (5, 2), (7, 3), (11, 2)}
    check_step(kato._standard_form_step, steps)


def test_standard_form_step_precision_is_sound():
    """On seeded tails of any valuations and precisions, zero to precision
    among them, the step agrees with the two Witt sums as far as both know
    a coordinate, and with the two sums of the same tail known 40
    coefficients further as far as it claims.  Its precision may exceed
    the two sums', which track it through an intermediate vector."""
    rng = random.Random("standard-form step precision")
    for _ in range(80):
        p = rng.choice([2, 3, 5, 7, 11])
        F = gf(p, rng.randint(1, 2))
        elems = list(F.elements())
        level = rng.randint(1, min(4, max_structure_level(p)))
        tail, longer = [], []
        for _ in range(level):
            val, size = rng.randint(-6, 2), rng.randint(1, 5)
            a = Laurent(F, val, [rng.choice(elems[1:])]
                        + [rng.choice(elems) for _ in range(size + 39)],
                        val + size + 40)
            longer.append(a)
            tail.append(a.truncate(val + size + rng.randint(-4, 3)))
        c, v = rng.choice(elems[1:]), -rng.randint(1, 3)
        prec = rng.randint(4, 20)
        got = kato._standard_form_step(p, tail, Laurent(F, v, [c], prec))
        sums = two_sum_step(p, tail, Laurent(F, v, [c], prec))
        full = two_sum_step(p, longer, Laurent(F, v, [c], prec + 40))
        for x, y, z in zip(got, sums, full):
            both = min(x.prec, y.prec)
            assert x.truncate(both) == y.truncate(both)
            assert z.truncate(x.prec) == x


def test_invert_ghost_rejects_non_integral_target():
    # (x, 0) is no ghost vector for p = 2: X_1 = (0 - x^2) / 2
    x = {(1,): 1}
    assert _invert_ghost(2, [x, {(2,): 1}]) == [x, {}]
    with pytest.raises(IntegralityViolation):
        _invert_ghost(2, [x, {}])
    code = ("from katoforge import IntegralityViolation\n"
            "from katoforge.witt import _invert_ghost\n"
            "try:\n"
            "    _invert_ghost(2, [{(1,): 1}, {}])\n"
            "except IntegralityViolation:\n"
            "    print('refused')\n")
    assert run_optimized(code) == "refused\n"


def test_resource_bound():
    with pytest.raises(ResourceLimit):
        witt_structure(2, 40)


def test_w2f2_examples():
    F2 = gf(2)
    one, zero = F2.one, F2.zero
    w = WittVector(2, (one, zero))
    assert w + w == WittVector(2, (zero, one))
    z = WittVector(2, (zero, zero))
    assert w + z == w
    # additive order 4
    orders = [witt_to_int(w.int_mul(m)) for m in range(5)]
    assert orders == [0, 1, 2, 3, 0]


@pytest.mark.parametrize("p,i,e", [(2, 2, 1), (2, 3, 2), (3, 2, 2),
                                   (3, 3, 1)])
def test_ring_laws(p, i, e):
    F = gf(p, e)
    rng = random.Random(p * 100 + i * 10 + e)
    els = list(F.elements())
    for _ in range(40):
        u, v, w = (WittVector(p, tuple(rng.choice(els) for _ in range(i)))
                   for _ in range(3))
        assert (u + v) + w == u + (v + w)
        assert u + v == v + u
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        assert u - v == u + (-v)


def test_frobenius_verschiebung():
    F4 = gf(2, 2)
    rng = random.Random(2)
    els = list(F4.elements())
    for i in (2, 3):
        for _ in range(25):
            x = WittVector(2, tuple(rng.choice(els) for _ in range(i)))
            y = WittVector(2, tuple(rng.choice(els) for _ in range(i)))
            # F(V(x)) = p * x
            assert x.verschiebung().frobenius() == x.int_mul(2)
            assert x.verschiebung().frobenius() == x.frobenius().verschiebung()
            # V(F(x) y) = x V(y)
            assert (x.frobenius() * y).verschiebung() == \
                x * y.verschiebung()


def test_wp_trivial_on_prime_field():
    F2 = gf(2)
    for coords in itertools.product([F2.zero, F2.one], repeat=3):
        w = WittVector(2, coords)
        assert w.wp() == WittVector(2, (F2.zero,) * 3)


def test_teichmuller_order():
    for (p, i) in [(2, 3), (3, 2), (2, 4)]:
        F = gf(p)
        t = WittVector.teichmuller(p, F.one, i)
        acc = t
        order = 1
        zero = WittVector(p, (F.zero,) * i)
        while acc != zero:
            acc = acc + t
            order += 1
        assert order == p ** i


def test_trace_example():
    F4 = gf(2, 2)
    w = WittVector(2, (F4.gen, F4.zero))
    assert w.trace() == WittVector(2, (F4.one, F4.one))
    assert w.trace_int() == 3
    zero = WittVector(2, (F4.zero, F4.zero))
    assert zero.trace_int() == 0


def test_trace_kills_wp_exhaustive():
    F4 = gf(2, 2)
    for coords in itertools.product(list(F4.elements()), repeat=2):
        w = WittVector(2, coords)
        assert w.wp().trace_int() == 0


@pytest.mark.parametrize("q,e,i", [(2, 1, 3), (2, 1, 5), (4, 2, 2),
                                   (3, 1, 3), (9, 2, 2)])
def test_as_solve_exhaustive(q, e, i):
    p = 2 if q in (2, 4) else 3
    F = gf(p, e)
    classes = set()
    solvable = 0
    for coords in itertools.product(list(F.elements()), repeat=i):
        v = WittVector(p, coords)
        tr = v.trace_int()
        w = witt_as_solve(v)
        assert (w is not None) == (tr == 0)
        if w is not None:
            solvable += 1
            assert w.wp() == v
        classes.add(tr)
    total = F.order ** i
    assert len(classes) == p ** i            # the quotient has p^i classes
    assert solvable == total // p ** i


@pytest.mark.parametrize("p,e,level", [(2, 2, 3), (3, 1, 3), (2, 3, 2),
                                         (3, 2, 2)])
def test_as_solve_matches_the_coordinate_oracle_exhaustive(p, e, level):
    """The Galois-ring pass gives the recursion's canonical vector, or
    None, on all of W_3(F_4), W_3(F_3), W_2(F_8) and W_2(F_9)."""
    check_as_solve(all_vectors(p, e, level), witt_as_solve)


def test_as_solve_matches_the_coordinate_oracle_seeded():
    check_as_solve(as_solve_inputs(600, "as_solve oracle"), witt_as_solve)


def test_int_conversion_roundtrip():
    for (p, i) in [(2, 3), (3, 2), (2, 8)]:
        for m in range(p ** i):
            assert witt_to_int(int_to_witt(p, m, i)) == m


# every (p, e) pair the oracle tests cover, at every level the universal
# polynomials reach
ORACLE_PE = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


def _eval_integer(terms, xs):
    """A polynomial {exponent: int} evaluated with its integer coefficients."""
    return _eval_terms(sorted(terms.items()), xs)


def _oracle_add(struct, u, v):
    xs = list(u.coords) + list(v.coords)
    return WittVector(u.p, [_eval_integer(t, xs) for t in struct.sums])


def test_galois_ring_agrees_with_universal():
    # finite arithmetic runs only on the Galois ring; the universal
    # polynomials, evaluated on the coordinates, are its oracle
    for p, e in ORACLE_PE:
        els = list(gf(p, e).elements())
        for i in range(1, max_structure_level(p) + 1):
            struct = witt_structure(p, i)
            rng = random.Random(100 * p + 10 * e + i)
            for _ in range(8 if i < 5 else 2):
                u = WittVector(p, tuple(rng.choice(els) for _ in range(i)))
                v = WittVector(p, tuple(rng.choice(els) for _ in range(i)))
                neg_v = WittVector(p, [_eval_integer(t, list(v.coords))
                                       for t in struct.negs])
                xs = list(u.coords) + list(v.coords)
                assert u + v == _oracle_add(struct, u, v)
                assert u * v == WittVector(p, [_eval_integer(t, xs)
                                               for t in struct.prods])
                assert -v == neg_v
                assert u - v == _oracle_add(struct, u, neg_v)


def test_reduced_evaluation_on_laurent():
    """Terms whose coefficient p divides are dropped from evaluation: on
    Laurent coordinates the reduced polynomials agree with the integer ones
    to the lower of the two precisions, their precision is never lower, and
    somewhere it is higher."""
    higher = False
    for p, i in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        F = gf(p)
        struct = witt_structure(p, i)
        rng = random.Random(10 * p + i)
        for _ in range(3):
            xs = []
            for _ in range(2 * i):
                prec = rng.randint(4, 9)
                val = rng.randint(-2, 1)
                xs.append(Laurent(F, val, [F.from_code(rng.randrange(p))
                                           for _ in range(prec - val)], prec))
            for tag, polys, args in (("S", struct.sums, xs),
                                     ("P", struct.prods, xs),
                                     ("N", struct.negs, xs[:i])):
                for terms, pairs in zip(polys, struct.reduced(tag)):
                    whole = _eval_integer(terms, args)
                    reduced = _eval_terms(pairs, args)
                    assert reduced.prec >= whole.prec
                    assert reduced.truncate(whole.prec) == whole
                    higher |= reduced.prec > whole.prec
    assert higher


def _oracle_trace_int(struct, w):
    """Sum of the Frobenius conjugates through the universal sums, read in
    Z/p^i by counting multiples of 1 through the same sums."""
    p, i = w.p, w.level
    F = w.coords[0].field
    acc, x = w, w
    for _ in range(F.e - 1):
        x = x.frobenius()
        acc = _oracle_add(struct, acc, x)
    one = WittVector.teichmuller(p, F.one, i)
    multiple = WittVector.zeros(p, F.zero, i)
    for m in range(p ** i):
        if multiple == acc:
            return m
        multiple = _oracle_add(struct, multiple, one)
    raise AssertionError(f"trace {acc} escaped W(F_{p})")


@pytest.mark.parametrize("p,e", ORACLE_PE)
def test_trace_int_agrees_with_conjugate_sum(p, e):
    F = gf(p, e)
    els = list(F.elements())
    for i in range(1, max_structure_level(p) + 1):
        struct = witt_structure(p, i)
        if (p, e, i) == (2, 2, 2):
            vectors = [WittVector(p, c)
                       for c in itertools.product(els, repeat=i)]
        else:
            rng = random.Random(100 * p + 10 * e + i)
            vectors = [WittVector(p, tuple(rng.choice(els) for _ in range(i)))
                       for _ in range(4)]
        for w in vectors:
            assert w.trace_int() == _oracle_trace_int(struct, w)


def test_finite_arithmetic_never_generates_structures(monkeypatch):
    def refuse(p, i):
        raise AssertionError(f"generated the structure for p={p}, i={i}")
    monkeypatch.setattr(witt, "_generate", refuse)
    monkeypatch.setattr(witt, "_memory_cache", {})
    for (p, e, i) in [(2, 1, 4), (3, 1, 4), (2, 2, 3)]:
        F = gf(p, e)
        rng = random.Random(p + e + i)
        els = list(F.elements())
        for _ in range(5):
            u = WittVector(p, tuple(rng.choice(els) for _ in range(i)))
            v = WittVector(p, tuple(rng.choice(els) for _ in range(i)))
            assert (u + v) - v == u
            assert u * v == v * u
            assert -u + u == WittVector.zeros(p, F.zero, i)
            assert (u + v).trace_int() == (u.trace_int() + v.trace_int()) \
                % p ** i
            w = witt_as_solve(u)
            assert (w is None) == (u.trace_int() != 0)
            assert w is None or w.wp() == u


def test_galois_ring_negative_power():
    R = galois_ring(gf(2), 3)
    assert R.elem(3) ** -1 == R.elem(3)
    assert R.elem(5) ** -2 == R.one
    R4 = galois_ring(gf(2, 2), 2)
    x = R4.elem([1, 3])
    assert x ** -3 * x ** 3 == R4.one
    for non_unit in (R.elem(2), R.zero, R4.elem([2, 2])):
        with pytest.raises(DivisionByZero):
            non_unit ** -1


@pytest.mark.parametrize("p,i,e", [(2, 3, 2), (3, 2, 1), (2, 4, 1)])
def test_galois_ring_inverses_are_memoized(p, i, e):
    """Every unit of a new GR(p^i, e) has its inverse on the first call and
    on the repeated one, which the memo answers; every non-unit raises
    DivisionByZero both times and is not stored."""
    R = GaloisRing(gf(p, e), i)
    elems = [R.elem(list(c))
             for c in itertools.product(range(p ** i), repeat=e)]
    units = [u for u in elems if R.reduce(u)]
    assert len(units) == (p ** e - 1) * p ** (e * (i - 1))
    for _ in range(2):
        for u in units:
            assert u * R.inv(u) == R.one
        for x in elems:
            if not R.reduce(x):
                with pytest.raises(DivisionByZero):
                    R.inv(x)
    assert len(R._inv_cache) == len(units)


def test_galois_ring_power_survives_optimized_mode():
    code = ("from katoforge import DivisionByZero, galois_ring, gf\n"
            "R = galois_ring(gf(2), 3)\n"
            "print(R.elem(3) ** -1)\n"
            "try:\n"
            "    print(R.elem(2) ** -1)\n"
            "except DivisionByZero:\n"
            "    print('refused')\n")
    assert run_optimized(code) == "GR(3,)\nrefused\n"


def test_galois_ring_refuses_elements_of_another_field():
    F4 = gf(2, 2)
    R = galois_ring(F4, 2)
    # the residue field GF(2^3) and the rings GR(2^3, 2) and GR(2^2, 1)
    # differ from R in one parameter each
    foreign = [gf(2, 3).gen, galois_ring(F4, 3).one, galois_ring(gf(2), 2).one]
    calls = [R.lift, R.teich, R.reduce, R.trace_int, R.inv]
    for call in calls:
        for x in foreign:
            with pytest.raises(ConfigMismatch):
                call(x)
    assert R.reduce(R.teich(F4.gen)) == F4.gen
    assert R.trace_int(R.lift(F4.one)) == 2


def test_galois_ring_refuses_elements_of_another_field_when_optimized():
    code = ("from katoforge import ConfigMismatch, galois_ring, gf\n"
            "R = galois_ring(gf(2, 2), 2)\n"
            "S = galois_ring(gf(2, 3), 2)\n"
            "for call, x in ((R.lift, S.field.gen), (R.teich, S.field.gen),\n"
            "                (R.reduce, S.one), (R.trace_int, S.one)):\n"
            "    try:\n"
            "        print(call(x))\n"
            "    except ConfigMismatch:\n"
            "        print('refused')\n")
    assert run_optimized(code) == "refused\n" * 4


def test_witt_over_function_field():
    # the universal polynomials drive arithmetic over F_q(t) coordinates
    K = func_field(gf(2), ("t",))
    rng = random.Random(4)
    for _ in range(10):
        u = WittVector(2, (random_ratfunc(rng, K), random_ratfunc(rng, K)))
        v = WittVector(2, (random_ratfunc(rng, K), random_ratfunc(rng, K)))
        assert u + v == v + u
        assert (u + v) - v == u
        assert u.wp() == u.frobenius() - u


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_neg_teichmuller_matches_the_negation_polynomials(p, e):
    """-[a] built coordinate-wise equals -[a] through the N polynomials at
    every level up to max_structure_level(p): exactly over F_q(t), and over
    F_q((t)) up to the oracle's precision, which it never falls below; a
    series known further gives the same coordinates to their precision."""
    F = gf(p, e)
    K = func_field(F, ("t",))
    elems = list(F.elements())
    rng = random.Random(f"neg-teich:{p}:{e}")
    for level in range(1, max_structure_level(p) + 1):
        for val in (-3, 0, 2):
            known = [rng.choice(elems[1:])] + [rng.choice(elems)
                                               for _ in range(4)]
            a = Laurent(F, val, known, val + 5)
            long_a = Laurent(F, val, known + [rng.choice(elems)] * 3,
                             val + 8)
            got = neg_teichmuller(p, a, level)
            want = -WittVector.teichmuller(p, a, level)
            longer = neg_teichmuller(p, long_a, level)
            for x, y, z in zip(got.coords, want.coords, longer.coords):
                assert x.prec >= y.prec
                assert x.truncate(y.prec) == y
                assert z.truncate(x.prec) == x
        r = random_ratfunc(rng, K)
        assert neg_teichmuller(p, r, level) == \
            -WittVector.teichmuller(p, r, level)


@pytest.mark.parametrize("p,e,level", [(2, 1, 1), (2, 1, 2), (2, 1, 3),
                                         (2, 1, 4), (3, 1, 2), (3, 1, 3),
                                         (2, 2, 2), (2, 2, 3), (5, 1, 2)])
@settings(max_examples=10)   # each example runs all p^level residues
@given(data=st.data())
def test_int_mul_on_laurent_coordinates(p, e, level, data):
    """w.int_mul(m), for every residue m mod p^level, negative m and
    m >= p^level, against the m-fold sum (`witt_oracle.check_int_mul`):
    equal up to the lower precision, never less precise, and inputs known
    to 6 more coefficients (any values there) agree with it up to its
    precision, so that precision is sound."""
    F = gf(p, e)
    elems = st.sampled_from(list(F.elements()))
    low, high = [], []
    for _ in range(level):
        val = data.draw(st.integers(-3, 2))
        prec = val + data.draw(st.integers(0, 8))
        known = data.draw(st.lists(elems, min_size=prec - val,
                                   max_size=prec - val))
        tail = data.draw(st.lists(elems, min_size=6, max_size=6))
        low.append(Laurent(F, val, known, prec))
        high.append(Laurent(F, val, known + tail, prec + 6))
    check_int_mul(WittVector(p, low), WittVector(p, high))


@pytest.mark.parametrize("p,e,level", [(2, 1, 2), (2, 1, 3), (2, 1, 4),
                                         (3, 1, 2), (2, 2, 3), (5, 1, 2)])
def test_int_mul_on_rational_coordinates(p, e, level):
    """Over F_q(t), w.int_mul(m) equals the m-fold sum exactly, for every
    residue m mod p^level, negative m and m >= p^level."""
    rng = random.Random(f"int_mul {p} {e} {level}")
    K = func_field(gf(p, e), ("t",))
    for _ in range(2):
        check_int_mul(WittVector(p, [
            random_ratfunc(rng, K, max_deg=2) if rng.random() < 0.8
            else K.zero for _ in range(level)]))


def test_p_power_multiples_take_no_witt_sum(monkeypatch):
    """p^k w and -p^k w are V^k F^k(w) and V^k F^k(-w): Frobenius powers,
    a shift and at most one negation, with no sum or product, over F_q(t)
    and F_q((t)).  The values are checked against the m-fold sum by the
    two tests above."""
    K2, K3 = func_field(gf(2), ("t",)), func_field(gf(3), ("t",))
    t, s = K2.var("t"), K3.var("t")
    vectors = [WittVector(2, [K2.one / t + t, t * t, K2.one / (t + K2.one),
                              K2.one]),
               WittVector(3, [K3.one / s, s, s * s]),
               WittVector(2, [Laurent(gf(2), -3, [gf(2).one] * 5, 4)] * 4)]

    def refuse(*args):
        raise AssertionError("took a Witt sum or product")

    monkeypatch.setattr(WittVector, "_binop", refuse)
    for w in vectors:
        for k in range(w.level):
            for m in (w.p ** k, -w.p ** k):
                assert w.int_mul(m).level == w.level


def test_max_structure_level_table():
    assert [max_structure_level(p) for p in (2, 3, 5, 7, 11, 13)] \
        == [5, 4, 3, 3, 2, 2]
    with pytest.raises(ResourceLimit):
        witt_structure(2, 6)


def test_level_2_stops_at_the_prime_bound(monkeypatch):
    """Generating W_2 costs about p^2, so past p = 1021 only W_1 is
    offered, and a longer request is refused before any generation."""
    assert [max_structure_level(p) for p in (1021, 1031, 16777213)] \
        == [2, 1, 1]

    def refuse(p, i):
        raise AssertionError(f"generated W_{i} over F_{p}")

    monkeypatch.setattr(witt, "_generate", refuse)
    for p in (1031, 16777213):          # both prime
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="max i=1"):
            witt_structure(p, 2)
        assert time.perf_counter() - start < 0.1


def test_level_beyond_bound_fails_fast():
    # one + or * at W_6 over F_2(t) takes seconds; the bound refuses it
    # up front
    K = func_field(gf(2), ("t",))
    t = K.var("t")
    w = WittVector(2, (K.one / t,) + (K.zero,) * 5)
    with pytest.raises(ResourceLimit):
        HClass.build(K, w, [t + K.one])


_SUM_OVER_F2T = """
from katoforge import WittVector, func_field, gf
K = func_field(gf(2), ("t",))
t = K.var("t")
w = WittVector(2, (K.one / t, K.zero))
print(w + w)
"""


def _fresh_stdout(code, **env):
    """stdout of code run in a new interpreter, env added to its
    environment."""
    src = os.path.dirname(os.path.dirname(katoforge.__file__))
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src, **env),
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return out.stdout


def test_structure_files_are_never_read(tmp_path):
    # S_1 = a_1 + b_1 - a_0 b_0 with -2 for -1; read, it would make
    # [1/t, 0] + [1/t, 0] over F_2(t) come out [0, 0]
    text = _structure_text(witt_structure(2, 2))
    tampered = text.replace("\n-1 1 0 1 0\n", "\n-2 1 0 1 0\n")
    assert tampered != text
    (tmp_path / "wittpoly-v1-p2-i2.txt").write_text(tampered)
    cdir = str(tmp_path)
    script = tmp_path / "sum.kf"
    script.write_text("field F = GF(2)(t)\nlet s = [1/t, 0] + [1/t, 0]\n")
    expected = "[0, 1/t^2]"
    through_setter = _fresh_stdout(
        f"import katoforge\nkatoforge.set_cache_dir({cdir!r})"
        + _SUM_OVER_F2T)
    through_env = _fresh_stdout(_SUM_OVER_F2T, KATOFORGE_CACHE=cdir)
    through_main = _fresh_stdout(
        "from katoforge.cli import main\n"
        f"main([{str(script)!r}])", KATOFORGE_CACHE=cdir)
    assert through_setter == through_env == expected + "\n"
    assert through_main == f"field: GF(2)(t)\nlet: {expected}\n"


@pytest.mark.parametrize("p,e,i", [(5, 1, 4), (5, 2, 4), (7, 1, 4),
                                   (11, 1, 3), (11, 2, 3)])
def test_finite_arithmetic_past_polynomial_bound(p, e, i):
    # finite arithmetic has no length bound: past max_structure_level(p) it
    # still matches the Galois ring
    assert i > max_structure_level(p)
    F = gf(p, e)
    R = galois_ring(F, i)
    rng = random.Random(p * i + e)
    elems = list(F.elements())
    for _ in range(5):
        x = R.from_digits([rng.choice(elems) for _ in range(i)])
        y = R.from_digits([rng.choice(elems) for _ in range(i)])
        u = from_galois_ring(R, x, p, i)
        v = from_galois_ring(R, y, p, i)
        assert u + v == from_galois_ring(R, x + y, p, i)
        assert u * v == from_galois_ring(R, x * y, p, i)
        assert u - v == from_galois_ring(R, x - y, p, i)
        assert -u == from_galois_ring(R, -x, p, i)
        w = witt_as_solve(u)
        assert w is None or w.wp() == u


def test_int_mul_by_one_returns_the_operand(monkeypatch):
    """m = 1 (mod p^level) returns a finite vector itself, and
    m = 0 (mod p^level) the zero vector, with no Galois ring round trip; on
    F_q(t) coordinates the level check stays."""
    def refuse(*args):
        raise AssertionError("took a Galois ring round trip")

    monkeypatch.setattr(witt, "galois_ring", refuse)
    for p, e, level in [(2, 1, 1), (2, 2, 3), (3, 1, 2), (5, 1, 4)]:
        F = gf(p, e)
        w = WittVector(p, (F.gen,) * level)
        for m in (1, 1 + p ** level, 1 - 3 * p ** level):
            assert w.int_mul(m) is w
        for m in (0, p ** level, -2 * p ** level):
            assert w.int_mul(m) == WittVector.zeros(p, F.zero, level)
    with pytest.raises(AssertionError, match="round trip"):
        w.int_mul(2)
    K = func_field(gf(2), ("t",))
    t = K.var("t")
    with pytest.raises(ResourceLimit):
        WittVector(2, (K.one / t,) + (K.zero,) * 5).int_mul(1)


HUGE_PRIME = 2 ** 61 - 1     # trial division to its square root takes hours


@pytest.mark.parametrize("case", ["gf", "witt_structure"])
def test_huge_primes_are_refused_quickly(case):
    """A characteristic past the field-order bound 2^24 is refused with a
    typed error before any primality test.  Each case runs in a new
    interpreter under a timeout, so a regression fails, not hangs."""
    call = {"gf": f"katoforge.gf({HUGE_PRIME})",
            "witt_structure":
                f"katoforge.witt_structure({HUGE_PRIME}, 1)"}[case]
    code = ("import katoforge\n"
            "try:\n"
            f"    print({call})\n"
            "except katoforge.ResourceLimit as exc:\n"
            "    print(exc)\n")
    assert "exceeds the bound" in _fresh_stdout(code)
