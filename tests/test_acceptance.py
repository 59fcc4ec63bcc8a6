"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (run with -s to see them); every
tolerance is zero, every randomized count is fixed here, and the seeds are
frozen so the suite is reproducible.
"""

import io
import itertools
import json
import random

import pytest

from katoforge import (ASExtension, HClass, Laurent, MilnorElement, Place,
                       Poly, WildClass, WittVector, colimit_equal,
                       ColimitClass, d_symbol, decompose_local, func_field,
                       gf, h_zero_test, kn_equal, laurent_field, level_shift,
                       local_invariant, reciprocity_check, symbol_expand,
                       verify_ghost_identities, witt_as_solve,
                       witt_standard_form)
from katoforge.forms import d_of_function
from katoforge.kato import _t_place, class_places
from katoforge.cli import run_script

from conftest import random_form, random_ratfunc


def _report(criterion, name, ok):
    print(f"ACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({name}) failed"


# ---------------------------------------------------------------- 1 ----

def test_criterion_1_witt_ring_suite():
    rng = random.Random(101)
    checks = 0
    ok = True
    for p in (2, 3):
        for i in (1, 2, 3):
            for q_e in (1, 2):
                F = gf(p, q_e)
                els = list(F.elements())
                for _ in range(14):
                    u, v, w = (WittVector(p, tuple(rng.choice(els)
                                                   for _ in range(i)))
                               for _ in range(3))
                    ok &= (u + v) + w == u + (v + w)
                    ok &= u * (v + w) == u * v + u * w
                    ok &= v.verschiebung().frobenius() == v.int_mul(p)
                    checks += 3
    ok &= checks >= 500
    for p in (2, 3):
        for i in (1, 2, 3):
            Fp = gf(p)
            t = WittVector.teichmuller(p, Fp.one, i)
            acc = t
            order = 1
            zero = WittVector(p, (Fp.zero,) * i)
            while acc != zero:
                acc = acc + t
                order += 1
            ok &= order == p ** i
            ok &= verify_ghost_identities(p, i)
    _report(1, "witt ring suite", ok)


# ---------------------------------------------------------------- 2 ----

def test_criterion_2_asw_solvability():
    families = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]
    ok = True
    for p, e in families:
        q = p ** e
        F = gf(p, e)
        i = 1
        while q ** (i + 1) <= 256:
            i += 1
        for level in range(1, i + 1):
            solvable = 0
            total = 0
            for coords in itertools.product(list(F.elements()), repeat=level):
                v = WittVector(p, coords)
                w = witt_as_solve(v)
                ok &= (w is not None) == (v.trace_int() == 0)
                if w is not None:
                    solvable += 1
                    ok &= w.wp() == v
                total += 1
            ok &= solvable == total // p ** level   # p^i quotient classes
    _report(2, "Artin-Schreier-Witt solvability", ok)


# ---------------------------------------------------------------- 3 ----

def test_criterion_3_cartier_suite():
    rng = random.Random(103)
    ok = True
    count = 0
    configs = [(2, 1, ("t",)), (3, 1, ("t",)), (2, 2, ("t",)),
               (2, 1, ("x", "y")), (3, 1, ("x", "y")), (2, 2, ("x", "y"))]
    for (p, e, vars) in configs:
        K = func_field(gf(p, e), vars)

        def rf():
            return random_ratfunc(rng, K, max_deg=2)
        for _ in range(50):
            w = random_form(K, 1, rng, rf)
            ci = w.cartier_inv()
            ok &= ci.is_closed()
            ok &= ci.cartier() == w                        # C o C^-1 = id
            ok &= (ci + d_of_function(rf())).cartier() == w
            ok &= d_of_function(rf()).d().is_zero()        # d o d = 0
            # the two membership characterizations agree
            sample = [w, ci][count % 2]
            phi = sample.cartier_inv() - sample
            lhs = phi.is_exact()
            rhs = sample.is_closed() and sample.cartier() == sample
            ok &= lhs == rhs
            count += 1
    ok &= count >= 300
    _report(3, "Cartier suite", ok)


# ---------------------------------------------------------------- 4 ----

def test_criterion_4_differential_symbol():
    rng = random.Random(104)
    ok = True
    cases = 0
    for (p, e, vars) in [(2, 1, ("t",)), (3, 1, ("x", "y")),
                         (2, 2, ("x", "y")), (3, 1, ("t",))]:
        K = func_field(gf(p, e), vars)
        while True:
            a = random_ratfunc(rng, K, max_deg=2)
            b = random_ratfunc(rng, K, max_deg=2)
            if a.is_zero() or b.is_zero() or (K.one - a).is_zero():
                continue
            # Steinberg instance
            s = MilnorElement.symbol(K, [a, K.one - a])
            ok &= d_symbol(s).is_zero()
            ok &= d_symbol(symbol_expand(s)).is_zero()
            # bilinearity instance
            s2 = MilnorElement.symbol(K, [a * b, b]) - \
                MilnorElement.symbol(K, [a, b]) - \
                MilnorElement.symbol(K, [b, b])
            ok &= d_symbol(s2).is_zero()
            # images pass the membership test
            img = d_symbol(MilnorElement.symbol(K, [a, b]))
            ok &= img.is_zero() or img.is_logarithmic()
            cases += 2
            if cases % 50 == 0:
                break
    ok &= cases >= 200
    L2 = func_field(gf(2), ("x", "y"))
    x2, y2 = L2.var("x"), L2.var("y")
    ok &= kn_equal(MilnorElement.symbol(L2, [x2, y2]),
                   MilnorElement.symbol(L2, [y2, x2]))
    L3 = func_field(gf(3), ("x", "y"))
    x3, y3 = L3.var("x"), L3.var("y")
    ok &= not kn_equal(MilnorElement.symbol(L3, [x3, y3]),
                       MilnorElement.symbol(L3, [y3, x3]))
    _report(4, "differential symbol suite", ok)


# ---------------------------------------------------------------- 5 ----

def test_criterion_5_reciprocity():
    rng = random.Random(105)
    ok = True
    # level 1, q in {2, 3, 4}: 200 classes
    done = 0
    for (p, e) in [(2, 1), (3, 1), (2, 2)]:
        K = func_field(gf(p, e), ("t",))
        for _ in range(67):
            w = WittVector(p, (random_ratfunc(rng, K, max_deg=2),))
            b = random_ratfunc(rng, K, max_deg=2)
            if b.is_zero():
                continue
            good, _ = reciprocity_check(HClass.build(K, w, (b,)))
            ok &= good
            done += 1
    ok &= done >= 195
    # level 2, p = 2: 100 classes
    K = func_field(gf(2), ("t",))
    done2 = 0
    for _ in range(100):
        w = WittVector(2, (random_ratfunc(rng, K, max_deg=2),
                           random_ratfunc(rng, K, max_deg=2)))
        b = random_ratfunc(rng, K, max_deg=2)
        if b.is_zero():
            continue
        good, table = reciprocity_check(HClass.build(K, w, (b,)))
        ok &= good
        ok &= all(inv.modulus == 4 for inv in table)
        done2 += 1
    ok &= done2 >= 95
    # the worked class
    t = K.var("t")
    good, table = reciprocity_check(
        HClass.build(K, WittVector(2, (K.one / t,)), (K.one + t,)))
    ok &= good
    ok &= {repr(i.place): i.value for i in table} == \
        {"t": 1, "t+1": 1, "inf": 0}
    _report(5, "residue theorem / reciprocity", ok)


# ---------------------------------------------------------------- 6 ----

def test_criterion_6_local_decomposition():
    rng = random.Random(106)
    ok = True
    done = 0
    for (p, e) in [(2, 1), (3, 1), (2, 2)]:
        F = gf(p, e)
        LF = laurent_field(F)
        els = list(F.elements())
        for _ in range(34):
            coords = []
            for _ in range(2):
                cs = [rng.choice(els) for _ in range(6)]
                coords.append(Laurent(F, rng.randint(0, 2), cs, 32))
            w = WittVector(p, tuple(coords))
            unit = Laurent(F, 0, [F.one] + [rng.choice(els)
                                            for _ in range(4)], 32)
            b = unit.shift(rng.randint(-2, 2))
            c = HClass.build(LF, w, (b,))
            spec, resid = decompose_local(c)
            total = None
            for ww, _ in resid.terms:
                total = ww if total is None else total + ww
            expect = total.trace_int() if total is not None else 0
            ok &= local_invariant(c, _t_place(LF)).value == expect
            done += 1
    ok &= done >= 100
    # WildClass fires exactly on surviving prime-to-p pole orders
    F2 = gf(2)
    LF2 = laurent_field(F2)
    tt = Laurent.monomial(F2, F2.one, 1, 32)
    with pytest.raises(WildClass):
        decompose_local(HClass.build(LF2, WittVector(2, (tt.inverse(),)),
                                     (tt,)))
    # order divisible by p reduces instead of raising
    a = Laurent(F2, -2, [F2.one, F2.one], 32)     # t^-2 + t^-1 = wp(t^-1)
    red, wild = witt_standard_form(WittVector(2, (a,)), F2)
    ok &= not wild
    decompose_local(HClass.build(LF2, WittVector(2, (a,)), (tt,)))
    _report(6, "local field decomposition", ok)


# ---------------------------------------------------------------- 7 ----

def test_criterion_7_level_maps():
    rng = random.Random(107)
    ok = True
    K = func_field(gf(2), ("t",))
    pt = Place(Poly.x(gf(2)))
    distinguishable = 0
    for _ in range(25):
        w1 = WittVector(2, (random_ratfunc(rng, K, max_deg=2),))
        w2 = WittVector(2, (random_ratfunc(rng, K, max_deg=2),))
        b1 = random_ratfunc(rng, K, max_deg=2)
        b2 = random_ratfunc(rng, K, max_deg=2)
        if b1.is_zero() or b2.is_zero():
            continue
        c1 = HClass.build(K, w1, (b1,))
        c2 = HClass.build(K, w2, (b2,))
        # additive
        lhs = level_shift(c1 + c2, 2)
        rhs = level_shift(c1, 2) + level_shift(c2, 2)
        for pl in set(class_places(lhs)) | set(class_places(rhs)):
            ok &= local_invariant(lhs, pl).value == \
                local_invariant(rhs, pl).value
        # invariant-compatible: factor p^(i'-i)
        for pl in class_places(c1):
            i1 = local_invariant(c1, pl).value
            i2 = local_invariant(level_shift(c1, 2), pl).value
            ok &= i2 == (2 * i1) % 4
        # injectivity on invariant-distinguishable classes
        if local_invariant(c1, pt).value != 0:
            distinguishable += 1
            ok &= local_invariant(level_shift(c1, 2), pt).value != 0
            ok &= not colimit_equal(
                ColimitClass(c1), ColimitClass(HClass.zero(K, 1, 1)))
        # torsion: p^i * shifted level-i class dies
        killed = level_shift(c1, 2).int_mul(2)
        ok &= h_zero_test(killed)
    ok &= distinguishable >= 5
    _report(7, "level maps", ok)


# ---------------------------------------------------------------- 8 ----

def test_criterion_8_cyclic_extension_composites():
    rng = random.Random(108)
    ok = True
    for p in (2, 3):
        K = func_field(gf(p), ("t",))
        ext = ASExtension(K)
        t = K.var("t")
        done = 0
        while done < 50:
            a = random_ratfunc(rng, ext.L, max_deg=2)
            bb = ext.restrict_rf(random_ratfunc(rng, K, max_deg=2))
            if a.is_zero() or bb.is_zero():
                continue
            x = MilnorElement.symbol(ext.L, [a, bb])
            comp = ext.norm_proj(ext.one_minus_sigma(x))
            ok &= kn_equal(comp, MilnorElement.zero(K, 2))
            done += 1
        # restriction of (a | b) to L vanishes: a = t = wp(u) upstairs
        LF = ext.L
        u = ext.u
        for _ in range(10):
            b = random_ratfunc(rng, K, max_deg=2)
            if b.is_zero():
                continue
            upstairs = HClass.build(
                LF, WittVector(p, (ext.restrict_rf(t),)),
                (ext.restrict_rf(b),))
            ok &= h_zero_test(upstairs)
        # (t | N(l)) has an all-zero invariant table
        for _ in range(10):
            l = random_ratfunc(rng, ext.L, max_deg=2)
            if l.is_zero():
                continue
            nl = ext.norm_rf(l)
            if nl.is_zero():
                continue
            cls = HClass.build(K, WittVector(p, (t,)), (nl,))
            good, table = reciprocity_check(cls)
            ok &= good and all(inv.value == 0 for inv in table)
    _report(8, "cyclic-extension composites", ok)


# ---------------------------------------------------------------- 9 ----

GOLDEN_SCRIPT = """\
field F = GF(2)(t)
recip [ [1/t] | 1+t )
inv [ [1/t] | 1+t ) at t
inv [ [0, 1/t] | 1+t ) at t
zero [ [t^2+t] | t )
recip [ [t] | t^3+t+1 )
field L = GF(2)(u)
zero [ [u^2+u] | u^2+u+1 )
recip [ [u] | u^2+u )
dsym {t, t+1} in F
"""


def test_criterion_9_cli_golden():
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        rc = run_script(GOLDEN_SCRIPT, json_mode=True, out=buf)
        assert rc == 0
        outs.append(buf.getvalue())
    ok = outs[0] == outs[1]
    lines = [json.loads(ln) for ln in outs[0].splitlines()]
    recip = next(l for l in lines if l["op"] == "recip")
    ok &= recip["result"]["table"] == [
        {"place": "t", "inv": 1, "mod": 2},
        {"place": "t+1", "inv": 1, "mod": 2},
        {"place": "inf", "inv": 0, "mod": 2},
    ]
    zeros = [l for l in lines if l["op"] == "zero"]
    ok &= all(l["result"] is True for l in zeros)
    shifted = next(l for l in lines if l["op"] == "inv"
                   and "[0, 1/t]" in l["inputs"]["class"])
    ok &= shifted["result"] == {"place": "t", "inv": 2, "mod": 4}
    urecip = [l for l in lines if l["op"] == "recip"][-1]
    ok &= [row["place"] for row in urecip["result"]["table"]] == \
        ["u+1", "inf"]
    # (t | t^3+t+1) pairs the extension class with a norm: all zeros
    norm_recip = [l for l in lines if l["op"] == "recip"][1]
    ok &= "t^3+t+1" in norm_recip["inputs"]["class"]
    ok &= all(row["inv"] == 0 for row in norm_recip["result"]["table"])
    _report(9, "CLI golden run", ok)
