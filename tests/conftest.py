import os
import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import settings, strategies as st

import katoforge
from katoforge import DiffForm, MPoly, func_field, gf

# Property tests draw the same examples on every run and never time out, so
# the suite stays deterministic; max_examples keeps it fast.
settings.register_profile("katoforge", derandomize=True, deadline=None,
                          database=None, max_examples=30)
settings.load_profile("katoforge")


# F_2(t), F_3(t), F_4(t), F_{2,3,4}(x,y), F_{2,3}(x,y,z) as (p, e, vars); the
# 3-variable fields reach Brown's loop with a recursive image gcd
ORACLE_FIELDS = [(2, 1, ("t",)), (3, 1, ("t",)), (2, 2, ("t",)),
                 (2, 1, ("x", "y")), (3, 1, ("x", "y")), (2, 2, ("x", "y")),
                 (2, 1, ("x", "y", "z")), (3, 1, ("x", "y", "z"))]


# the per-process memos under the Schmid-Witt residue: a test that reads
# their counters empties them first
RESIDUE_MEMOS = (katoforge.places.PlaceContext.expand,
                 katoforge.kato._ghost_term, katoforge.kato._lifted_dlog)


def clear_residue_memos():
    for memo in RESIDUE_MEMOS:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def _residue_memos_cleared_after_patching(request):
    """After a test that patches, once its patches are undone, no series
    that a patched function made stays in the memos for the next test."""
    yield
    if "monkeypatch" in request.fixturenames:
        clear_residue_memos()


def run_optimized(code):
    """stdout of code run by ``python -O``, which strips every assert."""
    src = os.path.dirname(os.path.dirname(katoforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return out.stdout


def random_mpoly(rng, base, nvars, max_deg=3, max_terms=3):
    """Up to max_terms terms with nonzero coefficients; a repeated monomial
    keeps its last draw."""
    terms = {}
    nonzero = [c for c in base.elements() if c]
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[mono] = rng.choice(nonzero)
    return MPoly(base, nvars, terms)


@st.composite
def mpolys(draw, K, min_terms=0):
    base = K.base
    nonzero = [c for c in base.elements() if c]
    max_deg = 3 if K.k < 3 else 1
    monos = st.tuples(*[st.integers(0, max_deg)] * K.k)
    terms = draw(st.dictionaries(monos, st.sampled_from(nonzero),
                                 min_size=min_terms, max_size=3))
    return MPoly(base, K.k, terms)


@st.composite
def ratfuncs(draw, K):
    """A nonzero rational function with numerator and denominator from
    ``mpolys``."""
    return K.from_poly(draw(mpolys(K, min_terms=1)),
                       draw(mpolys(K, min_terms=1)))


def random_ratfunc(rng, field, max_deg=3, max_terms=3):
    base = field.base
    num = random_mpoly(rng, base, field.k, max_deg, max_terms)
    while num.is_zero():
        num = random_mpoly(rng, base, field.k, max_deg, max_terms)
    den = random_mpoly(rng, base, field.k, max_deg, max_terms)
    while den.is_zero():
        den = random_mpoly(rng, base, field.k, max_deg, max_terms)
    return field.from_poly(num, den)


def random_form(field, degree, rng, rand_func, max_terms=3):
    """A random form with coefficients from rand_func."""
    idx = list(combinations(range(field.k), degree))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        I = rng.choice(idx)
        c = rand_func()
        terms[I] = terms[I] + c if I in terms else c
    return DiffForm(field, degree, terms)


@pytest.fixture
def rng():
    return random.Random(20240801)


@pytest.fixture
def F2():
    return gf(2)


@pytest.fixture
def F3():
    return gf(3)


@pytest.fixture
def F4():
    return gf(2, 2)


@pytest.fixture
def K2t():
    return func_field(gf(2), ("t",))
