"""The benchmark's tracer (perfbench/tracing.py) wraps library names from
outside; a rename or deletion in the library must fail here, not only in a
traced benchmark run."""

import importlib.util
import pathlib

from katoforge import WittVector, gf

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" \
    / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trace_plan_builds_and_restores():
    tracing = _tracing()
    tracer = tracing.Tracer()
    plan = tracer._make_plan()     # KeyError/AttributeError on a lost name
    assert len(plan) >= len(tracing.SPANS) + len(tracing.COUNTS)
    add = WittVector.__add__
    F4 = gf(2, 2)
    w = WittVector(2, (F4.gen, F4.one))
    tracer.install()
    try:
        assert (w + w).trace_int() == (2 * w.trace_int()) % 4
    finally:
        tracer.uninstall()
    tracer.fold()
    assert WittVector.__add__ is add
    assert tracer.calls["witt.arith_finite"] == 1
    assert tracer.calls["witt.trace_int"] == 2
