"""One measured run of one workload, in its own interpreter.

Started by run.py with PYTHONPATH at the checkout's src/ and KATOFORGE_CACHE
at an empty directory.  Warms up on inputs from another seed, then either
times a closed loop for the given seconds (--trace 0; times normalized to
the reference host speed, see calibrate.py) or runs a fixed number of
operations, every other one traced (--trace 1).  Prints one JSON record as
its last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import time

import katoforge
from calibrate import kernel_seconds, normalize
from workloads import (WORKLOADS, CheckFailed, spec_stream, warmup_stream)

WARMUP_CYCLES = 2          # full cycles of the cell schedule before timing
OP_TIMEOUT_S = 30.0        # an operation running longer counts as a hang
MAX_FAILURES_LISTED = 20
TRACE_WALL_FACTOR = 6      # the traced pass stops early past seconds * this


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so library handlers let it by."""


def _alarm(signum, frame):
    raise OpTimeout()


class Runner:
    """Builds, runs and checks operations; keeps the counts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _fail(self, spec, reason):
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_LISTED:
            self.failures.append({"input": repr(spec), "reason": reason})

    def one(self, spec, tracer=None):
        """Run one operation; returns its duration in seconds, or None when
        its input could not be built."""
        wl = self.workload
        self.digest.update(repr(spec).encode() + b"\n")
        self.attempted += 1
        try:
            inputs = wl.build(spec)
        except Exception as exc:
            self._fail(spec, f"building the input raised "
                             f"{type(exc).__name__}: {exc}")
            return None
        reason = None
        if tracer is not None:
            tracer.install()
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        start = time.perf_counter()
        try:
            out = wl.run(inputs)
        except OpTimeout:
            reason = f"hang: no result after {OP_TIMEOUT_S} s"
        except Exception as exc:
            reason = f"raised {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.uninstall()
                tracer.fold()
        if reason is None:
            try:
                wl.check(inputs, out)
            except CheckFailed as exc:
                reason = f"wrong answer: {exc}"
            except Exception as exc:
                reason = f"oracle raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self._fail(spec, reason)
        return elapsed


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _latency(times):
    return {"ops_per_s": len(times) / sum(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_p95_ms": _quantile(times, 95) * 1e3}


def timed_pass(runner, stream, seconds):
    """Closed loop for the given seconds.  Each operation's time is
    normalized by the reference kernel timed just before and after it."""
    raw, times = [], []
    kernel = kernel_seconds()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        elapsed = runner.one(next(stream))
        if elapsed is None:
            continue
        after = kernel_seconds()
        raw.append(elapsed)
        times.append(normalize(elapsed, kernel, after))
        kernel = after
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p95_ms": "ms"}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in _latency(times).items()}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return metrics, _latency(raw), len(times)


def traced_pass(runner, stream, seconds):
    from tracing import Tracer, per_layer_metrics
    tracer = Tracer()
    n_ops = max(4, round(runner.workload.trace_rate * seconds))
    traced, plain = [], []
    start = time.perf_counter()
    for k in range(n_ops):
        if time.perf_counter() - start > TRACE_WALL_FACTOR * seconds:
            break
        if k % 2:
            elapsed = runner.one(next(stream))
            if elapsed is not None:
                plain.append(elapsed)
        else:
            elapsed = runner.one(next(stream), tracer)
            if elapsed is not None:
                traced.append(elapsed)
    values = tracer.values()
    values["trace.overhead"] = (statistics.median(traced)
                                / statistics.median(plain)
                                if traced and plain else 0.0)
    return ({name: {"value": values[name], "unit": unit}
             for name, unit, _ in per_layer_metrics()},
            None, len(traced) + len(plain))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _alarm)
    katoforge.set_cache_dir(os.environ["KATOFORGE_CACHE"])
    wl = WORKLOADS[args.workload]
    wl.setup()
    runner = Runner(wl)
    warm = warmup_stream(wl, args.seed)
    cycle = sum(weight for _, weight in wl.cells)
    for _ in range(WARMUP_CYCLES * cycle):
        runner.one(next(warm))
    warmup_ops = runner.attempted
    stream = spec_stream(wl, args.seed)
    if args.trace:
        metrics, raw, ops = traced_pass(runner, stream, args.seconds)
    else:
        metrics, raw, ops = timed_pass(runner, stream, args.seconds)
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "library": katoforge.__file__,
        "warmup_ops": warmup_ops, "measured_ops": ops,
        "attempted": runner.attempted, "failed": runner.failed,
        "failures": runner.failures,
        "inputs_sha256": runner.digest.hexdigest(),
        "metrics": metrics, "raw": raw,
    }))


if __name__ == "__main__":
    main()
