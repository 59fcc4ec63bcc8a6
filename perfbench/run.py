"""katoforge benchmark: four exact-algebra workloads, each result checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of forms_cartier, recip_global, local_decomp, cli_batch, or
``all`` for every workload in turn.  Run it from the root of a checkout: the
library is imported from ./src, nothing is installed.

--trace 0 prints the end-to-end metrics: throughput and the median and 95th
percentile latency of a single-client closed loop run for S seconds, peak
memory of that process, and the median set-up time of nine fresh
interpreters.  Times are normalized to a reference host speed measured
around every operation (calibrate.py); the raw figures are printed too.  --trace 1 prints the per-layer metrics of a separate run in
which every other operation is traced, and the tracing overhead.  Every
operation is checked against an exact oracle; failures are counted and the
failing inputs listed.  The last line of output is one JSON object.

Every interpreter started here gets PYTHONHASHSEED=0, no user site
directory, and its own empty Witt-structure cache directory under
.perfbench_tmp/, which is deleted at the end.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("forms_cartier", "recip_global", "local_decomp", "cli_batch")
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60
RUN_DEADLINE_S = 170        # a run must end well inside 180 s


class BenchError(Exception):
    pass


def _child_env(cache_dir):
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": SRC,
            "PYTHONHASHSEED": "0",
            "KATOFORGE_CACHE": cache_dir}


def _run_child(args, cache_dir, timeout):
    os.makedirs(cache_dir)
    try:
        proc = subprocess.run([sys.executable, "-s"] + args,
                              env=_child_env(cache_dir), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(name, run_dir):
    """Median (raw, normalized) over fresh interpreters, each with an empty
    structure cache."""
    raw, normalized = [], []
    for k in range(SETUP_REPEATS):
        line = _run_child([os.path.join(HERE, "probe.py"), name],
                          os.path.join(run_dir, f"setup-{name}-{k}"),
                          PROBE_TIMEOUT_S)
        took, scaled = map(float, line.split())
        raw.append(took)
        normalized.append(scaled)
    return statistics.median(raw), statistics.median(normalized)


def run_workload(name, args, run_dir, deadline):
    setup = None
    if not args.trace:
        setup = setup_seconds(name, run_dir)
    line = _run_child([os.path.join(HERE, "worker.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace)],
                      os.path.join(run_dir, f"run-{name}"),
                      max(1.0, deadline - time.monotonic()))
    rec = json.loads(line)
    if not rec["library"].startswith(SRC + os.sep):
        raise BenchError(f"imported the library from {rec['library']}, "
                         f"not from {SRC}")
    metrics = rec["metrics"]
    if setup is not None:
        rec["raw"]["setup_s"] = setup[0]
        metrics["setup_s"] = {"value": setup[1], "unit": "s"}
    return rec, metrics


def report(rec, metrics):
    frac = rec["failed"] / rec["attempted"]
    print(f"== {rec['workload']}  seed={rec['seed']}  trace={rec['trace']}  "
          f"measured_ops={rec['measured_ops']}  "
          f"warmup_ops={rec['warmup_ops']}")
    print(f"   inputs_sha256={rec['inputs_sha256']}")
    for name, m in metrics.items():
        print(f"   {name:34s} {m['value']:>16.6g} {m['unit']}")
    if rec["raw"]:
        print("   raw, not normalized: " + "  ".join(
            f"{k}={v:.6g}" for k, v in rec["raw"].items()))
    print(f"   {'fail_frac':34s} {frac:>16.6g} "
          f"({rec['failed']} of {rec['attempted']})")
    for f in rec["failures"]:
        print(f"   FAILED {f['reason']}\n          input {f['input']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills its child and the temporary
    # directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "katoforge", "__init__.py")):
        print(f"error: library source not found under {SRC}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    os.makedirs(TMP_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=TMP_ROOT)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args, run_dir, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    for rec, metrics in results:
        report(rec, metrics)
    attempted = sum(rec["attempted"] for rec, _ in results)
    failed = sum(rec["failed"] for rec, _ in results)
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{rec['workload']}.{k}": v
                   for rec, m in results for k, v in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
