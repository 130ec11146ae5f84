"""condemp benchmark: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload killed_converge --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file, never from an installed copy.  The last line of
standard output is the result, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: the median wall time of a pass
(``solve_s``, passes repeat while the next one fits in --seconds), the median
set-up time of five fresh processes (``setup_s``: interpreter start,
imports, config load and validation) and peak resident memory.  --trace 1
runs one untraced pass and then one traced pass, and reports per-layer self
times and counts from the traced pass (see spans.py).  The line above the
result is a detail document: environment, pass times, checks, accuracy
figures and layer shares.  ``attempted`` counts checks, with one extra per
pass for "ran without an exception"; ``failed`` counts those that failed
(``error_rate`` = failed / attempted).  ``correct`` is false when a pass
raised or an output missed its independent reference (workloads.Check).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (imports no condemp code until a Tracer installs)

SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60
# One caller, so no oversubscription of small machines, and BLAS reductions
# in a fixed order.  Set before numpy loads; set-up probes inherit it.
BLAS_THREADS = "1"
END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**62:
        p.error("--seed must be in [0, 2**62)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_workloads():
    """Import the workloads module, refusing anything but this checkout's code."""
    missing = [p for p in (ROOT / "src" / "condemp" / "__init__.py",
                           ROOT / "configs") if not p.exists()]
    if missing:
        sys.exit(f"benchmark needs the condemp checkout; missing {missing}")
    import workloads
    import condemp
    if Path(condemp.__file__).resolve().parent != ROOT / "src" / "condemp":
        sys.exit(f"imported condemp from {condemp.__file__}, not from {ROOT / 'src'}")
    return workloads


def _time_setup(workload: str, seed: int) -> list:
    """Wall time from spawning a fresh interpreter to its 'ready' line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.communicate(timeout=SETUP_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {line!r}")
        times.append(t1 - t0)
    return times


def _environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS), "cpu": cpu, "seed": seed,
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(wl, name: str, state: dict, record: dict) -> float:
    """One pass plus its checks; returns the pass's wall time."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = wl.run_pass(name, state)
    except Exception:                       # a failed pass is a measured outcome
        elapsed = time.perf_counter() - t0
        record["pass_cpu_s"].append(time.process_time() - c0)
        record["checks"].append({"name": "ran", "ok": False, "reference": True,
                                 "detail": traceback.format_exc(limit=3)})
        return elapsed
    elapsed = time.perf_counter() - t0
    record["pass_cpu_s"].append(time.process_time() - c0)
    checks, accuracy = wl.evaluate(name, state, result)
    record["checks"].append({"name": "ran", "ok": True, "reference": True, "detail": ""})
    record["checks"].extend(c._asdict() for c in checks)
    record["accuracy"].append(accuracy)
    return elapsed


def measure(wl, name: str, seed: int, seconds: float, trace: bool,
            overrides: dict | None = None, setup_times: list | None = None) -> dict:
    """Run the passes of one benchmark run and build its detail document."""
    state = wl.prepare(name, seed, overrides)
    record = {"workload": name, "checks": [], "accuracy": [], "pass_s": [], "pass_cpu_s": []}
    if trace:
        untraced = run_one(wl, name, state, record)
        with spans.Tracer(pass_id=1) as tracer:
            traced = run_one(wl, name, state, record)
        record["pass_s"] = [untraced, traced]
        metrics = tracer.layer_metrics(traced, untraced)
        record["layer_shares"] = {k: v / traced for k, v in metrics.items()
                                  if spans.PER_LAYER[k] == "s" and not k.startswith("trace.")}
        wl.OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(wl.OUT / f"spans-{name}-seed{seed}.json")
    else:
        start = time.perf_counter()
        while True:
            record["pass_s"].append(run_one(wl, name, state, record))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(record["pass_s"]) > seconds:
                break
        metrics = {"solve_s": statistics.median(record["pass_s"]),
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mib": _peak_rss_mib()}
        record["setup_s"] = setup_times
    attempted = len(record["checks"])
    failed = sum(not c["ok"] for c in record["checks"])
    correct = all(c["ok"] for c in record["checks"] if c["reference"])
    record.update(metrics=metrics, correct=correct, attempted=attempted, failed=failed,
                  error_rate=failed / attempted, passes=len(record["pass_s"]))
    return record


def with_units(metrics: dict, trace: bool) -> dict:
    units = spans.PER_LAYER if trace else END_TO_END
    return {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    wl = _import_workloads()
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    if args.setup_only:
        wl.prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    setup_times = None if args.trace else _time_setup(args.workload, args.seed)
    record = measure(wl, args.workload, args.seed, args.seconds, bool(args.trace),
                     setup_times=setup_times)
    record["environment"] = _environment(args.seed)
    print(json.dumps(record, default=float))
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": with_units(record["metrics"], bool(args.trace))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
