"""Benchmark of the carnot-bcp package: search, orbit and quotient workloads.

    python3 perfbench/run.py --workload search|orbit|quotient --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Each run measures in a fresh worker process (``worker.py``) with the BLAS and
OpenMP thread counts pinned to 1.  With ``--trace 0`` it also times the
set-up in ``SETUP_PROBES`` further fresh processes and reports the median.

Standard output ends with two JSON lines: a detail line (environment,
workload-named metrics, counts, span table) and the result line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is not 0 when no result can be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 4          # plus the measuring worker's own set-up
TIME_LIMIT_S = 170.0      # every process of one run ends within this
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class LaunchError(RuntimeError):
    pass


def run_worker(argv, deadline):
    """Run the worker to completion and return its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise LaunchError("time limit reached before the worker started")
    env = dict(os.environ, **THREAD_PINS)
    try:
        # on timeout, subprocess.run kills the worker and waits for it
        proc = subprocess.run([sys.executable, WORKER, *argv], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise LaunchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise LaunchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "thread_pins": THREAD_PINS,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the smoke test only")
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in (0, 60]")
    if not os.path.isfile(os.path.join(ROOT, "src", "carnot_bcp", "__init__.py")):
        print(f"run.py: no package source under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # set-up probes before and after the measuring worker spread the samples
    # over the run, across the phases of the host's contention
    probes = 0 if args.trace else SETUP_PROBES

    def probe_setups(n):
        return [run_worker([*common, "--seconds", "0", "--trace", "0", "--setup-only"],
                           deadline)["setup_s"] for _ in range(n)]

    try:
        setups = probe_setups(probes // 2)
        out = run_worker([*common, "--seconds", repr(args.seconds),
                          "--trace", str(args.trace)] + (["--tiny"] if args.tiny else []),
                         deadline)
        setups += [out["setup_s"]] + probe_setups(probes - probes // 2)
        metrics = dict(out["metrics"])
        if not args.trace:
            metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                       **metrics}
            out["setup_samples_s"] = setups
    except LaunchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    detail = {key: out[key] for key in ("named", "counts", "samples", "problems", "problem_count",
                                         "trace", "setup_samples_s") if key in out}
    print(json.dumps({"environment": environment(args), "detail": detail}))
    print(json.dumps({"correct": out["problem_count"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
