"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

It checks that

1. ``run.py --tiny`` emits, on every workload, each metric that
   ``BENCHMARK.json`` names, with its unit, as finite numbers, with
   ``correct`` true and no failed call; in the traced run the self times of
   all spans add up to the root spans;
2. each output check of ``worker.py`` accepts a real output and rejects a
   mutated one: a search radius shrunk below its witness distance, an orbit
   center moved into a neighbouring ball, a rejected orbit without its
   failing index, a non-finite batch value and a quotient value perturbed by
   1%;
3. ``run.py`` exits with a code other than 0 and prints no result in a
   directory that holds only ``BENCHMARK.json`` and the benchmark.

Exits 0 when every check holds.  Takes about 15 s.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


def check_emitted(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                expect(False, f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{where}: correct, nothing failed ({detail.get('problems')})")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = result["metrics"]
            missing, extra = sorted(set(wanted) - set(got)), sorted(set(got) - set(wanted))
            expect(not missing and not extra,
                   f"{where}: every {group} metric emitted (missing {missing}, extra {extra})")
            expect(all(got[k]["unit"] == u for k, u in wanted.items() if k in got),
                   f"{where}: units match BENCHMARK.json")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in got.values()), f"{where}: values are finite numbers")
            if trace:
                t = detail["trace"]
                expect(abs(t["self_sum_s"] - t["root_total_s"]) <= 1e-9 * t["root_total_s"],
                       f"{where}: self times add up to the root spans")
            else:
                expect(all(v["value"] > 0 for v in got.values()),
                       f"{where}: end-to-end values are positive")


def check_mutations():
    cb, d, _ = worker.setup("search")
    res = cb.search_family(d, 2048, strategy="annealed", seed=1)
    fam = res.family
    expect(not worker.check_search(res, cb.verify_family(fam)), "search check accepts a search")
    shrunk = Fraction(d.value(fam.centers[0], fam.witness)) * Fraction(99, 100)
    bad = dataclasses.replace(fam, radii=(shrunk,) + fam.radii[1:])
    expect(bool(worker.check_search(dataclasses.replace(res, family=bad),
                                    cb.verify_family(bad))),
           "search check rejects a radius shrunk below its witness distance")

    count = 5
    orbit = cb.dilation_orbit_family(d, worker.orbit_point(0, 0), worker.ORBIT_RATIO,
                                     k=worker.ORBIT_K, count=count)
    fam = orbit.family
    expect(orbit.ok and not worker.check_orbit(orbit, cb.verify_family(fam), count),
           "orbit check accepts an orbit family")
    moved = dataclasses.replace(fam, centers=(fam.centers[1],) + fam.centers[1:])
    expect(bool(worker.check_orbit(dataclasses.replace(orbit, family=moved),
                                   cb.verify_family(moved), count)),
           "orbit check rejects a center moved into a neighbouring ball")
    rejected = cb.dilation_orbit_family(d, worker.orbit_point(0, 1), worker.ORBIT_RATIO,
                                        k=worker.ORBIT_K, count=count)
    expect(not rejected.ok and not worker.check_orbit(rejected, None, count),
           "orbit check accepts a rejected orbit with its failing index")
    expect(bool(worker.check_orbit(dataclasses.replace(rejected, first_failing_j=None),
                                   None, count)),
           "orbit check rejects a rejected orbit without its failing index")

    cb, dq, _ = worker.setup("quotient")
    P, Q = worker.quotient_pairs(0, 0, 20)
    values = dq.value_batch_refined(P, Q)
    expect(not worker.check_quotient_batch(values, 20), "batch check accepts a batch")
    values[3] = float("nan")
    expect(bool(worker.check_quotient_batch(values, 20)), "batch check rejects a NaN value")
    p, q = tuple(P[0]), tuple(Q[0])
    v = dq.value(p, q)
    grid = dq.grid_value(p, q, resolution=worker.GRID_RESOLUTION, levels=worker.GRID_LEVELS)
    expect(not worker.check_polish(v, grid), "polish check accepts a polished value")
    expect(bool(worker.check_polish(v * 1.01, grid)),
           "polish check rejects a value perturbed by 1%")


def check_without_program():
    with tempfile.TemporaryDirectory(prefix=".smoke-", dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "search", 0)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the program: non-zero exit and no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_mutations()
    check_without_program()
    check_emitted(spec)
    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
