"""One benchmark workload, run in this process; the result is the last stdout line.

    python3 perfbench/worker.py --workload search|orbit|quotient --seed N
        --seconds S --trace 0|1 [--setup-only] [--tiny]

``run.py`` starts this in a fresh process per run, with the BLAS and OpenMP
thread counts pinned to 1.  The loop is closed: each call starts only after
the previous one returned.  Iteration ``i`` draws its inputs from
``(seed, i)``, so a seed fixes every input whatever the speed.

With ``--trace 0`` the end-to-end metrics are measured for ``--seconds``.
With ``--trace 1`` the same iterations run for half the time untraced and
then once more traced, which gives the per-layer metrics and the tracing
overhead.  ``--setup-only`` times the set-up and stops; ``--tiny`` shrinks
every size for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402

WORKLOADS = ("search", "orbit", "quotient")

# "answers" is how many answers answer_size averages; a run makes at least
# that many, so that for a fixed seed answer_size does not depend on speed
SIZES = {
    # annealed exact search budget per call; the warm-up call is discarded
    "search": {"budget": 25_000, "warmup_budget": 4096, "answers": 16},
    # balls per orbit family; denominators grow linearly with the count
    "orbit": {"count": 40, "warmup_count": 10, "answers": 4},
    # pairs per value_batch_refined call, and polished pairs after each call
    "quotient": {"pairs": 10_000, "warmup_pairs": 2_000, "polish": 16, "answers": 2},
}
TINY = {
    "search": {"budget": 2048, "warmup_budget": 256, "answers": 1},
    "orbit": {"count": 5, "warmup_count": 3, "answers": 1},
    "quotient": {"pairs": 200, "warmup_pairs": 50, "polish": 2, "answers": 1},
}

ORBIT_RATIO = Fraction(1, 2)
ORBIT_K = 6
# acceptance-11 settings: relative tolerance of polish against the grid oracle
QUOTIENT_SCALE = 0.7
GRID_RESOLUTION = 12
GRID_LEVELS = 4
POLISH_REL_TOL = 2e-3

WARMUP = 1 << 30   # iteration index whose inputs feed the warm-up call

# The gated times are in reference units (see "host-speed reference" below);
# the times in seconds are reported in the detail line under the workload's
# own names.
END_TO_END_UNITS = {"peak_rss_mb": "MB", "call_ref_p50": "ref",
                    "followup_ref_per_item_p50": "ref", "answer_size": "count"}
# per-layer unit by the last part of the metric name
LAYER_UNITS = {"calls": "count/iter", "rows": "rows/iter", "us_per_call": "us",
               "self_us_per_call": "us", "ns_per_row": "ns", "self_s": "s",
               "self_ms_per_call": "ms", "compares_per_call": "count",
               "comparisons": "count", "exact_keep_ratio": "ratio",
               "proposals_to_best": "count", "max_denominator_bits": "bits",
               "overhead_frac": "ratio"}


class BenchmarkError(RuntimeError):
    """The run cannot produce a result (missing program, no successful call)."""


# ---------------------------------------------------------------------------
# host-speed reference
# ---------------------------------------------------------------------------
# Other tenants of the host slow this process by up to 2x, in phases that last
# from seconds to over a minute, and CPU time slows with wall time.  So every
# timed call is bracketed by two runs of a fixed reference computation that
# does not touch the package, and the gated time of the call is its time over
# the mean time of the two: the call in reference units.  Each call kind is
# paired with the reference that slows like it.  "interp" is Python-level
# Fraction arithmetic, like the exact path, the search loop and Nelder-Mead;
# "stream" streams a numpy buffer far larger than the cache, like a 10k-pair
# quotient batch.

INTERP_SUMS = 16
STREAM_ELEMENTS = 1 << 20
STREAM_PASSES = 4
_stream_buffer = []


def _ref_interp():
    for _ in range(INTERP_SUMS):
        acc = Fraction(0)
        for i in range(12):
            acc += Fraction(3, 7) * Fraction(i + 1, (1 << 300) + i)
    return acc


def _ref_stream():
    import numpy as np
    if not _stream_buffer:
        _stream_buffer.append(np.random.default_rng(0).standard_normal(STREAM_ELEMENTS))
    x = _stream_buffer[0]
    return sum(float(np.sqrt(x * x + k).sum()) for k in range(STREAM_PASSES))


REFERENCES = {"interp": _ref_interp, "stream": _ref_stream}


def reference_s(kind):
    t0 = time.perf_counter()
    REFERENCES[kind]()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload):
    """Import the package from the checkout and build the workload's objects.

    Returns ``(cb, subject, seconds)``: the package, the distance under test
    and the wall time of import plus construction.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "carnot_bcp", "__init__.py")):
        raise BenchmarkError(f"package source not found under {src}")
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import carnot_bcp as cb
    if workload == "quotient":
        f32 = cb.free_step2_group(3)
        h1 = cb.heisenberg_group(1)
        Z, O = Fraction(0), Fraction(1)
        morphism = cb.MorphismMatrix(
            entries=((O, Z, Z, Z, Z, Z), (Z, O, Z, Z, Z, Z), (Z, Z, Z, O, Z, Z)),
            source=f32.algebra, target=h1.algebra)
        subject = cb.quotient_distance(cb.HSDistance(f32, Fraction(1, 2)), morphism)
    else:
        subject = cb.HSDistance(cb.heisenberg_nonstandard_group(2), Fraction(1))
    return cb, subject, time.perf_counter() - t0


def _rng(seed, i):
    # numpy is first imported by the package inside setup(), so that setup_s
    # includes its import
    import numpy as np
    return np.random.default_rng([seed, i])


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds
# ---------------------------------------------------------------------------

def check_search(result, cert):
    """A search family must re-verify exactly at its reported cardinality."""
    problems = []
    if result.family.mode != "exact":
        problems.append(f"family mode {result.family.mode!r}, expected exact")
    if result.cardinality < 1 or len(result.family) != result.cardinality:
        problems.append(f"cardinality {result.cardinality} for {len(result.family)} balls")
    if not cert.valid or cert.mode != "exact" or cert.cardinality != result.cardinality:
        problems.append(f"exact re-verification failed: {cert.violations[:3]}")
    return problems


def check_orbit(res, cert, count):
    """An accepted orbit family must pass an independent exact verification;
    a rejected orbit must name the first failing dilation index."""
    if not res.ok:
        j = res.first_failing_j
        if res.family is not None or not isinstance(j, int) or not 1 <= j < count:
            return [f"rejected orbit without a first failing index (got {j!r})"]
        return []
    problems = []
    if res.family is None or len(res.family) != count or res.family.mode != "exact":
        problems.append("accepted orbit without an exact family of the requested count")
    if cert is None or not cert.valid or cert.mode != "exact":
        problems.append("accepted orbit family fails independent verification: "
                        f"{cert.violations[:3] if cert else None}")
    return problems


def check_quotient_batch(values, pairs):
    """Batch quotient values must be finite and positive, one per pair."""
    import numpy as np
    values = np.asarray(values)
    if values.shape != (pairs,):
        return [f"batch shape {values.shape}, expected ({pairs},)"]
    bad = int(np.count_nonzero(~np.isfinite(values) | (values <= 0)))
    return [f"{bad} batch values not finite and positive"] if bad else []


def check_polish(value, grid):
    """A polished value must agree with the grid oracle within 2e-3 relative."""
    if not grid > 0 or abs(value - grid) > POLISH_REL_TOL * grid:
        return [f"polished value {value!r} against grid {grid!r}"]
    return []


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Run:
    """Samples, counts and problems of one pass over the iterations."""

    def __init__(self):
        self.call_s = []          # primary calls that return an answer
        self.call_ref = []        # the same calls in reference units
        self.followup_s = []
        self.followup_ref = []    # per item: comparison of a verification, or pair
        self.reference_s = []     # every reference run, for the detail line
        self.work = 0
        self.answers = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.busy_s = 0.0         # time inside timed calls, for the trace overhead
        self.primary_s = 0.0      # time of all primary calls, rejected orbits too
        self.iterations = 0
        self.rejected = 0         # orbit points that fail the orbit test
        self.max_denominator_bits = 0
        self.proposals_to_best = []

    def timed(self, ref, fn, *args, **kwargs):
        """Call ``fn`` between two runs of reference ``ref`` and return
        ``(output, seconds, reference units)``; ``(None, None, None)`` if it
        raised, which counts the call as failed."""
        self.attempted += 1
        before = reference_s(ref)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, None, None
        dt = time.perf_counter() - t0
        after = reference_s(ref)
        self.reference_s += [before, after]
        self.busy_s += dt
        return out, dt, 2 * dt / (before + after)

    def primary(self, dt, rel):
        self.call_s.append(dt)
        self.call_ref.append(rel)
        self.primary_s += dt

    def followup(self, dt, rel, items):
        self.followup_s.append(dt)
        self.followup_ref.append(rel / items)

    def check(self, problems, where):
        self.problems.extend(f"{where}: {p}" for p in problems)


def search_iteration(cb, d, seed, i, sizes, run, span):
    search_seed = int(_rng(seed, i).integers(2 ** 32))
    with span("bench.search"):
        res, dt, rel = run.timed("interp", cb.search_family, d, sizes["budget"],
                                 strategy="annealed", seed=search_seed)
    if dt is None:
        return
    run.primary(dt, rel)
    run.work += res.proposals_used
    run.answers.append(res.cardinality)
    run.proposals_to_best.append(res.trace[-1][0] if res.trace else 0)
    with span("bench.verify"):
        cert, dt, rel = run.timed("interp", cb.verify_family, res.family)
    if dt is not None:
        run.followup(dt, rel, len(res.family) ** 2)
        run.check(check_search(res, cert), f"search seed {search_seed}")


def orbit_point(seed, i):
    """Rational point on the unit sphere from stereographic parameters with
    u1 small and positive and u2 negative, the orthant where shrinking
    dilates of the point leave its own unit ball."""
    rng = _rng(seed, i)
    u1 = Fraction(int(rng.integers(1, 10)), 100)
    u2 = Fraction(-int(rng.integers(15, 61)), 100)
    s = u1 * u1 + u2 * u2
    return (2 * u1 / (1 + s), 2 * u2 / (1 + s), (1 - s) / (1 + s))


def orbit_iteration(cb, d, seed, i, sizes, run, span):
    count = sizes["count"]
    p = orbit_point(seed, i)
    with span("bench.orbit"):
        res, dt, rel = run.timed("interp", cb.dilation_orbit_family, d, p, ORBIT_RATIO,
                                 k=ORBIT_K, count=count)
    if dt is None:
        return
    if not res.ok:
        # a point that fails the orbit test is a legitimate answer, and cheap
        run.rejected += 1
        run.primary_s += dt
        run.check(check_orbit(res, None, count), f"orbit point {p}")
        return
    run.primary(dt, rel)
    run.work += len(res.family)
    run.answers.append(len(res.family))
    bits = max(x.denominator.bit_length() for c in res.family.centers for x in c)
    run.max_denominator_bits = max(run.max_denominator_bits, bits)
    with span("bench.verify"):
        cert, dt, rel = run.timed("interp", cb.verify_family, res.family)
    if dt is not None:
        run.followup(dt, rel, count ** 2)
        run.check(check_orbit(res, cert, count), f"orbit point {p}")


def quotient_pairs(seed, i, m):
    rng = _rng(seed, i)
    return (rng.standard_normal((m, 3)) * QUOTIENT_SCALE,
            rng.standard_normal((m, 3)) * QUOTIENT_SCALE)


def quotient_iteration(cb, dq, seed, i, sizes, run, span):
    pairs = sizes["pairs"]
    P, Q = quotient_pairs(seed, i, pairs + sizes["polish"])
    with span("bench.quotient_batch"):
        values, dt, rel = run.timed("stream", dq.value_batch_refined, P[:pairs], Q[:pairs])
    if dt is not None:
        run.primary(dt, rel)
        run.work += pairs
        run.answers.append(len(values))
        run.check(check_quotient_batch(values, pairs), f"quotient batch {i}")
    for p, q in zip(P[pairs:], Q[pairs:]):
        p, q = tuple(p), tuple(q)
        with span("bench.polish"):
            v, dt, rel = run.timed("interp", dq.value, p, q)
        if dt is not None:
            run.followup(dt, rel, 1)
            grid = dq.grid_value(p, q, resolution=GRID_RESOLUTION, levels=GRID_LEVELS)
            run.check(check_polish(v, grid), f"quotient pair {p} {q}")


ITERATIONS = {"search": search_iteration, "orbit": orbit_iteration,
              "quotient": quotient_iteration}


def warm_up(workload, cb, subject, seed, sizes):
    """One discarded call of each timed kind: first calls pay lazy imports and
    allocator growth that later calls do not."""
    reference_s("interp")
    if workload == "quotient":
        reference_s("stream")
    if workload == "search":
        res = cb.search_family(subject, sizes["warmup_budget"], strategy="annealed",
                               seed=int(_rng(seed, WARMUP).integers(2 ** 32)))
        cb.verify_family(res.family)
    elif workload == "orbit":
        res = cb.dilation_orbit_family(subject, orbit_point(seed, WARMUP), ORBIT_RATIO,
                                       k=ORBIT_K, count=sizes["warmup_count"])
        if res.family is not None:
            cb.verify_family(res.family)
    else:
        P, Q = quotient_pairs(seed, WARMUP, sizes["warmup_pairs"])
        subject.value_batch_refined(P, Q)
        subject.value(tuple(P[0]), tuple(Q[0]))


def run_pass(workload, cb, subject, seed, sizes, *, deadline=None, iterations=None,
             tracer=None):
    """Run exactly ``iterations``, or else as many as fit before ``deadline``,
    judged by the mean iteration time so far.  Until there are
    ``sizes["answers"]`` answers the run may take up to twice its time."""
    step = ITERATIONS[workload]
    span = tracer.root if tracer else (lambda name: nullcontext())
    run = Run()
    start = time.perf_counter()
    if deadline is not None:
        late = 2 * deadline - start
    i = 0
    while True:
        if iterations is not None:
            if i == iterations:
                break
        elif i:
            now = time.perf_counter()
            due = deadline if len(run.answers) >= sizes["answers"] else late
            if now + (now - start) / i > due:
                break
        step(cb, subject, seed, i, sizes, run, span)
        i += 1
    run.iterations = i
    return run


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def summary(workload, run, answers):
    """Every end-to-end statistic of a pass, under generic names; ``setup_s``
    is added by ``run.py``."""
    if not run.call_s or not run.followup_s:
        raise BenchmarkError(f"{workload}: no successful call to time")
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "call_ref_p50": statistics.median(run.call_ref),
        "call_s_min": min(run.call_s),
        "call_s_p50": statistics.median(run.call_s),
        "call_s_p90": _p90(run.call_s),
        # search families differ in size, so the gated follow-up time is per
        # item: per exact comparison of a verification, per polished pair
        "followup_ref_per_item_p50": statistics.median(run.followup_ref),
        "followup_ms_min": 1e3 * min(run.followup_s),
        "followup_ms_p50": 1e3 * statistics.median(run.followup_s),
        "followup_ms_p90": 1e3 * _p90(run.followup_s),
        "work_per_s": run.work / run.primary_s,
        "answer_size": statistics.fmean(run.answers[:answers]),
    }


# what the primary call, its follow-up, the work unit and the answer are
ROLES = {
    "search": ("call", "verify", "proposals_per_s", "cardinality"),
    "orbit": ("certify", "verify", "balls_per_s", "family_size"),
    "quotient": ("batch", "polish", "pairs_per_s", "batch_size"),
}


def workload_names(workload, stats):
    """The statistics under the workload's own names, e.g. ``orbit.certify_s_p50``."""
    call, followup, work, answer = ROLES[workload]
    renamed = {"work_per_s": work, "answer_size": answer}
    out = {}
    for key, value in stats.items():
        name = renamed.get(key) or key.replace("call_", call + "_").replace(
            "followup_", followup + "_")
        out[f"{workload}.{name}"] = value
    return out


def layer_metrics(tracer, run, overhead_frac):
    """Per-layer metrics of one traced pass.  Counts are per iteration, times
    per call or per row; a span the workload never reaches reads 0."""
    n = run.iterations
    sp = tracer.span

    def per_call(name, scale, self_only=False):
        s = sp(name)
        return scale * (s.self_time if self_only else s.total) / s.calls if s.calls else 0.0

    def per_row(name):
        s = sp(name)
        return 1e9 * s.total / s.rows if s.rows else 0.0

    def children_per_call(parent, child):
        calls = sp(parent).calls
        return tracer.edges[(parent, child)] / calls if calls else 0.0

    radius_calls = sp("besicovitch.radius_for_center").calls
    return {
        "algebra.multiply.calls": sp("algebra.multiply").calls / n,
        "algebra.multiply.us_per_call": per_call("algebra.multiply", 1e6),
        "algebra.multiply_batch.rows": sp("algebra.multiply_batch").rows / n,
        "algebra.multiply_batch.ns_per_row": per_row("algebra.multiply_batch"),
        "algebra.multiply_batch_small.calls": sp("algebra.multiply_batch_small").calls / n,
        "algebra.multiply_batch_small.us_per_call":
            per_call("algebra.multiply_batch_small", 1e6),
        "algebra.dilate.calls": sp("algebra.dilate").calls / n,
        "algebra.dilate.us_per_call": per_call("algebra.dilate", 1e6),
        "algebra.dilate_batch.ns_per_row": per_row("algebra.dilate_batch"),
        "metrics.hs_batch.rows": sp("metrics.hs_batch").rows / n,
        "metrics.hs_batch.ns_per_row": per_row("metrics.hs_batch"),
        "metrics.hs_batch_small.calls": sp("metrics.hs_batch_small").calls / n,
        "metrics.hs_batch_small.us_per_call": per_call("metrics.hs_batch_small", 1e6),
        "metrics.hs_scalar.calls": sp("metrics.hs_scalar").calls / n,
        "metrics.hs_scalar.us_per_call": per_call("metrics.hs_scalar", 1e6),
        "metrics.hs_compare.calls": sp("metrics.hs_compare").calls / n,
        "metrics.hs_compare.self_us_per_call": per_call("metrics.hs_compare", 1e6, True),
        "metrics.quotient_batch.self_s": per_call("metrics.quotient_batch", 1.0, True),
        "metrics.quotient_value.self_ms_per_call":
            per_call("metrics.quotient_value", 1e3, True),
        "scalars.rat_pow.calls": sp("scalars.rat_pow").calls / n,
        "scalars.rat_pow.us_per_call": per_call("scalars.rat_pow", 1e6),
        "besicovitch.search_family.self_s": per_call("besicovitch.search_family", 1.0, True),
        "besicovitch.radius_for_center.calls": radius_calls / n,
        "besicovitch.radius_for_center.compares_per_call":
            children_per_call("besicovitch.radius_for_center", "metrics.hs_compare"),
        # radius_for_center runs only inside the search's exact repair
        "besicovitch.search.exact_keep_ratio":
            sum(run.answers) / radius_calls if radius_calls else 0.0,
        "besicovitch.search.proposals_to_best":
            statistics.fmean(run.proposals_to_best) if run.proposals_to_best else 0.0,
        "besicovitch.verify_family.comparisons":
            children_per_call("besicovitch.verify_family", "metrics.hs_compare"),
        "besicovitch.verify_family.self_s": per_call("besicovitch.verify_family", 1.0, True),
        "besicovitch.dilation_orbit_family.self_s":
            per_call("besicovitch.dilation_orbit_family", 1.0, True),
        "besicovitch.orbit.max_denominator_bits":
            float(run.max_denominator_bits),
        "trace.overhead_frac": overhead_frac,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def measure(workload, seed, seconds, trace, sizes):
    """Set up, warm up and measure one workload; returns the result dict."""
    cb, subject, setup_s = setup(workload)
    warm_up(workload, cb, subject, seed, sizes)
    plain = run_pass(workload, cb, subject, seed, sizes,
                     deadline=time.perf_counter() + (seconds / 2 if trace else seconds))
    stats = summary(workload, plain, sizes["answers"])
    if not trace:
        runs = [plain]
        metrics = {k: stats[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
        trace_table = None
    else:
        tracer = Tracer()
        tracer.install(cb)
        try:
            traced = run_pass(workload, cb, subject, seed, sizes,
                              iterations=plain.iterations, tracer=tracer)
        finally:
            tracer.uninstall()
        runs = [plain, traced]
        metrics = layer_metrics(tracer, traced, traced.busy_s / plain.busy_s - 1.0)
        units = {k: LAYER_UNITS[k.rsplit(".", 1)[1]] for k in metrics}
        roots = [s for name, s in tracer.stats.items() if name.startswith("bench.")]
        trace_table = {"spans": tracer.table(),
                       "root_total_s": sum(s.total for s in roots),
                       "self_sum_s": sum(s.self_time for s in tracer.stats.values())}
    last = runs[-1]
    problems = [p for r in runs for p in r.problems]
    return {
        "setup_s": setup_s,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "problems": problems[:20],
        "problem_count": len(problems),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "named": workload_names(workload, stats),
        "samples": {"call_s": last.call_s, "followup_s": last.followup_s,
                    "call_ref": last.call_ref, "followup_ref": last.followup_ref,
                    "reference_s": last.reference_s},
        "counts": {"iterations": last.iterations,
                   "timed_calls": len(last.call_s),
                   "followup_calls": len(last.followup_s),
                   "orbit.rejected": last.rejected},
        "trace": trace_table,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    try:
        if args.setup_only:
            out = {"setup_s": setup(args.workload)[2]}
        else:
            sizes = (TINY if args.tiny else SIZES)[args.workload]
            out = measure(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    except BenchmarkError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
