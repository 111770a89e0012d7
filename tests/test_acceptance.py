"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, in the test, not deferred anywhere.  Searches
and sweeps are deterministic (explicit seeds), so reruns are byte-stable.
"""

import math
import time
from fractions import Fraction

import numpy as np

import carnot_bcp as cb
from carnot_bcp.algebra import dilate_batch, multiply_batch
from carnot_bcp.besicovitch import (
    countable_space,
    countable_space_ball_audit,
    countable_space_triangle_audit,
    countable_space_two_ball_audit,
    greedy_cover,
    search_family,
    verify_family,
)
from carnot_bcp.certificates import (
    RegionParams,
    a_form,
    lemma_sweep,
    rational_sphere_points,
)
from carnot_bcp.metrics import (
    CCHeisenbergDistance,
    HSDistance,
    estimate_quasi_triangle_constant,
    euclidean_line,
    lp_combination_distance,
    product_max_distance,
    quotient_distance,
    snowflake_line,
)
from carnot_bcp.structure import (
    MorphismMatrix,
    decompose_commuting,
    has_commuting_different_layers,
    heisenberg_quotient_witness,
    is_graded_isomorphism,
    is_stratification,
    validate_morphism,
)

from aform_oracle import a_form_batch

F = Fraction


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def rand_point(rng, n):
    return tuple(F(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
                 for _ in range(n))


# ---------------------------------------------------------------------------
# 1. algebra exactness
# ---------------------------------------------------------------------------

def test_criterion_1_algebra_exactness():
    h1 = cb.heisenberg_group(1)
    groups = [
        cb.abelian_group([1, 1, 1]),
        cb.heisenberg_group(1), cb.heisenberg_group(2), cb.heisenberg_group(3),
        cb.heisenberg_nonstandard_group(2),
        cb.heisenberg_nonstandard_group(F(3, 2)),
        cb.free_step2_group(2), cb.free_step2_group(3), cb.free_step2_group(4),
        cb.product_group(h1, cb.abelian_group([1, 2])),
        cb.power_group(h1, 2),
    ]
    t0 = time.time()
    rng = np.random.default_rng(100)
    for g in groups:
        int_weights = all(w.denominator == 1 for w in g.weights)
        lam = F(2) if int_weights else F(4)
        for _ in range(1000):
            p, q, r = (rand_point(rng, g.dim) for _ in range(3))
            pq = cb.multiply(p, q, g)
            assert cb.multiply(pq, r, g) == cb.multiply(p, cb.multiply(q, r, g), g)
            assert cb.multiply(p, cb.inverse(p, g), g) == g.identity()
            assert cb.dilate(pq, lam, g) == cb.multiply(
                cb.dilate(p, lam, g), cb.dilate(q, lam, g), g)
    elapsed = time.time() - t0
    report(1, elapsed < 10.0,
           f"exact identities on 1000 triples x {len(groups)} groups in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. distance solver vs closed form
# ---------------------------------------------------------------------------

def test_criterion_2_solver_vs_closed_form():
    # the iterative root finder is forced here so the quartic closed form
    # stays an independent oracle (the production fast path collapses the
    # two-weight case to that formula and is cross-checked separately)
    from carnot_bcp.metrics import _hs_lambda_batch
    t0 = time.time()
    worst = 0.0
    for n in (1, 2, 3):
        g = cb.heisenberg_group(n)
        rng = np.random.default_rng(200 + n)
        m = 100_000
        P = rng.standard_normal((m, g.dim)) * np.exp(rng.uniform(-3, 3, (m, 1)))
        Q = rng.standard_normal((m, g.dim)) * np.exp(rng.uniform(-3, 3, (m, 1)))
        X = multiply_batch(-P, Q, g)
        got = _hs_lambda_batch(X, g.weights, 1.0, method="iterative")
        A = (X[:, :-1] ** 2).sum(axis=1)
        z = X[:, -1]
        want = np.sqrt((A + np.sqrt(A * A + 4.0 * z * z)) / 2.0)
        ok = want > 0
        worst = max(worst, float(np.max(np.abs(got[ok] - want[ok]) / want[ok])))
    elapsed = time.time() - t0
    report(2, worst <= 1e-10 and elapsed < 30.0,
           f"iterative solver max rel err {worst:.2e} over 3x100000 pairs "
           f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. membership-form equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_membership_form_equivalence():
    params = RegionParams(r=2, R=F(1))
    g = cb.free_step2_group(2)
    d = HSDistance(g, F(1))
    rng = np.random.default_rng(300)
    # float phase: 1e5 samples, 1e-8 exclusion band
    m = 100_000
    P = rng.standard_normal((m, 3))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    Q = rng.standard_normal((m, 3)) * rng.uniform(0.05, 1.2, (m, 1)) / math.sqrt(3)
    A = a_form_batch(P, Q, 2)
    X = multiply_batch(-P, Q, g)
    gap = (X ** 2).sum(axis=1) - 1.0
    band = np.abs(A) > 1e-8
    float_disagreements = int(np.sum(np.sign(A[band]) != np.sign(gap[band])))
    # exact phase: 1e3 fully rational samples with p exactly on the sphere
    pts = rational_sphere_points(3, F(1), 200, rng)
    exact_disagreements = 0
    checked = 0
    for p in pts:
        for _ in range(5):
            q = tuple(F(int(rng.integers(-8, 9)), 8) for _ in range(3))
            af = a_form(p, q, params)
            sgn = d.compare(p, q, F(1))
            if ((af > 0) - (af < 0)) != sgn:
                exact_disagreements += 1
            checked += 1
    report(3, float_disagreements == 0 and exact_disagreements == 0 and checked >= 1000,
           f"{float_disagreements} float + {exact_disagreements} exact "
           f"disagreements ({checked} exact samples)")


# ---------------------------------------------------------------------------
# 4. containment-lemma sweeps
# ---------------------------------------------------------------------------

def test_criterion_4_lemma_sweeps():
    t0 = time.time()
    failures = []
    for lemma in ("away", "near2a", "inbetween"):
        for r in (2, 3):
            for R in (F(1, 2), F(1)):
                rep = lemma_sweep(lemma, RegionParams(r=r, R=R),
                                  sample_count=10_000, seed=400)
                if not rep.ok:
                    failures.append((lemma, r, str(R), rep.violations[:1]))
    elapsed = time.time() - t0
    report(4, not failures and elapsed < 300.0,
           f"12 sweeps x 10000 samples, zero violations, {elapsed:.0f}s"
           if not failures else f"violations: {failures}")


# ---------------------------------------------------------------------------
# 5. countable space
# ---------------------------------------------------------------------------

def test_criterion_5_countable_space():
    tri = countable_space_triangle_audit(200)
    balls = countable_space_ball_audit(10_000)
    two = countable_space_two_ball_audit(200, grid=64)
    space = countable_space(60)
    load_ok = space.validate() == []
    report(5, tri and balls and two["ok"] and load_ok,
           f"triangle<=200 exact, balls<=10000 exact, "
           f"{two['radius_choices_checked']} radius choices audited")


# ---------------------------------------------------------------------------
# 6. greedy cover
# ---------------------------------------------------------------------------

def test_criterion_6_greedy_cover():
    d = HSDistance(cb.abelian_group([1, 1]), F(1))
    passed = 0
    for seed in range(100):
        rng = np.random.default_rng(600 + seed)
        pts = [tuple(p) for p in rng.uniform(-4, 4, (1000, 2))]
        radii = np.exp(rng.uniform(math.log(1 / 16), 0.0, 1000))
        rep = greedy_cover(pts, radii, d)
        if rep.covered and rep.quarter_disjoint and rep.block_bounds_halve:
            passed += 1
    report(6, passed == 100, f"{passed}/100 seeds satisfy all cover invariants")


# ---------------------------------------------------------------------------
# 7. saturation on spaces where the covering property holds
# ---------------------------------------------------------------------------

def _search_cards(d, budgets, seeds, strategy="annealed"):
    cards = {}
    for b in budgets:
        per_seed = []
        for s in seeds:
            res = search_family(d, b, strategy=strategy, seed=s)
            assert verify_family(res.family).valid or res.cardinality == 0
            per_seed.append(res.cardinality)
        cards[b] = per_seed
    return cards


def test_criterion_7_saturation():
    seeds = list(range(10))
    f22 = HSDistance(cb.free_step2_group(2), F(1))
    prod = product_max_distance(euclidean_line(), snowflake_line(2))
    c1 = _search_cards(f22, (10_000, 100_000), seeds)
    c2 = _search_cards(prod, (10_000, 100_000), seeds)
    sat1 = max(c1[10_000]) == max(c1[100_000])
    sat2 = max(c2[10_000]) == max(c2[100_000])
    mono = all(a <= b for a, b in zip(c1[10_000], c1[100_000])) and \
        all(a <= b for a, b in zip(c2[10_000], c2[100_000]))
    report(7, sat1 and sat2 and mono,
           f"free step-2 max card {max(c1[10_000])}=={max(c1[100_000])}, "
           f"max-product {max(c2[10_000])}=={max(c2[100_000])}, per-seed monotone")


# ---------------------------------------------------------------------------
# 8. growth on spaces where the weak covering property fails
# ---------------------------------------------------------------------------

def test_criterion_8_growth():
    seeds = (0, 1, 2)
    # l1 combination of the line with the square-root snowflake line
    dlp = lp_combination_distance(euclidean_line(), snowflake_line(2), 1)
    c = _search_cards(dlp, (10_000, 100_000), seeds)
    lp_floor = all(v >= 6 for v in c[100_000])
    lp_growth = any(b > a for a, b in zip(c[10_000], c[100_000]))
    lp_mono = all(b >= a for a, b in zip(c[10_000], c[100_000]))

    # non-standard Heisenberg group, Euclidean-ball distance
    hn = HSDistance(cb.heisenberg_nonstandard_group(2), F(1))
    t0 = time.time()
    quick = search_family(hn, 10_000, strategy="annealed", seed=0)
    quick_ok = quick.cardinality >= 5 and (time.time() - t0) < 60.0
    assert verify_family(quick.family).valid
    big = search_family(hn, 1_000_000, strategy="annealed", seed=0)
    assert verify_family(big.family).valid
    h_growth = big.cardinality > quick.cardinality
    h_mono = big.cardinality >= quick.cardinality
    report(8, lp_floor and lp_growth and lp_mono and quick_ok and h_growth and h_mono,
           f"l1-combo cards {c[10_000]}->{c[100_000]}; nonstandard "
           f"cards {quick.cardinality}->{big.cardinality} "
           f"(>=5 found in {time.time()-t0:.0f}s total)")


# ---------------------------------------------------------------------------
# 9. classification fixture suite
# ---------------------------------------------------------------------------

def test_criterion_9_classification():
    h1 = cb.heisenberg_group(1)
    fixtures = [
        (cb.abelian_group([1, 1]), True),
        (cb.abelian_group([1, 2, 2]), True),
        (cb.heisenberg_group(1), True),
        (cb.heisenberg_group(2), True),
        (cb.free_step2_group(3), True),
        (cb.power_group(h1, 3), True),
        (cb.power_group(cb.free_step2_group(2), F(1, 2)), True),
        (cb.product_group(h1, cb.abelian_group([1, 2])), True),
        (cb.heisenberg_nonstandard_group(2), False),
        (cb.heisenberg_nonstandard_group(F(3, 2)), False),
        (cb.step3_rank3_group(), False),
        (cb.product_group(cb.heisenberg_nonstandard_group(2), h1), False),
    ]
    ok = True
    details = []
    for g, want in fixtures:
        v = has_commuting_different_layers(g.algebra)
        if v.commuting_different_layers != want:
            ok = False
            details.append(f"{g.name}: verdict {v.commuting_different_layers}")
            continue
        if want:
            factors, iso = decompose_commuting(g.algebra)
            if not is_graded_isomorphism(iso):
                ok = False
                details.append(f"{g.name}: reassembly not isomorphic")
            for t, f in factors:
                strat_ok, _ = is_stratification(f)
                if not strat_ok or len(f.layers()) > 2:
                    ok = False
                    details.append(f"{g.name}: bad factor")
        else:
            _, m, (t, s) = heisenberg_quotient_witness(g.algebra)
            if not (validate_morphism(m).ok and m.is_surjective() and m.rank() == 3):
                ok = False
                details.append(f"{g.name}: witness invalid")
    report(9, ok, f"12 fixtures classified; {details or 'all verdicts correct'}")


# ---------------------------------------------------------------------------
# 10. sub-Riemannian distance on the first Heisenberg group
# ---------------------------------------------------------------------------

def test_criterion_10_cc_distance():
    d = CCHeisenbergDistance(1.0)
    g = cb.heisenberg_group(1)
    v = d.value((0, 0, 0), (0, 0, 1))
    vertical_ok = abs(v - 2.0 * math.sqrt(math.pi)) <= 1e-6
    rng = np.random.default_rng(1000)
    m = 10_000
    P = rng.standard_normal((m, 3)) * np.exp(rng.uniform(-2, 2, (m, 1)))
    Q = rng.standard_normal((m, 3)) * np.exp(rng.uniform(-2, 2, (m, 1)))
    G = rng.standard_normal((m, 3))
    lam = np.exp(rng.uniform(-2, 2, m))
    base = d.value_batch(P, Q)
    hom = d.value_batch(dilate_batch(P, lam, g), dilate_batch(Q, lam, g))
    li = d.value_batch(multiply_batch(G, P, g), multiply_batch(G, Q, g))
    hom_err = float(np.max(np.abs(hom - lam * base) / (lam * base)))
    li_err = float(np.max(np.abs(li - base) / base))
    report(10, vertical_ok and hom_err <= 1e-8 and li_err <= 1e-8,
           f"d(0,(0,0,1))={v:.9f} (2*sqrt(pi)={2*math.sqrt(math.pi):.9f}), "
           f"hom err {hom_err:.1e}, left-inv err {li_err:.1e} over {m} samples")


# ---------------------------------------------------------------------------
# 11. quotient distance
# ---------------------------------------------------------------------------

def test_criterion_11_quotient():
    f32 = cb.free_step2_group(3)
    h1 = cb.heisenberg_group(1)
    Z, O = F(0), F(1)
    m = MorphismMatrix(
        entries=((O, Z, Z, Z, Z, Z), (Z, O, Z, Z, Z, Z), (Z, Z, Z, O, Z, Z)),
        source=f32.algebra, target=h1.algebra)
    R = F(1, 2)
    dhat = HSDistance(f32, R)
    # precondition: the upstream distance empirically satisfies the triangle
    # inequality at this R
    c_hat = estimate_quasi_triangle_constant(dhat, 3000, seed=1100)
    dq = quotient_distance(dhat, m)
    rng = np.random.default_rng(1101)
    worst = 0.0
    for _ in range(100):
        p = tuple(rng.standard_normal(3) * 0.7)
        q = tuple(rng.standard_normal(3) * 0.7)
        vo = dq.value(p, q)
        vg = dq.grid_value(p, q, resolution=12, levels=4)
        if vg > 0:
            worst = max(worst, abs(vo - vg) / vg)
    grid_ok = worst <= 2e-3
    # triangle inequality over 1e4 random triples (batch evaluator)
    mtri = 10_000
    P = rng.standard_normal((mtri, 3)) * 0.7
    M = rng.standard_normal((mtri, 3)) * 0.7
    Q = rng.standard_normal((mtri, 3)) * 0.7
    dpq = dq.value_batch_refined(P, Q)
    dpm = dq.value_batch_refined(P, M)
    dmq = dq.value_batch_refined(M, Q)
    viol = int(np.sum(dpq > dpm + dmq + 1e-6 * dpq))
    report(11, c_hat <= 1.0 + 1e-9 and grid_ok and viol == 0,
           f"upstream C~{c_hat:.6f}, opt-vs-grid max rel dev {worst:.2e}, "
           f"triangle violations {viol}/{mtri}")
