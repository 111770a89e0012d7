"""Quasi-distance evaluators: solvers, exact comparisons, invariances."""

import decimal
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import carnot_bcp as cb
from carnot_bcp.algebra import dilate_batch, multiply_batch
from carnot_bcp.metrics import (
    CCHeisenbergDistance,
    ExactnessError,
    HSDistance,
    OracleError,
    SolverError,
    UnitBallDistance,
    boundary_sample,
    cc_distance_h1,
    disk_union_segment_ball,
    estimate_quasi_triangle_constant,
    euclidean_line,
    hs_distance,
    hs_heisenberg_closed_form,
    hs_membership,
    lee_naor_comparison,
    lp_combination_distance,
    packing_count,
    power_distance,
    product_max_distance,
    punctured_disk_ball,
    quotient_distance,
    snowflake_line,
)
from carnot_bcp.structure import MorphismMatrix, validate_morphism

F = Fraction


def f32_to_h1(first_layer=((1, 0, 0), (0, 1, 0))):
    """Graded morphism from the free step-2 group of rank 3 onto H1: the first
    layer maps by the given 2 x 3 matrix, the second by its 2 x 2 minors,
    since [e_i, e_j] = e_(ij) goes to [phi e_i, phi e_j]."""
    f32 = cb.free_step2_group(3)
    h1 = cb.heisenberg_group(1)
    a = [[F(v) for v in row] for row in first_layer]
    minors = tuple(a[0][i] * a[1][j] - a[0][j] * a[1][i]
                   for i, j in ((0, 1), (0, 2), (1, 2)))
    return MorphismMatrix(
        entries=(tuple(a[0]) + (F(0),) * 3, tuple(a[1]) + (F(0),) * 3,
                 (F(0),) * 3 + minors),
        source=f32.algebra, target=h1.algebra)


# two morphisms whose kernels are not aligned with the coordinates
SKEWED_MORPHISMS = {"skewed": ((1, 0, 1), (0, 1, 1)), "minors": ((1, 2, -1), (0, 1, 3))}


def skewed_quotient(name):
    return quotient_distance(HSDistance(cb.free_step2_group(3), F(1, 2)),
                             f32_to_h1(SKEWED_MORPHISMS[name]))


# ---------------------------------------------------------------------------
# Euclidean-ball distances
# ---------------------------------------------------------------------------

def test_hs_euclidean_on_abelian():
    g = cb.abelian_group([1, 1, 1])
    assert hs_distance((0, 0, 0), (3, 4, 0), 1, g) == pytest.approx(5.0, rel=1e-12)


def test_hs_boundary_value_one():
    g = cb.heisenberg_group(1)
    d = HSDistance(g, F(2))
    # Euclidean norm of the displacement equals R: distance exactly 1
    assert d.value((0, 0, 0), (2, 0, 0)) == pytest.approx(1.0, rel=1e-12)


def test_hs_closed_form_heisenberg():
    for n in (1, 2, 3):
        g = cb.heisenberg_group(n)
        d = HSDistance(g, F(1))
        rng = np.random.default_rng(n)
        P = rng.standard_normal((500, g.dim)) * np.exp(rng.uniform(-3, 3, (500, 1)))
        Q = rng.standard_normal((500, g.dim)) * np.exp(rng.uniform(-3, 3, (500, 1)))
        got = d.value_batch(P, Q)
        want = np.array([hs_heisenberg_closed_form(p, q, 1, g) for p, q in zip(P, Q)])
        assert np.max(np.abs(got - want) / want) < 1e-10


def test_hs_fast_paths_match_iterative():
    from carnot_bcp.metrics import _hs_lambda_batch
    rng = np.random.default_rng(42)
    for g in (cb.abelian_group([1, 1, 1]), cb.heisenberg_group(2),
              cb.power_group(cb.heisenberg_group(1), 3),
              cb.heisenberg_nonstandard_group(2)):
        X = rng.standard_normal((400, g.dim)) * np.exp(rng.uniform(-4, 4, (400, 1)))
        auto = _hs_lambda_batch(X, g.weights, 0.75, method="auto")
        iterative = _hs_lambda_batch(X, g.weights, 0.75, method="iterative")
        assert np.max(np.abs(auto - iterative) / iterative) < 1e-12


def test_hs_zero_and_nonfinite():
    g = cb.heisenberg_group(1)
    d = HSDistance(g, F(1))
    assert d.value((1, 2, 3), (1, 2, 3)) == 0.0
    with pytest.raises(SolverError):
        d.value_from_identity((float("nan"), 0.0, 0.0))
    # rows near the ends of the float range, where u = lam^-2 itself would
    # overflow or underflow on weights (1, 2, 3); (1e-160)^2 is subnormal
    # and (1e-170)^2 is 0, yet neither row is the identity
    d = HSDistance(cb.heisenberg_nonstandard_group(2), F(1))
    rows = [(1e-160, 0.0, 0.0), (1e150, 0.0, 0.0), (0.0, 0.0, 1e-120), (1e-160, 0.0, 1.0),
            (0.0, 0.0, 1e-170)]
    want = [1e-160, 1e150, 1e-40, 1.0, 1e-170 ** (1 / 3)]
    batch = d.value_from_identity_batch(np.array(rows + [(0.3, -0.2, 0.5)]))
    for x, lam, lam_b in zip(rows, want, batch):
        # abs=0: approx's default absolute slack of 1e-12 would accept 0.0
        assert d.value_from_identity(x) == pytest.approx(lam, rel=1e-3, abs=0)
        assert lam_b == pytest.approx(lam, rel=1e-3, abs=0)
    assert batch[-1] == d.value_from_identity((0.3, -0.2, 0.5))
    assert d.value_from_identity_batch(np.zeros((0, 3))).shape == (0,)
    # the two-weight closed form, whose s1^2 would overflow here
    d = HSDistance(cb.heisenberg_group(1), F(1))
    assert d.value_from_identity((1e100, 0.0, 0.0)) == pytest.approx(1e100, rel=1e-15)
    assert d.value_from_identity_batch(np.array([[0.0, 1e100, 0.0]]))[0] == \
        pytest.approx(1e100, rel=1e-15)


NONFINITE_DISTANCES = {
    "hs": lambda: HSDistance(cb.heisenberg_nonstandard_group(2), F(1)),
    "cc_h1": CCHeisenbergDistance,
}


@pytest.mark.parametrize("kind,entry", [
    pytest.param(kind, entry, id=entry if kind == "hs" else f"{kind}-{entry}")
    for kind in NONFINITE_DISTANCES
    for entry in ["value_from_identity", "value_from_identity_batch", "value_batch"]])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy on inf and nan input
def test_hs_nonfinite_rows_rejected_on_every_path(kind, entry, bad):
    # a zero row is the identity (distance 0); a row whose squared sum is
    # not finite is an error on the scalar and the batch paths alike, not a
    # distance of 0 (or NaN) that would count the point as covered
    d = NONFINITE_DISTANCES[kind]()
    X = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [0.5, -1.0, 0.25]])
    evaluate = {
        "value_from_identity": lambda Y: np.array([d.value_from_identity(tuple(r))
                                                   for r in Y]),
        "value_from_identity_batch": d.value_from_identity_batch,
        "value_batch": lambda Y: d.value_batch(np.zeros_like(Y), Y),
    }[entry]
    vals = evaluate(X)
    assert vals[1] == 0.0 and np.all(vals[[0, 2]] > 0)
    X[2, 1] = bad
    with pytest.raises(SolverError):
        evaluate(X)


# the q > 1 branch: weights (1, 3/2, 5/2) give q = 2, u = 1/lam, f of degree 5;
# large q, where one Newton step in lam follows: weights (1, 1001/1000,
# 2001/1000) give q = 1000, weights (1, 1 + 1e-6) give q = 1e6
HS_ORACLE_GROUPS = {
    "q1_weights_1_2_3": (cb.heisenberg_nonstandard_group(2), [1, 2, 3], -0.5),
    "q2_weights_1_1.5_2.5": (cb.heisenberg_nonstandard_group(F(3, 2)), [2, 3, 5], -1.0),
    "q1000_weights_1_1.001_2.001": (cb.heisenberg_nonstandard_group(F(1001, 1000)),
                                    [1000, 1001, 2001], -500.0),
    "q1e6_weights_1_1.000001": (cb.abelian_group([1, F(1000001, 1000000)]),
                                [1000000, 1000001], -500000.0),
}

rational_points = st.lists(
    st.tuples(st.fractions(-64, 64, max_denominator=10**6),
              st.fractions(-64, 64, max_denominator=10**6),
              st.fractions(-64, 64, max_denominator=10**6),
              st.integers(-12, 12)).map(
        lambda t: tuple(v * F(2) ** t[3] for v in t[:3])).filter(any),
    min_size=1, max_size=8)


def hs_sign(d, x, rho):
    """Sign of d(0, x) - rho: exact when rho^(2w) is rational, otherwise
    sum_i x_i^2 rho^(-2 w_i) - R^2 to 60 digits, far below the 2^-40 margin."""
    if d.exact_capable:
        return d.compare_from_identity(x, rho)

    def dec(v):
        return decimal.Decimal(v.numerator) / v.denominator

    with decimal.localcontext() as ctx:
        ctx.prec = 60
        log_rho = dec(rho).ln()
        s = sum(dec(xi) ** 2 * (-2 * dec(w) * log_rho).exp()
                for xi, w in zip(x, d.weights) if xi)
        return (s > dec(d.R) ** 2) - (s < dec(d.R) ** 2)


@pytest.mark.parametrize("name", sorted(HS_ORACLE_GROUPS))
@settings(max_examples=150, deadline=None)
@given(points=rational_points)
def test_hs_polynomial_newton_against_exact_oracle(name, points):
    # every float distance, batch or scalar, is bracketed by the rational
    # membership test at 2^-40 relative on either side
    g, exps, lam_power = HS_ORACLE_GROUPS[name]
    d = HSDistance(g, F(1))
    assert d._plan.exps == exps and d._plan.lam_power == lam_power
    points = [x[:g.dim] for x in points if any(x[:g.dim])]
    assume(points)
    X = np.array([[float(v) for v in x] for x in points])
    batch = d.value_from_identity_batch(X)
    eps = F(1, 2 ** 40)
    for x, row, lam_b in zip(points, X, batch):
        lam_s = d.value_from_identity(x)
        lam_one = d.value_from_identity_batch(row[None, :])[0]
        assert abs(lam_s - lam_one) <= 1e-15 * lam_one
        for lam in (lam_b, lam_s):
            assert hs_sign(d, x, F(lam) * (1 - eps)) == 1
            assert hs_sign(d, x, F(lam) * (1 + eps)) == -1


def test_hs_plan_work_does_not_grow_with_degree():
    # weights (1, 1 + 1e-10) give q = 1e10 and a polynomial of degree 2e10;
    # the plan and each solve handle its two terms only, and lam = u^(-q/2)
    # stays within 2^-38 although u is 1 to within about 1e-10
    d = HSDistance(cb.abelian_group([1, F(10**10 + 1, 10**10)]), F(1))
    assert d._plan.exps == [10**10, 10**10 + 1]
    rows = [(0.3, 0.4), (1e-3, 2e3), (5.0, 1e-7), (1e-5, 1e-5)]
    batch = d.value_from_identity_batch(np.array(rows))
    eps = F(1, 2 ** 38)
    for x, lam_b in zip(rows, batch):
        lam = d.value_from_identity(x)
        assert abs(lam - lam_b) <= 1e-15 * lam
        x = [F(v) for v in x]
        assert hs_sign(d, x, F(lam) * (1 - eps)) == 1
        assert hs_sign(d, x, F(lam) * (1 + eps)) == -1


def test_hs_membership_examples():
    g = cb.heisenberg_group(1)
    d = HSDistance(g, F(1))
    e = g.identity()
    q = (F(0), F(0), F(1))
    assert hs_membership(q, e, F(1), d).label == "boundary"
    assert hs_membership(q, e, F(1, 2), d).label == "outside"
    assert hs_membership((F(0), F(0), F(1, 2)), e, F(1), d).label == "inside"
    assert hs_membership(q, e, F(1), d).backend == "exact"


def test_hs_membership_dilation_equivariance():
    g = cb.heisenberg_nonstandard_group(2)
    d = HSDistance(g, F(1))
    rng = np.random.default_rng(0)
    for _ in range(25):
        c = tuple(F(int(rng.integers(-4, 5)), 4) for _ in range(3))
        q = tuple(F(int(rng.integers(-4, 5)), 4) for _ in range(3))
        r = F(int(rng.integers(1, 5)), 2)
        lam = F(2)
        before = hs_membership(q, c, r, d).label
        after = hs_membership(cb.dilate(q, lam, g), cb.dilate(c, lam, g),
                              lam * r, d).label
        assert before == after


def test_hs_membership_float_fallback():
    d = CCHeisenbergDistance(1.0)
    res = hs_membership((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), 1.0, d)
    assert res.backend == "float" and res.label == "outside"
    assert res.margin == pytest.approx(2 * math.sqrt(math.pi) - 1.0, rel=1e-9)


def test_hs_exact_compare_requires_power():
    # half-integer weights stay exact at every rational radius (2w integral);
    # denominator-4 weights need the radius to be a perfect square
    g = cb.heisenberg_nonstandard_group(F(3, 2))  # weights 1, 3/2, 5/2
    d = HSDistance(g, F(1))
    p = (F(1), F(1), F(1))
    assert d.compare(g.identity(), p, F(1)) == 1
    assert d.compare(g.identity(), p, F(2)) in (-1, 0, 1)
    g4 = cb.heisenberg_nonstandard_group(F(5, 4))  # weights 1, 5/4, 9/4
    d4 = HSDistance(g4, F(1))
    assert d4.compare(g4.identity(), p, F(1)) == 1
    with pytest.raises(ExactnessError):
        d4.compare(g4.identity(), p, F(2))
    # perfect square radius: 4^(5/2) = 32 exact
    assert d4.compare(g4.identity(), p, F(4)) in (-1, 0, 1)


# ---------------------------------------------------------------------------
# exact comparison: one path in the base class
# ---------------------------------------------------------------------------

# each kind with an exact compare_from_identity; all but lp_combo (a product
# of lines) live on noncommutative groups, where p^-1 q and q p^-1 differ
EXACT_KINDS = {
    "hs": lambda: HSDistance(cb.heisenberg_nonstandard_group(2), F(2)),
    "hs_half_weights": lambda: HSDistance(cb.heisenberg_nonstandard_group(F(3, 2)), F(1)),
    "power": lambda: power_distance(HSDistance(cb.heisenberg_group(1), F(1)), F(2)),
    "product_max": lambda: product_max_distance(HSDistance(cb.heisenberg_group(1), F(1)),
                                                euclidean_line()),
    "lp_combo": lambda: lp_combination_distance(euclidean_line(), snowflake_line(F(2)), 1),
    "quotient_skewed": lambda: skewed_quotient("skewed"),
    "quotient_minors": lambda: skewed_quotient("minors"),
}

small_rationals = st.fractions(-6, 6, max_denominator=12)


@pytest.mark.parametrize("kind", sorted(EXACT_KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compare_is_exact_sign_at_the_displacement(kind, data):
    d = EXACT_KINDS[kind]()
    n = d.group.dim
    p = tuple(data.draw(st.lists(small_rationals, min_size=n, max_size=n)))
    q = tuple(data.draw(st.lists(small_rationals, min_size=n, max_size=n)))
    # a radius near d(p, q), where a wrong displacement changes the sign
    v = d.value(p, q)
    rho = max(F(v).limit_denominator(16), F(1, 16)) * \
        data.draw(st.sampled_from([F(7, 8), F(1), F(9, 8)]))
    x = cb.multiply(tuple(-c for c in p), q, d.group)  # p^-1 q
    try:
        want = d.compare_from_identity(x, rho)
    except ExactnessError:
        with pytest.raises(ExactnessError):
            d.compare(p, q, rho)
        return
    assert d.compare(p, q, rho) == want
    # and the sign is that of d(p, q) - rho wherever the float value decides it
    if abs(v - float(rho)) > 1e-9 * float(rho):
        assert want == (1 if v > rho else -1)


@pytest.mark.parametrize("make", [disk_union_segment_ball, CCHeisenbergDistance],
                         ids=["unit_ball", "cc_h1"])
def test_float_only_kinds_refuse_exact_comparison(make):
    d = make()
    p = tuple(F(1, k + 2) for k in range(d.group.dim))
    with pytest.raises(ExactnessError):
        d.compare(d.group.identity(), p, F(1))
    with pytest.raises(ExactnessError):
        d.compare_from_identity(p, F(1))


# ---------------------------------------------------------------------------
# unit-ball oracle distances
# ---------------------------------------------------------------------------

def test_disk_union_segment_fixture():
    d = disk_union_segment_ball()
    assert d.value((0.0, 0.0), (2.0, 0.0)) == pytest.approx(1.0, abs=1e-9)
    for eps in (1e-3, 1e-6):
        want = math.sqrt(4.0 + eps * eps)
        assert d.value((0.0, 0.0), (2.0, eps)) == pytest.approx(want, rel=1e-9)
    # discontinuity across the axis: jump of size ~1 at (2, 0)
    assert d.value((0.0, 0.0), (2.0, 1e-9)) - d.value((0.0, 0.0), (2.0, 0.0)) > 0.9


def test_punctured_disk_fixture():
    d = punctured_disk_ball()
    assert d.value((0.0, 0.0), (1.0, 0.0)) == pytest.approx(2.0, abs=1e-9)
    assert d.value((0.0, 0.0), (0.0, 1.0)) == pytest.approx(1.0, abs=1e-9)


def test_unit_ball_agrees_with_hs_on_euclidean_ball():
    g = cb.heisenberg_group(1)
    R = 0.75
    oracle = lambda p: sum(x * x for x in p) <= R * R
    d = UnitBallDistance(g, oracle, bound_radius=R)
    dh = HSDistance(g, F(3, 4))
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = tuple(rng.standard_normal(3))
        q = tuple(rng.standard_normal(3))
        assert d.value(p, q) == pytest.approx(dh.value(p, q), rel=1e-9)


def test_unit_ball_oracle_error():
    g = cb.abelian_group([1])
    # empty "ball": never accepts
    d = UnitBallDistance(g, lambda p: False, bound_radius=1.0)
    with pytest.raises(OracleError):
        d.value((0.0,), (1.0,))


# ---------------------------------------------------------------------------
# powers, products, lp combinations
# ---------------------------------------------------------------------------

def test_power_t1_is_identity():
    d = euclidean_line()
    dp = power_distance(d, 1)
    assert dp.value((0,), (3,)) == pytest.approx(3.0)


def test_snowflake_square_root():
    d = snowflake_line(2)
    assert d.value((0,), (4,)) == pytest.approx(2.0)
    assert d.group.weights == (F(2),)


def test_power_ball_rescaling():
    base = euclidean_line()
    d = power_distance(base, 2)
    # B_{d^(1/2)}(0, r) = B_d(0, r^2): membership at radius r iff |x| <= r^2
    assert d.compare((F(0),), (F(4),), F(2)) == 0
    assert d.compare((F(0),), (F(4),), F(3, 2)) == 1
    assert d.compare((F(0),), (F(4),), F(5, 2)) == -1


def test_product_max_examples():
    d = product_max_distance(euclidean_line(), snowflake_line(2))
    assert d.value((0, 0), (1, 1)) == pytest.approx(1.0)
    assert d.value((0, 0), (2, 1)) == pytest.approx(2.0)
    assert d.compare((F(0), F(0)), (F(1), F(1)), F(1)) == 0
    assert d.compare((F(0), F(0)), (F(1), F(1)), F(2)) == -1


def test_lp_combo_printed_example():
    d = lp_combination_distance(euclidean_line(), snowflake_line(2), 1)
    assert d.value((0, 0), (1, 1)) == pytest.approx(2.0)
    assert d.compare((F(0), F(0)), (F(1), F(1)), F(2)) == 0
    assert d.compare((F(0), F(0)), (F(1), F(1)), F(3)) == -1
    assert d.compare((F(0), F(0)), (F(1), F(1)), F(3, 2)) == 1


def test_max_of_same_distance_on_diagonal():
    d1 = euclidean_line()
    d = product_max_distance(d1, euclidean_line())
    assert d.value((0, 0), (3, 3)) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def test_quotient_identity_kernel():
    h1 = cb.heisenberg_group(1)
    O, Z = F(1), F(0)
    m = MorphismMatrix(entries=((O, Z, Z), (Z, O, Z), (Z, Z, O)),
                       source=h1.algebra, target=h1.algebra)
    dq = quotient_distance(HSDistance(h1, F(1, 2)), m)
    dh = HSDistance(h1, F(1, 2))
    rng = np.random.default_rng(2)
    for _ in range(10):
        p, q = tuple(rng.standard_normal(3)), tuple(rng.standard_normal(3))
        assert dq.value(p, q) == pytest.approx(dh.value(p, q), rel=1e-12)


def test_quotient_below_canonical_lift():
    dq = quotient_distance(HSDistance(cb.free_step2_group(3), F(1, 2)), f32_to_h1())
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = tuple(rng.standard_normal(3))
        lift_val = dq.dhat.value(dq.lift((0.0, 0.0, 0.0)), dq.lift(q))
        assert dq.value((0.0, 0.0, 0.0), q) <= lift_val + 1e-9


def test_quotient_requires_surjective():
    f32 = cb.free_step2_group(3)
    h1 = cb.heisenberg_group(1)
    zero = MorphismMatrix(entries=tuple(tuple(F(0) for _ in range(6)) for _ in range(3)),
                          source=f32.algebra, target=h1.algebra)
    with pytest.raises(ValueError):
        quotient_distance(HSDistance(f32, F(1)), zero)


def test_quotient_skewed_morphism_minimizes():
    # morphism whose kernel is not coordinate-aligned: the fiber minimum is
    # strictly below the section value, and the three evaluators agree
    dq = skewed_quotient("skewed")
    rng = np.random.default_rng(4)
    gains = []
    for _ in range(8):
        p = tuple(rng.standard_normal(3) * 0.6)
        q = tuple(rng.standard_normal(3) * 0.6)
        base = dq.dhat.value(dq.lift(p), dq.lift(q))
        vg = dq.grid_value(p, q, resolution=14, levels=5)
        vo = dq.value(p, q)
        gains.append(base - vg)
        assert abs(vo - vg) <= 5e-3 * vg
    assert max(gains) > 0.1


def test_quotient_homogeneity_and_left_invariance():
    dq = quotient_distance(HSDistance(cb.free_step2_group(3), F(1, 2)), f32_to_h1())
    h1 = cb.heisenberg_group(1)
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = tuple(rng.standard_normal(3) * 0.5)
        q = tuple(rng.standard_normal(3) * 0.5)
        g = tuple(rng.standard_normal(3) * 0.5)
        base = dq.value(p, q)
        lam = 1.7
        assert dq.value(cb.dilate(p, lam, h1, exact=False),
                        cb.dilate(q, lam, h1, exact=False)) == \
            pytest.approx(lam * base, rel=1e-6)
        assert dq.value(cb.multiply(g, p, h1), cb.multiply(g, q, h1)) == \
            pytest.approx(base, rel=1e-6)


def minimizing_fiber_point(dq, p, q):
    """lift(p)^-1 lift(q) exp(k), with k in the kernel chosen one layer at a
    time, lowest weight first, so that every block of the product becomes its
    orthogonal projection onto the complement of the kernel's layer.  The
    projections come from an SVD of each block of the morphism, not from the
    quotient's own matrices."""
    ghat = dq.dhat.group
    A = np.array(dq.morphism.entries, dtype=float)
    D = cb.multiply(tuple(-dq.lift(p)), tuple(dq.lift(q)), ghat)
    k = np.zeros(ghat.dim)
    for w, ix in ghat.algebra.layers().items():
        ix = list(ix)
        rows = [r for r, tw in enumerate(dq.morphism.target.weights) if tw == w]
        _, sv, vt = np.linalg.svd(A[np.ix_(rows, ix)])
        kernel = vt[int(np.sum(sv > 1e-12)):]          # orthonormal rows
        y = np.array(cb.multiply(D, tuple(k), ghat))
        k[ix] -= kernel.T @ (kernel @ y[ix])
    return np.array(cb.multiply(D, tuple(k), ghat))


@pytest.mark.parametrize("name", sorted(SKEWED_MORPHISMS))
def test_quotient_minimum_is_attained_at_the_projected_lift(name):
    dq = skewed_quotient(name)
    A = np.array(dq.morphism.entries, dtype=float)
    rng = np.random.default_rng(6)
    for _ in range(20):
        p, q = tuple(rng.standard_normal(3)), tuple(rng.standard_normal(3))
        y = minimizing_fiber_point(dq, p, q)
        x = cb.multiply(tuple(-c for c in p), q, dq.group)
        assert np.allclose(A @ y, x, rtol=0, atol=1e-12)     # y lies in the fiber
        assert dq.dhat.value_from_identity(tuple(y)) == pytest.approx(
            dq.value(p, q), rel=1e-12)


@pytest.mark.parametrize("name", sorted(SKEWED_MORPHISMS))
def test_quotient_is_a_lower_bound_over_the_fiber(name):
    dq = skewed_quotient(name)
    rng = np.random.default_rng(7)
    for _ in range(4):
        p = tuple(rng.standard_normal(3) * 0.6)
        q = tuple(rng.standard_normal(3) * 0.6)
        v = dq.value(p, q)
        assert v <= dq.grid_value(p, q, resolution=12, levels=4) * (1 + 1e-12)
        T = rng.standard_normal((10_000, len(dq.kernel))) * 2.0 * v
        fiber = dq.dhat.value_from_identity_batch(dq._fiber_displacements(p, q, T))
        assert v <= fiber.min() * (1 + 1e-12)


@pytest.mark.parametrize("name", sorted(SKEWED_MORPHISMS))
def test_quotient_batch_and_scalar_values_agree(name):
    dq = skewed_quotient(name)
    rng = np.random.default_rng(4)
    P, Q = rng.standard_normal((2000, 3)) * 0.6, rng.standard_normal((2000, 3)) * 0.6
    want = np.array([dq.value(tuple(p), tuple(q)) for p, q in zip(P, Q)])
    for batch in (dq.value_batch_refined, dq.value_batch):
        assert np.max(np.abs(batch(P, Q) - want) / want) <= 1e-12


def test_quotient_compare_needs_rational_coordinates():
    dq = skewed_quotient("skewed")
    assert dq.compare_from_identity((F(1, 2), F(0), F(0)), F(1)) == -1
    with pytest.raises(ExactnessError):
        dq.compare_from_identity((0.5, F(0), F(0)), F(1))


def test_quotient_requires_an_hs_distance_on_a_graded_morphism():
    f32 = cb.free_step2_group(3)
    with pytest.raises(ValueError, match="HS distance"):
        quotient_distance(power_distance(HSDistance(f32, F(1, 2)), 2), f32_to_h1())
    with pytest.raises(ValueError, match="source"):
        quotient_distance(HSDistance(cb.heisenberg_group(1)), f32_to_h1())
    m = f32_to_h1()
    # surjective, but e_12 goes to 2Z where [phi e_1, phi e_2] = Z
    bracket = replace(m, entries=m.entries[:2] + ((0, 0, 0, 2, 0, 0),))
    # surjective, but the weight-1 e_3 reaches the weight-2 Z
    layer = replace(m, entries=m.entries[:2] + ((0, 0, 1, 1, 0, 0),))
    for bad in (bracket, layer):
        assert bad.is_surjective() and not validate_morphism(bad).ok
        with pytest.raises(ValueError, match="graded"):
            quotient_distance(HSDistance(f32, F(1, 2)), bad)


# a fresh interpreter in which every import outside the standard library,
# numpy and the package itself fails
ONLY_NUMPY = """
import sys
class OnlyNumpy:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in sys.stdlib_module_names and top not in ("numpy", "carnot_bcp"):
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, OnlyNumpy())
"""


def test_quotient_distances_need_only_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ONLY_NUMPY + (
        "import carnot_bcp as cb\n"
        "from fractions import Fraction as F\n"
        "from carnot_bcp.structure import MorphismMatrix\n"
        "f32, h1 = cb.free_step2_group(3), cb.heisenberg_group(1)\n"
        "m = MorphismMatrix(entries=((1, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0),\n"
        "                            (0, 0, 0, 1, 1, -1)),\n"
        "                   source=f32.algebra, target=h1.algebra)\n"
        "dq = cb.quotient_distance(cb.HSDistance(f32, F(1, 2)), m)\n"
        "print(dq.value((0.3, -0.2, 0.5), (-0.1, 0.4, 0.0)))\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) > 0


# ---------------------------------------------------------------------------
# sub-Riemannian distance on the first Heisenberg group
# ---------------------------------------------------------------------------

def test_cc_horizontal_segment():
    assert cc_distance_h1((0, 0, 0), (3, 0, 0)) == pytest.approx(3.0, rel=1e-12)
    assert cc_distance_h1((0, 0, 0), (0.3, -0.4, 0)) == pytest.approx(0.5, rel=1e-12)


def test_cc_vertical_full_circle():
    assert cc_distance_h1((0, 0, 0), (0, 0, 1)) == pytest.approx(
        2.0 * math.sqrt(math.pi), rel=1e-9)
    assert cc_distance_h1((0, 0, 0), (0, 0, 1), a=2.0) == pytest.approx(
        math.sqrt(math.pi), rel=1e-9)


def test_cc_homogeneity():
    d = CCHeisenbergDistance(1.0)
    h1 = cb.heisenberg_group(1)
    rng = np.random.default_rng(6)
    P = rng.standard_normal((2000, 3)) * np.exp(rng.uniform(-2, 2, (2000, 1)))
    lam = np.exp(rng.uniform(-2, 2, 2000))
    e = np.zeros((2000, 3))
    base = d.value_batch(e, P)
    scaled = d.value_batch(e, dilate_batch(P, lam, h1))
    assert np.max(np.abs(scaled - lam * base) / (lam * base)) < 1e-8


def test_cc_left_invariance():
    d = CCHeisenbergDistance(1.0)
    h1 = cb.heisenberg_group(1)
    rng = np.random.default_rng(7)
    P = rng.standard_normal((2000, 3))
    Q = rng.standard_normal((2000, 3))
    G = rng.standard_normal((2000, 3))
    base = d.value_batch(P, Q)
    trans = d.value_batch(multiply_batch(G, P, h1), multiply_batch(G, Q, h1))
    assert np.max(np.abs(trans - base) / base) < 1e-8


def test_cc_near_axis_continuity():
    # approaching the vertical axis: d -> 2 sqrt(pi z) - rho + o(rho)
    z = 1.0
    want = 2.0 * math.sqrt(math.pi * z)
    for rho in (1e-4, 1e-6, 1e-8):
        got = cc_distance_h1((0, 0, 0), (rho, 0, z))
        assert got == pytest.approx(want - rho, rel=1e-7)


# ---------------------------------------------------------------------------
# generic utilities
# ---------------------------------------------------------------------------

def test_boundary_sample_euclidean():
    g = cb.abelian_group([1, 1])
    d = HSDistance(g, F(1))
    b = boundary_sample(d, (3.0, 4.0))
    assert b == pytest.approx((0.6, 0.8), rel=1e-12)


def test_boundary_sample_hs_norm():
    g = cb.heisenberg_nonstandard_group(2)
    d = HSDistance(g, F(1))
    rng = np.random.default_rng(8)
    for _ in range(20):
        u = tuple(rng.standard_normal(3) * 3)
        b = boundary_sample(d, u)
        assert sum(x * x for x in b) == pytest.approx(1.0, abs=1e-9)


def test_boundary_sample_idempotent():
    g = cb.heisenberg_group(1)
    d = HSDistance(g, F(1))
    b = boundary_sample(d, (0.5, -1.0, 2.0))
    b2 = boundary_sample(d, b)
    assert np.allclose(b, b2, atol=1e-9)


def test_boundary_sample_identity_rejected():
    g = cb.heisenberg_group(1)
    d = HSDistance(g, F(1))
    with pytest.raises(ValueError):
        boundary_sample(d, g.identity())


def test_triangle_constant_metric_spaces():
    h1 = cb.heisenberg_group(1)
    for d in (HSDistance(cb.abelian_group([1, 1, 1]), F(1)),
              HSDistance(h1, F(1, 4)),
              CCHeisenbergDistance(1.0)):
        assert estimate_quasi_triangle_constant(d, 2000, seed=0) <= 1.0 + 1e-9


def test_triangle_constant_large_R_exceeds_one():
    d = HSDistance(cb.heisenberg_group(1), F(10))
    assert estimate_quasi_triangle_constant(d, 2000, seed=0) > 1.1


def test_packing_count_line():
    d = euclidean_line()
    r = 0.5
    cands = [(x,) for x in np.arange(-1.0, 1.0001, r / 4)]
    assert packing_count(d, (0.0,), r, 2.0, candidates=cands) == 5


# ---------------------------------------------------------------------------
# invariance sweeps
# ---------------------------------------------------------------------------

HOMOGENEOUS_DISTANCES = [
    ("hs-h1", lambda: HSDistance(cb.heisenberg_group(1), F(1))),
    ("hs-nonstd", lambda: HSDistance(cb.heisenberg_nonstandard_group(2), F(1))),
    ("hs-f32", lambda: HSDistance(cb.free_step2_group(3), F(1, 2))),
    ("snowflake-product", lambda: product_max_distance(euclidean_line(),
                                                       snowflake_line(2))),
    ("lp-combo", lambda: lp_combination_distance(euclidean_line(),
                                                 snowflake_line(2), 1)),
    ("cc", lambda: CCHeisenbergDistance(1.0)),
]


@pytest.mark.parametrize("name,mk", HOMOGENEOUS_DISTANCES, ids=[n for n, _ in HOMOGENEOUS_DISTANCES])
def test_homogeneity_sweep(name, mk):
    d = mk()
    g = d.group
    rng = np.random.default_rng(11)
    m = 2500
    P = rng.standard_normal((m, g.dim)) * np.exp(rng.uniform(-2, 2, (m, 1)))
    Q = rng.standard_normal((m, g.dim)) * np.exp(rng.uniform(-2, 2, (m, 1)))
    lam = np.exp(rng.uniform(-2, 2, m))
    base = d.value_batch(P, Q)
    ok = base > 1e-12
    scaled = d.value_batch(dilate_batch(P, lam, g), dilate_batch(Q, lam, g))
    assert np.max(np.abs(scaled[ok] - lam[ok] * base[ok]) / (lam[ok] * base[ok])) <= 1e-8


@pytest.mark.parametrize("name,mk", HOMOGENEOUS_DISTANCES, ids=[n for n, _ in HOMOGENEOUS_DISTANCES])
def test_left_invariance_sweep(name, mk):
    d = mk()
    g = d.group
    rng = np.random.default_rng(12)
    m = 2500
    P = rng.standard_normal((m, g.dim))
    Q = rng.standard_normal((m, g.dim))
    G = rng.standard_normal((m, g.dim))
    base = d.value_batch(P, Q)
    ok = base > 1e-12
    trans = d.value_batch(multiply_batch(G, P, g), multiply_batch(G, Q, g))
    assert np.max(np.abs(trans[ok] - base[ok]) / base[ok]) <= 1e-8


def test_boundedness_shadow_on_dilation_orbits():
    # d(e, delta_(1/k) p) -> 0 exactly when the coordinates do
    d = HSDistance(cb.heisenberg_nonstandard_group(2), F(1))
    g = d.group
    p = (1.3, -0.4, 2.2)
    vals = []
    coords = []
    for k in (1, 10, 100, 1000):
        pk = cb.dilate(p, 1.0 / k, g, exact=False)
        vals.append(d.value(g.identity(), pk))
        coords.append(max(abs(x) for x in pk))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2 and coords[-1] < 1e-2


def test_lee_naor_report_flags_gauge():
    rep = lee_naor_comparison(1, samples=1000, seed=0)
    assert rep["closed_form_rel_dev"] <= 1e-10
    assert rep["quartic_gauge_matches"] is False
    assert rep["quartic_gauge_rel_dev"] > 0.1
