"""Quasi-distance evaluators: solvers, exact comparisons, invariances."""

import decimal
import math
import os
import subprocess
import sys
import warnings
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
    disk_union_segment_ball,
    estimate_quasi_triangle_constant,
    euclidean_line,
    lp_combination_distance,
    power_distance,
    product_max_distance,
    punctured_disk_ball,
    quotient_distance,
    snowflake_line,
)
from carnot_bcp.exact_linalg import min_norm_right_inverse
from carnot_bcp.scalars import rat_pow
from carnot_bcp.structure import MorphismMatrix, validate_morphism

from bch_oracle import fraction_bch
from hs_oracle import hs_heisenberg_closed_form

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
    assert HSDistance(g, 1).value((0, 0, 0), (3, 4, 0)) == pytest.approx(5.0, rel=1e-12)


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
def test_hs_nonfinite_rows_rejected_on_every_path(kind, entry, bad):
    # a zero row is the identity (distance 0); a row with a NaN or infinite
    # coordinate is an error on the scalar and the batch paths alike, not a
    # distance of 0 (or NaN) that would count the point as covered.  A finite
    # row whose squares overflow has a distance on both kinds
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
    if math.isfinite(bad):
        # HS, weight 2: lam^4 = 1e400 to within the other terms; cc_h1, a
        # horizontal displacement of 1e200 and a height far below its square
        want = 1e100 if kind == "hs" else 1e200
        assert evaluate(X)[2] == pytest.approx(want, rel=1e-12)
        return
    with pytest.raises(SolverError):
        evaluate(X)


def test_hs_finite_rows_whose_squares_overflow_are_solved():
    # (1e155)^2 is infinite; these rows raised "nonfinite coordinates"
    d = HSDistance(cb.heisenberg_nonstandard_group(2), F(1))
    rows = [(1e200, 0.0, 0.0), (0.0, 0.0, 1e200), (1e155, -1e155, 1.0), (1e300, 0.0, 1e300)]
    want = [1e200, 1e200 ** (1 / 3), 1e155, 1e300]
    batch = d.value_from_identity_batch(np.array(rows))
    for x, lam, lam_b in zip(rows, want, batch):
        assert d.value_from_identity(x) == pytest.approx(lam, rel=1e-12, abs=0)
        assert lam_b == pytest.approx(lam, rel=1e-12, abs=0)
    # far outside every ball of radius 1, with no warning on the squares
    assert d.exceeds_batch(np.zeros((4, 3)), np.array(rows), 1.0).all()


def test_hs_weights_below_one_round_a_value_beyond_the_float_range():
    # weights 1/2, 1/2, 1: lam = x^2 for a first-layer point, which rounds
    # to 0 or overflows; the rescaled solve returned NaN for both
    d = HSDistance(cb.power_group(cb.heisenberg_group(1), F(1, 2)), F(1))
    rows = [(1e-200, 0.0, 0.0), (1e200, 0.0, 0.0), (1e-200, 1e-200, 1e-300), (1e100, 0.0, 0.0)]
    want = [0.0, math.inf, 1e-300, 1e200]
    batch = d.value_from_identity_batch(np.array(rows))
    for x, lam, lam_b in zip(rows, want, batch):
        assert d.value_from_identity(x) == pytest.approx(lam, rel=1e-12, abs=0)
        assert lam_b == pytest.approx(lam, rel=1e-12, abs=0)


@pytest.mark.parametrize("base, x, edge", [
    (lambda: cb.heisenberg_group(1), (2000.0, 0.0, 0.0), (1000.0, 1000.0, 0.0)),
    (lambda: cb.heisenberg_nonstandard_group(2), (2000.0, 0.0, 5.0), (1000.0, 0.0, 1e9)),
], ids=["heisenberg", "nonstandard"])
def test_hs_a_lam_beyond_the_float_range_is_the_same_on_both_paths(base, x, edge):
    # weights t w with t = 1/100: lam is about 2000^100 at x and below
    # 10^-370 at x / 10^12, though both squared sums are ordinary floats.
    # The scalar solve raised OverflowError at x, and the batch gave inf, or
    # NaN after the lam polish of the Newton route, with numpy warnings.  At
    # the edge row the rescaled solve's lam_lo is finite and lam is not
    d = HSDistance(cb.power_group(base(), F(1, 100)), F(1))
    rows = [x, tuple(v * 1e-12 for v in x), edge, (1.5, 0.3, 0.2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = d.value_from_identity_batch(np.array(rows))
        scalar = [d.value_from_identity(r) for r in rows]
        alone = [d.value_from_identity_batch(np.array([r]))[0] for r in rows]
    assert list(batch) == scalar == alone
    assert list(batch[:3]) == [math.inf, 0.0, math.inf] and 1e17 < batch[3] < 1e19


# fractional root exponents: 1/(2w) = 1/3 in the closed forms of the weight
# 3/2 and of the weights 3/2, 3, and -q/2 = -1/3 in the Newton solve of the
# weights 3/2, 3, 9/2
POLISHED_ROOTS = {
    "snowflake_line_3_2": lambda: snowflake_line(F(3, 2)),
    "heisenberg_power_3_2": lambda: power_distance(HSDistance(cb.heisenberg_group(1)),
                                                   F(3, 2)),
    "nonstandard_power_3_2": lambda: power_distance(
        HSDistance(cb.heisenberg_nonstandard_group(2), F(2, 3)), F(3, 2)),
}


def hs_root(x, d):
    """lam with sum x_i^2 lam^(-2 w_i) = R^2 by bisection to 60 digits, for
    integers 2 w_i; a Decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        S = [decimal.Decimal(v) ** 2 for v in x]
        exps = [int(2 * w) for w in d.weights]
        R2 = decimal.Decimal(d.R.numerator) ** 2 / decimal.Decimal(d.R.denominator) ** 2

        def outside(lam):
            return sum(s / lam ** e for s, e in zip(S, exps)) > R2

        lo = hi = decimal.Decimal(1)
        while outside(hi):
            hi *= 2
        while not outside(lo):
            lo /= 2
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if outside(mid) else (lo, mid)
        return hi


@pytest.mark.parametrize("name", sorted(POLISHED_ROOTS))
def test_hs_fractional_root_exponents_are_polished(name):
    # a float exponent y(1 + e) for the rational y costs y e |ln base|
    # relative, 9 to 15 ulps at values e^(+-45) before the Newton step in lam
    # that now follows; scalar and batch stay within 2 ulps
    d = POLISHED_ROOTS[name]()
    rng = np.random.default_rng(21)
    w = np.array([float(v) for v in d.weights])
    X = rng.standard_normal((150, d.group.dim)) * np.exp(rng.uniform(-30, 30, (150, 1))) ** w
    batch = d.value_from_identity_batch(X)
    for x, lam_b in zip(X, batch):
        want = hs_root(x, d)
        ulp = decimal.Decimal(math.ulp(float(want)))
        for got in (d.value_from_identity(tuple(x)), lam_b):
            assert abs(decimal.Decimal(float(got)) - want) <= 2 * ulp


def test_float_paths_convert_no_fraction(monkeypatch):
    # the weights, structure constants and R are floats once per algebra or
    # distance; after a warm-up, the float paths convert no Fraction
    g = cb.power_group(cb.step3_rank3_group(), F(3, 2))
    d = HSDistance(g, F(2, 3))
    rng = np.random.default_rng(22)
    X, Y = rng.standard_normal((2, 8, g.dim))
    x, y = tuple(X[0]), tuple(Y[0])
    t = np.full(8, 0.7)

    def run():
        cb.dilate(x, 1.5, g)
        dilate_batch(X, 1.5, g)
        dilate_batch(X, t, g)
        cb.multiply(x, y, g)
        multiply_batch(X, Y, g)
        d.value(x, y)
        d.value_from_identity(x)
        d.value_from_identity((1e200,) + x[1:])
        d.value_from_identity_batch(X)
        d.value_batch(X, Y)
        d.exceeds_batch(X, Y, t)

    run()
    calls = []
    to_float = Fraction.__float__

    def counted(self):
        calls.append(self)
        return to_float(self)

    monkeypatch.setattr(Fraction, "__float__", counted)
    run()
    assert calls == []


def test_cc_finite_points_whose_squares_overflow_are_solved():
    # through d(x, y, z) = s d(x / s, y / s, z / s^2); the first raised
    # "nonfinite coordinates" and the second overflowed to inf in pi |z|
    d = CCHeisenbergDistance(1.0)
    assert d.value_from_identity((1e200, 0.0, 0.0)) == pytest.approx(1e200, rel=1e-15)
    assert d.value_from_identity((0.0, 0.0, 1e308)) == \
        pytest.approx(2.0 * math.sqrt(math.pi) * 1e154, rel=1e-15)
    # a point on an arc whose squares are finite, and its dilate by 1e5
    x = (3e149, -4e149, 5e297)
    assert d.value_from_identity(cb.dilate(x, 1e5, cb.heisenberg_group(1))) == \
        pytest.approx(1e5 * d.value_from_identity(x), rel=1e-14)


# points one coordinate short or long: numpy broadcast a one-entry row and
# indexed past a short one, and zip cut a long point to the dimension
WRONG_LENGTH = {
    "dilate": lambda g, x: cb.dilate(x, 2.0, g),
    "dilate_exact": lambda g, x: cb.dilate(tuple(map(F, x)), F(4), g),
    "dilate_batch": lambda g, x: dilate_batch([x, x], 2.0, g),
    "multiply_batch": lambda g, x: multiply_batch(np.zeros((2, g.dim)), [x, x], g),
    "value_from_identity": lambda g, x: HSDistance(g).value_from_identity(x),
    "value_from_identity_batch": lambda g, x: HSDistance(g).value_from_identity_batch([x, x]),
    "value_batch": lambda g, x: HSDistance(g).value_batch(np.zeros((2, g.dim)), [x, x]),
    "compare_from_identity": lambda g, x: HSDistance(g).compare_from_identity(
        tuple(map(F, x)), F(1)),
    "exceeds_batch": lambda g, x: HSDistance(g).exceeds_batch(np.zeros((2, g.dim)), [x, x],
                                                              np.ones(2)),
}


@pytest.mark.parametrize("entry", sorted(WRONG_LENGTH))
@pytest.mark.parametrize("group,length", [
    pytest.param(cb.abelian_group([1, 1, 2]), 1, id="abelian112-1"),
    pytest.param(cb.abelian_group([1, 1, 2]), 2, id="abelian112-2"),
    pytest.param(cb.heisenberg_group(1), 4, id="h1-4")])
def test_a_point_of_the_wrong_length_is_rejected_on_every_path(entry, group, length):
    with pytest.raises(cb.AlgebraError, match="vector length does not match"):
        WRONG_LENGTH[entry](group, (1.0,) * length)


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


# the ball test of exceeds_batch on the groups of the search: one and two
# non-integer weight steps, step 3, and several coordinates per layer
EXCEEDS_GROUPS = {
    "nonstd_2": lambda: cb.heisenberg_nonstandard_group(2),
    "nonstd_3_2": lambda: cb.heisenberg_nonstandard_group(F(3, 2)),
    "step3_rank3": cb.step3_rank3_group,
    "free_step2_3": lambda: cb.free_step2_group(3),
}


def float_rows(data, m, n):
    """m rows of n coordinates, each 0 or of size 1e-3 to 2."""
    coord = st.floats(-2, 2).map(lambda x: x if abs(x) >= 1e-3 else 0.0)
    return np.array(data.draw(st.lists(
        st.lists(coord, min_size=n, max_size=n), min_size=m, max_size=m)))


@pytest.mark.parametrize("name", sorted(EXCEEDS_GROUPS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_exceeds_batch_is_the_value_test_off_the_boundary(name, data):
    # rows at every scale of t from 1e-20 to 1e3, each dilated so that its
    # distance is within a factor 4 of t, and some pushed to within 1e-6 of it
    g = EXCEEDS_GROUPS[name]()
    d = HSDistance(g, data.draw(st.sampled_from([F(1), F(1, 2), F(7, 3)])))
    m = data.draw(st.integers(1, 16))
    P, Q = float_rows(data, m, g.dim), float_rows(data, m, g.dim)
    t = 10.0 ** np.array(data.draw(st.lists(st.floats(-20, 3), min_size=m, max_size=m)))
    v = d.value_batch(P, Q)
    ratio = np.array(data.draw(st.lists(
        st.one_of(st.floats(0.25, 4), st.floats(1 - 1e-6, 1 + 1e-6)), min_size=m, max_size=m)))
    scale = np.where(v > 0, t * ratio / np.where(v > 0, v, 1), t)
    P, Q = dilate_batch(P, scale, g), dilate_batch(Q, scale, g)
    v = d.value_batch(P, Q)
    got = d.exceeds_batch(P, Q, t)
    assert got.dtype == bool and got.shape == (m,)
    off = np.abs(v - t) > 1e-9 * t
    assert np.array_equal(got[off], (v > t)[off])


@pytest.mark.parametrize("name", sorted(EXCEEDS_GROUPS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_exceeds_batch_agrees_with_the_exact_compare(name, data):
    # rational points and radii: the float ball test is the sign of the
    # exact comparison wherever the distance is not within 1e-9 of t
    g = EXCEEDS_GROUPS[name]()
    d = HSDistance(g, data.draw(st.sampled_from([F(1), F(1, 2), F(7, 3)])))
    m = data.draw(st.integers(1, 6))
    point = st.lists(st.fractions(-3, 3, max_denominator=40), min_size=g.dim, max_size=g.dim)
    P = [tuple(data.draw(point)) for _ in range(m)]
    Q = [tuple(data.draw(point)) for _ in range(m)]
    t = [data.draw(st.fractions(F(1, 100), 100, max_denominator=100)) for _ in range(m)]
    signs = np.array([d.compare(p, q, r) for p, q, r in zip(P, Q, t)])
    Pf, Qf, tf = (np.array(x, dtype=float) for x in (P, Q, t))
    got = d.exceeds_batch(Pf, Qf, tf)
    off = np.abs(d.value_batch(Pf, Qf) - tf) > 1e-9 * tf
    assert np.array_equal(got[off], (signs > 0)[off])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exceeds_batch_rejects_nonfinite_coordinates(bad):
    # as the value paths do; a finite row whose squares overflow exceeds
    d = HSDistance(cb.heisenberg_nonstandard_group(2), F(1))
    Q = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1e200, 0.0, 0.0]])
    assert d.exceeds_batch(np.zeros_like(Q), Q, np.ones(3)).tolist() == [True, False, True]
    Q[1, 2] = bad
    with pytest.raises(SolverError, match="nonfinite coordinates"):
        d.exceeds_batch(np.zeros_like(Q), Q, np.ones(3))


def test_exceeds_batch_of_the_other_kinds_is_the_value_test():
    rng = np.random.default_rng(5)
    for d in (CCHeisenbergDistance(1.0),
              product_max_distance(HSDistance(cb.heisenberg_group(1), F(1)),
                                   euclidean_line()),
              skewed_quotient("minors")):
        n = d.group.dim
        P, Q = rng.standard_normal((50, n)), rng.standard_normal((50, n))
        t = np.exp(rng.uniform(-2, 2, 50))
        assert np.array_equal(d.exceeds_batch(P, Q, t), d.value_batch(P, Q) > t)


def test_hs_membership_examples():
    g = cb.heisenberg_group(1)
    d = HSDistance(g, F(1))
    e = g.identity()
    q = (F(0), F(0), F(1))
    # the sign of d(e, q) - r: 0 on the sphere, 1 outside, -1 inside
    assert d.compare(e, q, F(1)) == 0
    assert d.compare(e, q, F(1, 2)) == 1
    assert d.compare(e, (F(0), F(0), F(1, 2)), F(1)) == -1


def test_hs_membership_dilation_equivariance():
    g = cb.heisenberg_nonstandard_group(2)
    d = HSDistance(g, F(1))
    rng = np.random.default_rng(0)
    for _ in range(25):
        c = tuple(F(int(rng.integers(-4, 5)), 4) for _ in range(3))
        q = tuple(F(int(rng.integers(-4, 5)), 4) for _ in range(3))
        r = F(int(rng.integers(1, 5)), 2)
        lam = F(2)
        before = d.compare(c, q, r)
        after = d.compare(cb.dilate(c, lam, g), cb.dilate(q, lam, g), lam * r)
        assert before == after


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
    x = fraction_bch(tuple(-c for c in p), q, d.group)  # p^-1 q
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


def fraction_sign(d, x, rho):
    """The Fraction path the integer hooks replaced, kept as their oracle:
    the sign of d(e, x) - rho from sum_i x_i^2 / rho^(2 w_i) against R^2 in
    Fractions, with each kind's reduction to its HS components."""
    rho = F(rho)
    if isinstance(d, HSDistance):
        if rho <= 0:
            raise ValueError("comparison radius must be positive")
        s = F(0)
        for xi, wi in zip(x, d.weights):
            if xi == 0:
                continue
            pw = rat_pow(rho, 2 * wi)
            if pw is None:
                raise ExactnessError(f"radius {rho} has no exact power for weight {wi}")
            s += F(xi) ** 2 / pw
        return (s > d.R ** 2) - (s < d.R ** 2)
    if d.kind == "quotient":
        M = min_norm_right_inverse(d.morphism.entries)
        return fraction_sign(d.dhat, [sum(m * v for m, v in zip(row, x)) for row in M], rho)
    x1, x2 = d.split(x)
    d1, d2 = d.components
    if d.kind == "product_max":
        s1, s2 = fraction_sign(d1, x1, rho), fraction_sign(d2, x2, rho)
        return 1 if s1 > 0 or s2 > 0 else (0 if s1 == 0 or s2 == 0 else -1)
    assert d.kind == "lp_combo" and d.r == 1
    # the first leg is the Euclidean line, whose value is |x| / R
    rem = rho - abs(F(x1[0])) / d1.R
    if rem <= 0:
        return 1 if rem < 0 or any(x2) else 0
    return fraction_sign(d2, x2, rem)


# the exact kinds, plus a step-3 group, weights whose 2w is not an integer
# (a radius must be a perfect square) and a power of exponent 3/2
ORACLE_KINDS = dict(
    EXACT_KINDS,
    hs_step3=lambda: HSDistance(cb.step3_rank3_group(), F(3, 2)),
    hs_quarter_weights=lambda: HSDistance(cb.heisenberg_nonstandard_group(F(5, 4)), F(2, 3)),
    power_three_halves=lambda: power_distance(HSDistance(cb.heisenberg_group(1), F(1)),
                                              F(3, 2)),
)


@pytest.mark.parametrize("kind", sorted(ORACLE_KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_compare_matches_the_fraction_oracle(kind, data):
    d = ORACLE_KINDS[kind]()
    g, n = d.group, d.group.dim
    p, q = (tuple(data.draw(st.lists(small_rationals, min_size=n, max_size=n)))
            for _ in range(2))
    # radii near d(p, q), squares of a rational and twice such a square
    v = d.value(p, q)
    near = F(v) if v > 0 else F(1)
    root = F(math.sqrt(near))
    rho = data.draw(st.sampled_from([near * F(7, 8), near, near * F(9, 8),
                                     root ** 2, 2 * root ** 2, F(0), F(-1, 3)]))
    # the dilation by lam = 2^(+-700), a perfect fourth power, keeps the radius
    # as near and as (non-)square while the coordinates grow to 2^(+-700 w)
    lam = F(2) ** data.draw(st.sampled_from([0, 0, 700, -700]))
    p, q, rho = cb.dilate(p, lam, g), cb.dilate(q, lam, g), lam * rho
    x = fraction_bch(cb.inverse(p, g), q, g)
    try:
        want = fraction_sign(d, x, rho)
    except ValueError as exc:     # ExactnessError included
        for call in (lambda: d.compare(p, q, rho), lambda: d.compare_from_identity(x, rho)):
            with pytest.raises(ValueError) as got:
                call()
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    assert d.compare(p, q, rho) == want
    assert d.compare_from_identity(x, rho) == want


def test_integer_compare_decides_ties_at_any_scale():
    # q = p * delta_lam(u) with |u| = R puts q on the sphere of radius lam
    # about p, so d(p, q) = lam exactly, at every scale of lam
    g = cb.heisenberg_nonstandard_group(2)
    d = HSDistance(g, F(1))
    unit = [(F(3, 5), F(4, 5), F(0)), (F(0), F(-3, 5), F(4, 5)), (F(2, 7), F(3, 7), F(-6, 7))]
    rng = np.random.default_rng(8)
    for lam in (F(1), F(9, 4), F(2) ** -700, F(2) ** 700 / 3):
        for u in unit:
            p = tuple(F(int(rng.integers(-9, 10)), int(rng.integers(1, 9))) * lam
                      for _ in range(3))
            q = cb.multiply(p, cb.dilate(u, lam, g), g)
            x = fraction_bch(cb.inverse(p, g), q, g)
            for rho, want in ((lam, 0), (lam * (1 - F(1, 2 ** 3000)), 1),
                              (lam * (1 + F(1, 2 ** 3000)), -1)):
                assert d.compare(p, q, rho) == fraction_sign(d, x, rho) == want
            # d^(1/2) on the 2-power of the group ties at the square root of lam
            root = rat_pow(lam, F(1, 2))
            if root is not None:
                dp = power_distance(d, 2)
                assert dp.compare(p, q, root) == fraction_sign(dp, x, root) == 0
        # |x1| + |x2|^(1/2) at the radius |x1| of its first leg: a tie only
        # while the second leg is 0
        lp = lp_combination_distance(euclidean_line(), snowflake_line(F(2)), 1)
        for x2, want in ((F(0), 0), (lam * lam / 4, 1)):
            p, q = (lam / 3, F(1, 5)), (lam / 3 + lam, F(1, 5) + x2)
            assert lp.compare(p, q, lam) == fraction_sign(lp, (lam, x2), lam) == want


@pytest.mark.parametrize("make", [disk_union_segment_ball, CCHeisenbergDistance],
                         ids=["unit_ball", "cc_h1"])
def test_float_only_kinds_refuse_exact_comparison(make):
    d = make()
    p = tuple(F(1, k + 2) for k in range(d.group.dim))
    with pytest.raises(ExactnessError):
        d.compare(d.group.identity(), p, F(1))
    with pytest.raises(ExactnessError):
        d.compare_from_identity(p, F(1))


# each kind with the exact_capable it must report: True exactly when every
# rational point is decided at every positive rational radius
CAPABILITY_KINDS = {
    "hs": (lambda: HSDistance(cb.heisenberg_nonstandard_group(2), F(1)), True),
    "hs_weights_5_4": (lambda: HSDistance(cb.heisenberg_nonstandard_group(F(5, 4)), F(1)),
                       False),
    # a power is the HS distance on the power group, so the HS rule decides:
    # weights 3/2, 3/2, 3 for t = 3/2 and 1/2, 1/2, 1 for t = 1/2 are capable,
    # weights 5/4 and 9/4 become 5/2 and 9/2 for t = 2 but 15/8 and 27/8 for
    # t = 3/2
    "power_2": (lambda: power_distance(HSDistance(cb.heisenberg_group(1)), 2), True),
    "power_3_2": (lambda: power_distance(HSDistance(cb.heisenberg_group(1)), F(3, 2)), True),
    "power_1_2": (lambda: power_distance(HSDistance(cb.heisenberg_group(1)), F(1, 2)), True),
    "power_2_weights_5_4": (lambda: power_distance(
        HSDistance(cb.heisenberg_nonstandard_group(F(5, 4))), 2), True),
    "power_3_2_weights_5_4": (lambda: power_distance(
        HSDistance(cb.heisenberg_nonstandard_group(F(5, 4))), F(3, 2)), False),
    "product_max": (lambda: product_max_distance(euclidean_line(), snowflake_line(2)), True),
    "lp_1": (lambda: lp_combination_distance(euclidean_line(), snowflake_line(2), 1), True),
    "lp_2": (lambda: lp_combination_distance(euclidean_line(), snowflake_line(2), 2), False),
    "lp_3_2": (lambda: lp_combination_distance(euclidean_line(), snowflake_line(2), F(3, 2)),
               False),
    "quotient": (lambda: skewed_quotient("skewed"), True),
}
CAPABLE = sorted(k for k, (_, capable) in CAPABILITY_KINDS.items() if capable)


@pytest.mark.parametrize("kind", CAPABLE)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_an_exact_capable_kind_decides_every_rational_radius(kind, data):
    d = CAPABILITY_KINDS[kind][0]()
    assert d.exact_capable
    x = tuple(data.draw(st.lists(small_rationals, min_size=d.group.dim,
                                 max_size=d.group.dim)))
    rho = data.draw(st.fractions(F(1, 10 ** 6), 10 ** 6, max_denominator=10 ** 6))
    assert d.compare_from_identity(x, rho) in (-1, 0, 1)


@pytest.mark.parametrize("kind", sorted(set(CAPABILITY_KINDS) - set(CAPABLE)))
def test_a_kind_that_is_not_exact_capable_fails_at_some_rational_radius(kind):
    d = CAPABILITY_KINDS[kind][0]()
    assert not d.exact_capable
    with pytest.raises(ExactnessError):
        d.compare_from_identity((F(1),) * d.group.dim, F(2))


@pytest.mark.parametrize("kind", sorted(CAPABILITY_KINDS))
def test_the_family_mode_is_the_distance_capability_and_orbits_are_exact_only(kind):
    from carnot_bcp.besicovitch import BesicovitchFamily, dilation_orbit_family
    make, capable = CAPABILITY_KINDS[kind]
    d = make()
    e = d.group.identity()
    assert BesicovitchFamily((), (), e, d).mode == ("exact" if capable else "margin")
    p = tuple(F(1, k + 2) for k in range(d.group.dim))
    if capable:
        # the orbit may pass or fail; it is decided exactly either way
        res = dilation_orbit_family(d, p, F(1, 4), 2, 3)
        assert res.family is None or res.family.mode == "exact"
    else:
        with pytest.raises(ExactnessError, match="exact-capable"):
            dilation_orbit_family(d, p, F(1, 4), 2, 3)


@pytest.mark.parametrize("kind", sorted(CAPABILITY_KINDS))
def test_the_search_mode_is_the_distance_capability(kind):
    from carnot_bcp.besicovitch import search_family, verify_family
    make, capable = CAPABILITY_KINDS[kind]
    res = search_family(make(), 2000, strategy="annealed", seed=0)
    assert res.cardinality >= 1
    assert res.family.mode == ("exact" if capable else "margin")
    assert verify_family(res.family).valid


@pytest.mark.parametrize("path", ["scalar", "batch"])
@pytest.mark.parametrize("offset", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("make", [
    lambda: product_max_distance(euclidean_line(), snowflake_line(2)),
    lambda: lp_combination_distance(euclidean_line(), snowflake_line(2), 1),
    CCHeisenbergDistance, lambda: skewed_quotient("skewed")],
    ids=["product_max", "lp_combo", "cc_h1", "quotient"])
def test_a_combined_or_cc_point_of_the_wrong_length_is_rejected(make, offset, path):
    # the max product dropped the extra coordinate of a long point, the lp
    # combination raised IndexError, cc_h1 an unpacking ValueError and the
    # quotient numpy's matmul ValueError
    d = make()
    x = (0.5,) * (d.group.dim + offset)
    with pytest.raises(cb.AlgebraError, match="vector length does not match"):
        d.value_from_identity(x) if path == "scalar" else d.value_from_identity_batch([x, x])


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


# HS bases of the powers; the last has weights 1, 5/4, 9/4, a base that is
# not exact-capable
POWER_BASES = {
    "heisenberg": lambda: HSDistance(cb.heisenberg_group(1), F(1)),
    "line": euclidean_line,
    "nonstandard_5_4": lambda: HSDistance(cb.heisenberg_nonstandard_group(F(5, 4)), F(2, 3)),
}


@pytest.mark.parametrize("t", [F(1, 2), F(3, 2), F(2), F(3)], ids=str)
@pytest.mark.parametrize("base", sorted(POWER_BASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_power_is_the_power_of_its_base(base, t, data):
    # the definition that power_distance replaced is the oracle: the value
    # d^(1/t), and the ball of radius rho, which is the base's ball of
    # radius rho^t.  The values agree to 4 ulps plus |ln v| ulps: each side
    # raises to a fractional exponent (1/t here, 1/(2w) or -q/2 in the
    # solve), whose rounding costs up to |ln v| 2^-53 relative
    def close(got, want):
        ulps = 4 + np.abs(np.log(np.where(want > 0, want, 1.0)))
        return np.all(np.abs(got - want) <= ulps * np.spacing(want))

    d = POWER_BASES[base]()
    dp = power_distance(d, t)
    assert dp.group.weights == tuple(t * w for w in d.group.weights) and dp.R == d.R
    n, m = d.group.dim, data.draw(st.integers(1, 6))
    scale = 2.0 ** data.draw(st.integers(-40, 40))
    P, Q = (np.array(data.draw(st.lists(st.lists(st.floats(-8, 8), min_size=n, max_size=n),
                                        min_size=m, max_size=m))) * scale
            for _ in range(2))
    assert close(dp.value_batch(P, Q), d.value_batch(P, Q) ** (1.0 / float(t)))
    for p, q in zip(P, Q):
        assert close(dp.value(p, q), d.value(p, q) ** (1.0 / float(t)))
    # a radius rho = r^k near dp(p, q), k the denominator of t, so that
    # rho^t = r^j for the numerator j of t is rational
    p, q = (tuple(data.draw(st.lists(small_rationals, min_size=n, max_size=n)))
            for _ in range(2))
    j, k = t.as_integer_ratio()
    r = max(F(dp.value(p, q) ** (1.0 / k)).limit_denominator(64), F(1, 64)) * \
        data.draw(st.sampled_from([F(7, 8), F(1), F(9, 8)]))
    try:
        want = d.compare(p, q, r ** j)
    except ExactnessError:
        with pytest.raises(ExactnessError):
            dp.compare(p, q, r ** k)
        return
    assert dp.compare(p, q, r ** k) == want


def test_a_power_needs_an_hs_base():
    with pytest.raises(ValueError, match="HS distance"):
        power_distance(CCHeisenbergDistance(), 2)
    with pytest.raises(ValueError, match="power exponent must be positive"):
        power_distance(euclidean_line(), 0)


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


def test_lp_combo_of_a_large_exponent_is_finite_where_its_value_is():
    # (1000^400 + sqrt(1000)^400)^(1/400) = 1000 to float precision: the
    # scalar path raised OverflowError, and the batch gave inf with a warning
    d = lp_combination_distance(euclidean_line(), snowflake_line(2), 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert d.value((0, 0), (1000, 0)) == 1000.0
        assert list(d.value_batch([(0, 0)] * 3, [(1000, 0), (0, 0), (0, 4)])) == \
            [1000.0, 0.0, 2.0]
        assert d.value((0, 0), (0, 0)) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1,
                max_size=8))
def test_lp_combo_of_exponent_1_is_the_sum_bit_for_bit(rows):
    # r = 1 stays the plain sum, so the float proposals of an exact r = 1
    # search do not move
    d = lp_combination_distance(euclidean_line(), snowflake_line(2), 1)
    d1, d2 = d.components
    X = np.array(rows)
    want = d1.value_from_identity_batch(X[:, :1]) + d2.value_from_identity_batch(X[:, 1:])
    assert d.value_from_identity_batch(X).tolist() == want.tolist()
    assert [d.value_from_identity(r) for r in rows] == [
        d1.value_from_identity(r[:1]) + d2.value_from_identity(r[1:]) for r in rows]


def test_max_of_same_distance_on_diagonal():
    d1 = euclidean_line()
    d = product_max_distance(d1, euclidean_line())
    assert d.value((0, 0), (3, 3)) == pytest.approx(3.0)


def unsorted_product():
    """The product of a weight-2 line and a weight-1 line: its first factor
    sits at its second coordinate."""
    return cb.product_group(cb.abelian_group([2]), cb.abelian_group([1]))


# products whose first component is itself a product with factors out of
# weight order: (distance, point in the product's coordinates, value)
NESTED_PRODUCTS = {
    # snowflake sqrt(1/4) = 1/2 and line 3 inside, line 1/10 outside
    "max_of_max": (lambda: product_max_distance(
        product_max_distance(snowflake_line(2), euclidean_line()), euclidean_line()),
        (F(3), F(1, 10), F(1, 4)), F(3)),
    "lp_of_max": (lambda: lp_combination_distance(
        product_max_distance(snowflake_line(2), euclidean_line()), euclidean_line(), 1),
        (F(3), F(1, 10), F(1, 4)), F(31, 10)),
    # HS at (0, 4) on weights (1, 2): 16 lam^-4 = 1
    "max_of_hs_on_product": (lambda: product_max_distance(
        HSDistance(unsorted_product()), euclidean_line()),
        (F(0), F(1, 2), F(4)), F(2)),
    # HS at (0, 16) on weights (2, 4): 256 lam^-8 = 1
    "max_of_hs_on_power_of_product": (lambda: product_max_distance(
        HSDistance(cb.power_group(unsorted_product(), 2)), euclidean_line()),
        (F(1, 2), F(0), F(16)), F(2)),
}


@pytest.mark.parametrize("case", NESTED_PRODUCTS)
def test_a_nested_product_reads_each_component_in_its_own_order(case):
    make, x, v = NESTED_PRODUCTS[case]
    d = make()
    e = d.identity()
    assert d.value_from_identity(x) == pytest.approx(float(v), rel=1e-12)
    assert d.value(e, x) == pytest.approx(float(v), rel=1e-12)
    assert d.value_from_identity_batch([x, x]).tolist() == pytest.approx([float(v)] * 2,
                                                                         rel=1e-12)
    eps = F(1, 2 ** 30)
    for rho, sign in ((v, 0), (v * (1 + eps), -1), (v * (1 - eps), 1)):
        assert d.compare_from_identity(x, rho) == sign
        assert d.compare(e, x, rho) == sign


LEAVES = {
    "line": euclidean_line,
    "snowflake": lambda: snowflake_line(2),
    "hs_on_product": lambda: HSDistance(unsorted_product()),
}


def product_trees(depth):
    """Trees of product distances of depth at most ``depth``: a leaf name,
    or (kind, first, second)."""
    leaf = st.sampled_from(sorted(LEAVES))
    if depth == 0:
        return leaf
    return st.one_of(leaf, st.tuples(st.sampled_from(["max", "lp"]),
                                     product_trees(depth - 1), product_trees(depth - 1)))


def product_tree(tree, count):
    """(distance, labels) for a tree.  The labels number the coordinates of
    the leaves, ``count`` of them so far, and list a distance's coordinates in
    its own order: a product's basis is sorted by (weight, component,
    coordinate), so its labels are read off that sort, without its slices.
    At each product, ``split`` must hand each component its own labels."""
    if isinstance(tree, str):
        d = LEAVES[tree]()
        start = len(count)
        count.extend(range(start, start + d.group.dim))
        return d, tuple(count[start:])
    kind, first, second = tree
    (d1, x1), (d2, x2) = product_tree(first, count), product_tree(second, count)
    d = product_max_distance(d1, d2) if kind == "max" else lp_combination_distance(d1, d2, 2)
    basis = sorted((w, part, i) for part, comp in enumerate((d1, d2))
                   for i, w in enumerate(comp.weights))
    assert d.weights == tuple(w for w, _part, _i in basis)
    x = tuple((x1, x2)[part][i] for _w, part, i in basis)
    assert d.split(x) == (x1, x2)
    assert [X.tolist() for X in d.split_batch([x])] == [[list(x1)], [list(x2)]]
    return d, x


@settings(max_examples=100, deadline=None)
@given(tree=product_trees(3))
def test_split_hands_each_component_its_coordinates_in_its_own_order(tree):
    d, x = product_tree(tree, [])
    assert sorted(x) == list(range(d.group.dim))


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
        assert dq.value(cb.dilate(p, lam, h1), cb.dilate(q, lam, h1)) == \
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


def lift_values(dq, X):
    """Quotient values as dhat gives them at the minimizing lift M x, batch
    and scalar: the formula the target coordinates replace, kept as their
    oracle."""
    M = np.array(min_norm_right_inverse(dq.morphism.entries), dtype=float)
    X = np.asarray(X, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        Y, ys = X @ M.T, [(M @ x).tolist() for x in X]
    return (dq.dhat.value_from_identity_batch(Y),
            np.array([dq.dhat.value_from_identity(y) for y in ys]))


ORACLE_QUOTIENTS = {
    # the coordinate projection of the quotient benchmark: G is the identity
    "projection": lambda: quotient_distance(HSDistance(cb.free_step2_group(3), F(1, 2)),
                                            f32_to_h1()),
    **{name: (lambda name=name: skewed_quotient(name)) for name in SKEWED_MORPHISMS},
}


@pytest.mark.parametrize("name", sorted(ORACLE_QUOTIENTS))
def test_quotient_values_are_the_lift_formula(name):
    dq = ORACLE_QUOTIENTS[name]()
    rng = np.random.default_rng(8)
    X = rng.standard_normal((3000, 3)) * np.exp(rng.uniform(-3, 3, (3000, 1)))
    batch = dq.value_from_identity_batch(X)
    scalar = np.array([dq.value_from_identity(tuple(x)) for x in X])
    want_batch, want_scalar = lift_values(dq, X)
    if name == "projection":
        assert np.array_equal(batch, want_batch) and np.array_equal(scalar, want_scalar)
    else:
        np.testing.assert_array_max_ulp(batch, want_batch, maxulp=4)
        np.testing.assert_array_max_ulp(scalar, want_scalar, maxulp=4)


@pytest.mark.parametrize("name", sorted(ORACLE_QUOTIENTS))
@pytest.mark.parametrize("row", [(0.0, 0.0, 0.0), (1e-200, -1e-200, 1e-200),
                                 (1e200, 1e200, -1e200), (1e200, 0.5, 0.0),
                                 (0.0, 1e-200, 1e-170)],
                         ids=["zero", "tiny", "huge", "huge_x", "tiny_z"])
def test_quotient_rows_beyond_the_direct_solve_are_the_lift_values(name, row):
    # what dhat gives at the lift, on both paths, also next to an ordinary
    # row in a batch: bit for bit on the projection, where L x is x
    dq = ORACLE_QUOTIENTS[name]()
    X = np.array([row, (0.3, -0.2, 0.5), row])
    want_batch, want_scalar = lift_values(dq, X)
    got_batch, got_scalar = dq.value_from_identity_batch(X), dq.value_from_identity(row)
    if name == "projection":
        assert np.array_equal(got_batch, want_batch) and got_scalar == want_scalar[0]
    else:
        np.testing.assert_array_max_ulp(got_batch, want_batch, maxulp=4)
        np.testing.assert_array_max_ulp(got_scalar, want_scalar[0], maxulp=4)


@pytest.mark.parametrize("name", sorted(ORACLE_QUOTIENTS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quotient_nonfinite_rows_raise_as_the_lift_does(name, bad):
    dq = ORACLE_QUOTIENTS[name]()
    for i in range(3):
        row = [0.3, -0.2, 0.5]
        row[i] = bad
        X = np.array([(0.1, 0.1, 0.1), row])
        for value in (lambda: dq.value_from_identity_batch(X),
                      lambda: dq.value_from_identity(tuple(row)),
                      lambda: lift_values(dq, X)):
            with pytest.raises(SolverError, match="nonfinite coordinates"):
                value()


def test_quotient_compare_needs_rational_coordinates():
    dq = skewed_quotient("skewed")
    assert dq.compare_from_identity((F(1, 2), F(0), F(0)), F(1)) == -1
    with pytest.raises(ExactnessError):
        dq.compare_from_identity((0.5, F(0), F(0)), F(1))


def test_quotient_requires_an_hs_distance_on_a_graded_morphism():
    f32 = cb.free_step2_group(3)
    # the HS unit ball of radius 1/2, but as an oracle gauge
    ball = UnitBallDistance(f32, lambda x: sum(v * v for v in x) <= 0.25, 0.5)
    with pytest.raises(ValueError, match="HS distance"):
        quotient_distance(ball, f32_to_h1())
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


def test_quotient_rejects_a_subclass_of_hs():
    # the quotient reads only dhat's group and R, so a subclass's values
    # would be dropped; they were used for a few rows and not for others
    class Doubled(HSDistance):
        def value_from_identity(self, x):
            return 2 * super().value_from_identity(x)

    with pytest.raises(ValueError, match="not a subclass"):
        quotient_distance(Doubled(cb.free_step2_group(3), F(1, 2)), f32_to_h1())


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
# the scalar float path: value, and the batch products beside it
# ---------------------------------------------------------------------------

def old_value(d, p, q):
    """``QuasiDistance.value`` as it was before it formed p^-1 q with
    ``multiply_floats`` itself, kept as its oracle: both points converted
    by tuple generators, then multiplied through ``multiply``."""
    return d.value_from_identity(
        cb.multiply(tuple(-float(x) for x in p), tuple(float(x) for x in q), d.group))


def euclidean_ball_gauge():
    g = cb.heisenberg_group(1)
    return UnitBallDistance(g, lambda x: sum(v * v for v in x) <= 0.5625, bound_radius=0.75)


VALUE_KINDS = {
    "hs_h1": lambda: HSDistance(cb.heisenberg_group(1), F(1)),
    "hs_nonstandard_3_2": lambda: HSDistance(cb.heisenberg_nonstandard_group(F(3, 2)),
                                             F(2, 3)),
    "hs_free_step2_3": lambda: HSDistance(cb.free_step2_group(3), F(1, 2)),
    "hs_step3_rank3": lambda: HSDistance(cb.step3_rank3_group(), F(1)),
    **{f"quotient_{name}": make for name, make in ORACLE_QUOTIENTS.items()},
    "product_max": lambda: product_max_distance(HSDistance(cb.heisenberg_group(1)),
                                                euclidean_line()),
    "lp_combo": lambda: lp_combination_distance(
        HSDistance(cb.heisenberg_nonstandard_group(2)), snowflake_line(2), F(3, 2)),
    "power": lambda: power_distance(HSDistance(cb.step3_rank3_group()), F(3, 2)),
    "cc_h1": CCHeisenbergDistance,
    "unit_ball": euclidean_ball_gauge,
}


def typed_points(kind, n, rng, count=4):
    """Points of n coordinates of one kind of number, or of all kinds mixed."""
    floats = rng.standard_normal((count, n)) * np.exp(rng.uniform(-3, 3, (count, 1)))
    fractions = [[F(int(a), int(b)) for a, b in zip(rng.integers(-40, 41, n),
                                                    rng.integers(1, 30, n))]
                 for _ in range(count)]
    ints = rng.integers(-5, 6, (count, n)).tolist()
    if kind == "float":
        return [tuple(row.tolist()) for row in floats]
    if kind == "numpy":
        return [tuple(row) for row in floats]
    if kind == "fraction":
        return [tuple(row) for row in fractions]
    if kind == "int":
        return [tuple(row) for row in ints]
    return [tuple((fr[i], it[i], float(fl[i]), fl[i])[i % 4] for i in range(n))
            for fr, it, fl in zip(fractions, ints, floats)]


@pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
def test_value_is_the_old_multiply_formula_bit_for_bit(kind):
    d = VALUE_KINDS[kind]()
    rng = np.random.default_rng(23)
    for number in ("float", "numpy", "fraction", "int", "mixed"):
        points = typed_points(number, d.group.dim, rng)
        for p in points:
            for q in points:
                got, want = d.value(p, q), old_value(d, p, q)
                assert type(got) is type(want) and got.hex() == want.hex(), (number, p, q)


def outcome(value, *args):
    """The value's bits, or the type of the exception it raised."""
    try:
        return float(value(*args)).hex()
    except Exception as exc:
        return type(exc)


BAD_POINTS = {
    "short": (lambda n: (0.5,) * (n - 1), cb.AlgebraError),
    "long": (lambda n: (0.5,) * (n + 1), cb.AlgebraError),
    "text": (lambda n: ("x",) + (0.5,) * (n - 1), ValueError),
    "none": (lambda n: (0.5,) * (n - 1) + (None,), TypeError),
    "nan": (lambda n: (0.5, math.nan) + (0.5,) * (n - 2), SolverError),
}


@pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
def test_value_rejects_a_bad_point_as_the_old_formula_did(kind):
    # the oracle's exception type, on either factor; a NaN displacement is
    # a SolverError of the solves, and the gauge's bisection never brackets it
    d = VALUE_KINDS[kind]()
    ok = (0.25,) * d.group.dim
    for bad, (make, error) in BAD_POINTS.items():
        if (kind, bad) == ("unit_ball", "nan"):
            error = OracleError
        x = make(d.group.dim)
        for p, q in ((x, ok), (ok, x)):
            got = outcome(d.value, p, q)
            assert got is outcome(old_value, d, p, q) is error, bad


def test_value_on_a_step_4_group_is_unsupported_as_the_old_formula_was():
    alg = cb.StructureConstants(
        dim=5, weights=(1, 1, 2, 3, 4),
        bracket={(0, 1): ((2, F(1)),), (0, 2): ((3, F(1)),), (0, 3): ((4, F(1)),)})
    d = HSDistance(cb.GradedGroup(algebra=alg, name="step4"))
    p, q = (0.5,) * 5, (F(1, 3),) * 5
    assert outcome(d.value, p, q) is outcome(old_value, d, p, q) is cb.UnsupportedStepError


# rows whose batch product overflows, or meets inf * 0 in a bracket (p = 0
# against an infinite coordinate); the scalar product gives inf or NaN there
# too, and every path raises SolverError on it
OVERFLOW_ROWS = {
    "inf_times_zero": (lambda n: (0.0,) * n, lambda n: (math.inf,) + (0.5,) * (n - 1)),
    "overflow_1e200": (lambda n: (-1e200,) + (1e200,) * (n - 1), lambda n: (1e200,) * n),
    "overflow_1e170": (lambda n: (1e170,) * n, lambda n: (-1e170,) * n),
}
OVERFLOW_DISTANCES = {
    "h1": lambda: HSDistance(cb.heisenberg_group(1), F(1)),
    "nonstandard_2": lambda: HSDistance(cb.heisenberg_nonstandard_group(2), F(1)),
    "step3_rank3": lambda: HSDistance(cb.step3_rank3_group(), F(1)),
    # the benchmark's quotient
    "quotient": ORACLE_QUOTIENTS["projection"],
}


@pytest.mark.parametrize("row", sorted(OVERFLOW_ROWS))
@pytest.mark.parametrize("name", sorted(OVERFLOW_DISTANCES))
def test_an_overflowing_product_raises_solver_error_without_a_warning(name, row):
    d = OVERFLOW_DISTANCES[name]()
    n = d.group.dim
    p, q = (make(n) for make in OVERFLOW_ROWS[row])
    # next to an ordinary row, which alone has a value
    P, Q = np.array([(0.1,) * n, p]), np.array([(0.2,) * n, q])
    assert d.value_batch(P[:1], Q[:1])[0] > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (lambda: d.value(p, q), lambda: d.value_batch(P, Q),
                         lambda: d.exceeds_batch(P, Q, np.ones(2))):
            with pytest.raises(SolverError):
                evaluate()


# ---------------------------------------------------------------------------
# sub-Riemannian distance on the first Heisenberg group
# ---------------------------------------------------------------------------

def test_cc_horizontal_segment():
    d = CCHeisenbergDistance()
    assert d.value((0, 0, 0), (3, 0, 0)) == pytest.approx(3.0, rel=1e-12)
    assert d.value((0, 0, 0), (0.3, -0.4, 0)) == pytest.approx(0.5, rel=1e-12)


def test_cc_vertical_full_circle():
    assert CCHeisenbergDistance().value((0, 0, 0), (0, 0, 1)) == pytest.approx(
        2.0 * math.sqrt(math.pi), rel=1e-9)
    assert CCHeisenbergDistance(2.0).value((0, 0, 0), (0, 0, 1)) == pytest.approx(
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
        got = CCHeisenbergDistance().value((0, 0, 0), (rho, 0, z))
        assert got == pytest.approx(want - rho, rel=1e-7)


# ---------------------------------------------------------------------------
# generic utilities
# ---------------------------------------------------------------------------

def test_triangle_constant_metric_spaces():
    h1 = cb.heisenberg_group(1)
    for d in (HSDistance(cb.abelian_group([1, 1, 1]), F(1)),
              HSDistance(h1, F(1, 4)),
              CCHeisenbergDistance(1.0)):
        assert estimate_quasi_triangle_constant(d, 2000, seed=0) <= 1.0 + 1e-9


def test_triangle_constant_large_R_exceeds_one():
    d = HSDistance(cb.heisenberg_group(1), F(10))
    assert estimate_quasi_triangle_constant(d, 2000, seed=0) > 1.1


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
        pk = cb.dilate(p, 1.0 / k, g)
        vals.append(d.value(g.identity(), pk))
        coords.append(max(abs(x) for x in pk))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2 and coords[-1] < 1e-2
