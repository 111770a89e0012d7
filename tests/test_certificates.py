"""The free step-2 lemma machinery: membership form, regions, cells, sweeps."""

import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

import carnot_bcp as cb
from carnot_bcp.certificates import (
    BAND,
    RegionParams,
    SHALLOW,
    STEEP,
    _cell_sides,
    _cell_sweep,
    _key,
    _same_key_pairs,
    a_form,
    a_form_batch,
    admissible_epsilon,
    cell_key,
    lemma_sweep,
    rational_sphere_points,
    region_classify,
)
from carnot_bcp.metrics import HSDistance
from carnot_bcp.scalars import over_common_denominator

F = Fraction


def params(r=2, R=F(1)):
    return RegionParams(r=r, R=R)


# ---------------------------------------------------------------------------
# the membership form
# ---------------------------------------------------------------------------

def test_a_form_at_origin_vanishes():
    p = (F(1, 2), F(1, 3), F(1, 7))
    assert a_form(p, (F(0),) * 3, params()) == 0


def test_a_form_at_p_is_minus_norm():
    rng = np.random.default_rng(0)
    pr = params(3)
    for _ in range(20):
        p = tuple(F(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                  for _ in range(pr.dim()))
        norm2 = sum(x * x for x in p)
        assert a_form(p, p, pr) == -norm2


def test_a_form_membership_equivalence_exact():
    # for p exactly on the sphere, the form's sign decides ball membership
    pr = params(2, F(1))
    g = cb.free_step2_group(2)
    d = HSDistance(g, F(1))
    rng = np.random.default_rng(1)
    pts = rational_sphere_points(3, F(1), 60, rng)
    disagreements = 0
    for p in pts:
        assert sum(x * x for x in p) == 1
        for _ in range(5):
            q = tuple(F(int(rng.integers(-8, 9)), 8) for _ in range(3))
            af = a_form(p, q, pr)
            sgn = d.compare(p, q, F(1))
            if (af > 0) != (sgn > 0) or (af == 0) != (sgn == 0):
                disagreements += 1
            assert a_form(over_common_denominator(p), q, pr) == af
    assert disagreements == 0


def test_a_form_batch_matches_exact():
    pr = params(3)
    rng = np.random.default_rng(2)
    P = rng.standard_normal((40, pr.dim()))
    Q = rng.standard_normal((40, pr.dim()))
    batch = a_form_batch(P, Q, 3)
    for i in range(0, 40, 8):
        exact = a_form(tuple(F(x).limit_denominator(1 << 30) for x in P[i]),
                       tuple(F(x).limit_denominator(1 << 30) for x in Q[i]), pr)
        assert batch[i] == pytest.approx(float(exact), rel=1e-6)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def test_region_flat_points_shallow():
    pr = params(2)
    assert region_classify((F(1), F(0), F(0)), pr) == SHALLOW


def test_region_vertical_points_steep():
    pr = params(2)
    assert region_classify((F(0), F(0), F(1)), pr) == STEEP


def test_region_band_example():
    pr = params(2)
    # R ||w|| = 3/2 ||v||^2 sits between a = 0.9 and a' = 1.9
    assert region_classify((F(1), F(0), F(3, 2)), pr) == BAND


def test_region_partition_unique_and_dilation_invariant():
    pr = params(2)
    g = cb.free_step2_group(2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = tuple(F(int(rng.integers(-8, 9)), 4) for _ in range(3))
        lab = region_classify(p, pr)
        assert lab in (STEEP, BAND, SHALLOW)
        assert region_classify(cb.dilate(p, F(3), g), pr) == lab
        assert region_classify(cb.dilate(p, F(1, 2), g), pr) == lab


@pytest.mark.parametrize("point", [(1, 0, 0, 5), (1,)])
def test_a_point_of_the_wrong_length_has_no_region_and_no_key(point):
    # region_classify read (1, 0, 0, 5) as steep and (1,) as shallow
    point = tuple(F(x) for x in point)
    for f in (region_classify, cell_key):
        with pytest.raises(ValueError, match="dimension 3 for rank 2"):
            f(point, params(2))
    with pytest.raises(ValueError, match="dimension 3 for rank 2"):
        a_form(point, (F(0),) * 3, params(2))


def test_boundary_band_lower_bound():
    # on the sphere inside the steep/band region the second-layer norm obeys
    # ||w|| >= (R/2a)(sqrt(1+4a^2) - 1)
    pr = params(2, F(1))
    rng = np.random.default_rng(5)
    bound = (math.sqrt(1 + 4 * 0.81) - 1) / 1.8
    m = 10_000
    P = rng.standard_normal((m, 3))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    labs = np.array([region_classify(p, pr) for p in P])
    w_norm = np.abs(P[:, 2])
    inside = labs != SHALLOW
    assert np.all(w_norm[inside] >= bound - 1e-12)


def test_region_norm_bounds_exact_rational():
    # the three norm bounds in their pre-square-root quadratic form, decided
    # exactly on rational sphere points:
    #   in the ball, outside the parabola:  R^2 nw2 / a^2 <= (R^2 - nw2)^2
    #   on the sphere, inside the parabola: R^2 nw2 / a^2 >  (R^2 - nw2)^2
    #   on the sphere, outside:             a^2 nv2^2 + R^2 nv2 - R^4 >= 0
    pr = params(2, F(1))
    a, R = pr.a, pr.R
    rng = np.random.default_rng(55)
    sphere = rational_sphere_points(3, R, 300, rng)
    for p in sphere:
        nv2 = p[0] * p[0] + p[1] * p[1]
        nw2 = p[2] * p[2]
        inside_parab = R * R * nw2 > a * a * nv2 * nv2
        if inside_parab:
            assert R * R * nw2 / (a * a) > (R * R - nw2) ** 2
        else:
            assert R * R * nw2 / (a * a) <= (R * R - nw2) ** 2
            assert a * a * nv2 * nv2 + R * R * nv2 - R ** 4 >= 0
    # interior points outside the parabola (ball case): dilate sphere points in
    g = cb.free_step2_group(2)
    for p in sphere[:100]:
        q = cb.dilate(p, F(3, 4), g)
        nv2 = q[0] * q[0] + q[1] * q[1]
        nw2 = q[2] * q[2]
        if R * R * nw2 <= a * a * nv2 * nv2:
            assert R * R * nw2 / (a * a) <= (R * R - nw2) ** 2


# ---------------------------------------------------------------------------
# admissible epsilon: the scalar inequalities behind the three lemmas
# ---------------------------------------------------------------------------

def test_away_inequality_has_room():
    # 1 + (s-1)/2 - 2 sqrt((s-1)/(2 a^2)) < 0 at a = 0.9
    a = 0.9
    s = math.sqrt(1 + 4 * a * a)
    assert 1 + (s - 1) / 2 - 2 * math.sqrt((s - 1) / (2 * a * a)) < 0


def test_near2a_inequality_has_room():
    ap = 1.9
    assert 1 / ap + 1 - (math.sqrt(1 + 4 * ap * ap) - 1) / ap < 0


def test_inbetween_inequalities_have_room():
    a, ap = 0.9, 1.9
    sp = math.sqrt(1 + 4 * ap * ap)
    assert 0.5 + (sp - 1) / 4 - (2 / ap) * math.sqrt((sp - 1) / 2) < 0
    assert 1 / (2 * a) + 0.5 - (math.sqrt(4 * a * a + 1) - 1) / a < 0


@pytest.mark.parametrize("lemma", ["away", "near2a", "inbetween"])
@pytest.mark.parametrize("r,R", [(2, F(1)), (3, F(1)), (2, F(1, 2)), (3, F(1, 2))])
def test_admissible_epsilon_certified(lemma, r, R):
    eps, eps_max = admissible_epsilon(lemma, params(r, R))
    assert 0 < eps < eps_max < 1
    # the certificate is rigorous: re-check the upper bounds at eps_max
    from carnot_bcp.certificates import _lemma_upper_bounds
    assert all(b < 0 for b in _lemma_upper_bounds(lemma, eps_max, params(r, R)))


# ---------------------------------------------------------------------------
# small-angle cells
# ---------------------------------------------------------------------------

def test_cell_key_of_examples():
    # away's epsilon at rank 2 and R = 1 is 81/10240, the side of the v cells;
    # w has one coordinate, so its cell is its sign
    assert cell_key((F(1), F(0), F(0)), params()) == (SHALLOW, (0, 1, 10240 // 81), ())
    assert cell_key((F(0), F(0), F(-1)), params()) == (STEEP, (), (0, -1))
    # ties go to the first largest coordinate; x_j / |x_i| = -1 is cell 0
    assert cell_key((F(-1), F(1), F(5)), params()) == (STEEP, (0, -1, 2 * 1024 // 9), (0, 1))
    assert cell_key((F(1), F(-1), F(3)), params()) == (BAND, (0, 1, 0), (0, 1))


def test_cell_key_dilation_invariant():
    g = cb.free_step2_group(3)
    pr = params(3, F(1, 2))
    rng = np.random.default_rng(8)
    for _ in range(5):
        p = tuple(F(int(rng.integers(-8, 9)), 4) for _ in range(pr.dim()))
        assert cell_key(cb.dilate(p, F(3), g), pr) == cell_key(p, pr)


@pytest.mark.parametrize("lemma", ["away", "near2a", "inbetween"])
def test_same_key_pairs_meet_the_hypotheses(lemma):
    # p exactly on the sphere and q in the ball, both in the lemma's region,
    # with equal keys at the certified sides: at R = 1/2 a region test of the
    # unit sphere's circle point put p outside the lemma's region
    pr = params(3, F(1, 2))
    region = {"away": SHALLOW, "near2a": STEEP, "inbetween": BAND}[lemma]
    sides = _cell_sides(admissible_epsilon(lemma, pr)[0], pr)
    pairs = list(islice(_same_key_pairs(np.random.default_rng(9), pr, region, sides), 200))
    for p, q in pairs:
        assert sum(F(x, p.den) ** 2 for x in p.nums) == pr.R ** 2
        assert sum(F(x, q.den) ** 2 for x in q.nums) <= pr.R ** 2
        assert region_classify(p, pr) == region_classify(q, pr) == region
        assert _key(p, pr, sides) == _key(q, pr, sides)
    p, q = pairs[0]
    assert cell_key(p, pr) == cell_key(q, pr) == _key(p, pr, sides)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_aq_sweep_no_sign_disagreements():
    rep = lemma_sweep("aq", params(2, F(1)), sample_count=20_000, seed=0)
    assert rep.ok and rep.accepted > 10_000


def test_small_angles_sweep():
    rep = lemma_sweep("small_angles", params(2, F(1)), sample_count=10_000, seed=0)
    assert rep.ok
    assert rep.delta == (F(1, 16), None) and rep.epsilon == F(1, 16)
    # at rank 3 both layers have three coordinates: side 1/16 floor(1024 / sqrt 2) / 1024
    rep = lemma_sweep("small_angles", params(3, F(1)), sample_count=2000, seed=0)
    assert rep.ok and rep.delta == (F(1, 16) * F(724, 1024),) * 2


@pytest.mark.parametrize("lemma", ["away", "near2a", "inbetween"])
def test_containment_sweeps_rank2(lemma):
    rep = lemma_sweep(lemma, params(2, F(1)), sample_count=2000, seed=0)
    assert rep.ok, rep.violations[:2]
    assert rep.accepted == 2000
    assert rep.max_a_form <= 0


def test_sweep_rank3_smaller_R():
    rep = lemma_sweep("away", params(3, F(1, 2)), sample_count=1000, seed=1)
    assert rep.ok


def test_sweep_report_serializes():
    rep = lemma_sweep("near2a", params(2, F(1)), sample_count=500, seed=2)
    data = rep.to_json()
    assert data["lemma"] == "near2a" and data["rank"] == 2
    assert data["violations"] == []
    # the region constants are reported, though no sweep sets them
    assert (data["a"], data["a_prime"], data["tolerance"]) == ("9/10", "19/10", 0.0)


def test_coarse_cells_make_the_sweeps_fail():
    # with sides 250 times the certified ones a v cell is nearly a whole cube
    # face, so p and q are drawn almost independently: the exact decision
    # must then find pairs outside the ball, and chords longer than epsilon
    pr = params(2, F(1))
    eps, _ = admissible_epsilon("away", pr)
    coarse = (250 * _cell_sides(eps, pr)[0], None)
    rep = _cell_sweep("away", pr, 3000, 0, eps, coarse)
    assert rep.accepted == 3000 and len(rep.violations) > 30
    assert all(v["compare"] == 1 and F(v["a_form"]) > 0 for v in rep.violations)
    certified = _cell_sweep("away", pr, 3000, 0, eps, _cell_sides(eps, pr))
    assert certified.ok and certified.max_a_form <= 0
    for r in (2, 3):
        coarse = tuple(250 * s if s else None for s in _cell_sides(F(1, 16), params(r)))
        rep = _cell_sweep("small_angles", params(r), 500, 0, F(1, 16), coarse)
        assert len(rep.violations) > 50


@pytest.mark.parametrize("lemma", ["aq", "small_angles", "away", "near2a", "inbetween"])
@pytest.mark.parametrize("count", [0, -1])
def test_a_sweep_without_samples_certifies_nothing(lemma, count):
    # an empty containment sweep reported no violations and a max_a_form of
    # -inf, which is not JSON; the "aq" sweep failed only inside numpy
    with pytest.raises(ValueError, match="at least one sample"):
        lemma_sweep(lemma, params(2, F(1)), sample_count=count)


# ---------------------------------------------------------------------------
# rational sphere points
# ---------------------------------------------------------------------------

def test_a_sphere_of_dimension_zero_has_no_points():
    # it returned [()], which is not on the sphere of radius 1
    with pytest.raises(ValueError, match="dimension at least 1"):
        rational_sphere_points(0, 1, 1, np.random.default_rng(0))


def test_rational_sphere_points_exact():
    rng = np.random.default_rng(7)
    for dim, R in ((3, F(1)), (6, F(1, 2)), (4, F(3))):
        pts = rational_sphere_points(dim, R, 25, rng)
        for p in pts:
            assert sum(x * x for x in p) == R * R
