"""The free step-2 lemma machinery: membership form, regions, cells, sweeps."""

import hashlib
import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

import carnot_bcp as cb
from carnot_bcp.certificates import (
    BAND,
    AdmissibilityError,
    RegionParams,
    SHALLOW,
    STEEP,
    _cell_sides,
    _cell_sweep,
    _decide_pairs,
    _key,
    _lemma_upper_bounds,
    _offset_pairs,
    _same_key_pairs,
    a_form,
    admissible_epsilon,
    cell_key,
    lemma_sweep,
    rational_sphere_points,
    region_classify,
)
from carnot_bcp.cli import main
from carnot_bcp.metrics import HSDistance
from carnot_bcp.scalars import ExactPoint, over_common_denominator

from aform_oracle import a_form_batch

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
    assert all(b < 0 for b in _lemma_upper_bounds(lemma, eps_max, params(r, R)))


def _certifies(lemma, m, pr):
    return all(b < 0 for b in _lemma_upper_bounds(lemma, F(m, 1024), pr))


@pytest.mark.parametrize("lemma", ["away", "near2a", "inbetween"])
def test_admissible_epsilon_is_the_largest_grid_point(lemma, monkeypatch):
    # the bisection relies on the certified grid points being an initial
    # segment: the next grid point above eps_max must fail, and where no
    # epsilon exists the first grid point fails already
    calls = []

    def counted(*args):
        calls.append(args)
        return _lemma_upper_bounds(*args)

    monkeypatch.setattr("carnot_bcp.certificates._lemma_upper_bounds", counted)
    raising = 0
    for r in range(2, 7):
        for R in (F(1, 4), F(1, 2), F(1), F(2)):
            pr = params(r, R)
            calls.clear()
            try:
                eps, eps_max = admissible_epsilon(lemma, pr)
            except AdmissibilityError:
                raising += 1
                assert not _certifies(lemma, 1, pr)
                continue
            assert eps == eps_max * F(9, 10) and eps_max.denominator <= 1024
            m = eps_max * 1024
            assert _certifies(lemma, m, pr)
            assert m == 1023 or not _certifies(lemma, m + 1, pr)
            assert len(calls) == 10
    # away fails at r = 5, 6 with R = 2; inbetween at r >= 4 with R = 2 and
    # at r >= 5 with R = 1
    assert raising == {"away": 2, "near2a": 0, "inbetween": 5}[lemma]


def test_an_unknown_lemma_is_a_configuration_error():
    # ValueError (exit 64), not AdmissibilityError (exit 70)
    with pytest.raises(ValueError, match="unknown lemma"):
        admissible_epsilon("nearby", params())
    assert not issubclass(AdmissibilityError, ValueError)


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
    # every pair is decided exactly, and the offsets put q inside and outside
    # the unit ball around p, so the signs are compared on both sides
    for r in (2, 3):
        rep = lemma_sweep("aq", params(r, F(1)), sample_count=20_000, seed=0)
        assert rep.ok and rep.requested > 10_000
        assert rep.notes["inside"] > 5000 and rep.notes["outside"] > 5000
        assert rep.notes["inside"] + rep.notes["outside"] == 20_000
        assert rep.to_json()["tolerance"] == 0.0


@pytest.mark.parametrize("r", [2, 3])
def test_aq_check_finds_points_off_the_sphere(r):
    # a_form decides membership only for p exactly on the sphere: moved out
    # to 11/10 p, the form and the exact comparison must disagree often
    pr = params(r, F(1))
    pairs = list(islice(_offset_pairs(np.random.default_rng(0), pr), 2000))
    assert _decide_pairs(pairs, pr, contained=False)[0] == []
    off = [(ExactPoint([11 * x for x in p.nums], 10 * p.den), q) for p, q in pairs]
    violations, _, _ = _decide_pairs(off, pr, contained=False)
    assert len(violations) > 200
    assert all((F(v["a_form"]) > 0) - (F(v["a_form"]) < 0) != v["compare"]
               for v in violations)


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
    assert rep.requested == 2000
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
    assert rep.requested == 3000 and len(rep.violations) > 30
    assert all(v["compare"] == 1 and F(v["a_form"]) > 0 for v in rep.violations)
    certified = _cell_sweep("away", pr, 3000, 0, eps, _cell_sides(eps, pr))
    assert certified.ok and certified.max_a_form <= 0
    for r in (2, 3):
        coarse = tuple(250 * s if s else None for s in _cell_sides(F(1, 16), params(r)))
        rep = _cell_sweep("small_angles", params(r), 500, 0, F(1, 16), coarse)
        assert len(rep.violations) > 50


# sha256 of the ``certify-lemmas --samples 300 --seed 0`` JSON
CERTIFY_LEMMAS_SHA256 = {
    ("small_angles", 2, "1/2"): "db018998d8b1ca633f8d5692fdb4813df82d24d4cbf9bdfb71ac6f80bb11dcfe",
    ("small_angles", 2, "1"): "8d1d521c1621f3e94cfaf54c54c835502bf498d96db2ff8b14f50155d9a05932",
    ("small_angles", 3, "1/2"): "23f9071e7851a186506265a0bc364ad643f123554bb7b9e6d47e2310b96b0841",
    ("small_angles", 3, "1"): "0e57952d65b7519c5f54fde92e35a63a3b9b793d216f531aa98230f8e24ac56a",
    ("away", 2, "1/2"): "d8af76c7b778171130bb0910bad0c00833b97b69c1e73de0eaea28a1bce341a7",
    ("away", 2, "1"): "183a8071bdc4deb07cb3bc31e24aa1f1bf5f19c8fb7b45446e18c3a4a4eb49d3",
    ("away", 3, "1/2"): "124b99b82f76b9bd8308b45e4e3cac011d7567d08ea9c327e7d6c8dfd4611e55",
    ("away", 3, "1"): "69a458ec52042187616766148533a889de5b988cd99200838c003817ce58440a",
    ("near2a", 2, "1/2"): "0f5a9b6581e28755828c1ae580edd65a5f19b750d570fea5dd937bdc1c0a694f",
    ("near2a", 2, "1"): "1c3b1b4d44ee5597952dadf9321749ea2843998d3b33f4d88aa8a58237f74550",
    ("near2a", 3, "1/2"): "1b91e0bb05b3237e5008ec67f834b68abb84ed4839629ea779fed0af93a3a732",
    ("near2a", 3, "1"): "90cd79413616f44400141b0d24beef849861394ec4bb28d9f8ab26fcd4735daa",
    ("inbetween", 2, "1/2"): "2339b9f29be3a7f9e9e0c553663e6e7faa0c1e90e27c14c40c339aa4d23662dd",
    ("inbetween", 2, "1"): "c46d735647e7cba2d851aad11db689601b0aecbd4ec06d875e8320a2ff625542",
    ("inbetween", 3, "1/2"): "3634884904bbea08eb0c502226e18c2108024fcf0aa9875bfca8bfefaf7ac3ce",
    ("inbetween", 3, "1"): "76338fdf275490e8b296a49d5f168c80d7c49a4e03628b34f13b0bda325fd3be",
}


@pytest.mark.parametrize("lemma,r,R", sorted(CERTIFY_LEMMAS_SHA256))
def test_certify_lemmas_json_is_pinned(lemma, r, R, tmp_path):
    # the same-key sweeps draw their pairs in a fixed rng order and decide
    # them exactly, so their JSON is byte-stable across refactors
    out = tmp_path / "sweep.json"
    assert main(["certify-lemmas", "--lemma", lemma, "--rank", str(r), "--R", R,
                 "--samples", "300", "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CERTIFY_LEMMAS_SHA256[lemma, r, R]


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
