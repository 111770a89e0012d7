"""Certificates, searches, covers, and the countable counterexample space."""

from fractions import Fraction

import numpy as np
import pytest

import carnot_bcp as cb
from carnot_bcp.besicovitch import (
    BesicovitchFamily,
    Certificate,
    SearchError,
    countable_space,
    countable_space_ball_audit,
    countable_space_triangle_audit,
    countable_space_two_ball_audit,
    dilation_orbit_family,
    greedy_cover,
    merge_search_results,
    radius_for_center,
    search_family,
    segment_witness_nonbcp,
    verify_family,
)
from carnot_bcp.metrics import (
    CCHeisenbergDistance,
    HSDistance,
    SolverError,
    euclidean_line,
    lp_combination_distance,
    snowflake_line,
)

F = Fraction


def nonstd_h1_distance():
    return HSDistance(cb.heisenberg_nonstandard_group(2), F(1))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_two_ball_line_family_valid():
    d = euclidean_line()
    fam = BesicovitchFamily(((F(-1),), (F(1),)), (F(1), F(1)), (F(0),), d)
    cert = verify_family(fam)
    assert cert.valid and cert.cardinality == 2


def test_nested_line_family_invalid():
    d = euclidean_line()
    # 1/2 lies inside B(1, 1): the exclusion condition fails
    fam = BesicovitchFamily(((F(1, 2),), (F(1),)), (F(1, 2), F(1)), (F(0),), d)
    cert = verify_family(fam)
    assert not cert.valid
    assert any(v["kind"] == "center_in_ball" for v in cert.violations)


def test_witness_violation_detected():
    d = euclidean_line()
    fam = BesicovitchFamily(((F(3),),), (F(1),), (F(0),), d)
    cert = verify_family(fam)
    assert not cert.valid
    assert cert.violations[0]["kind"] == "witness"


def test_margin_mode_certificate():
    d = CCHeisenbergDistance(1.0)
    e = (0.0, 0.0, 0.0)
    p1 = (1.0, 0.0, 0.0)
    p2 = (-1.0, 0.0, 0.0)
    fam = BesicovitchFamily((p1, p2), (1.0 + 1e-3, 1.0 + 1e-3), e, d,
                            mode="margin", epsilon=1e-7)
    cert = verify_family(fam)
    assert cert.valid and cert.min_slack >= 1e-7


def test_countable_space_families_capped_at_one():
    space = countable_space(30)
    d = space.distance()
    # any 2-ball candidate violates: radii below r_i make singleton balls
    fam = BesicovitchFamily((4, 9), (F(1, 2), F(2, 3)), 0, d)
    cert = verify_family(fam)
    assert not cert.valid


def test_exactness_violation_reported():
    d = CCHeisenbergDistance(1.0)
    fam = BesicovitchFamily(((F(1), F(0), F(0)),), (F(1),),
                            (F(0), F(0), F(0)), d, mode="exact")
    cert = verify_family(fam)
    assert not cert.valid
    assert any(v["kind"] == "exactness" for v in cert.violations)


def test_radius_for_center_exact_membership():
    d = nonstd_h1_distance()
    rng = np.random.default_rng(0)
    e = d.group.identity()
    for _ in range(20):
        c = tuple(F(int(rng.integers(-20, 21)), int(rng.integers(1, 21)))
                  for _ in range(3))
        if not any(c):
            continue
        r = radius_for_center(d, c, exact=True)
        assert d.compare(c, e, r) <= 0
        # minimality: within a relative factor 2^-49 of the float distance
        assert float(r) <= d.value(e, c) * (1 + 2.0 ** -48)


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

def test_search_euclidean_line_caps_at_two():
    d = euclidean_line()
    for budget in (500, 2000):
        res = search_family(d, budget, strategy="random", seed=0, exact=True)
        assert res.cardinality == 2
        assert verify_family(res.family).valid


def test_search_monotone_in_budget():
    d = lp_combination_distance(euclidean_line(), snowflake_line(2), 1)
    cards = []
    for budget in (2000, 8000, 32000):
        res = search_family(d, budget, strategy="annealed", seed=5, exact=True)
        cards.append(res.cardinality)
        assert verify_family(res.family).valid
    assert cards == sorted(cards)


def test_search_soundness_reverification():
    d = nonstd_h1_distance()
    res = search_family(d, 8000, strategy="annealed", seed=1, exact=True)
    assert res.cardinality >= 4
    cert = verify_family(res.family)
    assert cert.valid and cert.mode == "exact"


def test_search_raises_when_its_family_fails_verification(monkeypatch):
    # the final check must survive python -O, and a rejected family is a
    # solver failure (exit 70), not a configuration error (ValueError, exit 64)
    from carnot_bcp import besicovitch

    def reject(family):
        return Certificate(valid=False, cardinality=len(family), mode=family.mode,
                           violations=[{"kind": "forced"}])

    monkeypatch.setattr(besicovitch, "verify_family", reject)
    with pytest.raises(SearchError) as excinfo:
        search_family(nonstd_h1_distance(), 512, strategy="annealed", seed=0)
    assert not isinstance(excinfo.value, ValueError)


def test_search_margin_mode_on_cc():
    d = CCHeisenbergDistance(1.0)
    res = search_family(d, 4000, strategy="random", seed=2, exact=False)
    assert res.family.mode == "margin"
    assert verify_family(res.family).valid


def test_search_exact_mode_rejected_without_capability():
    with pytest.raises(ValueError):
        search_family(CCHeisenbergDistance(1.0), 100, exact=True)


def test_merge_prefers_cardinality_then_lexicographic():
    d = euclidean_line()
    r1 = search_family(d, 500, strategy="random", seed=0, exact=True)
    r2 = search_family(d, 500, strategy="random", seed=3, exact=True)
    best = merge_search_results([r1, r2])
    assert best.cardinality == max(r1.cardinality, r2.cardinality)


# ---------------------------------------------------------------------------
# dilation-orbit families
# ---------------------------------------------------------------------------

def test_orbit_fails_on_euclidean():
    d = HSDistance(cb.abelian_group([1, 1]), F(1))
    res = dilation_orbit_family(d, (F(3, 5), F(4, 5)), F(1, 2), 1, 3)
    assert not res.ok and res.first_failing_j == 1


def test_orbit_succeeds_on_nonstandard_h1():
    d = nonstd_h1_distance()
    # rational point exactly on the unit sphere, in the productive orthant
    u1, u2 = F(3, 100), F(-41, 100)
    s = u1 * u1 + u2 * u2
    p = (2 * u1 / (1 + s), 2 * u2 / (1 + s), (1 - s) / (1 + s))
    assert sum(x * x for x in p) == 1
    for count in (5, 10):
        res = dilation_orbit_family(d, p, F(1, 2), k=6, count=count)
        assert res.ok
        cert = verify_family(res.family)
        assert cert.valid and cert.cardinality == count


def test_orbit_family_radii_are_exact_powers():
    d = nonstd_h1_distance()
    u1, u2 = F(3, 100), F(-41, 100)
    s = u1 * u1 + u2 * u2
    p = (2 * u1 / (1 + s), 2 * u2 / (1 + s), (1 - s) / (1 + s))
    res = dilation_orbit_family(d, p, F(1, 2), k=6, count=4)
    assert res.family.radii == (F(1), F(1, 64), F(1, 4096), F(1, 262144))


def test_orbit_rejects_bad_ratio():
    d = nonstd_h1_distance()
    with pytest.raises(ValueError):
        dilation_orbit_family(d, (F(1), F(0), F(0)), F(3, 2), 1, 3)


# ---------------------------------------------------------------------------
# segment witnesses
# ---------------------------------------------------------------------------

def test_segment_start_point_always_inside():
    d = nonstd_h1_distance()
    # t = 0 is the sphere point itself: never a witness, so tiny grids that
    # only sample t near 0 rarely find anything; t = 1 endpoints do
    w = segment_witness_nonbcp(d, samples=400, t_grid=8, seed=3)
    assert w is not None
    assert 0 < w.t <= 1
    assert w.margin > 0


def test_segment_witness_is_exact():
    d = nonstd_h1_distance()
    w = segment_witness_nonbcp(d, samples=400, t_grid=8, seed=3)
    x, y, z = w.point
    sgn = F(-1) if w.mirrored else F(1)
    pt = ((1 - w.t) * x, y, z + sgn * w.t * x * y / 2)
    # the exterior certificate re-checks exactly
    assert sum(v * v for v in pt) - 1 == w.margin
    assert d.compare_from_identity(pt, F(1)) == 1


def test_segment_witness_refused_on_standard_grading():
    with pytest.raises(ValueError):
        segment_witness_nonbcp(HSDistance(cb.heisenberg_group(1), F(1)))


def test_segment_witness_refused_on_flat_group():
    with pytest.raises(ValueError):
        segment_witness_nonbcp(HSDistance(cb.abelian_group([1, 2, 3]), F(1)))


# ---------------------------------------------------------------------------
# greedy cover
# ---------------------------------------------------------------------------

def test_cover_singleton():
    d = euclidean_line()
    rep = greedy_cover([(0.0,)], [1.0], d)
    assert rep.selected == [0] and rep.multiplicity == 1 and rep.covered


def test_cover_line_unit_radii():
    d = euclidean_line()
    rep = greedy_cover([(float(i),) for i in range(10)], [1.0] * 10, d)
    assert rep.covered and rep.quarter_disjoint
    assert rep.selected == [0, 2, 4, 6, 8]


def test_cover_dyadic_radii_blocks():
    d = euclidean_line()
    radii = [2.0 ** -i for i in range(10)]
    rep = greedy_cover([(float(i),) for i in range(10)], radii, d)
    assert rep.selected[0] == 0          # max radius first
    assert rep.block_bounds_halve
    bounds = [b["bound"] for b in rep.blocks]
    assert all(b2 <= b1 / 2 for b1, b2 in zip(bounds, bounds[1:]))


def test_cover_random_plane():
    d = HSDistance(cb.abelian_group([1, 1]), F(1))
    rng = np.random.default_rng(10)
    pts = [tuple(p) for p in rng.uniform(-2, 2, (200, 2))]
    radii = np.exp(rng.uniform(np.log(1 / 16), 0, 200))
    rep = greedy_cover(pts, radii, d)
    assert rep.covered and rep.quarter_disjoint and rep.block_bounds_halve
    # every selected center escapes the previously selected balls
    for pos, i in enumerate(rep.selected):
        for j in rep.selected[:pos]:
            assert d.value(pts[i], pts[j]) > radii[j]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy on nan input
def test_cover_rejects_nonfinite_point():
    # a NaN point must not count as covered by every ball, for the HS and
    # the CC distance alike
    pts = [(0.0, 0.0), (float("nan"), 1.0), (3.0, 0.0)]
    with pytest.raises(SolverError):
        greedy_cover(pts, [1.0, 1.0, 1.0], HSDistance(cb.abelian_group([1, 1])))
    pts = [(0.0, 0.0, 0.0), (float("nan"), 1.0, 0.0), (3.0, 0.0, 0.0)]
    with pytest.raises(SolverError):
        greedy_cover(pts, [1.0, 1.0, 1.0], CCHeisenbergDistance())


def test_cover_tie_break_smallest_index():
    d = euclidean_line()
    rep = greedy_cover([(0.0,), (10.0,), (20.0,)], [1.0, 1.0, 1.0], d)
    assert rep.selected == [0, 1, 2]


def test_cover_single_block_when_radii_within_factor_two():
    # radii spanning less than a factor 2 stay in one half-band: the
    # construction degenerates to plain greedy ball selection
    d = euclidean_line()
    rng = np.random.default_rng(12)
    pts = [(float(x),) for x in rng.uniform(-5, 5, 60)]
    radii = rng.uniform(1.0, 1.95, 60)
    rep = greedy_cover(pts, radii, d)
    assert len(rep.blocks) == 1
    assert rep.covered and rep.quarter_disjoint


# ---------------------------------------------------------------------------
# the countable space
# ---------------------------------------------------------------------------

def test_countable_space_formula():
    cs = countable_space(10)
    assert cs.table[1][2] == F(2, 3)          # d(x2, x3) = 1 - 1/3
    assert cs.table[0][9] == F(9, 10)
    assert cs.validate() == []


def test_countable_space_balls():
    cs = countable_space(12)
    for i in range(1, 12):
        r_i = 1 - F(1, i + 1)                  # 1-based index i+1
        assert cs.ball(i, r_i) == list(range(i + 1))


def test_countable_space_audits():
    assert countable_space_triangle_audit(200)
    assert countable_space_ball_audit(2000)
    rep = countable_space_two_ball_audit(100, grid=16)
    assert rep["ok"] and rep["radius_choices_checked"] == 99 * 16


def test_finite_space_validation_catches_violations():
    from carnot_bcp.besicovitch import FiniteMetricSpace
    bad = FiniteMetricSpace(labels=["a", "b", "c"], table=(
        (F(0), F(1), F(5)),
        (F(1), F(0), F(1)),
        (F(5), F(1), F(0))))
    issues = bad.validate()
    assert any(i["kind"] == "triangle" for i in issues)
