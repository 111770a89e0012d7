"""Certificates, searches, covers, and the countable counterexample space."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carnot_bcp as cb
from carnot_bcp import besicovitch
from carnot_bcp.besicovitch import (
    BesicovitchFamily,
    Certificate,
    SearchError,
    _repair,
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
    product_max_distance,
    snowflake_line,
)

F = Fraction


def nonstd_h1_distance():
    return HSDistance(cb.heisenberg_nonstandard_group(2), F(1))


def sphere_point(u1=F(3, 100), u2=F(-41, 100)):
    """Rational point exactly on the unit sphere, by default in the productive
    orthant."""
    s = u1 * u1 + u2 * u2
    return (2 * u1 / (1 + s), 2 * u2 / (1 + s), (1 - s) / (1 + s))


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


VALID_FAMILIES = {
    "exact": lambda: dilation_orbit_family(nonstd_h1_distance(), sphere_point(),
                                           F(1, 2), k=6, count=5).family,
    "margin": lambda: search_family(CCHeisenbergDistance(1.0), 4000, strategy="random",
                                    seed=2, exact=False).family,
}


@pytest.mark.parametrize("mode", ["exact", "margin"])
def test_verify_rejects_a_shrunk_radius(mode):
    fam = VALID_FAMILIES[mode]()
    assert len(fam) >= 3 and verify_family(fam).valid
    # ball 1 shrunk to half its radius: its witness distance is about the
    # radius, and a smaller ball only eases the exclusions
    radii = list(fam.radii)
    radii[1] /= 2
    cert = verify_family(replace(fam, radii=tuple(radii)))
    assert [(v["kind"], v.get("ball")) for v in cert.violations] == [("witness", 1)]


@pytest.mark.parametrize("mode", ["exact", "margin"])
def test_verify_rejects_a_center_moved_into_another_ball(mode):
    fam = VALID_FAMILIES[mode]()
    centers = list(fam.centers)
    centers[2] = centers[0]
    cert = verify_family(replace(fam, centers=tuple(centers)))
    assert not cert.valid
    assert {"kind": "center_in_ball", "pair": [2, 0]} in [
        {"kind": v["kind"], "pair": v.get("pair")} for v in cert.violations]


def test_repair_keeps_the_earlier_ball_of_a_violating_pair():
    # the second center lies inside the first ball, while the first center
    # lies outside the second; dropping both balls of every violating pair
    # would leave no family at all
    d = CCHeisenbergDistance(1.0)
    centers = [(1.0, 0.0, 0.0), (0.25, 0.0, 0.0)]
    radii = [d.value_from_identity(c) for c in centers]
    fam = _repair(d, centers, radii, False, 1e-7, None)
    assert fam.mode == "margin" and fam.centers == ((1.0, 0.0, 0.0),)
    assert verify_family(fam).valid


def test_radius_for_center_exact_membership():
    d = nonstd_h1_distance()
    rng = np.random.default_rng(0)
    e = d.group.identity()
    for _ in range(20):
        c = tuple(F(int(rng.integers(-20, 21)), int(rng.integers(1, 21)))
                  for _ in range(3))
        if not any(c):
            continue
        r = radius_for_center(d, c)
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


def test_rejected_orbit_stops_comparing_at_the_first_failure():
    d = HSDistance(cb.abelian_group([1, 1]), F(1))
    calls = []
    d.compare = lambda *a: calls.append(a) or HSDistance.compare(d, *a)
    res = dilation_orbit_family(d, (F(3, 5), F(4, 5)), F(1, 2), 1, 12)
    assert not res.ok and res.first_failing_j == 1
    # one exact compare decides the first failure; the float margins stay complete
    assert len(calls) == 1 and len(res.margins) == 11


def test_orbit_succeeds_on_nonstandard_h1():
    d = nonstd_h1_distance()
    p = sphere_point()
    assert sum(x * x for x in p) == 1
    for count in (5, 10):
        res = dilation_orbit_family(d, p, F(1, 2), k=6, count=count)
        assert res.ok
        cert = verify_family(res.family)
        assert cert.valid and cert.cardinality == count


def test_orbit_family_radii_are_exact_powers():
    res = dilation_orbit_family(nonstd_h1_distance(), sphere_point(), F(1, 2),
                                k=6, count=4)
    assert res.family.radii == (F(1), F(1, 64), F(1, 4096), F(1, 262144))


def test_orbit_rejects_bad_ratio():
    d = nonstd_h1_distance()
    with pytest.raises(ValueError):
        dilation_orbit_family(d, (F(1), F(0), F(0)), F(3, 2), 1, 3)


class LopsidedHS(HSDistance):
    """HS distance whose unit ball reaches 10^6 times further along every
    negative coordinate.  Squashing negative coordinates commutes with the
    dilations, so the distance is left-invariant and one-homogeneous, but
    d(p, q) and d(q, p) differ: no built-in kind is asymmetric like this."""

    kind = "lopsided_hs"

    @staticmethod
    def squash(x):
        return tuple(v / 10 ** 6 if v < 0 else v for v in x)

    def value_from_identity(self, x):
        return super().value_from_identity(self.squash(x))

    def compare_from_identity(self, x, rho):
        return super().compare_from_identity(self.squash(x), rho)


def orbit_distance(kind):
    h = cb.heisenberg_nonstandard_group(2)
    return {"nonstandard": lambda: HSDistance(h, F(1)),
            "heisenberg": lambda: HSDistance(cb.heisenberg_group(1), F(1)),
            "product_max": lambda: product_max_distance(HSDistance(h, F(1)),
                                                        HSDistance(h, F(1))),
            "lopsided": lambda: LopsidedHS(h, F(1))}[kind]()


def test_orbit_certificate_reports_a_failed_witness():
    # an off-sphere point: the witness lies outside every ball
    p = tuple(F(11, 10) * x for x in sphere_point())
    res = dilation_orbit_family(nonstd_h1_distance(), p, F(1, 2), k=6, count=5)
    assert res.family is not None and not res.ok
    assert [(v["kind"], v["ball"]) for v in res.certificate.violations] == \
        [("witness", b) for b in range(5)]
    assert res.certificate.to_json() == verify_family(res.family).to_json()


def test_orbit_certificate_checks_the_backward_conditions():
    # every center lies outside the larger balls (the orbit test passes), but
    # on this asymmetric distance each center lies inside the next smaller ball
    p = tuple(-abs(x) for x in sphere_point())
    res = dilation_orbit_family(orbit_distance("lopsided"), p, F(1, 2), k=6, count=6)
    assert res.first_failing_j is None and not res.ok
    assert [v["pair"] for v in res.certificate.violations] == [[i, i + 1] for i in range(5)]
    assert res.certificate.to_json() == verify_family(res.family).to_json()


# stereographic parameters in hundredths; a small first one reaches the
# productive orthant, where orbit families pass
hundredths = st.tuples(st.integers(-10, 10), st.integers(-70, 70))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["nonstandard", "heisenberg", "product_max", "lopsided"]),
       u=st.tuples(hundredths, hundredths),
       signs=st.tuples(*[st.sampled_from([1, -1])] * 3),
       scale=st.sampled_from([F(1), F(11, 10)]),
       rho=st.sampled_from([F(1, 2), F(1, 3), F(2, 5)]),
       k=st.integers(1, 6), count=st.integers(2, 12))
def test_orbit_certificate_equals_full_verification(kind, u, signs, scale, rho, k, count):
    d = orbit_distance(kind)
    p1, p2 = (sphere_point(F(a, 100), F(b, 100)) for a, b in u)
    p = tuple(scale * s * x for s, x in zip(signs, p1))
    if kind == "product_max":
        p += p2
    res = dilation_orbit_family(d, p, rho, k, count)
    if res.family is not None:
        assert res.family.mode == "exact"
        assert res.certificate.to_json() == verify_family(res.family).to_json()
        assert res.ok == res.certificate.valid


def test_large_exact_orbit():
    # 1000 balls: radii down to 2^-5994, far below the float range
    res = dilation_orbit_family(nonstd_h1_distance(), sphere_point(), F(1, 2),
                                k=6, count=1000)
    assert res.ok and len(res.family) == 1000 and res.certificate.valid
    fam = res.family
    keep = sorted({round(t * 999 / 29) for t in range(30)})
    sub = replace(fam, centers=tuple(fam.centers[i] for i in keep),
                  radii=tuple(fam.radii[i] for i in keep))
    cert = verify_family(sub)
    assert len(keep) == 30 and keep[-1] == 999 and cert.valid


def test_margin_orbit_rejects_an_underflowing_count():
    p = tuple(float(x) for x in sphere_point())
    with pytest.raises(ValueError, match="count=200"):
        dilation_orbit_family(nonstd_h1_distance(), p, 0.5, k=6, count=200, exact=False)


def test_orbit_mode_follows_exact_dilations():
    # weights 1, 3/2, 5/2: (1/2)^(3/2) is irrational, so the dilates are not
    # rational although the distance is exact-capable; (1/4)^(3/2) = 1/8 is
    d = HSDistance(cb.heisenberg_nonstandard_group(F(3, 2)), F(1))
    p = (F(3, 5), F(4, 5), F(0))
    res = dilation_orbit_family(d, p, F(1, 2), k=1, count=4)
    assert res.family is None or res.family.mode == "margin"
    assert len(res.margins) == 3
    with pytest.raises(ValueError, match="no exact power"):
        dilation_orbit_family(d, p, F(1, 2), k=1, count=4, exact=True)
    for rho, k in ((F(1, 4), 1), (F(1, 2), 2)):
        res = dilation_orbit_family(d, p, rho, k=k, count=4)
        assert res.family is None or res.family.mode == "exact"


def test_orbit_mode_follows_exact_capability():
    cc = CCHeisenbergDistance(1.0)
    p = (F(3, 100), F(-1, 2), F(4, 5))
    # rational inputs on a float-only distance give a margin family
    res = dilation_orbit_family(cc, p, F(1, 2), k=2, count=4)
    assert all(m > 0 for m in res.margins)
    assert res.family.mode == "margin" and res.certificate.mode == "margin"
    assert not any(v["kind"] == "exactness" for v in res.certificate.violations)
    assert res.certificate.to_json() == verify_family(res.family).to_json()
    with pytest.raises(ValueError, match="cannot back exact certificates"):
        dilation_orbit_family(cc, p, F(1, 2), k=2, count=4, exact=True)


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


def test_countable_space_audits_read_the_table(monkeypatch):
    true_distance = besicovitch._countable_distance

    def one_wrong_entry(i, j):
        # d(x_3, x_5) = 1/100 puts x_5 in B(x_3, r_3) and in small balls of x_3
        num, den = true_distance(i, j)
        wrong = (i == 3) & (j == 5)
        return np.where(wrong, 1, num), np.where(wrong, 100, den)

    monkeypatch.setattr(besicovitch, "_countable_distance", one_wrong_entry)
    assert countable_space(10).table[2][4] == F(1, 100)
    # d(x_4, x_5) = 4/5 > d(x_4, x_3) + d(x_3, x_5) = 3/4 + 1/100
    assert not countable_space_triangle_audit(10)
    assert not countable_space_ball_audit(2000)
    rep = countable_space_two_ball_audit(100, grid=16)
    assert not rep["ok"] and rep["i"] == 3


def test_finite_space_validation_catches_violations():
    from carnot_bcp.besicovitch import FiniteMetricSpace
    bad = FiniteMetricSpace(labels=["a", "b", "c"], table=(
        (F(0), F(1), F(5)),
        (F(1), F(0), F(1)),
        (F(5), F(1), F(0))))
    issues = bad.validate()
    assert any(i["kind"] == "triangle" for i in issues)
