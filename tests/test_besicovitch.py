"""Certificates, searches, covers, and the countable counterexample space."""

import functools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carnot_bcp as cb
from carnot_bcp import besicovitch, metrics
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
    radius_for_center,
    search_family,
    segment_witness_nonbcp,
    verify_family,
)
from carnot_bcp.metrics import (
    CCHeisenbergDistance,
    ExactnessError,
    HSDistance,
    SolverError,
    euclidean_line,
    lp_combination_distance,
    product_max_distance,
    snowflake_line,
)
from carnot_bcp.scalars import to_fractions

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
    fam = BesicovitchFamily((p1, p2), (1.0 + 1e-3, 1.0 + 1e-3), e, d)
    cert = verify_family(fam)
    assert fam.mode == "margin"
    assert cert.valid and cert.min_slack >= besicovitch.MARGIN_EPSILON


class ClaimsExact(HSDistance):
    """HS on weights 1, 5/4, 9/4 claiming exact comparisons it does not
    have: a radius of 2 has no rational power for weight 5/4, so ``compare``
    raises ``ExactnessError`` where a certificate needs it."""

    def __init__(self):
        super().__init__(cb.heisenberg_nonstandard_group(F(5, 4)), F(1))
        self.exact_capable = True


def test_exactness_violation_reported():
    fam = BesicovitchFamily(((F(1, 2), F(1, 3), F(1, 5)),), (F(2),), (F(0),) * 3,
                            ClaimsExact())
    cert = verify_family(fam)
    assert fam.mode == "exact" and not cert.valid
    assert [v["kind"] for v in cert.violations] == ["exactness"]


VALID_FAMILIES = {
    "exact": lambda: dilation_orbit_family(nonstd_h1_distance(), sphere_point(),
                                           F(1, 2), k=6, count=5).family,
    "margin": lambda: search_family(CCHeisenbergDistance(1.0), 4000, strategy="random",
                                    seed=2).family,
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


@functools.cache
def valid_family(mode):
    return VALID_FAMILIES[mode]()


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(["exact", "margin"]), data=st.data())
def test_verify_rejects_any_shrunk_radius(mode, data):
    fam = valid_family(mode)
    i = data.draw(st.integers(0, len(fam) - 1), label="ball")
    # every witness distance is within 2 epsilon of its radius, and the radii
    # are at least 0.02, so any factor up to 0.999 moves the witness outside
    if mode == "exact":
        factor = data.draw(st.fractions(F(1, 1000), F(999, 1000)), label="factor")
    else:
        factor = data.draw(st.floats(1e-3, 0.999), label="factor")
    radii = list(fam.radii)
    radii[i] *= factor
    cert = verify_family(replace(fam, radii=tuple(radii)))
    assert [(v["kind"], v.get("ball")) for v in cert.violations] == [("witness", i)]


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(["exact", "margin"]), data=st.data())
def test_verify_rejects_any_center_moved_onto_another(mode, data):
    fam = valid_family(mode)
    i = data.draw(st.integers(0, len(fam) - 1), label="moved")
    j = data.draw(st.integers(0, len(fam) - 1).filter(lambda j: j != i), label="onto")
    centers = list(fam.centers)
    centers[i] = centers[j]
    cert = verify_family(replace(fam, centers=tuple(centers)))
    pairs = [v["pair"] for v in cert.violations if v["kind"] == "center_in_ball"]
    assert [i, j] in pairs and [j, i] in pairs


def test_repair_keeps_the_earlier_ball_of_a_violating_pair():
    # the second center lies inside the first ball, while the first center
    # lies outside the second; dropping both balls of every violating pair
    # would leave no family at all
    d = CCHeisenbergDistance(1.0)
    centers = [(1.0, 0.0, 0.0), (0.25, 0.0, 0.0)]
    radii = [d.value_from_identity(c) for c in centers]
    fam = _repair(d, centers, radii)
    assert fam.mode == "margin" and fam.centers == ((1.0, 0.0, 0.0),)
    assert verify_family(fam).valid


def _pairwise_greedy(d, centers, radii, cand, cand_r, guard=1e-6):
    """Reference for the float phase, from every pairwise distance: a
    candidate of positive radius is kept when d(c, x) > max(r, r_x) (1 + guard)
    holds from each family ball (c, r) and d(x, c) > max(r, r_x) (1 + guard)
    to each candidate kept before it."""
    n_fam, m = len(centers), len(cand)
    balls = np.concatenate([np.reshape(centers, (n_fam, cand.shape[1])), cand])
    D = d.value_batch(np.repeat(balls, m, axis=0),
                      np.tile(cand, (len(balls), 1))).reshape(len(balls), m)
    kept = []
    for a in range(m):
        thresh = [max(r, cand_r[a]) * (1 + guard) for r in (*radii, *cand_r[kept])]
        dists = [*D[:n_fam, a], *D[n_fam + a, kept]]
        if cand_r[a] > 0 and all(x > t for x, t in zip(dists, thresh)):
            kept.append(a)
    return [tuple(cand[a]) for a in kept], [float(cand_r[a]) for a in kept]


@pytest.mark.parametrize("strategy", ["random", "annealed"])
def test_greedy_extend_keeps_what_the_pairwise_rule_keeps(strategy):
    d = nonstd_h1_distance()
    rng = np.random.default_rng(8)
    centers, radii = [], []
    added = []
    # the first batch extends the empty family, the later ones a non-empty one
    for _ in range(6):
        cand, cand_r = besicovitch._proposals(d, strategy, rng, besicovitch._BATCH)
        expected = _pairwise_greedy(d, centers, radii, cand, cand_r)
        n = len(centers)
        besicovitch._greedy_extend(d, centers, radii, cand, cand_r)
        assert (centers[n:], radii[n:]) == expected
        added.append(len(centers) - n)
    assert added[0] > 0 and sum(added[1:]) > 0


@pytest.mark.parametrize("make_d", [
    nonstd_h1_distance,
    lambda: CCHeisenbergDistance(1.0),
    lambda: lp_combination_distance(euclidean_line(), snowflake_line(2), 1),
    lambda: lp_combination_distance(euclidean_line(), snowflake_line(2), 2),
    lambda: product_max_distance(euclidean_line(), snowflake_line(2)),
], ids=["hs", "cc_h1", "lp_r1", "lp_r2", "product_max"])
@pytest.mark.parametrize("strategy", ["random", "annealed"])
def test_stream_radii_are_the_distances_of_the_proposals(make_d, strategy):
    d = make_d()
    rng = np.random.default_rng(3)
    for _ in range(3):
        cand, cand_r = besicovitch._proposals(d, strategy, rng, besicovitch._BATCH)
        assert cand.shape == (besicovitch._BATCH, d.group.dim) and cand_r.shape == (len(cand),)
        np.testing.assert_allclose(cand_r, d.value_from_identity_batch(cand), rtol=1e-12)


class FailingProjection(HSDistance):
    """The HS distance of heisenberg_nonstandard(2), except that its batch
    solve answers 0, inf or NaN on every row with a positive first
    coordinate: projections onto the unit sphere that fail."""

    def __init__(self):
        super().__init__(cb.heisenberg_nonstandard_group(2), F(1))

    def value_from_identity_batch(self, X):
        X = np.asarray(X, dtype=float)
        lam = super().value_from_identity_batch(X)
        bad = X[:, 0] > 0
        lam[bad] = np.resize([0.0, np.inf, np.nan], bad.sum())
        return lam


@pytest.mark.parametrize("strategy", ["random", "annealed"])
def test_a_failed_projection_has_radius_zero_and_is_never_kept(strategy):
    d = FailingProjection()
    rng = np.random.default_rng(5)
    centers, radii = [], []
    # the shells, and for the annealed strategy the chains and orthant rows
    quarter = besicovitch._BATCH // 4
    parts = ([slice(0, 2 * quarter), slice(2 * quarter, 3 * quarter),
              slice(3 * quarter, None)] if strategy == "annealed" else [slice(None)])
    for _ in range(4):
        cand, cand_r = besicovitch._proposals(d, strategy, rng, besicovitch._BATCH)
        # a failed row keeps its direction, dilated by positive factors
        failed = cand[:, 0] > 0
        assert all(failed[part].any() for part in parts)
        assert (cand_r[failed] == 0).all() and (cand_r[~failed] > 0).all()
        besicovitch._greedy_extend(d, centers, radii, cand, cand_r)
    assert centers and all(c[0] <= 0 for c in centers)
    # a zero direction cannot be projected either
    rng = np.random.default_rng(0)
    V = np.concatenate([np.zeros((1, 3)), rng.standard_normal((3, 3))])
    V[:, 0] = -np.abs(V[:, 0])
    points, r = cb.metrics.project(d, V, rng.uniform(0.5, 1.0, size=len(V)))
    assert r[0] == 0 and (r[1:] > 0).all() and not points[0].any()


def _counting(monkeypatch, obj, name, counts):
    fn = getattr(obj, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(obj, name, counted)


@pytest.mark.parametrize("strategy", ["random", "annealed"])
def test_the_float_phase_makes_a_fixed_number_of_batch_calls(monkeypatch, strategy):
    d = nonstd_h1_distance()
    counts = {}
    for name in ("value_from_identity", "value_from_identity_batch", "exceeds_batch"):
        _counting(monkeypatch, d, name, counts)
    for module in (besicovitch, cb.metrics):
        for name in ("dilate", "dilate_batch"):
            if hasattr(module, name):
                _counting(monkeypatch, module, name, counts)
    rng = np.random.default_rng(2)
    centers, radii = [], []
    for _ in range(8):
        counts.clear()
        cand, cand_r = besicovitch._proposals(d, strategy, rng, besicovitch._BATCH)
        # one projection of the whole batch: one solve, two dilations
        assert counts == {"value_from_identity_batch": 1, "dilate_batch": 2}
        counts.clear()
        n = len(centers)
        besicovitch._greedy_extend(d, centers, radii, cand, cand_r)
        assert counts.get("exceeds_batch", 0) <= 1 + len(centers) - n
    assert len(centers) > 1


def _assert_same_rows(got, expected, ulps):
    """The same shape, and each value bit for bit, or within ``ulps``."""
    assert got.shape == expected.shape
    if ulps:
        np.testing.assert_array_max_ulp(got, expected, maxulp=ulps)
    else:
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("make_d,ulps", [
    # the HS Newton solve stops once every row of its batch has converged, so
    # a row in a larger batch can take one more step and move its point by a
    # few ulps; the radii, the dilation factors, are exact
    (nonstd_h1_distance, 16),
    (lambda: CCHeisenbergDistance(1.0), 0),
    (lambda: lp_combination_distance(euclidean_line(), snowflake_line(2), 1), 0),
    (lambda: product_max_distance(euclidean_line(), snowflake_line(2)), 0),
], ids=["hs", "cc_h1", "lp_r1", "product_max"])
@pytest.mark.parametrize("strategy", ["random", "annealed"])
def test_a_block_of_proposals_is_the_batches_in_turn(make_d, ulps, strategy):
    d = make_d()
    block = besicovitch._proposals(d, strategy, np.random.default_rng(0),
                                   besicovitch._RESTART_INTERVAL)
    rng = np.random.default_rng(0)
    batches = [besicovitch._proposals(d, strategy, rng, besicovitch._BATCH)
               for _ in range(besicovitch._RESTART_INTERVAL // besicovitch._BATCH)]
    # the rows drawn in one call are those of successive batch calls
    (points, radii), (batch_points, batch_radii) = block, map(np.concatenate, zip(*batches))
    _assert_same_rows(points, batch_points, ulps)
    _assert_same_rows(radii, batch_radii, 0)
    # a ragged count is the first rows of the block
    points, radii = besicovitch._proposals(d, strategy, np.random.default_rng(0), 1000)
    _assert_same_rows(points, block[0][:1000], ulps)
    _assert_same_rows(radii, block[1][:1000], 0)


@pytest.mark.parametrize("strategy", ["random", "annealed"])
def test_one_greedy_pass_over_a_block_keeps_what_batch_passes_keep(strategy):
    d = nonstd_h1_distance()
    rng = np.random.default_rng(6)
    # a family from a first block, so the second one also meets the k * m test
    first = besicovitch._proposals(d, strategy, rng, besicovitch._BATCH)
    block = besicovitch._proposals(d, strategy, rng, besicovitch._RESTART_INTERVAL)
    for family in ((), first):
        whole, parts = ([], []), ([], [])
        if family:
            besicovitch._greedy_extend(d, *whole, *family)
            besicovitch._greedy_extend(d, *parts, *family)
        start = len(whole[0])
        besicovitch._greedy_extend(d, *whole, *block)
        for i in range(0, len(block[0]), besicovitch._BATCH):
            besicovitch._greedy_extend(d, *parts, *(a[i:i + besicovitch._BATCH] for a in block))
        assert whole == parts and len(whole[0]) > start


@pytest.mark.parametrize("strategy", ["random", "annealed"])
def test_a_search_projects_each_restart_interval_once(monkeypatch, strategy):
    d = nonstd_h1_distance()
    counts = {}
    _counting(monkeypatch, d, "value_from_identity_batch", counts)
    _counting(monkeypatch, cb.metrics, "dilate_batch", counts)
    res = search_family(d, 25_000, strategy=strategy, seed=1)
    # ceil(25000 / 4096) = 7 blocks, each one solve and two dilations
    assert counts == {"value_from_identity_batch": 7, "dilate_batch": 14}
    assert res.proposals_used == 25_000 and res.cardinality >= 5


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
        res = search_family(d, budget, strategy="random", seed=0)
        assert res.cardinality == 2
        assert verify_family(res.family).valid


def test_search_monotone_in_budget():
    d = lp_combination_distance(euclidean_line(), snowflake_line(2), 1)
    cards = []
    for budget in (2000, 8000, 32000):
        res = search_family(d, budget, strategy="annealed", seed=5)
        cards.append(res.cardinality)
        assert verify_family(res.family).valid
    assert cards == sorted(cards)


def test_a_negative_budget_is_an_error_and_zero_is_an_empty_search():
    # a negative budget drew nothing and returned an empty exact family
    d = euclidean_line()
    with pytest.raises(ValueError, match="budget"):
        search_family(d, -1)
    res = search_family(d, 0)
    assert res.cardinality == 0 and res.proposals_used == 0


def test_search_soundness_reverification():
    d = nonstd_h1_distance()
    res = search_family(d, 8000, strategy="annealed", seed=1)
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
    res = search_family(d, 4000, strategy="random", seed=2)
    assert res.family.mode == "margin"
    assert verify_family(res.family).valid


# ---------------------------------------------------------------------------
# dilation-orbit families
# ---------------------------------------------------------------------------

def test_orbit_fails_on_euclidean():
    d = HSDistance(cb.abelian_group([1, 1]), F(1))
    res = dilation_orbit_family(d, (F(3, 5), F(4, 5)), F(1, 2), 1, 3)
    assert not res.ok and res.first_failing_j == 1


def float_calls(d):
    """d with its float ``value`` calls recorded in the returned list."""
    calls = []
    d.value = lambda *a: calls.append(a) or type(d).value(d, *a)
    return calls


def test_rejected_orbit_stops_comparing_at_the_first_failure():
    d = HSDistance(cb.abelian_group([1, 1]), F(1))
    calls = []
    d.compare = lambda *a: calls.append(a) or HSDistance.compare(d, *a)
    floats = float_calls(d)
    res = dilation_orbit_family(d, (F(3, 5), F(4, 5)), F(1, 2), 1, 12)
    assert not res.ok and res.first_failing_j == 1
    # one exact compare decides the first failure, and no float distance is taken
    assert len(calls) == 1 and floats == []


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
    for rho in (F(3, 2), F(0), float("nan"), float("inf")):
        with pytest.raises(ValueError, match="ratio must lie in"):
            dilation_orbit_family(d, (F(1), F(0), F(0)), rho, 1, 3)


def test_an_orbit_reads_a_ratio_below_the_float_range():
    # 2^-2000 is 0.0 as a float, so the range check refused it
    res = dilation_orbit_family(nonstd_h1_distance(), sphere_point(), F(1, 2 ** 2000),
                                k=1, count=3)
    assert res.ok and res.family.radii == (1, F(1, 2 ** 2000), F(1, 2 ** 4000))


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

    def _sign(self, nums, den, rho):
        # the squashed point over the denominator 10^6 den
        return super()._sign(tuple(n if n < 0 else n * 10 ** 6 for n in nums),
                             den * 10 ** 6, rho)


def orbit_distance(kind):
    h = cb.heisenberg_nonstandard_group(2)
    return {"nonstandard": lambda: HSDistance(h, F(1)),
            "heisenberg": lambda: HSDistance(cb.heisenberg_group(1), F(1)),
            "abelian": lambda: HSDistance(cb.abelian_group([1, 1]), F(1)),
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


def test_a_float_point_and_ratio_give_the_orbit_of_their_exact_values():
    # a float is a binary rational: the orbit is exact.  The rounded point
    # lies about 1e-17 inside the unit ball, so its orbit fails at j = 9,
    # while the orbit of the rational point passes at every count
    d = nonstd_h1_distance()
    p = tuple(float(x) for x in sphere_point())
    assert d.compare_from_identity(to_fractions(p), F(1)) == -1
    res = dilation_orbit_family(d, p, 0.5, k=6, count=200)
    assert res.to_json() == dilation_orbit_family(d, to_fractions(p), F(1, 2), k=6,
                                                  count=200).to_json()
    assert res.first_failing_j == 9
    assert dilation_orbit_family(d, sphere_point(), F(1, 2), k=6, count=200).ok


def test_an_orbit_with_an_irrational_dilation_factor_raises():
    # weights 1, 3/2, 5/2: (1/2)^(3/2) is irrational, so the dilates are not
    # rational although the distance is exact-capable; (1/4)^(3/2) = 1/8 is
    d = HSDistance(cb.heisenberg_nonstandard_group(F(3, 2)), F(1))
    p = (F(3, 5), F(4, 5), F(0))
    floats = float_calls(d)
    with pytest.raises(ExactnessError, match=r"\(1/2\)\^\(3/2\) is not"):
        dilation_orbit_family(d, p, F(1, 2), k=1, count=4)
    for rho, k in ((F(1, 4), 1), (F(1, 2), 2)):
        res = dilation_orbit_family(d, p, rho, k=k, count=4)
        assert res.family is None or res.family.mode == "exact"
    assert floats == []


def test_an_orbit_on_a_distance_without_exact_comparisons_raises():
    cc = CCHeisenbergDistance(1.0)
    floats = float_calls(cc)
    with pytest.raises(ExactnessError, match="exact-capable distance, not cc_h1"):
        dilation_orbit_family(cc, (F(3, 100), F(-1, 2), F(4, 5)), F(1, 2), k=2, count=4)
    assert floats == []


FLOAT_PATHS = ("value", "value_from_identity", "value_from_identity_batch")


def kinds_below(kind):
    return [kind] + [c for sub in kind.__subclasses__() for c in kinds_below(sub)]


def no_float_distance(monkeypatch):
    """Every float distance evaluation of every kind raises."""
    def refuse(*a):
        raise AssertionError("an exact orbit took a float distance")
    for kind in kinds_below(metrics.QuasiDistance):
        for name in FLOAT_PATHS:
            if name in vars(kind):
                monkeypatch.setattr(kind, name, refuse)


@pytest.mark.parametrize("kind, p, rho, k, count, ok, first_fail", [
    # accepted by the polynomials F and G
    ("nonstandard", sphere_point(), F(1, 2), 6, 40, True, None),
    # rejected by its first exact comparison
    ("abelian", (F(3, 5), F(4, 5)), F(1, 2), 1, 12, False, 1),
    # accepted through the 2n - 1 comparisons
    ("product_max", sphere_point() * 2, F(1, 2), 6, 7, True, None),
])
def test_an_exact_orbit_makes_no_float_evaluation(monkeypatch, kind, p, rho, k, count,
                                                  ok, first_fail):
    d = orbit_distance(kind)
    expected = dilation_orbit_family(d, p, rho, k, count).to_json()
    no_float_distance(monkeypatch)
    with pytest.raises(AssertionError, match="float distance"):
        d.value(p, p)
    res = dilation_orbit_family(d, p, rho, k, count)
    assert res.to_json() == expected
    assert (res.ok, res.first_failing_j) == (ok, first_fail)
    assert res.family is None or res.family.mode == "exact"


def test_a_float_point_just_inside_the_ball_gives_an_exact_orbit_rejected_at_4():
    # the exact orbit of the float point's binary value first fails at j = 4,
    # decided without a float distance
    d = nonstd_h1_distance()
    floats = float_calls(d)
    p = tuple((1 - 1e-8) * float(x) for x in sphere_point())
    res = dilation_orbit_family(d, p, 0.5, k=6, count=10)
    assert not res.ok and res.family is None and res.first_failing_j == 4
    assert floats == []


def test_a_margin_search_inflates_its_radii_by_two_epsilon():
    # a ball's radius is its float radius plus 2 epsilon, so the witness has
    # slack 2 epsilon at every scale, far above the solver tolerances
    cc = CCHeisenbergDistance(1.0)
    fam = search_family(cc, 4000, strategy="random", seed=2).family
    assert fam.mode == "margin" and len(fam) >= 3
    e = cc.identity()
    for c, r in zip(fam.centers, fam.radii):
        assert r - cc.value(c, e) == pytest.approx(2 * besicovitch.MARGIN_EPSILON, abs=1e-9)
    assert verify_family(fam).valid


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


def test_countable_space_audits():
    assert countable_space_triangle_audit(200)
    assert countable_space_ball_audit(2000)
    rep = countable_space_two_ball_audit(100, grid=16)
    assert rep["ok"] and rep["radius_choices_checked"] == 99 * 16
    # an empty grid checks no radius, so it cannot report "ok"
    for grid in (0, -1):
        with pytest.raises(ValueError, match="grid"):
            countable_space_two_ball_audit(5, grid=grid)


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
    bad = FiniteMetricSpace(table=(
        (F(0), F(1), F(5)),
        (F(1), F(0), F(1)),
        (F(5), F(1), F(0))))
    issues = bad.validate()
    assert any(i["kind"] == "triangle" for i in issues)
