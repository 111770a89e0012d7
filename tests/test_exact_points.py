"""Each point of an exact family is put over its common denominator once.

``QuasiDistance.compare`` stays the one exact route, and it takes either
point as the ``ExactPoint`` of ``scalars.over_common_denominator``.  The
family checks convert each of their points once and hand the ``ExactPoint``
to every comparison, so an n-ball verification makes n + 1 conversions where
converting inside every comparison made 2 n^2.  The counts are pinned here,
and ``verify_family`` is checked against the plain loop that calls
``d.compare`` on the raw coordinates of every condition.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

import carnot_bcp as cb
from carnot_bcp import algebra, besicovitch, metrics, scalars
from carnot_bcp.algebra import AlgebraError, displacement
from carnot_bcp.besicovitch import (
    BesicovitchFamily,
    dilation_orbit_family,
    radius_for_center,
    search_family,
    verify_family,
)
from carnot_bcp.metrics import CCHeisenbergDistance, ExactnessError, HSDistance
from carnot_bcp.scalars import ExactPoint, over_common_denominator

F = Fraction


def nonstd_h1_distance():
    return HSDistance(cb.heisenberg_nonstandard_group(2), F(1))


def sphere_point(u1=F(3, 100), u2=F(-41, 100)):
    s = u1 * u1 + u2 * u2
    return (2 * u1 / (1 + s), 2 * u2 / (1 + s), (1 - s) / (1 + s))


# ---------------------------------------------------------------------------
# ExactPoint
# ---------------------------------------------------------------------------

def test_an_exact_point_unpacks_as_numerators_and_denominator():
    x = over_common_denominator((F(1, 2), F(-1, 3), 2, 0.25))
    nums, den = x
    assert isinstance(x, ExactPoint)
    assert (nums, den) == ([6, -4, 24, 3], 12) == (x.nums, x.den)


def test_an_exact_point_is_returned_as_it_is():
    x = over_common_denominator((F(1, 2), F(1, 3)))
    assert over_common_denominator(x) is x


def test_displacement_reads_exact_points_as_their_coordinates():
    g = cb.heisenberg_nonstandard_group(2)
    p, q = (F(1, 2), F(-2, 3), F(5, 7)), (F(3, 4), F(1, 5), F(-1, 9))
    raw = displacement(p, q, g)
    assert displacement(over_common_denominator(p), over_common_denominator(q), g) == raw
    assert displacement(p, over_common_denominator(q), g) == raw


@pytest.mark.parametrize("weights, point", [
    ((1, 1), (F(1), F(2), F(3))),     # an ExactPoint of it has length 2 as well
    ((1, 1, 1), (F(1), F(2))),
])
def test_displacement_checks_the_dimension_on_the_numerators(weights, point):
    g = cb.abelian_group(list(weights))
    for p in (point, over_common_denominator(point)):
        with pytest.raises(AlgebraError, match="dimension"):
            displacement(p, g.identity(), g)
        with pytest.raises(AlgebraError, match="dimension"):
            displacement(g.identity(), p, g)


# ---------------------------------------------------------------------------
# conversions per family
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_conversions(monkeypatch):
    """Counts the calls of ``over_common_denominator`` that are not handed
    an ``ExactPoint``, wherever the package calls it from."""
    counted = []
    original = scalars.over_common_denominator

    def counting(xs):
        if not isinstance(xs, ExactPoint):
            counted.append(xs)
        return original(xs)

    for module in (scalars, algebra, metrics, besicovitch):
        if getattr(module, "over_common_denominator", None) is original:
            monkeypatch.setattr(module, "over_common_denominator", counting)
    return counted


@pytest.mark.parametrize("count", [2, 5, 12])
def test_verify_family_converts_each_point_once(fresh_conversions, count):
    fam = dilation_orbit_family(nonstd_h1_distance(), sphere_point(), F(1, 2),
                                k=6, count=count).family
    fresh_conversions.clear()
    cert = verify_family(fam)
    assert cert.valid and cert.cardinality == count
    # the n centers and the witness; converting in each comparison made 2 n^2
    assert len(fresh_conversions) == count + 1


@pytest.mark.parametrize("count", [2, 5, 12])
def test_an_exact_orbit_converts_each_point_once(fresh_conversions, count):
    res = dilation_orbit_family(nonstd_h1_distance(), sphere_point(), F(1, 2),
                                k=6, count=count)
    assert res.ok and res.family.mode == "exact"
    # p0 and the witness: the dilates are born as integers and, certified
    # for every count by their polynomials, are never compared
    assert len(fresh_conversions) == 2


def test_repair_converts_the_witness_and_each_candidate_once(fresh_conversions):
    d = nonstd_h1_distance()
    fam = dilation_orbit_family(d, sphere_point(), F(1, 2), k=6, count=5).family
    floats = [tuple(map(float, c)) for c in fam.centers]
    fresh_conversions.clear()
    repaired = besicovitch._repair(d, floats, [1.0] * len(floats))
    assert len(repaired) == 5
    # the witness, then per candidate its own conversion and the two of
    # radius_for_center (its center and the identity)
    assert len(fresh_conversions) == 1 + 3 * 5


def test_a_margin_verification_converts_nothing(fresh_conversions):
    fam = search_family(CCHeisenbergDistance(1.0), 1000, strategy="random", seed=2).family
    fresh_conversions.clear()
    assert verify_family(fam).valid and fam.mode == "margin"
    assert fresh_conversions == []


@pytest.mark.parametrize("outside_first", [0, 1, 5, 30])
def test_radius_for_center_converts_twice_however_many_bumps(fresh_conversions,
                                                             outside_first):
    d = nonstd_h1_distance()
    # the first radii tried are reported too small, so that many bumps follow
    radii = []

    def compare(p, q, rho):
        radii.append(rho)
        return 1 if len(radii) <= outside_first else HSDistance.compare(d, p, q, rho)

    d.compare = compare
    r = radius_for_center(d, (F(1, 2), F(1, 3), F(1, 5)))
    assert len(radii) > outside_first and r == radii[-1]
    assert len(fresh_conversions) == 2


# ---------------------------------------------------------------------------
# verify_family against the condition-by-condition oracle
# ---------------------------------------------------------------------------

def oracle_certificate(family):
    """The certificate of ``family`` from one ``d.compare`` (exact) or
    ``d.value`` (margin) call per condition on the raw coordinates, in
    ``verify_family``'s order and wording."""
    d, n = family.distance, len(family)
    exact = family.mode == "exact"
    conditions = [(i, None) for i in range(n)]
    conditions += [(i, j) for i in range(n) for j in range(n) if i != j]
    violations, slacks = [], []
    for i, j in conditions:
        inside = j is None
        ball = i if inside else j
        center, radius = family.centers[ball], family.radii[ball]
        point = family.witness if inside else family.centers[i]
        where = {"ball": i} if inside else {"pair": [i, j]}
        if exact:
            try:
                sign = d.compare(center, point, radius)
            except ExactnessError as exc:
                violations.append({"kind": "exactness", **where, "detail": str(exc)})
                continue
            s, least = (-sign, 0) if inside else (sign, 1)
        else:
            dist = d.value(center, point)
            s = float(radius) - dist if inside else dist - float(radius)
            least = besicovitch.MARGIN_EPSILON
        slacks.append(s)
        if s < least:
            if exact:
                detail = "witness outside ball" if inside else f"center {i} inside ball {j}"
            else:
                detail = f"{'witness' if inside else 'exclusion'} slack {s} < {least}"
            violations.append({"kind": "witness" if inside else "center_in_ball",
                               **where, "detail": detail})
    return {"valid": not violations, "cardinality": n, "mode": family.mode,
            "violations": violations,
            "min_slack": min(slacks) if slacks and not exact else None}


def moved_orbit_family():
    fam = dilation_orbit_family(nonstd_h1_distance(), sphere_point(), F(1, 2),
                                k=6, count=6).family
    centers = list(fam.centers)
    centers[3] = centers[1]
    return replace(fam, centers=tuple(centers))


class ClaimsExact(HSDistance):
    """HS on weights 1, 5/4, 9/4 claiming exact comparisons it does not
    have, so that its families are checked in exact mode."""

    def __init__(self):
        super().__init__(cb.heisenberg_nonstandard_group(F(5, 4)), F(1))
        self.exact_capable = True


def weight_5_4_family():
    # exact mode on weights 1, 5/4, 9/4: radii 2 and 3 have no rational
    # power for weight 5/4, radius 4 has; a condition whose weight-5/4
    # coordinate vanishes needs no such power and stays decided
    d = ClaimsExact()
    centers = ((F(1, 2), F(0), F(0)), (F(0), F(1, 3), F(0)),
               (F(1, 5), F(1, 7), F(1, 9)))
    return BesicovitchFamily(centers, (F(2), F(4), F(3)), (F(0),) * 3, d)


FAMILIES = {
    "search": lambda: search_family(nonstd_h1_distance(), 3000, strategy="annealed",
                                    seed=3).family,
    "orbit_with_a_moved_center": moved_orbit_family,
    "margin": lambda: search_family(CCHeisenbergDistance(1.0), 1000, strategy="random",
                                    seed=2).family,
    "weights_5_4": weight_5_4_family,
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_verify_family_equals_the_condition_by_condition_oracle(name):
    fam = FAMILIES[name]()
    assert len(fam) >= 3
    assert verify_family(fam).to_json() == oracle_certificate(fam)


def test_the_oracle_families_exercise_every_outcome():
    # the equality above would be weak on families that pass everything
    assert oracle_certificate(FAMILIES["search"]())["valid"]
    assert oracle_certificate(FAMILIES["margin"]())["min_slack"] is not None
    moved = oracle_certificate(moved_orbit_family())["violations"]
    assert {"kind": "center_in_ball", "pair": [3, 1],
            "detail": "center 3 inside ball 1"} in moved
    kinds = [v["kind"] for v in oracle_certificate(weight_5_4_family())["violations"]]
    assert len(kinds) == 7 and kinds.count("exactness") == 5
