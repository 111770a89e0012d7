"""Orbit certificates for every count: the polynomials F and G, their Sturm
verdict, and the work an exact HS orbit does with them.

``dilation_orbit_family`` certifies an exact HS orbit from two integer
polynomials when both are positive on (0, s_1]; anything else takes the
path of 2n - 1 exact comparisons.  ``PlainHS`` below overrides ``_sign``
without changing it, so it always takes that path: it is the oracle the
polynomial verdicts are checked against.
"""

from fractions import Fraction

import numpy as np
import pytest

import carnot_bcp as cb
from carnot_bcp import besicovitch
from carnot_bcp.besicovitch import dilation_orbit_family, orbit_every_count
from carnot_bcp.metrics import HSDistance, product_max_distance
from carnot_bcp.polynomials import (first_nonpositive_power, interpolate, positive_on,
                                    root_count)

F = Fraction


class PlainHS(HSDistance):
    """The HS distance through the 2n - 1 comparisons of an orbit: a
    subclass that overrides ``_sign`` takes that path."""

    def _sign(self, nums, den, rho):
        return super()._sign(nums, den, rho)


def nonstd(alpha=2):
    return HSDistance(cb.heisenberg_nonstandard_group(alpha), F(1))


def sphere_point(u1=F(3, 100), u2=F(-41, 100)):
    s = u1 * u1 + u2 * u2
    return (2 * u1 / (1 + s), 2 * u2 / (1 + s), (1 - s) / (1 + s))


def workload_point(seed, i):
    """A point of the ``orbit`` benchmark workload (``orbit_point`` in
    perfbench/worker.py): stereographic u1 = a/100, a in 1..9, and
    u2 = -b/100, b in 15..60, drawn from (seed, i)."""
    rng = np.random.default_rng([seed, i])
    u1 = F(int(rng.integers(1, 10)), 100)
    u2 = F(-int(rng.integers(15, 61)), 100)
    return sphere_point(u1, u2)


def counting(d):
    """d with its ``compare`` calls recorded in the returned list."""
    calls = []
    d.compare = lambda *a: calls.append(a) or type(d).compare(d, *a)
    return calls


def expected_ok(verdict, count):
    """Whether the verdict says a family of this count passes."""
    fails = [verdict[c]["first_failing_j"] for c in ("orbit_test", "backward")]
    return verdict["witness_inside"] and all(j is None or j >= count for j in fails)


# ---------------------------------------------------------------------------
# the work an orbit does
# ---------------------------------------------------------------------------

def test_an_accepted_hs_orbit_makes_one_compare_the_witness():
    d = nonstd()
    calls = counting(d)
    res = dilation_orbit_family(d, sphere_point(), F(1, 2), k=6, count=40)
    assert res.ok and len(res.family) == 40
    # d(p, e) <= 1 at radius 1: p0 against the identity
    assert len(calls) == 1 and calls[0][1].nums == [0, 0, 0] and calls[0][2] == 1


@pytest.mark.parametrize("count", [2, 7, 40])
def test_a_product_max_orbit_still_makes_2n_minus_1_compares(count):
    h = cb.heisenberg_nonstandard_group(2)
    d = product_max_distance(HSDistance(h, F(1)), HSDistance(h, F(1)))
    calls = counting(d)
    res = dilation_orbit_family(d, sphere_point() * 2, F(1, 2), k=6, count=count)
    assert res.ok and len(calls) == 2 * count - 1


def test_a_subclass_that_overrides_sign_makes_2n_minus_1_compares():
    d = PlainHS(cb.heisenberg_nonstandard_group(2), F(1))
    calls = counting(d)
    assert dilation_orbit_family(d, sphere_point(), F(1, 2), k=6, count=40).ok
    assert len(calls) == 79


# ---------------------------------------------------------------------------
# the verdict against the 2n - 1 path
# ---------------------------------------------------------------------------

def check_every_count_agrees(alpha, p, rho, k, counts):
    """At every count, the polynomial path's result is byte-identical to
    the 2n - 1 path's, and ``ok`` is what the verdict says."""
    d, plain = nonstd(alpha), PlainHS(cb.heisenberg_nonstandard_group(alpha), F(1))
    verdict = orbit_every_count(d, p, rho, k)
    for count in counts:
        res = dilation_orbit_family(d, p, rho, k, count)
        assert res.to_json() == dilation_orbit_family(plain, p, rho, k, count).to_json()
        assert res.ok == expected_ok(verdict, count), count
    return verdict


@pytest.mark.parametrize("i", range(24))
def test_the_verdict_agrees_with_the_comparisons_on_the_orbit_workload(i):
    check_every_count_agrees(2, workload_point(0, i), F(1, 2), 6, range(2, 61))


@pytest.mark.parametrize("rho, k", [(F(1, 4), 6), (F(1, 9), 4), (F(1, 4), 4)])
@pytest.mark.parametrize("i", range(4))
def test_the_verdict_agrees_with_the_comparisons_on_half_integer_weights(i, rho, k):
    # weights 1, 3/2, 5/2: q = 2, and s_1 = (rho^k)^(1/2)
    verdict = check_every_count_agrees(F(3, 2), workload_point(1, i), rho, k, range(2, 61))
    assert F(verdict["s1"]) ** 2 == rho ** k


def test_both_verdicts_occur_on_the_workload_points():
    every = [orbit_every_count(nonstd(), workload_point(0, i), F(1, 2), 6)["every_count"]
             for i in range(24)]
    assert any(every) and not all(every)


def test_the_readme_point_is_certified_for_every_count():
    verdict = orbit_every_count(nonstd(), sphere_point(), F(1, 2), 6)
    assert verdict["every_count"] and verdict["s1"] == "1/64"
    for name in ("orbit_test", "backward"):
        assert verdict[name]["roots_in_interval"] == 0
        assert verdict[name]["first_failing_j"] is None


def test_a_point_inside_the_ball_fails_first_at_a_later_j():
    # p strictly inside the unit ball: F(0) < 0, so F is negative below its
    # one root in (0, 1/64], and the orbit fails once s_1^j drops below it
    p = tuple((1 - F(1, 10 ** 8)) * x for x in sphere_point())
    verdict = check_every_count_agrees(2, p, F(1, 2), 6, range(2, 61))
    assert not verdict["every_count"]
    assert verdict["orbit_test"]["first_failing_j"] == 4
    assert verdict["orbit_test"]["roots_in_interval"] == 1
    assert dilation_orbit_family(nonstd(), p, F(1, 2), 6, 60).first_failing_j == 4


def test_the_verdict_needs_an_exact_hs_orbit():
    # a float point is read as its binary rational, and gets that verdict
    p = tuple(map(float, sphere_point()))
    assert orbit_every_count(nonstd(), p, 0.5, 6) == \
        orbit_every_count(nonstd(), tuple(map(F, p)), F(1, 2), 6)
    with pytest.raises(ValueError, match="exact orbit"):
        orbit_every_count(PlainHS(cb.heisenberg_nonstandard_group(2), F(1)),
                          sphere_point(), F(1, 2), 6)
    with pytest.raises(ValueError, match="exact orbit"):
        # (1/2)^(3/2) is irrational
        orbit_every_count(nonstd(F(3, 2)), sphere_point(), F(1, 2), 1)


# ---------------------------------------------------------------------------
# mutations of the check flip its verdict
# ---------------------------------------------------------------------------

def readme_polynomials():
    d = nonstd()
    p = besicovitch.over_common_denominator(sphere_point())
    return list(besicovitch._orbit_polynomials(d, p, 1))


def test_a_flipped_coefficient_flips_the_verdict():
    F_, G = readme_polynomials()
    s1 = F(1, 64)
    assert positive_on(F_, s1) and positive_on(G, s1)
    for poly in (F_, G):
        low = next(i for i, c in enumerate(poly) if c)
        flipped = list(poly)
        flipped[low] = -flipped[low]
        assert not positive_on(flipped, s1)


def test_a_flipped_coefficient_in_the_orbit_flips_its_verdict(monkeypatch):
    real = besicovitch.interpolate

    def flip_lowest(values):
        poly = real(values)
        low = next(i for i, c in enumerate(poly) if c)
        return poly[:low] + [-poly[low]] + poly[low + 1:]

    assert orbit_every_count(nonstd(), sphere_point(), F(1, 2), 6)["every_count"]
    monkeypatch.setattr(besicovitch, "interpolate", flip_lowest)
    assert not orbit_every_count(nonstd(), sphere_point(), F(1, 2), 6)["every_count"]


def test_a_wrong_s1_flips_the_verdict():
    F_, G = readme_polynomials()
    # rho instead of rho^k: F has a root in (1/64, 1/2]
    assert positive_on(F_, F(1, 64)) and not positive_on(F_, F(1, 2))
    assert root_count(F_, F(1, 2)) >= 1


def test_s1_without_its_qth_root_flips_the_verdict(monkeypatch):
    # weights 1, 3/2, 5/2 with rho^k = 1/256: s_1 = 1/16, and every point
    # here fails at j = 1; s_1 taken as 1/256 certifies some of them
    points = [workload_point(1, i) for i in range(8)]
    assert not any(orbit_every_count(nonstd(F(3, 2)), p, F(1, 4), 4)["every_count"]
                   for p in points)
    monkeypatch.setattr(besicovitch, "_orbit_scale", lambda d, c: (2, c))
    wrong = [p for p in points
             if orbit_every_count(nonstd(F(3, 2)), p, F(1, 4), 4)["every_count"]]
    assert wrong
    # the 2n - 1 path rejects what the wrong s_1 accepts
    plain = PlainHS(cb.heisenberg_nonstandard_group(F(3, 2)), F(1))
    for p in wrong:
        assert dilation_orbit_family(nonstd(F(3, 2)), p, F(1, 4), 4, 5).ok
        assert not dilation_orbit_family(plain, p, F(1, 4), 4, 5).ok


def test_a_wrong_degree_bound_is_caught_by_the_check_node(monkeypatch):
    real = besicovitch.interpolate
    # one node fewer: the values are read as a polynomial of degree 2qW - 1,
    # checked at the node that remains beyond it
    monkeypatch.setattr(besicovitch, "interpolate", lambda values: real(values[:-1]))
    for call in (lambda: orbit_every_count(nonstd(), sphere_point(), F(1, 2), 6),
                 lambda: dilation_orbit_family(nonstd(), sphere_point(), F(1, 2), 6, 40)):
        with pytest.raises(ValueError, match="check node"):
            call()


# ---------------------------------------------------------------------------
# the polynomial helpers
# ---------------------------------------------------------------------------

def from_roots(lead, roots):
    """lead times the product of (b t - a) over the roots a / b, lowest
    degree first."""
    poly = [lead]
    for r in roots:
        a, b = r.numerator, r.denominator
        poly = [b * x - a * y for x, y in zip([0] + poly, poly + [0])]
    return poly


def values_at_nodes(poly, n):
    return [sum(c * t ** i for i, c in enumerate(poly)) for t in range(1, n + 1)]


def test_interpolation_recovers_a_polynomial_up_to_a_positive_factor():
    poly = from_roots(-3, [F(1, 3), F(-2), F(5, 7), F(0)])
    got = interpolate(values_at_nodes(poly, len(poly) + 1))
    ratio = F(got[-1], poly[-1])
    assert ratio > 0 and got == [int(ratio * c) for c in poly]
    # a degree bound above the degree is harmless
    assert interpolate(values_at_nodes(poly, len(poly) + 3))[:len(poly)] == got
    with pytest.raises(ValueError, match="check node"):
        interpolate(values_at_nodes(poly, len(poly)))


def test_root_counts_and_first_failing_powers():
    x = F(1, 4)
    # roots 1/64 (twice), 1/8 and 1/2: two distinct ones in (0, 1/4]
    poly = from_roots(1, [F(1, 64), F(1, 64), F(1, 8), F(1, 2)])
    assert root_count(poly, x) == 2 and not positive_on(poly, x)
    # poly(1/4) < 0: j = 1 fails
    assert first_nonpositive_power(poly, x) == 1
    # negative only on (1/30, 1/20), which no power of 1/4 meets
    poly = from_roots(1, [F(1, 20), F(1, 30)])
    assert root_count(poly, x) == 2 and first_nonpositive_power(poly, x) is None
    poly = from_roots(1, [F(1, 2), F(1, 3)])     # positive on (0, 1/3)
    assert positive_on(poly, x) and first_nonpositive_power(poly, x) is None
    # t (t - 1/100): a root at 0 is stripped, then negative below 1/100
    poly = from_roots(1, [F(0), F(1, 100)])
    assert first_nonpositive_power(poly, x) == 4
    assert first_nonpositive_power([0, 0, 5], x) is None
