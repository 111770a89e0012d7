"""Besicovitch-ball certificates: production, search, and rigorous verification.

A family of balls with a common witness point, none of whose centers lies in
another ball, bounds the weak-covering constant of the space from below.  One
check, ``_slack``, decides each condition in exact rational arithmetic (a
rigorous certificate) or in float with an explicit margin; it decides both
which balls a search keeps and whether ``verify_family`` accepts a family.
Searches propose centers with the witness pinned at the identity and radii
set to the distance of the center from the identity, rationalized minimally
upward in exact mode so witness containment is exact.  The distance alone
decides the mode, in ``BesicovitchFamily``: exact when ``d.exact_capable``
holds and margin otherwise, with the slack ``MARGIN_EPSILON``.  A dilation
orbit is exact only: its point and ratio are read as rationals, and an orbit
whose distance or dilates are not exact raises ``ExactnessError``.

Also here: the constructive block-greedy cover with its per-block radius
bounds and quarter-radius disjointness, and the countable metric space with
d(x_i, x_j) = 1 - 1/max(i, j) on which every Besicovitch family is a single
ball while no bounded-multiplicity subcover exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import displacement
from .metrics import ExactnessError, HSDistance, QuasiDistance, project
from .polynomials import first_nonpositive_power, interpolate, positive_on, root_count
from .scalars import (ExactPoint, all_exact, fmt_scalar, is_exact, over_common_denominator,
                      rat_pow, to_fractions)

EXACT = "exact"
# the least slack of every margin-mode condition, far above the 1e-10 ..
# 1e-13 tolerances of the float solvers
MARGIN_EPSILON = 1e-7


class SearchError(RuntimeError):
    """A search produced a family that its own verification rejects."""


# ---------------------------------------------------------------------------
# families and certificates
# ---------------------------------------------------------------------------

@dataclass
class BesicovitchFamily:
    """Centers, radii, and a claimed common witness point.  The distance
    decides the mode: "exact" when it is exact-capable, "margin" otherwise."""

    centers: tuple
    radii: tuple
    witness: tuple
    distance: QuasiDistance
    mode: str = field(init=False)

    def __post_init__(self):
        self.mode = EXACT if self.distance.exact_capable else "margin"
        self.centers = tuple(tuple(c) for c in self.centers)
        self.witness = tuple(self.witness)
        self.radii = tuple(self.radii)
        if len(self.centers) != len(self.radii):
            raise ValueError("centers and radii length mismatch")
        # a NaN or infinite entry makes float comparisons with it come out
        # false or true whatever the family, so it would certify nothing
        if not all(_finite(x) for c in (*self.centers, self.witness) for x in c):
            raise ValueError("center and witness coordinates must be finite")
        # compared in their own type: a positive rational radius below the
        # float range is still positive
        if not all(_finite(r) and r > 0 for r in self.radii):
            raise ValueError("radii must be positive and finite")

    def __len__(self):
        return len(self.centers)

    def to_json(self):
        def fmt_point(p):
            return [fmt_scalar(x) for x in p]
        return {
            "centers": [fmt_point(c) for c in self.centers],
            "radii": [fmt_scalar(r) for r in self.radii],
            "witness": fmt_point(self.witness),
            "mode": self.mode,
            "epsilon": MARGIN_EPSILON,
        }


def _finite(x):
    # a rational is finite, and may lie outside the float range
    return is_exact(x) or math.isfinite(x)


@dataclass
class Certificate:
    valid: bool
    cardinality: int
    mode: str
    violations: list
    min_slack: float | None = None

    def __bool__(self):
        return self.valid

    def to_json(self):
        return {"valid": self.valid, "cardinality": self.cardinality,
                "mode": self.mode, "violations": self.violations,
                "min_slack": self.min_slack}


def _slack(family, center, point, radius, inside):
    """Slack of one condition in the family's mode, and the least slack that
    passes it.  inside=True asks for point in the closed ball (slack
    r - d(center, point)), inside=False for point strictly outside it (slack
    d(center, point) - r).  Exact mode takes the sign from ``d.compare``, so
    closed and strict become the least slacks 0 and 1; margin mode takes the
    float value and needs MARGIN_EPSILON either way."""
    if family.mode == EXACT:
        sign = family.distance.compare(center, point, radius)
        return (-sign, 0) if inside else (sign, 1)
    dist = family.distance.value(center, point)
    slack = float(radius) - dist if inside else dist - float(radius)
    return slack, MARGIN_EPSILON


def _margin_radius(r):
    """A margin-mode radius: the float radius plus 2 * MARGIN_EPSILON, so a
    witness at distance r has slack 2 * MARGIN_EPSILON at every scale."""
    return float(r) + 2 * MARGIN_EPSILON


def _violation(i, j, detail=None, kind=None):
    """The record of a failed condition: the witness in ball i when j is
    None, else center i outside ball j.  The detail defaults to the exact
    mode's wording and the kind to the condition's own."""
    inside = j is None
    if detail is None:
        detail = "witness outside ball" if inside else f"center {i} inside ball {j}"
    return {"kind": kind or ("witness" if inside else "center_in_ball"),
            **({"ball": i} if inside else {"pair": [i, j]}), "detail": detail}


def verify_family(family: BesicovitchFamily) -> Certificate:
    """Check the two defining conditions of a Besicovitch family.

    Exact mode decides every comparison with the distance's exact rational
    trichotomy; any point where that is unavailable is itself a violation.
    Margin mode requires each comparison to hold with slack >= MARGIN_EPSILON.
    """
    n = len(family)
    exact = family.mode == EXACT
    # exact mode converts each point once, for all of its comparisons
    convert = over_common_denominator if exact else tuple
    centers = [convert(c) for c in family.centers]
    witness = convert(family.witness)
    conditions = [(i, None) for i in range(n)]
    conditions += [(i, j) for i in range(n) for j in range(n) if i != j]
    violations, slacks = [], []
    for i, j in conditions:
        inside = j is None
        ball = i if inside else j
        point = witness if inside else centers[i]
        try:
            s, least = _slack(family, centers[ball], point, family.radii[ball], inside)
        except ExactnessError as exc:
            violations.append(_violation(i, j, str(exc), kind="exactness"))
            continue
        slacks.append(s)
        if s < least:
            slack = f"{'witness' if inside else 'exclusion'} slack {s} < {least}"
            violations.append(_violation(i, j, None if exact else slack))
    return Certificate(valid=not violations, cardinality=n, mode=family.mode,
                       violations=violations,
                       min_slack=min(slacks) if slacks and not exact else None)


# ---------------------------------------------------------------------------
# exact radius convention
# ---------------------------------------------------------------------------

def radius_for_center(d: QuasiDistance, center):
    """Exact radius paired with a rational center, on an exact-capable
    distance, so the identity is inside the ball: the float distance from the
    identity, bumped upward by geometrically growing relative increments
    (starting at 2^-50) until the exact membership test accepts.  The result
    is an exact dyadic-denominator rational barely above the true distance,
    at every scale.
    """
    e = d.identity()
    val = d.value(e, center)
    if not all_exact(center):
        raise ExactnessError("exact radius needs rational center coordinates")
    if val <= 0:
        raise ValueError("center coincides with the identity")
    # converted once for every radius tried
    c, e = over_common_denominator(center), over_common_denominator(e)

    def ok(r):
        return d.compare(c, e, r) <= 0

    base = Fraction(val)
    if ok(base):
        return base
    for i in range(61):
        r = base * (1 + Fraction(2, 1) ** (i - 50))
        if ok(r):
            return r
    raise ValueError("could not find an exact radius above the float distance")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

@dataclass
class SearchResult:
    family: BesicovitchFamily
    cardinality: int
    proposals_used: int
    trace: list               # (proposals_used, best_cardinality) milestones
    strategy: str
    seed: int

    def to_json(self):
        return {"cardinality": self.cardinality,
                "proposals_used": self.proposals_used,
                "trace": self.trace, "strategy": self.strategy,
                "seed": self.seed, "family": self.family.to_json()}


def _orthant_seed(rng, dim):
    """Direction seed biased to the productive orthants for 3-d gradings:
    small first coordinate with the remaining product of opposite sign, where
    shrinking dilates of the point escape its own unit ball."""
    v = rng.standard_normal(dim)
    if dim == 3:
        sx = 1.0 if rng.integers(0, 2) else -1.0
        v[0] = 0.1 * abs(v[0]) * sx
        v[1] = abs(v[1]) * (1.0 if rng.integers(0, 2) else -1.0)
        # xyz < 0 makes small dilates leave the ball around the point
        v[2] = -abs(v[2]) * sx * (1.0 if v[1] > 0 else -1.0)
    return v


# proposals per batch, the log range of their log-uniform dilation shells,
# and the annealed search's restart period in proposals
_BATCH = 256
_LOG_SHELL = (math.log(0.02), math.log(1.0))
_RESTART_INTERVAL = 4096


def _proposals(d: QuasiDistance, strategy, rng, count):
    """``count`` proposals (points, radii): a (count, n) array of proposed
    centers and the (count,) distance of each from the identity, which is
    the dilation factor that made it from a unit-sphere point: a shell
    factor, or ratio^l on a chain.  Rows are drawn _BATCH at a time (shells;
    then, annealed, chain seeds and orthant rows) and cut to ``count``, so
    k calls of _BATCH draw what one call of k _BATCH draws.  One ``project``
    call solves and dilates them all: one batch solve and two dilations.  A
    row whose projection failed has radius 0, so the search never keeps it."""
    n = d.group.dim
    quarter = _BATCH // 4 if strategy == "annealed" else 0
    rows, factors = [], []
    for _ in range(-(-count // _BATCH)):
        V = rng.standard_normal((_BATCH - 2 * quarter, n))
        norms = np.linalg.norm(V, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        rows.append(V / norms)
        factors.append(np.exp(rng.uniform(*_LOG_SHELL, size=len(V))))
        if quarter:
            # annealed: + dilation-orbit chains + orthant-restricted shells
            chain, ratios = _chains(rng, n, quarter)
            orth = rng.standard_normal((quarter, n))
            if n == 3:
                orth[:, 0] = 0.15 * np.abs(orth[:, 0])
                orth[:, 1] = -np.abs(orth[:, 1])
                orth[:, 2] = -np.abs(orth[:, 2])
            rows += [chain, orth]
            factors += [ratios, np.exp(rng.uniform(*_LOG_SHELL, size=quarter))]
    return project(d, np.concatenate(rows)[:count], np.concatenate(factors)[:count])


def _chains(rng, dim, rows):
    """``rows`` rows of shrinking dilation chains delta_(ratio^l)(p0),
    l = 0..count-1, before projection: each orthant seed once per link, and
    the factors ratio^l.  Each seed draws its direction, ratio and count in
    turn until the chains fill ``rows``; the last chain is cut short."""
    seeds, factors = [], []
    while len(factors) < rows:
        seed = _orthant_seed(rng, dim)
        # chain ratio: the escape margin of shrinking dilates only beats
        # the second-order terms once the ratio is fairly small
        ratio = 2.0 ** -rng.uniform(3.0, 9.0)
        chain = [ratio ** l for l in range(int(rng.integers(3, 9)))]
        seeds += [seed] * len(chain)
        factors += chain
    return np.array(seeds[:rows]), np.array(factors[:rows])


def _greedy_extend(d, centers, radii, cand, cand_r):
    """Greedily add candidates to the running family (float phase).

    A live candidate x of radius r_x conflicts with a ball (c, r) when
    d(c, x) <= max(r, r_x) (1 + guard), an ``exceeds_batch`` membership test
    that needs no distance values.  The live candidates start as those of
    positive radius that conflict with none of the family's balls, all
    tested in one call of k * m rows; then the first live candidate is kept
    and drops the live ones it conflicts with, one call per kept ball.  So
    a candidate is kept exactly when it passes the family and every
    candidate kept before it, and one call keeps what calls on its parts
    keep.  The float test only proposes: ``_repair`` decides both
    conditions of each kept ball exactly."""
    # a relative guard above MARGIN_EPSILON, so that few float balls fail the
    # exact or margin check of repair
    guard = 1e-6
    live = np.flatnonzero(cand_r > 0)
    if centers and len(live):
        k, m = len(centers), len(live)
        t = np.maximum(np.array(radii)[:, None], cand_r[live]) * (1.0 + guard)
        far = d.exceeds_batch(np.repeat(centers, m, axis=0), np.tile(cand[live], (k, 1)),
                              t.ravel())
        live = live[far.reshape(k, m).all(axis=0)]
    while len(live):
        c, r = cand[live[0]], cand_r[live[0]]
        centers.append(tuple(c))
        radii.append(float(r))
        live = live[1:]
        if len(live):
            far = d.exceeds_batch(np.broadcast_to(c, (len(live), len(c))), cand[live],
                                  np.maximum(r, cand_r[live]) * (1.0 + guard))
            live = live[far]


def _repair(d, centers, radii):
    """The family of a float snapshot, valid by construction: each proposed
    ball, in insertion order, is kept only if its conditions against the kept
    balls pass ``_slack``.  Exact mode rationalizes the center exactly and
    takes ``radius_for_center``; margin mode takes ``_margin_radius`` of the
    float radius."""
    exact = d.exact_capable
    witness = (Fraction(0) if exact else 0.0,) * d.group.dim
    fam = BesicovitchFamily((), (), witness, d)
    # exact mode converts each point once, for all of its comparisons
    convert = over_common_denominator if exact else tuple
    w = convert(witness)

    def holds(center, point, radius, inside):
        s, least = _slack(fam, center, point, radius, inside)
        return s >= least

    kept = []       # (center, its converted form, radius)
    for c, r in zip(centers, radii):
        if exact:
            c = to_fractions(c)
            try:
                r = radius_for_center(d, c)
            except ValueError:      # a center at the identity, or no radius found
                continue
        else:
            c, r = tuple(c), _margin_radius(r)
        x = convert(c)
        if holds(x, w, r, True) and all(
                holds(x2, x, r2, False) and holds(x, x2, r, False) for _, x2, r2 in kept):
            kept.append((c, x, r))
    return BesicovitchFamily(tuple(c for c, _, _ in kept), tuple(r for _, _, r in kept),
                             witness, d)


def search_family(d: QuasiDistance, budget: int, strategy: str = "random",
                  seed: int = 0) -> SearchResult:
    """Randomized search for large verified families, witness at the identity.

    The family is exact when ``d.exact_capable`` holds, and a margin family
    otherwise.  Deterministic for a fixed seed.  Each block of
    _RESTART_INTERVAL proposals is one ``_proposals`` call and one greedy
    pass; an annealed search restarts from an empty family after each
    block, so only random blocks after the first test a family.  The
    proposal stream and the restart schedule do not depend on the budget,
    and the best family is tracked as a running maximum over verified
    snapshots, so the returned cardinality is non-decreasing in the budget
    for a fixed seed.
    """
    if strategy not in ("random", "annealed"):
        raise ValueError("strategy must be 'random' or 'annealed'")
    if budget < 0:
        raise ValueError(f"budget must be at least 0, not {budget}")
    rng = np.random.default_rng(seed)
    centers, radii = [], []
    best = _repair(d, [], [])
    trace = []
    used = 0
    annealed = strategy == "annealed"
    while used < budget:
        take = min(_RESTART_INTERVAL, budget - used)
        used += take
        _greedy_extend(d, centers, radii, *_proposals(d, strategy, rng, take))
        # repair only shrinks a family, so a float cardinality that cannot
        # beat the best needs no exact pass
        if (annealed or used >= budget) and len(centers) > len(best):
            snap = _repair(d, centers, radii)
            if len(snap) > len(best):
                best = snap
                trace.append((used, len(best)))
        if annealed:
            centers, radii = [], []
    if not verify_family(best).valid:
        raise SearchError(f"the {len(best)}-ball family found fails verification")
    return SearchResult(family=best, cardinality=len(best), proposals_used=used,
                        trace=trace, strategy=strategy, seed=seed)


# ---------------------------------------------------------------------------
# dilation-orbit families
# ---------------------------------------------------------------------------

@dataclass
class OrbitResult:
    """A ``dilation_orbit_family`` answer: the family and its certificate
    once the orbit test passes, else the first j at which it fails."""
    ok: bool
    family: BesicovitchFamily | None
    first_failing_j: int | None
    certificate: Certificate | None = None

    def to_json(self):
        return {"ok": self.ok, "first_failing_j": self.first_failing_j,
                "family": self.family.to_json() if self.family else None,
                "certificate": self.certificate.to_json() if self.certificate else None}


def dilation_orbit_family(d: QuasiDistance, p, rho, k: int, count: int) -> OrbitResult:
    """Family of shrinking dilates q_l = delta_(r_l)(p), radii r_l = rho^(l k)
    for l = 0..count-1, with the identity e as witness.

    Works for any distance one-homogeneous under the dilations (so for every
    homogeneous distance and every ratio rho in (0,1)).  The orbit is exact
    only: p and rho are read as rationals (a float is a binary rational),
    and an orbit raises ``ExactnessError`` unless d is exact-capable and its
    dilates are rational, that is unless every dilation factor rho^(l k) has
    an exact power for every weight, which holds exactly when rho^k has.
    The orbit test asks d(p, q_j) > 1 for j = 1..count-1, decided exactly,
    and stops at the first j that fails; an orbit makes no float
    evaluation.  A family is emitted only when the test passes.

    The family is certified from 2 count - 1 conditions instead of the
    count^2 of ``verify_family``.  Proof: d is left-invariant (``compare``
    decides d(a, b) from a^-1 b) and one-homogeneous, and dilations are
    automorphisms, so d(delta_r a, delta_r b) = r d(a, b).  With
    q_i = delta_(r_j)(q_(i-j)) and r_i = r_j r_(i-j):

    * witness in ball l: d(q_l, e) = r_l d(p, e), so d(q_l, e) <= r_l
      exactly when d(p, e) <= 1;
    * center i outside ball j, i > j: d(q_j, q_i) = r_j d(p, q_(i-j)), so
      d(q_j, q_i) > r_j exactly when d(p, q_(i-j)) > 1, the orbit test;
    * center i outside ball j, i < j, m = j - i: d(q_j, q_i) = r_i d(q_m, p)
      and r_j = r_i r_m, so d(q_j, q_i) > r_j exactly when d(q_m, p) > r_m.

    Each family condition holds exactly when its reduced condition does, so
    a failed reduced condition is reported as the family conditions it
    stands for, in ``verify_family``'s order and wording, and the
    certificate equals ``verify_family``'s.  No symmetry of d is assumed:
    the i < j conditions are checked, not derived from the i > j ones.

    On an HS distance whose ``_sign`` is HS's own, two polynomials decide
    the orbit test and the backward condition for every j at once, and
    then the witness is the one comparison made.  Let q be the lcm of the
    weight denominators, e_i = q w_i, E = max e_i and s = r^(1/q), so that
    delta_r scales coordinate i by s^(e_i):

    * x(s) = p^-1 delta_r(p) and y(s) = delta_r(p)^-1 p are polynomials in
      s: the BCH product is polynomial in both factors, and a bracket of
      weights a and b lies in weight a + b, so coordinate i has degree at
      most e_i.  ``displacement`` of p and the dilate N_i s^(e_i) / D puts
      them over a denominator that does not depend on s.
    * With R = a / b and that denominator D', d(p, delta_r p) > 1 is
      |x|^2 > R^2, that is F(s) = b^2 sum_i X_i(s)^2 - a^2 D'^2 > 0 for the
      numerators X; and d(delta_r p, p) > r is sum_i y_i^2 r^(-2 w_i) > R^2,
      that is G(s) = b^2 sum_i Y_i(s)^2 s^(2 (E - e_i)) - a^2 D'^2 s^(2 E) > 0
      for s > 0.  Both are integer polynomials of degree at most 2E, and
      ``_ball_excess`` of x at rho = 1 and of y at rho = s^q, the ball
      expression of HS ``_sign``.  So F and G are read at the integer nodes
      s = 1 .. 2E + 1, interpolated, and checked at s = 2E + 2.
    * The dilates are at s = s_1^j for j >= 1, with s_1 = (rho^k)^(1/q):
      rational, since (rho^k)^w is rational for every weight w exactly when
      rho^k is a perfect q-th power.  So the orbit test at j is
      F(s_1^j) > 0 and the backward condition at m is G(s_1^m) > 0.
    * Every s_1^j lies in (0, s_1].  Once its roots at 0 are stripped, a
      polynomial with no root in (0, s_1], counted by a Sturm chain, keeps
      one sign there; positive at s_1, it is positive at every s_1^j.

    When both F and G pass, every count passes both conditions; anything
    else (a root in the interval, a sign that is not positive, another
    kind, or a subclass that overrides ``_sign``) takes the 2 count - 1
    comparisons, so the result is the same either way.
    ``orbit_every_count`` reports the polynomials and the first j at which
    each fails.
    """
    # compared in its own type: a rational ratio below the float range is
    # in (0, 1), and a NaN is not
    if not 0 < rho < 1:
        raise ValueError("ratio must lie in (0, 1)")
    if k < 1 or count < 2:
        raise ValueError("need k >= 1 and count >= 2")
    ratio, p0 = Fraction(rho), to_fractions(p)
    factors = _exact_factors(d, ratio, k)
    radii = [ratio ** (l * k) for l in range(count)]
    centers = [p0]
    for _ in range(1, count):
        # each dilate is the last one times (rho^k)^(w_i), coordinatewise
        centers.append(tuple(x * f for x, f in zip(centers[-1], factors)))
    # p0 converted once; the certificate of every count needs nothing else
    points = [over_common_denominator(p0)]
    every = _every_count(d, points[0], ratio ** k)
    if not every:
        # the strict orbit inequality decided exactly, up to its first
        # failure: its margin shrinks like the dilation factor and quickly
        # drops below float resolution, while the rational comparison stays
        # rigorous
        for j, qj in enumerate(_exact_dilates(points[0], factors, count), 1):
            points.append(qj)
            if d.compare(points[0], qj, Fraction(1)) <= 0:
                return OrbitResult(ok=False, family=None, first_failing_j=j)
    fam = BesicovitchFamily(tuple(centers), tuple(radii), (Fraction(0),) * d.group.dim, d)
    # the m = j - i whose backward condition d(q_m, p) > r_m fails
    failing = [] if every else [m for m in range(1, count)
                                if d.compare(points[m], points[0], radii[m]) <= 0]
    cert = _orbit_certificate(fam, points[0], failing)
    return OrbitResult(ok=cert.valid, family=fam, first_failing_j=None, certificate=cert)


def _exact_factors(d, rho, k):
    """The exact dilation factors (rho^k)^(w_i) of an orbit, one per
    coordinate, or ``ExactnessError`` when d is not exact-capable or a
    factor is irrational."""
    if not d.exact_capable:
        raise ExactnessError(f"an exact orbit needs an exact-capable distance, not {d.kind}")
    c = Fraction(rho) ** k
    factors = [rat_pow(c, w) for w in d.group.weights]
    if None in factors:
        w = d.group.weights[factors.index(None)]
        raise ExactnessError(f"an exact orbit needs every (rho^k)^w rational, and "
                             f"({fmt_scalar(c)})^({fmt_scalar(w)}) is not")
    return factors


def _exact_dilates(p, factors, count):
    """The ``ExactPoint``s of the dilates q_1 .. q_(count-1) of the
    ``ExactPoint`` p, born in integers: with the factors f_i = a_i / b_i and
    B = lcm(b_i), each one's numerators are the last one's times
    a_i (B / b_i), over the last denominator times B."""
    scale = math.lcm(*(f.denominator for f in factors))
    lift = [f.numerator * (scale // f.denominator) for f in factors]
    nums, den = p
    for _ in range(1, count):
        nums, den = [n * m for n, m in zip(nums, lift)], den * scale
        yield ExactPoint(nums, den)


def _sturm_applies(d):
    """The polynomials read HS ``_sign``'s ball expression, so they stand for
    ``d.compare`` on an HS distance whose ``_sign`` is not overridden."""
    return type(d)._sign is HSDistance._sign


def _orbit_scale(d, c):
    """q, the lcm of the weight denominators, and s_1 = c^(1/q) for the
    orbit ratio c = rho^k, rational when every (rho^k)^w is."""
    q = math.lcm(*(w.denominator for w in d.group.weights))
    return q, rat_pow(c, Fraction(1, q))


def _orbit_polynomials(d, p, q):
    """F, then G, of ``dilation_orbit_family`` for an HS distance d and the
    ``ExactPoint`` p, as integer polynomials in s (lowest degree first), each
    up to a positive factor.

    At an integer node t the dilate delta_(t^q)(p) has numerators N_i t^(q
    w_i) over p's denominator, and ``displacement`` gives x = p^-1 delta p
    and y = (delta p)^-1 p over a denominator that does not depend on t.
    F(t) is ``_ball_excess`` of x at rho = 1 and G(t) that of y at
    rho = t^q, with every weight's term kept, so that U = t^(2 q W) at every
    node.  Both have degree at most 2 q W: they are interpolated from
    2 q W + 1 nodes and checked at one more."""
    nums, den = p
    exps = [int(q * w) for w in d.group.weights]
    nodes = range(1, 2 * max(exps) + 3)
    dilates = [ExactPoint([n * t ** e for n, e in zip(nums, exps)], den) for t in nodes]
    # per weight of the ball expression, the power of t in u^(2w) at rho = t^q
    lifts = [2 * int(q * w) for w in sorted(set(d.group.weights))]

    def excess(a, b, powers):
        x, x_den = displacement(a, b, d.group)
        return d._ball_excess(list(zip(d._square_sums(x), powers)), x_den)

    yield interpolate([excess(p, pt, [1] * len(lifts)) for pt in dilates])
    yield interpolate([excess(pt, p, [t ** a for a in lifts]) for t, pt in zip(nodes, dilates)])


def _every_count(d, p, c):
    """Whether the orbit test and the backward condition of the orbit of the
    ``ExactPoint`` p with ratio c = rho^k hold at every j >= 1: F and G are
    positive on (0, s_1].  False when undecided, or when d is not an HS
    distance with its own ``_sign``."""
    if not _sturm_applies(d):
        return False
    q, s1 = _orbit_scale(d, c)
    return all(positive_on(P, s1) for P in _orbit_polynomials(d, p, q))


def orbit_every_count(d: QuasiDistance, p, rho, k: int) -> dict:
    """The conditions of ``dilation_orbit_family`` decided for every count
    at once, for an exact orbit on an HS distance, as JSON.

    For F and G of the orbit (see ``dilation_orbit_family``) it gives the
    coefficients, lowest degree first, the number of distinct roots in
    (0, s_1], and the least j >= 1 at which the polynomial is not positive
    at s_1^j, or None; and whether the witness lies in the unit ball about
    p.  A family of count n passes its certificate exactly when the witness
    is inside and no failing index is below n, so ``every_count`` says
    whether every count passes."""
    if not 0 < rho < 1 or k < 1:
        raise ValueError("need a ratio in (0, 1) and k >= 1")
    _exact_factors(d, rho, k)
    if not _sturm_applies(d):
        raise ValueError("every-count verdicts need an exact orbit on an HS distance")
    p0 = over_common_denominator(to_fractions(p))
    q, s1 = _orbit_scale(d, Fraction(rho) ** k)
    inside = d.compare(p0, over_common_denominator(d.identity()), Fraction(1)) <= 0
    report = {"s1": fmt_scalar(s1), "witness_inside": inside}
    every = inside
    for name, poly in zip(("orbit_test", "backward"), _orbit_polynomials(d, p0, q)):
        fail = first_nonpositive_power(poly, s1)
        every = every and fail is None
        report[name] = {"coefficients": [fmt_scalar(c) for c in poly],
                        "roots_in_interval": root_count(poly, s1), "first_failing_j": fail}
    report["every_count"] = every
    return report


def _orbit_certificate(fam, p, failing):
    """``verify_family(fam)`` for an exact orbit family whose orbit test
    passed, from the witness condition and the i < j reductions of
    ``dilation_orbit_family``: p is the ``ExactPoint`` of its first center,
    and ``failing`` the m whose backward condition d(q_m, p) > r_m fails."""
    d, n = fam.distance, len(fam)
    outside = d.compare(p, over_common_denominator(fam.witness), Fraction(1)) > 0
    violations = [_violation(l, None) for l in range(n) if outside]
    violations += [_violation(i, i + m) for i in range(n) for m in failing if i + m < n]
    return Certificate(valid=not violations, cardinality=n, mode=EXACT,
                       violations=violations)


# ---------------------------------------------------------------------------
# segment witnesses against the weak covering property
# ---------------------------------------------------------------------------

def _require_nonstandard_h1(d: QuasiDistance):
    w = d.group.weights
    if len(w) != 3 or not (w[0] == 1 and w[1] > 1 and w[2] == w[1] + 1):
        raise ValueError(
            "segment witnesses are only meaningful on the first Heisenberg group "
            "with a non-standard grading (weights 1, a, a+1 with a > 1); "
            f"got weights {tuple(str(x) for x in w)}")
    br = d.group.algebra.bracket.get((0, 1))
    if not br or dict(br).get(2, 0) == 0:
        raise ValueError("group does not have the Heisenberg bracket [X, Y] = Z")


@dataclass
class SegmentWitness:
    point: tuple        # boundary point p (exact rationals)
    t: Fraction         # segment parameter with the exterior point
    margin: Fraction    # exact excess of the squared gauge over R^2
    mirrored: bool

    def to_json(self):
        return {"point": [fmt_scalar(x) for x in self.point],
                "t": fmt_scalar(self.t), "margin": fmt_scalar(self.margin),
                "mirrored": self.mirrored}


def segment_witness_nonbcp(d, samples: int = 512, t_grid: int = 16, seed: int = 0):
    """Exact-arithmetic witness that the weak covering property fails.

    On the non-standard Heisenberg group, validity of the weak covering
    property would force, for every unit-sphere point p with x_p != 0, the
    whole segment ((1-t) x_p, y_p, z_p + t x_p y_p / 2), t in [0,1], to stay in
    the closed unit ball (and its mirror with -t x_p y_p / 2 likewise).  A
    rational segment point certified outside the ball therefore witnesses
    failure.  Requires an exact-capable distance with closed Euclidean unit
    ball; returns the first witness found, or None within the sample budget.
    """
    _require_nonstandard_h1(d)
    from .certificates import rational_sphere_points
    R = getattr(d, "R", None)
    if R is None:
        raise ValueError("segment witnesses need a Euclidean-unit-ball distance")
    rng = np.random.default_rng(seed)
    pts = rational_sphere_points(3, R, samples, rng)
    ts = [Fraction(j, t_grid) for j in range(1, t_grid + 1)]
    for p in pts:
        x, y, z = p
        if x == 0:
            continue
        for mirrored in (False, True):
            sgn = Fraction(-1) if mirrored else Fraction(1)
            for t in ts:
                pt = ((1 - t) * x, y, z + sgn * t * x * y / 2)
                if d.compare_from_identity(pt, Fraction(1)) > 0:
                    margin = sum(Fraction(v) ** 2 for v in pt) - R * R
                    return SegmentWitness(point=(x, y, z), t=t, margin=margin,
                                          mirrored=mirrored)
    return None


# ---------------------------------------------------------------------------
# constructive greedy cover
# ---------------------------------------------------------------------------

@dataclass
class CoverReport:
    selected: list            # indices into the input, in selection order
    blocks: list              # dicts: {"bound": M_j, "indices": [...]}
    multiplicity: int
    covered: bool
    quarter_disjoint: bool
    block_bounds_halve: bool

    def to_json(self):
        return {"selected": self.selected, "blocks": self.blocks,
                "multiplicity": self.multiplicity, "covered": self.covered,
                "quarter_disjoint": self.quarter_disjoint,
                "block_bounds_halve": self.block_bounds_halve}


def greedy_cover(points, radii, d: QuasiDistance) -> CoverReport:
    """Block-greedy subcover of a finite family of balls centered at the input.

    Repeatedly selects, among points not yet covered by chosen balls, one of
    maximal radius within the current half-band [M_j / 2, M_j] (ties broken by
    smallest input index), until the band empties; then the band halves.
    Guarantees: all inputs covered, block bounds satisfy M_{j+1} <= M_j / 2,
    every selected center lies outside previously selected balls, and the
    quarter-radius balls around selected centers are pairwise disjoint.
    """
    pts = np.asarray([[float(x) for x in p] for p in points], dtype=float)
    rr = np.asarray([float(r) for r in radii], dtype=float)
    n = len(pts)
    if len(rr) != n:
        raise ValueError("points and radii length mismatch")
    # a NaN radius is never eligible and a negative one covers nothing, so
    # either would leave a point uncovered forever
    if not np.all(np.isfinite(rr) & (rr >= 0)):
        raise ValueError("cover radii must be finite and non-negative")
    if n == 0:
        return CoverReport([], [], 0, True, True, True)
    uncovered = np.ones(n, dtype=bool)
    # multiplicity: how many selected balls contain each input point
    counts = np.zeros(n, dtype=int)
    selected = []
    blocks = []
    while uncovered.any():
        M = float(rr[uncovered].max())
        block = []
        while True:
            elig = uncovered & (rr >= M / 2.0)
            if not elig.any():
                break
            cand = np.flatnonzero(elig)
            i = int(cand[np.argmax(rr[cand])])  # argmax returns first max: smallest index
            selected.append(i)
            block.append(i)
            center = np.repeat(pts[i][None, :], n, axis=0)
            dist = d.value_batch(center, pts)
            uncovered &= dist > rr[i]
            counts += dist <= rr[i]
        blocks.append({"bound": M, "indices": block})
    covered = bool((counts >= 1).all())
    quarter = True
    for a in range(len(selected)):
        for b in range(a + 1, len(selected)):
            i, j = selected[a], selected[b]
            if d.value(tuple(pts[i]), tuple(pts[j])) <= rr[i] / 4.0 + rr[j] / 4.0:
                quarter = False
    halve = all(blocks[k + 1]["bound"] <= blocks[k]["bound"] / 2.0
                for k in range(len(blocks) - 1))
    return CoverReport(selected=selected, blocks=blocks,
                       multiplicity=int(counts.max()) if n else 0,
                       covered=covered, quarter_disjoint=quarter,
                       block_bounds_halve=halve)


# ---------------------------------------------------------------------------
# the countable WBCP-but-not-BCP space
# ---------------------------------------------------------------------------

@dataclass
class FiniteMetricSpace:
    table: tuple              # tuple of tuples of Fractions

    def validate(self) -> list:
        """Symmetry, identity, triangle; exact, O(n^3). For small spaces."""
        issues = []
        n = len(self.table)
        for i in range(n):
            if self.table[i][i] != 0:
                issues.append({"kind": "identity", "i": i})
            for j in range(i + 1, n):
                if self.table[i][j] != self.table[j][i]:
                    issues.append({"kind": "symmetry", "pair": [i, j]})
                if self.table[i][j] <= 0:
                    issues.append({"kind": "positivity", "pair": [i, j]})
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[i][j] > self.table[i][k] + self.table[k][j]:
                        issues.append({"kind": "triangle", "triple": [i, j, k]})
        return issues


def _countable_distance(i, j):
    """d(x_i, x_j) = 1 - 1/max(i, j), and 0 for i = j, on broadcast arrays of
    1-based int64 indices: the numerator and denominator arrays.  The one
    source of the space's distances, for its table and its audits."""
    m = np.maximum(i, j)
    same = i == j
    return np.where(same, 0, m - 1), np.where(same, 1, m)


def _row_chunks(n, cols):
    """1-based index ranges over the rows of an n-row table whose rows hold
    ``cols`` entries, sized so one chunk holds about 4M entries."""
    step = max(1, 4_000_000 // max(cols, 1))
    for start in range(1, n + 1, step):
        yield np.arange(start, min(start + step, n + 1), dtype=np.int64)


def countable_space(n: int) -> FiniteMetricSpace:
    """First n points of the space with d(x_i, x_j) = 1 - 1/max(i, j), 1-based."""
    if n < 2:
        raise ValueError("need at least two points")
    idx = np.arange(1, n + 1, dtype=np.int64)
    num, den = _countable_distance(idx[:, None], idx[None, :])
    table = tuple(tuple(Fraction(int(a), int(b)) for a, b in zip(rn, rd))
                  for rn, rd in zip(num, den))
    return FiniteMetricSpace(table=table)


def countable_space_triangle_audit(n: int) -> bool:
    """Exact triangle inequality d(x_i, x_j) <= d(x_i, x_k) + d(x_k, x_j) for
    all triples i, j, k <= n.

    Reads every distance from ``_countable_distance``: with d = num/den the
    inequality is n_ij d_ik d_kj <= (n_ik d_kj + n_kj d_ik) d_ij, decided in
    int64 (the denominators are at most n), chunked over the first index.
    """
    J = np.arange(1, n + 1, dtype=np.int64)[None, :, None]
    K = J.reshape(1, 1, n)
    for rows in _row_chunks(n, n * n):
        I = rows[:, None, None]
        n_ij, d_ij = _countable_distance(I, J)
        n_ik, d_ik = _countable_distance(I, K)
        n_kj, d_kj = _countable_distance(K, J)
        if not np.all(n_ij * d_ik * d_kj <= (n_ik * d_kj + n_kj * d_ik) * d_ij):
            return False
    return True


def countable_space_ball_audit(max_i: int) -> bool:
    """Exact check that B(x_i, r_i) = {x_1, ..., x_i} with r_i = 1 - 1/i in
    the space of the first max_i points, for every i.

    Reads every distance of the table from ``_countable_distance``: x_j is in
    the ball exactly when num/den <= (i - 1)/i, i.e. num * i <= (i - 1) * den
    in int64, and that must hold exactly for j <= i.  Chunked over the rows.
    """
    idx = np.arange(1, max_i + 1, dtype=np.int64)
    J = idx[None, :]
    for rows in _row_chunks(max_i, max_i):
        I = rows[:, None]
        num, den = _countable_distance(I, J)
        if not np.array_equal(num * I <= (I - 1) * den, J <= I):
            return False
    return True


def countable_space_two_ball_audit(n: int = 200, grid: int = 64) -> dict:
    """Exhaustive exact confirmation that no 2-ball Besicovitch family exists.

    For every ball index i <= n and every radius rho_i < r_i on a rational
    grid, the exclusion conditions force B(x_i, rho_i) = {x_i} (every other
    point sits at distance >= r_i > rho_i), so two such balls can never share
    a witness.  The audit checks that singleton property exactly for every
    (i, rho) pair against every distance from x_i that ``_countable_distance``
    gives: with rho = (i - 1) g / (i (grid + 1)), d = num/den > rho is
    num * i * (grid + 1) > (i - 1) * g * den in int64.  It reports the counts,
    or the first failing pair.
    """
    if grid < 1:
        # an empty grid checks no radius, so its "ok" would prove nothing
        raise ValueError(f"grid must be at least 1, not {grid}")
    idx = np.arange(1, n + 1, dtype=np.int64)
    g = np.arange(1, grid + 1, dtype=np.int64)[None, None, :]
    pairs_checked = 0
    for rows in _row_chunks(n, n * grid):
        rows = rows[rows >= 2]
        I = rows[:, None]
        num, den = _countable_distance(I, idx[None, :])
        I, num, den = I[:, :, None], num[:, :, None], den[:, :, None]
        outside = num * I * (grid + 1) > (I - 1) * g * den
        bad = ~(outside | (idx[None, :, None] == I)).all(axis=1)
        if bad.any():
            a, b = np.argwhere(bad)[0]
            i = int(rows[a])
            return {"ok": False, "i": i,
                    "rho": str((1 - Fraction(1, i)) * Fraction(int(b) + 1, grid + 1))}
        pairs_checked += len(rows) * grid
    # singleton balls pairwise disjoint for i != j, hence no common witness
    return {"ok": True, "radius_choices_checked": pairs_checked,
            "pairs_covered": n * (n - 1) // 2, "grid": grid}
