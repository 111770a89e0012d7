"""Besicovitch-ball certificates: production, search, and rigorous verification.

A family of balls with a common witness point, none of whose centers lies in
another ball, bounds the weak-covering constant of the space from below.  One
check, ``_slack``, decides each condition in exact rational arithmetic (a
rigorous certificate) or in float with an explicit margin; it decides both
which balls a search keeps and whether ``verify_family`` accepts a family.
Searches propose centers with the witness pinned at the identity and radii
set to the distance of the center from the identity, rationalized minimally
upward in exact mode so witness containment is exact.  The distance decides
the mode: a search is exact when ``d.exact_capable`` holds and margin
otherwise, and a dilation orbit is exact when in addition the point, the
ratio and the dilates are rational; the family's ``mode`` records which.

Also here: the constructive block-greedy cover with its per-block radius
bounds and quarter-radius disjointness, and the countable metric space with
d(x_i, x_j) = 1 - 1/max(i, j) on which every Besicovitch family is a single
ball while no bounded-multiplicity subcover exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import dilate, dilate_batch
from .metrics import ExactnessError, QuasiDistance, default_sampler
from .scalars import all_exact, fmt_scalar, is_exact, rat_pow, to_fractions

EXACT = "exact"
# the least slack of every margin-mode condition, far above the 1e-10 ..
# 1e-13 tolerances of the float solvers; a family file may carry its own
MARGIN_EPSILON = 1e-7


class SearchError(RuntimeError):
    """A search produced a family that its own verification rejects."""


# ---------------------------------------------------------------------------
# families and certificates
# ---------------------------------------------------------------------------

@dataclass
class BesicovitchFamily:
    """Centers, radii, and a claimed common witness point."""

    centers: tuple
    radii: tuple
    witness: tuple
    distance: QuasiDistance
    mode: str = EXACT          # "exact" or "margin"
    epsilon: float = MARGIN_EPSILON    # slack for margin mode

    def __post_init__(self):
        # any other mode string would be certified as margin mode
        if self.mode not in (EXACT, "margin"):
            raise ValueError(f"mode must be 'exact' or 'margin', not {self.mode!r}")
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
        if self.mode != EXACT and not (_finite(self.epsilon) and self.epsilon > 0):
            raise ValueError("margin-mode epsilon must be positive and finite")

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
            "epsilon": self.epsilon,
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
    float value and needs epsilon either way."""
    if family.mode == EXACT:
        sign = family.distance.compare(center, point, radius)
        return (-sign, 0) if inside else (sign, 1)
    dist = family.distance.value(center, point)
    slack = float(radius) - dist if inside else dist - float(radius)
    return slack, family.epsilon


def verify_family(family: BesicovitchFamily) -> Certificate:
    """Check the two defining conditions of a Besicovitch family.

    Exact mode decides every comparison with the distance's exact rational
    trichotomy; any point where that is unavailable is itself a violation.
    Margin mode requires each comparison to hold with slack >= epsilon.
    """
    n = len(family)
    exact = family.mode == EXACT
    conditions = [(i, None) for i in range(n)]
    conditions += [(i, j) for i in range(n) for j in range(n) if i != j]
    violations, slacks = [], []
    for i, j in conditions:
        inside = j is None
        ball = i if inside else j
        point = family.witness if inside else family.centers[i]
        where = {"ball": i} if inside else {"pair": [i, j]}
        try:
            s, least = _slack(family, family.centers[ball], point,
                              family.radii[ball], inside)
        except ExactnessError as exc:
            violations.append({"kind": "exactness", **where, "detail": str(exc)})
            continue
        slacks.append(s)
        if s < least:
            if exact:
                detail = "witness outside ball" if inside else f"center {i} inside ball {j}"
            else:
                detail = f"{'witness' if inside else 'exclusion'} slack {s} < {least}"
            violations.append({"kind": "witness" if inside else "center_in_ball",
                               **where, "detail": detail})
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

    def ok(r):
        return d.compare(center, e, r) <= 0

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


# proposals per batch, the range of their log-uniform dilation shells, and
# the annealed search's restart period in proposals
_BATCH = 256
_SHELL = (0.02, 1.0)
_RESTART_INTERVAL = 4096


def _proposal_batches(d: QuasiDistance, strategy, rng):
    """Endless stream of (_BATCH, n) arrays; a pure function of the rng state."""
    group = d.group
    n = group.dim
    base = default_sampler(d, shell=_SHELL)
    n_shell = _BATCH - _BATCH // 4 - _BATCH // 4
    n_chain = _BATCH // 4
    n_orth = _BATCH // 4
    while True:
        if strategy == "random":
            yield base(rng, _BATCH)
            continue
        # annealed: shells + dilation-orbit chains + orthant-restricted shells
        parts = [base(rng, n_shell)]
        starts, factors = [], []
        while len(factors) < n_chain:
            seed_dir = _orthant_seed(rng, n)
            lam = d.value_from_identity(tuple(seed_dir))
            if lam <= 0 or not math.isfinite(lam):
                continue
            p0 = dilate(tuple(seed_dir), 1.0 / lam, group)
            # chain ratio: the escape margin of shrinking dilates only beats
            # the second-order terms once the ratio is fairly small
            base_exp = rng.uniform(3.0, 9.0)
            ratio = 2.0 ** -base_exp
            count = int(rng.integers(3, 9))
            starts.extend([p0] * count)
            factors.extend(ratio ** l for l in range(count))
        parts.append(dilate_batch(starts[:n_chain], factors[:n_chain], group))
        orth = rng.standard_normal((n_orth, n))
        if n == 3:
            orth[:, 0] = 0.15 * np.abs(orth[:, 0])
            orth[:, 1] = -np.abs(orth[:, 1])
            orth[:, 2] = -np.abs(orth[:, 2])
        lam = d.value_from_identity_batch(orth)
        lam[lam == 0] = 1.0
        orth = dilate_batch(orth, 1.0 / lam, group)
        shells = np.exp(rng.uniform(math.log(_SHELL[0]), math.log(_SHELL[1]),
                                    size=len(orth)))
        parts.append(dilate_batch(orth, shells, group))
        yield np.concatenate([p for p in parts if len(p)], axis=0)[:_BATCH]


def _greedy_extend(d, centers, radii, cand, cand_r):
    """Greedily add candidates to the running family (float phase).

    One conflict filter for every ball: the live candidates start as those
    of positive radius, and each ball, first the family's in order, then
    each candidate as it is kept, drops every live x with
    d(c, x) <= max(r, r_x) (1 + guard) in one ``exceeds_batch`` call, a ball
    membership test that needs no distance values.  The first live candidate
    is kept next, so a candidate is kept exactly when it passes the family
    and every candidate kept before it.  The float test only proposes:
    ``_repair`` decides both conditions of each kept ball exactly."""
    # a relative guard above MARGIN_EPSILON, so that few float balls fail the
    # exact or margin check of repair
    guard = 1e-6
    live = np.flatnonzero(cand_r > 0)
    i = 0
    while len(live):
        if i == len(centers):
            centers.append(tuple(cand[live[0]]))
            radii.append(float(cand_r[live[0]]))
            live = live[1:]
            continue
        x = cand[live]
        far = d.exceeds_batch(np.broadcast_to(centers[i], x.shape), x,
                              np.maximum(radii[i], cand_r[live]) * (1.0 + guard))
        live = live[far]
        i += 1


def _repair(d, centers, radii):
    """The family of a float snapshot, valid by construction: each proposed
    ball, in insertion order, is kept only if its conditions against the kept
    balls pass ``_slack``.  Exact mode, on an exact-capable distance,
    rationalizes the center exactly and takes ``radius_for_center``; margin
    mode inflates the float radius by 2 * MARGIN_EPSILON."""
    exact = d.exact_capable
    witness = (Fraction(0) if exact else 0.0,) * d.group.dim
    fam = BesicovitchFamily((), (), witness, d, mode=EXACT if exact else "margin")

    def holds(center, point, radius, inside):
        s, least = _slack(fam, center, point, radius, inside)
        return s >= least

    kept = []
    for c, r in zip(centers, radii):
        if exact:
            c = to_fractions(c)
            try:
                r = radius_for_center(d, c)
            except ValueError:      # a center at the identity, or no radius found
                continue
        else:
            c, r = tuple(c), float(r) + 2.0 * MARGIN_EPSILON
        if holds(c, witness, r, True) and all(
                holds(c2, c, r2, False) and holds(c, c2, r, False) for c2, r2 in kept):
            kept.append((c, r))
    return BesicovitchFamily(tuple(c for c, _ in kept), tuple(r for _, r in kept),
                             witness, d, mode=fam.mode)


def search_family(d: QuasiDistance, budget: int, strategy: str = "random",
                  seed: int = 0) -> SearchResult:
    """Randomized search for large verified families, witness at the identity.

    The family is exact when ``d.exact_capable`` holds, and a margin family
    otherwise.  Deterministic for a fixed seed.  The proposal stream and the
    restart schedule do not depend on the budget, and the best family is
    tracked as a running maximum over verified snapshots, so the returned
    cardinality is non-decreasing in the budget for a fixed seed.
    """
    if strategy not in ("random", "annealed"):
        raise ValueError("strategy must be 'random' or 'annealed'")
    rng = np.random.default_rng(seed)
    stream = _proposal_batches(d, strategy, rng)
    centers, radii = [], []
    best = _repair(d, [], [])
    trace = []
    used = 0
    since_restart = 0
    while used < budget:
        cand = next(stream)
        take = min(len(cand), budget - used)
        cand = np.asarray(cand[:take], dtype=float)
        used += take
        since_restart += take
        cand_r = d.value_from_identity_batch(cand)
        _greedy_extend(d, centers, radii, cand, cand_r)
        restart = strategy == "annealed" and since_restart >= _RESTART_INTERVAL
        # repair only shrinks a family, so a float cardinality that cannot
        # beat the best needs no exact pass
        if (restart or used >= budget) and len(centers) > len(best):
            snap = _repair(d, centers, radii)
            if len(snap) > len(best):
                best = snap
                trace.append((used, len(best)))
        if restart:
            centers, radii = [], []
            since_restart = 0
    if not verify_family(best).valid:
        raise SearchError(f"the {len(best)}-ball family found fails verification")
    return SearchResult(family=best, cardinality=len(best), proposals_used=used,
                        trace=trace, strategy=strategy, seed=seed)


def merge_search_results(results) -> SearchResult:
    """Deterministic merge across workers: best cardinality, ties broken by
    the lexicographically smallest serialized center list."""
    def key(res):
        return (-res.cardinality, str(res.family.to_json()["centers"]))
    return sorted(results, key=key)[0]


# ---------------------------------------------------------------------------
# dilation-orbit families
# ---------------------------------------------------------------------------

@dataclass
class OrbitResult:
    ok: bool
    family: BesicovitchFamily | None
    first_failing_j: int | None
    margins: list
    certificate: Certificate | None = None

    def to_json(self):
        return {"ok": self.ok, "first_failing_j": self.first_failing_j,
                "margins": self.margins,
                "family": self.family.to_json() if self.family else None,
                "certificate": self.certificate.to_json() if self.certificate else None}


def dilation_orbit_family(d: QuasiDistance, p, rho, k: int, count: int) -> OrbitResult:
    """Family of shrinking dilates q_l = delta_(r_l)(p), radii r_l = rho^(l k)
    for l = 0..count-1, with the identity e as witness.

    Works for any distance one-homogeneous under the dilations (so for every
    homogeneous distance and every ratio rho in (0,1)).  The orbit test asks
    d(p, q_j) > 1 for j = 1..count-1, exactly in exact mode; ``margins`` holds
    d(p, q_j) - 1 in float.  A family is emitted only when the test passes.
    The inputs decide the mode, which the family records: exact for an
    exact-capable distance, rational p and rho, and rational dilates, that
    is when every dilation factor rho^(l k) has an exact power for every
    weight, which holds exactly when rho^k has; margin otherwise.

    An exact family is certified from 2 count - 1 conditions instead of the
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
    Margin families are verified in full: their slack ``MARGIN_EPSILON`` is
    absolute and does not scale with the radii.
    """
    if not (0 < float(rho) < 1):
        raise ValueError("ratio must lie in (0, 1)")
    if k < 1 or count < 2:
        raise ValueError("need k >= 1 and count >= 2")
    exact = (d.exact_capable and all_exact(p) and is_exact(rho)
             and all(rat_pow(Fraction(rho) ** k, w) is not None for w in d.group.weights))
    if not exact and float(rho) ** ((count - 1) * k) == 0.0:
        raise ValueError(f"count={count}: the smallest radius rho^((count-1) k) "
                         "underflows to 0.0 in float; rational p and rho give exact mode")
    if exact:
        ratio, p0 = Fraction(rho), to_fractions(p)
    else:
        ratio, p0 = float(rho), tuple(map(float, p))
    pf = tuple(map(float, p0))
    radii = [ratio ** (l * k) for l in range(count)]
    centers = [p0]
    margins = []
    first_fail = None
    for j in range(1, count):
        qj = dilate(p0, radii[j], d.group)
        centers.append(qj)
        # the float margin of an exact dilate is its own rounding, so no
        # float power of rho can underflow to a zero dilation factor
        m = d.value(pf, tuple(map(float, qj))) - 1.0
        margins.append(m)
        # the strict orbit inequality is decided exactly when possible: its
        # margin shrinks like the dilation factor and quickly drops below
        # float resolution, while the rational comparison stays rigorous
        passed = m > 0
        # only the first failure reaches the result
        if exact and first_fail is None:
            passed = d.compare(p0, qj, Fraction(1)) > 0
        if not passed and first_fail is None:
            first_fail = j
    if first_fail is not None:
        return OrbitResult(ok=False, family=None, first_failing_j=first_fail,
                           margins=margins)
    if not exact:
        radii = [r * (1.0 + 2 * MARGIN_EPSILON) for r in radii]
    witness = (ratio * 0,) * d.group.dim      # the identity, in the ratio's type
    fam = BesicovitchFamily(tuple(centers), tuple(radii), witness, d,
                            mode=EXACT if exact else "margin")
    cert = _orbit_certificate(fam) if exact else verify_family(fam)
    return OrbitResult(ok=cert.valid, family=fam, first_failing_j=None,
                       margins=margins, certificate=cert)


def _orbit_certificate(fam):
    """``verify_family(fam)`` for an exact orbit family whose orbit test
    passed, from the witness condition and the i < j reductions of
    ``dilation_orbit_family``."""
    d, n, p = fam.distance, len(fam), fam.centers[0]
    outside = d.compare(p, fam.witness, Fraction(1)) > 0
    # the m = j - i whose backward condition d(q_m, p) > r_m fails
    failing = [m for m in range(1, n) if d.compare(fam.centers[m], p, fam.radii[m]) <= 0]
    violations = [{"kind": "witness", "ball": l, "detail": "witness outside ball"}
                  for l in range(n) if outside]
    violations += [{"kind": "center_in_ball", "pair": [i, i + m],
                    "detail": f"center {i} inside ball {i + m}"}
                   for i in range(n) for m in failing if i + m < n]
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
    labels: list
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

    def ball(self, i: int, rho) -> list:
        rho = Fraction(rho)
        return [j for j in range(len(self.table)) if self.table[i][j] <= rho]


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
    return FiniteMetricSpace(labels=[f"x{i}" for i in range(1, n + 1)], table=table)


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
