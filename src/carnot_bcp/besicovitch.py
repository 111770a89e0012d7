"""Besicovitch-ball certificates: production, search, and rigorous verification.

A family of balls with a common witness point, none of whose centers lies in
another ball, bounds the weak-covering constant of the space from below.  The
verifier decides every comparison either in exact rational arithmetic (a
rigorous certificate) or in float with an explicit margin.  Searches propose
centers with the witness pinned at the identity and radii set to the distance
of the center from the identity, rationalized minimally upward in exact mode
so witness containment is exact.

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
from .metrics import ExactnessError, FiniteSpaceDistance, QuasiDistance, default_sampler
from .scalars import all_exact, fmt_scalar, to_fractions

EXACT = "exact"


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
    epsilon: float = 1e-7      # slack for margin mode

    def __post_init__(self):
        self.centers = tuple(tuple(c) if not isinstance(c, (int, np.integer)) else int(c)
                             for c in self.centers)
        self.radii = tuple(self.radii)
        if len(self.centers) != len(self.radii):
            raise ValueError("centers and radii length mismatch")
        if any(float(r) <= 0 for r in self.radii):
            raise ValueError("radii must be positive")

    def __len__(self):
        return len(self.centers)

    def to_json(self):
        def fmt_point(p):
            if isinstance(p, int):
                return p
            return [fmt_scalar(x) for x in p]
        return {
            "centers": [fmt_point(c) for c in self.centers],
            "radii": [fmt_scalar(r) for r in self.radii],
            "witness": fmt_point(self.witness),
            "mode": self.mode,
            "epsilon": self.epsilon,
        }


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


def verify_family(family: BesicovitchFamily) -> Certificate:
    """Check the two defining conditions of a Besicovitch family.

    Exact mode decides every comparison with the distance's exact rational
    trichotomy; any point where that is unavailable is itself a violation.
    Margin mode requires each comparison to hold with slack >= epsilon.
    """
    d = family.distance
    n = len(family)
    violations = []
    if family.mode == EXACT:
        for i, (c, r) in enumerate(zip(family.centers, family.radii)):
            try:
                if d.compare(c, family.witness, r) > 0:
                    violations.append({"kind": "witness", "ball": i,
                                       "detail": "witness outside ball"})
            except ExactnessError as exc:
                violations.append({"kind": "exactness", "ball": i, "detail": str(exc)})
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                try:
                    # center i must lie strictly outside ball j
                    if d.compare(family.centers[j], family.centers[i],
                                 family.radii[j]) <= 0:
                        violations.append({"kind": "center_in_ball",
                                           "pair": [i, j],
                                           "detail": f"center {i} inside ball {j}"})
                except ExactnessError as exc:
                    violations.append({"kind": "exactness", "pair": [i, j],
                                       "detail": str(exc)})
        return Certificate(valid=not violations, cardinality=n, mode=EXACT,
                           violations=violations)
    eps = family.epsilon
    slacks = []
    for i, (c, r) in enumerate(zip(family.centers, family.radii)):
        s = float(r) - d.value(c, family.witness)
        slacks.append(s)
        if s < eps:
            violations.append({"kind": "witness", "ball": i,
                               "detail": f"witness slack {s} < {eps}"})
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            s = d.value(family.centers[j], family.centers[i]) - float(family.radii[j])
            slacks.append(s)
            if s < eps:
                violations.append({"kind": "center_in_ball", "pair": [i, j],
                                   "detail": f"exclusion slack {s} < {eps}"})
    return Certificate(valid=not violations, cardinality=n, mode="margin",
                       violations=violations,
                       min_slack=min(slacks) if slacks else None)


# ---------------------------------------------------------------------------
# exact radius convention
# ---------------------------------------------------------------------------

def radius_for_center(d: QuasiDistance, center, exact=True, epsilon=1e-7):
    """Radius paired with a proposed center so the identity is inside the ball.

    Exact mode: the float distance from the identity, bumped upward by
    geometrically growing relative increments (starting at 2^-50) until the
    exact membership test accepts; the result is an exact dyadic-denominator
    rational barely above the true distance, at every scale.  Margin mode:
    the float distance inflated by 2 * epsilon.
    """
    e = d.identity()
    val = d.value(e, center)
    if not exact:
        return val + 2.0 * epsilon
    if not all_exact(center):
        raise ExactnessError("exact radius needs rational center coordinates")
    if val <= 0:
        raise ValueError("center coincides with the identity")

    def ok(r):
        try:
            return d.compare(center, e, r) <= 0
        except ExactnessError:
            return False

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


def _proposal_batches(d: QuasiDistance, strategy, rng, batch, shell):
    """Endless stream of (batch, n) arrays; a pure function of the rng state."""
    group = d.group
    n = group.dim
    base = default_sampler(d, shell=shell)
    n_shell = batch - batch // 4 - batch // 4
    n_chain = batch // 4
    n_orth = batch // 4
    while True:
        if strategy == "random":
            yield base(rng, batch)
            continue
        # annealed: shells + dilation-orbit chains + orthant-restricted shells
        parts = [base(rng, n_shell)]
        chain_rows = []
        while len(chain_rows) < n_chain:
            seed_dir = _orthant_seed(rng, n)
            lam = d.value_from_identity(tuple(seed_dir))
            if lam <= 0 or not math.isfinite(lam):
                continue
            p0 = dilate(tuple(seed_dir), 1.0 / lam, group, exact=False)
            # chain ratio: the escape margin of shrinking dilates only beats
            # the second-order terms once the ratio is fairly small
            base_exp = rng.uniform(3.0, 9.0)
            ratio = 2.0 ** -base_exp
            count = int(rng.integers(3, 9))
            chain_rows.extend(dilate(p0, ratio ** l, group, exact=False)
                              for l in range(count))
        parts.append(np.array(chain_rows[:n_chain]))
        orth = rng.standard_normal((n_orth, n))
        if n == 3:
            orth[:, 0] = 0.15 * np.abs(orth[:, 0])
            orth[:, 1] = -np.abs(orth[:, 1])
            orth[:, 2] = -np.abs(orth[:, 2])
        lam = d.value_from_identity_batch(orth)
        lam[lam == 0] = 1.0
        orth = dilate_batch(orth, 1.0 / lam, group)
        shells = np.exp(rng.uniform(math.log(shell[0]), math.log(shell[1]),
                                    size=len(orth)))
        parts.append(dilate_batch(orth, shells, group))
        yield np.concatenate([p for p in parts if len(p)], axis=0)[:batch]


def _greedy_extend(d, centers, radii, cand, cand_r, guard):
    """Greedily add feasible candidates to the running family (float phase)."""
    m = len(cand)
    feasible = np.ones(m, dtype=bool)
    feasible &= cand_r > 0
    if centers:
        F = len(centers)
        P = np.repeat(np.asarray(centers, dtype=float), m, axis=0)
        Q = np.tile(cand, (F, 1))
        Dm = d.value_batch(P, Q).reshape(F, m)
        thresh = np.maximum(np.asarray(radii, dtype=float)[:, None],
                            cand_r[None, :]) * (1.0 + guard)
        feasible &= np.all(Dm > thresh, axis=0)
    idx = np.flatnonzero(feasible)
    if len(idx) == 0:
        return
    sub = cand[idx]
    subr = cand_r[idx]
    if len(idx) > 1:
        P = np.repeat(sub, len(idx), axis=0)
        Q = np.tile(sub, (len(idx), 1))
        M = d.value_batch(P, Q).reshape(len(idx), len(idx))
    else:
        M = np.zeros((1, 1))
    kept = []
    for a in range(len(idx)):
        ok = True
        for b in kept:
            if M[a, b] <= max(subr[a], subr[b]) * (1.0 + guard):
                ok = False
                break
        if ok:
            kept.append(a)
            centers.append(tuple(sub[a]))
            radii.append(float(subr[a]))


def _exact_repair(d, centers, max_denominator=None):
    """Convert centers to exact rationals in insertion order, keeping each
    member only if the exact certificate conditions still hold against the
    kept prefix.  Floats convert exactly (binary rationals) unless a
    denominator cap is requested."""
    kept_c, kept_r = [], []
    for c in centers:
        cr = to_fractions(c, max_denominator=max_denominator)
        try:
            r = radius_for_center(d, cr, exact=True)
        except (ExactnessError, ValueError):
            continue
        ok = True
        for c2, r2 in zip(kept_c, kept_r):
            try:
                if d.compare(c2, cr, r2) <= 0 or d.compare(cr, c2, r) <= 0:
                    ok = False
                    break
            except ExactnessError:
                ok = False
                break
        if ok:
            kept_c.append(cr)
            kept_r.append(r)
    return kept_c, kept_r


def _finalize(d, centers, radii, exact, epsilon, max_denominator):
    if exact:
        kc, kr = _exact_repair(d, centers, max_denominator)
        e = tuple(Fraction(0) for _ in range(d.group.dim))
        fam = BesicovitchFamily(tuple(kc), tuple(kr), e, d, mode=EXACT)
    else:
        e = d.identity()
        kc = [tuple(c) for c in centers]
        kr = [float(r) + 2.0 * epsilon for r in radii]
        fam = BesicovitchFamily(tuple(kc), tuple(kr), tuple(float(x) for x in e),
                                d, mode="margin", epsilon=epsilon)
    cert = verify_family(fam)
    if not cert.valid:
        # drop members named in violations and retry once (rare borderline cases)
        bad = set()
        for v in cert.violations:
            bad.update(v.get("pair", [v.get("ball")]))
        keep = [k for k in range(len(fam.centers)) if k not in bad]
        fam = BesicovitchFamily(tuple(fam.centers[k] for k in keep),
                                tuple(fam.radii[k] for k in keep),
                                fam.witness, d, mode=fam.mode, epsilon=epsilon)
        cert = verify_family(fam)
        if not cert.valid:
            fam = BesicovitchFamily((), (), fam.witness, d, mode=fam.mode,
                                    epsilon=epsilon)
    return fam


def search_family(d: QuasiDistance, budget: int, strategy: str = "random",
                  seed: int = 0, exact: bool = True, epsilon: float = 1e-7,
                  shell=(0.02, 1.0), batch: int = 256,
                  restart_interval: int = 4096,
                  max_denominator: int | None = None) -> SearchResult:
    """Randomized search for large verified families, witness at the identity.

    Deterministic for a fixed seed.  The proposal stream and the restart
    schedule do not depend on the budget, and the best family is tracked as a
    running maximum over verified snapshots, so the returned cardinality is
    non-decreasing in the budget for a fixed seed.
    """
    if strategy not in ("random", "annealed"):
        raise ValueError("strategy must be 'random' or 'annealed'")
    if exact and not d.exact_capable:
        raise ValueError(
            f"{d.kind} distance cannot back exact certificates; "
            "run with exact=False for margin-mode families")
    rng = np.random.default_rng(seed)
    stream = _proposal_batches(d, strategy, rng, batch, shell)
    guard = max(epsilon, 1e-6)
    centers, radii = [], []
    best = _finalize(d, [], [], exact, epsilon, max_denominator)
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
        _greedy_extend(d, centers, radii, cand, cand_r, guard)
        if strategy == "annealed" and since_restart >= restart_interval:
            # verification only shrinks a family, so a float cardinality that
            # cannot beat the best needs no exact pass
            if len(centers) > len(best):
                snap = _finalize(d, centers, radii, exact, epsilon, max_denominator)
                if len(snap) > len(best):
                    best = snap
                    trace.append((used, len(best)))
            centers, radii = [], []
            since_restart = 0
    if len(centers) > len(best):
        snap = _finalize(d, centers, radii, exact, epsilon, max_denominator)
        if len(snap) > len(best):
            best = snap
            trace.append((used, len(best)))
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


def dilation_orbit_family(d: QuasiDistance, p, rho, k: int, count: int,
                          exact: bool = None, epsilon: float = 1e-7) -> OrbitResult:
    """Family of shrinking dilates q_l = delta_(rho^(l k))(p), radii rho^(l k).

    Works for any distance one-homogeneous under the dilations (so for every
    homogeneous distance and every ratio rho in (0,1)).  The orbit test asks
    d(p, delta_(rho^(j k))(p)) > 1 for j = 1..count-1; when it passes, the
    emitted family has the identity as witness and is re-verified in full.
    """
    if exact is None:
        exact = all_exact(p) and isinstance(rho, (Fraction, int))
    if not (0 < float(rho) < 1):
        raise ValueError("ratio must lie in (0, 1)")
    if k < 1 or count < 2:
        raise ValueError("need k >= 1 and count >= 2")
    margins = []
    first_fail = None
    pf = tuple(float(x) for x in p)
    for j in range(1, count):
        # the strict orbit inequality is decided exactly when possible: its
        # margin shrinks like the dilation factor and quickly drops below
        # float resolution, while the rational comparison stays rigorous
        if exact:
            pr = to_fractions(p)
            qj = dilate(pr, Fraction(rho) ** (j * k), d.group, exact=True)
            try:
                sgn = d.compare(pr, qj, Fraction(1))
            except ExactnessError:
                sgn = None
        else:
            sgn = None
        lam = float(rho) ** (j * k)
        qj_f = dilate(pf, lam, d.group, exact=False)
        m = d.value(pf, qj_f) - 1.0
        margins.append(m)
        passed = (sgn > 0) if sgn is not None else (m > 0)
        if not passed and first_fail is None:
            first_fail = j
    if first_fail is not None:
        return OrbitResult(ok=False, family=None, first_failing_j=first_fail,
                           margins=margins)
    if exact:
        pr = to_fractions(p)
        centers = []
        radii = []
        for l in range(count):
            rl = Fraction(rho) ** (l * k)
            centers.append(dilate(pr, rl, d.group, exact=True))
            radii.append(rl)
        witness = tuple(Fraction(0) for _ in range(d.group.dim))
        fam = BesicovitchFamily(tuple(centers), tuple(radii), witness, d, mode=EXACT)
    else:
        centers = [dilate(pf, float(rho) ** (l * k), d.group, exact=False)
                   for l in range(count)]
        radii = [float(rho) ** (l * k) * (1.0 + 2 * epsilon) for l in range(count)]
        witness = tuple(0.0 for _ in range(d.group.dim))
        fam = BesicovitchFamily(tuple(centers), tuple(radii), witness, d,
                                mode="margin", epsilon=epsilon)
    cert = verify_family(fam)
    return OrbitResult(ok=cert.valid, family=fam, first_failing_j=None,
                       margins=margins, certificate=cert)


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


def segment_witness_nonbcp(d, samples: int = 512, t_grid: int = 16, seed: int = 0,
                           include_mirror: bool = True):
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
        for mirrored in ((False, True) if include_mirror else (False,)):
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
    if n == 0:
        return CoverReport([], [], 0, True, True, True)
    uncovered = np.ones(n, dtype=bool)
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
        blocks.append({"bound": M, "indices": block})
    sel = selected
    # multiplicity: how many selected balls contain each input point
    counts = np.zeros(n, dtype=int)
    for i in sel:
        center = np.repeat(pts[i][None, :], n, axis=0)
        counts += (d.value_batch(center, pts) <= rr[i]).astype(int)
    covered = bool((counts >= 1).all())
    quarter = True
    for a in range(len(sel)):
        for b in range(a + 1, len(sel)):
            i, j = sel[a], sel[b]
            if d.value(tuple(pts[i]), tuple(pts[j])) <= rr[i] / 4.0 + rr[j] / 4.0:
                quarter = False
    halve = all(blocks[k + 1]["bound"] <= blocks[k]["bound"] / 2.0
                for k in range(len(blocks) - 1))
    return CoverReport(selected=sel, blocks=blocks,
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

    def distance(self) -> FiniteSpaceDistance:
        return FiniteSpaceDistance(self.table)

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


def countable_space(n: int) -> FiniteMetricSpace:
    """First n points of the space with d(x_i, x_j) = 1 - 1/max(i, j), 1-based."""
    if n < 2:
        raise ValueError("need at least two points")
    table = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            row.append(Fraction(0) if i == j else 1 - Fraction(1, max(i, j)))
        table.append(tuple(row))
    return FiniteMetricSpace(labels=[f"x{i}" for i in range(1, n + 1)],
                             table=tuple(table))


def countable_space_triangle_audit(n: int) -> bool:
    """Exact triangle inequality for all triples i, j, k <= n.

    d(x_i, x_j) = 1 - 1/max(i,j), so with a = max(i,j), b = max(i,k),
    c = max(k,j) the inequality is 1/b + 1/c <= 1 + 1/a, i.e.
    a*c + a*b <= a*b*c + b*c in integers.  Vectorized exactly in int64,
    chunked over the first index to bound memory.  Triples where k equals i
    or j reduce to d <= d and are skipped.
    """
    idx = np.arange(1, n + 1, dtype=np.int64)
    chunk = max(1, 4_000_000 // max(n * n, 1))
    for start in range(1, n + 1, chunk):
        I, J, K = np.meshgrid(np.arange(start, min(start + chunk, n + 1),
                                        dtype=np.int64), idx, idx, indexing="ij")
        a = np.maximum(I, J)
        b = np.maximum(I, K)
        c = np.maximum(K, J)
        mask = (I != J) & (K != I) & (K != J)
        if not np.all((a * c + a * b)[mask] <= (a * b * c + b * c)[mask]):
            return False
    return True


def countable_space_ball_audit(max_i: int) -> bool:
    """Exact check that B(x_i, r_i) = {x_1, ..., x_i} with r_i = 1 - 1/i.

    Distances from x_i take the value 1 - 1/i for every j < i and 1 - 1/j for
    every j > i, so the full ball equality reduces to three exact
    comparisons per i (j < i boundary inclusion, j = i, first exclusion at
    j = i + 1 plus monotonicity of j -> 1 - 1/j).
    """
    prev = None
    for i in range(2, max_i + 1):
        ri = 1 - Fraction(1, i)
        if not (1 - Fraction(1, i) <= ri):          # any j < i: distance = r_i
            return False
        if not (1 - Fraction(1, i + 1) > ri):       # j = i + 1 excluded
            return False
        if prev is not None and not (ri > prev):    # r increasing => j > i+1 excluded
            return False
        prev = ri
    return True


def countable_space_two_ball_audit(n: int = 200, grid: int = 64) -> dict:
    """Exhaustive exact confirmation that no 2-ball Besicovitch family exists.

    For every ball index i <= n and every radius rho_i < r_i on a rational
    grid, the exclusion conditions force B(x_i, rho_i) = {x_i} (every other
    point sits at distance >= r_i > rho_i), so two such balls can never share
    a witness.  The audit verifies the singleton property exactly for every
    (i, rho) pair and reports the counts.
    """
    pairs_checked = 0
    for i in range(2, n + 1):
        ri = 1 - Fraction(1, i)
        for g in range(1, grid + 1):
            rho = ri * Fraction(g, grid + 1)
            assert rho < ri
            # nearest other point: distance min(r_i (j<i), r_{i+1} (j>i)) = r_i
            if not (ri > rho):
                return {"ok": False, "i": i, "rho": str(rho)}
            if i < n and not (1 - Fraction(1, i + 1) > rho):
                return {"ok": False, "i": i, "rho": str(rho)}
            pairs_checked += 1
    # singleton balls pairwise disjoint for i != j, hence no common witness
    return {"ok": True, "radius_choices_checked": pairs_checked,
            "pairs_covered": n * (n - 1) // 2, "grid": grid}
