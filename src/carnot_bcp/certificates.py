"""Numerical certificates for the free step-2 covering argument.

On the free-nilpotent group of step 2 and rank r with the Euclidean-ball
quasi-distance of radius R, membership of q in the unit ball around a sphere
point p is equivalent to the sign of an explicit quadratic form a_form(p, q)
(exact in rational arithmetic).  The covering bound rests on three containment
lemmas over a parabolic partition of the group (parameters a = 0.9 and
a' = 1.9), each valid for all small-angle pairs once an epsilon satisfying the
lemma's scalar inequality exists.  This module:

* evaluates the membership form exactly (``a_form``);
* classifies points into the parabolic regions exactly (``region_classify``);
* certifies admissible epsilon values on a dyadic grid with outward-rounded
  rational square-root enclosures (``admissible_epsilon``);
* calibrates the angle threshold delta empirically (``calibrate_delta``);
* runs hypothesis-constrained random sweeps asserting the lemma conclusions
  (``lemma_sweep``);
* produces greedy lower bounds for the sphere-packing count that feeds the
  final pigeonhole cardinality bound (``sphere_packing_estimate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .scalars import fmt_scalar, sqrt_bounds


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionParams:
    """Parabolic-region parameters for rank-r sweeps."""

    r: int
    R: Fraction = Fraction(1)
    a: Fraction = Fraction(9, 10)
    a_prime: Fraction = Fraction(19, 10)

    def __post_init__(self):
        object.__setattr__(self, "R", Fraction(self.R))
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "a_prime", Fraction(self.a_prime))
        if not (0 < self.a < self.a_prime):
            raise ValueError("need 0 < a < a_prime")
        if self.R <= 0 or self.r < 2:
            raise ValueError("need R > 0 and rank >= 2")

    def w_dim(self) -> int:
        return self.r * (self.r - 1) // 2

    def dim(self) -> int:
        return self.r + self.w_dim()


def _split(p, r):
    return tuple(p[:r]), tuple(p[r:])


# ---------------------------------------------------------------------------
# the membership form
# ---------------------------------------------------------------------------

def a_form(p, q, params: RegionParams):
    """Membership form: for ||p|| = R exactly, q lies in the closed unit ball
    around p iff a_form(p, q) <= 0.  Exact on rational inputs.

        ||q||^2 - 2<p,q> + sum_{i<j} (p_ij - q_ij)(p_i q_j - q_i p_j)
                                   + (p_i q_j - q_i p_j)^2 / 4
    """
    r = params.r
    if len(p) != params.dim() or len(q) != params.dim():
        raise ValueError(f"points must have dimension {params.dim()} for rank {r}")
    norm_q = sum(x * x for x in q)
    inner = sum(a * b for a, b in zip(p, q))
    total = norm_q - 2 * inner
    idx = r
    for i in range(r):
        for j in range(i + 1, r):
            cross = p[i] * q[j] - q[i] * p[j]
            total += (p[idx] - q[idx]) * cross + cross * cross / 4
            idx += 1
    return total


def a_form_batch(P, Q, r: int) -> np.ndarray:
    """Vectorized float membership form; P, Q arrays of shape (m, dim)."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    total = (Q * Q).sum(axis=1) - 2.0 * (P * Q).sum(axis=1)
    idx = r
    for i in range(r):
        for j in range(i + 1, r):
            cross = P[:, i] * Q[:, j] - Q[:, i] * P[:, j]
            total += (P[:, idx] - Q[:, idx]) * cross + 0.25 * cross * cross
            idx += 1
    return total


# ---------------------------------------------------------------------------
# parabolic regions and layer angles
# ---------------------------------------------------------------------------

STEEP = "steep"        # R ||w|| >  a' ||v||^2
BAND = "band"          # a ||v||^2 < R ||w|| <= a' ||v||^2
SHALLOW = "shallow"    # R ||w|| <= a  ||v||^2

_REGION_OF_LEMMA = {"away": SHALLOW, "near2a": STEEP, "inbetween": BAND}


def region_classify(p, params: RegionParams) -> str:
    """Exact parabolic-region label of a point; dilation-invariant."""
    v, w = _split(p, params.r)
    nv2 = sum(x * x for x in v)
    nw2 = sum(x * x for x in w)
    # compare R ||w|| vs c ||v||^2 via squares (both sides nonnegative)
    lhs = params.R ** 2 * nw2
    if lhs > params.a_prime ** 2 * nv2 * nv2:
        return STEEP
    if lhs > params.a ** 2 * nv2 * nv2:
        return BAND
    return SHALLOW


def region_classify_batch(P, params: RegionParams) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    r = params.r
    nv2 = (P[:, :r] ** 2).sum(axis=1)
    nw2 = (P[:, r:] ** 2).sum(axis=1)
    lhs = float(params.R) ** 2 * nw2
    out = np.full(len(P), BAND, dtype=object)
    out[lhs > float(params.a_prime) ** 2 * nv2 * nv2] = STEEP
    out[lhs <= float(params.a) ** 2 * nv2 * nv2] = SHALLOW
    return out


def layer_angle(p, q, r: int):
    """Angles in [0, pi] between the first-layer parts and second-layer parts.

    Zero projections get angle 0 by convention.  Both angles are invariant
    under simultaneous dilation of p and q.
    """
    def ang(u, v):
        nu = math.sqrt(sum(float(x) ** 2 for x in u))
        nv = math.sqrt(sum(float(x) ** 2 for x in v))
        if nu == 0 or nv == 0:
            return 0.0
        c = sum(float(a) * float(b) for a, b in zip(u, v)) / (nu * nv)
        return math.acos(min(1.0, max(-1.0, c)))

    vp, wp = _split(p, r)
    vq, wq = _split(q, r)
    return ang(vp, vq), ang(wp, wq)


# ---------------------------------------------------------------------------
# admissible epsilon: rigorous dyadic certification
# ---------------------------------------------------------------------------

def _sqrt_iv(x: Fraction):
    lo, hi = sqrt_bounds(x, bits=96)
    return lo, hi


def _lemma_upper_bounds(lemma: str, eps: Fraction, params: RegionParams):
    """Rational upper bounds of the lemma's scalar expressions at epsilon.

    Every square root is replaced by the end of its rational enclosure that
    maximizes the expression, so a negative upper bound certifies the strict
    inequality.  Valid for eps in (0, 1).
    """
    a, ap, R, r = params.a, params.a_prime, params.R, Fraction(params.r)
    tail = 2 * r * r * R * eps + (r * r / 4) * eps * eps * R * R
    one_m = 1 - eps
    if lemma == "away":
        s_lo, s_hi = _sqrt_iv(1 + 4 * a * a)
        inner_lo = (s_lo - 1) / (2 * a * a)
        t_lo, _ = _sqrt_iv(inner_lo)
        bound = 1 + (s_hi - 1) / 2 - 2 * one_m * t_lo + tail
        return [bound]
    if lemma == "near2a":
        sp_lo, _ = _sqrt_iv(1 + 4 * ap * ap)
        b1 = 1 / ap + 1 - one_m * (sp_lo - 1) / ap
        b2 = -2 * one_m + tail
        return [b1, b2]
    if lemma == "inbetween":
        sp_lo, sp_hi = _sqrt_iv(1 + 4 * ap * ap)
        t_lo, _ = _sqrt_iv((sp_lo - 1) / 2)
        b1 = Fraction(1, 2) + (sp_hi - 1) / 4 - 2 * one_m * t_lo / ap + tail
        s_lo, _ = _sqrt_iv(1 + 4 * a * a)
        b2 = 1 / (2 * a) + Fraction(1, 2) - one_m * (s_lo - 1) / a
        return [b1, b2]
    raise ValueError(f"unknown lemma '{lemma}'")


def admissible_epsilon(lemma: str, params: RegionParams, grid: int = 1024,
                       slack: Fraction = Fraction(9, 10)):
    """Largest dyadic epsilon certified to satisfy the lemma inequalities,
    scaled by a safety factor (default 10% below the certified maximum).

    Returns (epsilon_used, epsilon_max_certified).  Raises if no grid point
    certifies (the lemma inequality has no room at these parameters).
    """
    for m in range(grid - 1, 0, -1):
        eps = Fraction(m, grid)
        if all(b < 0 for b in _lemma_upper_bounds(lemma, eps, params)):
            return eps * slack, eps
    raise ValueError(f"no admissible epsilon for lemma '{lemma}' at {params}")


# ---------------------------------------------------------------------------
# delta calibration for the small-angle bounds
# ---------------------------------------------------------------------------

def _cone_directions(rng, dim, count, delta):
    """Pairs of unit vectors at angle < delta: base direction plus a rotation
    by a uniform angle inside the cone."""
    u = rng.standard_normal((count, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    if dim == 1:
        return u, u.copy()
    n = rng.standard_normal((count, dim))
    n -= (n * u).sum(axis=1, keepdims=True) * u
    norms = np.linalg.norm(n, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    n /= norms
    theta = rng.uniform(0.0, delta, size=(count, 1))
    return u, np.cos(theta) * u + np.sin(theta) * n


def _small_angle_bounds_hold(vp, vq, wp, wq, eps) -> np.ndarray:
    """The three small-angle consequences, vectorized over rows."""
    nvp = np.linalg.norm(vp, axis=1)
    nvq = np.linalg.norm(vq, axis=1)
    nwp = np.linalg.norm(wp, axis=1)
    nwq = np.linalg.norm(wq, axis=1)
    r = vp.shape[1]
    ok = np.ones(len(vp), dtype=bool)
    scale = eps * nvp * nvq
    for i in range(r):
        for j in range(i + 1, r):
            cross = np.abs(vp[:, i] * vq[:, j] - vq[:, i] * vp[:, j])
            ok &= cross <= scale + 1e-15
    ok &= (vp * vq).sum(axis=1) >= (1 - eps) * nvp * nvq - 1e-15
    ok &= (wp * wq).sum(axis=1) >= (1 - eps) * nwp * nwq - 1e-15
    return ok


def calibrate_delta(epsilon, r: int, samples: int = 100_000, seed: int = 0,
                    max_level: int = 20) -> float:
    """Largest dyadic delta whose random small-angle pairs all satisfy the
    epsilon bounds; purely empirical, recorded in sweep reports.

    The area bound ties delta to arcsin(epsilon) analytically, so the
    calibration settles near that value; the empirical route keeps the sweep
    self-contained.
    """
    eps = float(epsilon)
    rng = np.random.default_rng(seed)
    wdim = r * (r - 1) // 2
    for level in range(1, max_level + 1):
        delta = math.pi / 2 ** level
        m = samples
        vp_dir, vq_dir = _cone_directions(rng, r, m, delta)
        wp_dir, wq_dir = _cone_directions(rng, wdim, m, delta)
        sv = rng.uniform(0.1, 1.0, size=(m, 1))
        sq = rng.uniform(0.1, 1.0, size=(m, 1))
        sw = rng.uniform(0.1, 1.0, size=(m, 1))
        sw2 = rng.uniform(0.1, 1.0, size=(m, 1))
        if _small_angle_bounds_hold(vp_dir * sv, vq_dir * sq,
                                    wp_dir * sw, wq_dir * sw2, eps).all():
            return delta
    return math.pi / 2 ** max_level


# ---------------------------------------------------------------------------
# sphere-point parametrizations
# ---------------------------------------------------------------------------

def rational_sphere_points(dim: int, R, count: int, rng) -> list:
    """Rational points exactly on the Euclidean sphere of radius R in R^dim.

    Stereographic images of random rational vectors: for u in Q^(dim-1),
    p = R * (2u, 1 - |u|^2) / (1 + |u|^2) has |p| = R exactly.  Coordinates
    are shuffled and sign-flipped for coverage.
    """
    R = Fraction(R)
    out = []
    for _ in range(count):
        u = [Fraction(int(rng.integers(-64, 65)), int(rng.integers(1, 65)))
             for _ in range(dim - 1)]
        s = sum(x * x for x in u)
        denom = 1 + s
        p = [2 * x * R / denom for x in u] + [R * (1 - s) / denom]
        perm = rng.permutation(dim)
        p = [p[int(k)] for k in perm]
        p = [x if rng.integers(0, 2) == 0 else -x for x in p]
        out.append(tuple(p))
    return out


def _sphere_norm_split(rng, m, R, region, params):
    """Norm pairs (||v||, ||w||) with ||v||^2 + ||w||^2 = R^2 in the region.

    Parametrized by the polar angle phi with ||v|| = R cos phi,
    ||w|| = R sin phi; the region constraint is an interval in sin phi with
    endpoint sin phi* = (sqrt(1 + 4c^2) - 1) / (2c) for the parabola c.
    """
    def s_star(c):
        c = float(c)
        return (math.sqrt(1.0 + 4.0 * c * c) - 1.0) / (2.0 * c)

    Rf = float(R)
    sa = s_star(params.a)
    sap = s_star(params.a_prime)
    pad = 1e-9
    if region == SHALLOW:
        lo, hi = 0.0, sa - pad
    elif region == STEEP:
        lo, hi = sap + pad, 1.0
    else:
        lo, hi = sa + pad, sap - pad
    s = rng.uniform(lo, hi, size=m)
    nw = Rf * s
    nv = Rf * np.sqrt(np.maximum(0.0, 1.0 - s * s))
    return nv, nw


def _ball_norm_split(rng, m, R, region, params):
    """Norm pairs with ||v||^2 + ||w||^2 <= R^2 in the region: a sphere split
    scaled inward.  Region membership is dilation-invariant, so scaling
    preserves it."""
    nv, nw = _sphere_norm_split(rng, m, R, region, params)
    lam = np.sqrt(rng.uniform(0.02, 1.0, size=m))
    # dilation scales v by lam and w by lam^2
    return nv * lam, nw * lam * lam


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    lemma: str
    params: RegionParams
    requested: int
    accepted: int
    violations: list
    max_a_form: float
    epsilon: Fraction | None
    delta: float | None
    seed: int
    tolerance: float
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self):
        return {
            "lemma": self.lemma,
            "rank": self.params.r,
            "R": fmt_scalar(self.params.R),
            "a": fmt_scalar(self.params.a),
            "a_prime": fmt_scalar(self.params.a_prime),
            "requested": self.requested,
            "accepted": self.accepted,
            "violations": self.violations,
            "max_a_form": self.max_a_form,
            "epsilon": fmt_scalar(self.epsilon) if self.epsilon is not None else None,
            "delta": self.delta,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "notes": self.notes,
        }


class SamplingError(RuntimeError):
    """Hypothesis rejection rate too high to assemble the sweep sample."""


def _assemble_points(m, r, nv, nw, vdir, wdir):
    P = np.zeros((m, r + r * (r - 1) // 2))
    P[:, :r] = vdir * nv[:, None]
    P[:, r:] = wdir * nw[:, None]
    return P


def lemma_sweep(lemma: str, params: RegionParams, sample_count: int = 10_000,
                seed: int = 0, epsilon=None, delta=None,
                tolerance: float = 1e-9, delta_samples: int = 20_000) -> SweepReport:
    """Random hypothesis-constrained sweep of one containment lemma.

    lemma in {"aq", "small_angles", "away", "near2a", "inbetween"}.

    For the three containment lemmas: p is sampled on the sphere and q in the
    ball, both in the lemma's parabolic region, with both layer angles below
    delta; the conclusion asserted is a_form(p, q) <= tolerance.  For "aq" the
    sign of the form is checked against direct ball membership; for
    "small_angles" the three epsilon bounds are checked at the calibrated
    delta.
    """
    rng = np.random.default_rng(seed)
    r = params.r
    wdim = r * (r - 1) // 2
    Rf = float(params.R)

    if lemma == "aq":
        m = sample_count
        P = rng.standard_normal((m, r + wdim))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        P *= Rf
        Q = rng.standard_normal((m, r + wdim)) * rng.uniform(
            0.1, 1.2, size=(m, 1)) * Rf / math.sqrt(r + wdim)
        A = a_form_batch(P, Q, r)
        # direct membership of q in B(p, 1): squared gauge of p^-1 q vs R^2
        gap = _displacement_sq_batch(P, Q, r) - Rf * Rf
        band = 1e-8
        keep = np.abs(A) > band
        mism = np.flatnonzero(np.sign(A[keep]) != np.sign(gap[keep]))
        violations = [{"index": int(i)} for i in mism[:20]]
        return SweepReport(lemma=lemma, params=params, requested=m,
                           accepted=int(keep.sum()), violations=violations,
                           max_a_form=float(np.max(A)), epsilon=None, delta=None,
                           seed=seed, tolerance=band,
                           notes={"kind": "sign-equivalence", "band": band})

    if epsilon is None and lemma != "small_angles":
        epsilon, eps_max = admissible_epsilon(lemma, params)
    elif epsilon is None:
        epsilon = Fraction(1, 16)
        eps_max = None
    else:
        epsilon = Fraction(epsilon)
        eps_max = None
    if delta is None:
        delta = calibrate_delta(epsilon, r, samples=delta_samples, seed=seed + 1)

    if lemma == "small_angles":
        m = sample_count
        vp_dir, vq_dir = _cone_directions(rng, r, m, delta)
        wp_dir, wq_dir = _cone_directions(rng, wdim, m, delta)
        sv, sw = rng.uniform(0.05, 1.0, (2, m, 1))
        sq, sw2 = rng.uniform(0.05, 1.0, (2, m, 1))
        ok = _small_angle_bounds_hold(vp_dir * sv, vq_dir * sq,
                                      wp_dir * sw, wq_dir * sw2, float(epsilon))
        violations = [{"index": int(i)} for i in np.flatnonzero(~ok)[:20]]
        return SweepReport(lemma=lemma, params=params, requested=m,
                           accepted=m, violations=violations,
                           max_a_form=float("nan"), epsilon=epsilon, delta=delta,
                           seed=seed, tolerance=0.0,
                           notes={"kind": "epsilon-bounds"})

    region = _REGION_OF_LEMMA[lemma]
    accepted = 0
    max_af = -math.inf
    violations = []
    attempts = 0
    batch = max(1024, sample_count // 4)
    while accepted < sample_count:
        attempts += batch
        if attempts > 10_000 * sample_count:
            raise SamplingError(
                f"hypothesis rejection rate above 99.99% for lemma '{lemma}'")
        vp_dir, vq_dir = _cone_directions(rng, r, batch, delta)
        wp_dir, wq_dir = _cone_directions(rng, wdim, batch, delta)
        nvp, nwp = _sphere_norm_split(rng, batch, params.R, region, params)
        nvq, nwq = _ball_norm_split(rng, batch, params.R, region, params)
        P = _assemble_points(batch, r, nvp, nwp, vp_dir, wp_dir)
        Q = _assemble_points(batch, r, nvq, nwq, vq_dir, wq_dir)
        # rejection: re-check every hypothesis on the assembled points
        good = region_classify_batch(P, params) == region
        good &= region_classify_batch(Q, params) == region
        good &= np.abs((P * P).sum(axis=1) - Rf * Rf) <= 1e-12 * Rf * Rf
        good &= (Q * Q).sum(axis=1) <= Rf * Rf * (1 + 1e-12)
        P, Q = P[good], Q[good]
        if len(P) == 0:
            continue
        take = min(len(P), sample_count - accepted)
        P, Q = P[:take], Q[:take]
        A = a_form_batch(P, Q, r)
        max_af = max(max_af, float(np.max(A)))
        bad = np.flatnonzero(A > tolerance)
        # independent route to the same conclusion: the displacement gauge of
        # p^-1 q must not exceed R^2 either (cross-checks the form algebra)
        gap = _displacement_sq_batch(P, Q, r) - Rf * Rf
        bad_gap = np.flatnonzero(gap > tolerance)
        for i in set(bad[:20]) | set(bad_gap[:20]):
            violations.append({
                "a_form": float(A[i]),
                "membership_gap": float(gap[i]),
                "p": [float(x) for x in P[i]],
                "q": [float(x) for x in Q[i]],
            })
        accepted += take
    return SweepReport(lemma=lemma, params=params, requested=sample_count,
                       accepted=accepted, violations=violations,
                       max_a_form=max_af, epsilon=epsilon, delta=delta,
                       seed=seed, tolerance=tolerance,
                       notes={"region": region,
                              "cross_check": "displacement gauge",
                              "epsilon_max_certified":
                              fmt_scalar(eps_max) if eps_max else None})


def _displacement_sq_batch(P, Q, r: int) -> np.ndarray:
    """Squared Euclidean gauge of p^-1 q on the free step-2 group (vectorized)."""
    V = Q[:, :r] - P[:, :r]
    out = (V * V).sum(axis=1)
    idx = r
    for i in range(r):
        for j in range(i + 1, r):
            wij = Q[:, idx] - P[:, idx] - 0.5 * (P[:, i] * Q[:, j] - P[:, j] * Q[:, i])
            out += wij * wij
            idx += 1
    return out


# ---------------------------------------------------------------------------
# sphere packing lower bounds
# ---------------------------------------------------------------------------

def _repulsion_packing(dim, k, cos_sep, rng, iters=1200):
    """Try to place k unit vectors pairwise below cos_sep by soft repulsion.

    The inverse temperature anneals upward so the late gradient concentrates
    on the currently worst pairs, driving the configuration toward the
    max-min-angle optimum (equidistributed for small k)."""
    V = rng.standard_normal((k, dim))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    for t in range(iters):
        beta = 8.0 * (1024.0 / 8.0) ** (t / max(iters - 1, 1))
        eta = 0.15 * (0.02 / 0.15) ** (t / max(iters - 1, 1))
        G = V @ V.T
        np.fill_diagonal(G, -1.0)
        W = np.exp(beta * (G - G.max()))
        np.fill_diagonal(W, 0.0)
        grad = W @ V
        norms = np.linalg.norm(grad, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        V = V - eta * grad / norms
        V /= np.linalg.norm(V, axis=1, keepdims=True)
    G = V @ V.T
    np.fill_diagonal(G, -1.0)
    return bool(G.max() < cos_sep)


def sphere_packing_estimate(dim: int, angular_sep: float, samples: int = 8192,
                            seed: int = 0):
    """Lower bound on the number of unit vectors pairwise separated by more
    than the given angle: greedy selection refined by a repulsion pass that
    tries to place one more vector than the greedy count, repeatedly.

    The reported 3 * N^2 value uses this count, which is a heuristic lower
    bound on the true packing number, not a certified constant.
    """
    if dim < 1 or not 0 < angular_sep < math.pi:
        raise ValueError("need dim >= 1 and separation in (0, pi)")
    if dim == 1:
        count = 2 if angular_sep < math.pi else 1
        return count, {"bound_3N2": 3 * count * count,
                       "note": "exhaustive on the two signs"}
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((samples, dim))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    cos_sep = math.cos(angular_sep)
    chosen = np.empty((0, dim))
    for v in V:
        if len(chosen) == 0 or float((chosen @ v).max()) < cos_sep:
            chosen = np.vstack([chosen, v])
    count = len(chosen)
    # deterministic tight configurations: equi-spaced circle (k points at
    # angle 2 pi / k), regular simplex, cross-polytope
    k_circle = int(math.floor(2.0 * math.pi / angular_sep))
    while 2.0 * math.pi / k_circle <= angular_sep:
        k_circle -= 1
    count = max(count, k_circle)
    if math.acos(-1.0 / dim) > angular_sep:
        count = max(count, dim + 1)
    if math.pi / 2 > angular_sep:
        count = max(count, 2 * dim)
    # repulsion pays off only for small tight configurations; for large
    # counts the greedy estimate is already the story
    while count < 64 and any(_repulsion_packing(dim, count + 1, cos_sep, rng)
                             for _ in range(4)):
        count += 1
    return count, {"bound_3N2": 3 * count * count,
                   "note": "greedy+repulsion heuristic lower bound on the "
                           "packing number"}
