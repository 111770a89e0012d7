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
  (``lemma_sweep``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .algebra import free_step2_group, multiply_batch
from .scalars import fmt_scalar, sqrt_bounds


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionParams:
    """Parabolic-region parameters for rank-r sweeps."""

    r: int
    R: Fraction = Fraction(1)
    a: ClassVar[Fraction] = Fraction(9, 10)
    a_prime: ClassVar[Fraction] = Fraction(19, 10)

    def __post_init__(self):
        object.__setattr__(self, "R", Fraction(self.R))
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


# ---------------------------------------------------------------------------
# admissible epsilon: rigorous dyadic certification
# ---------------------------------------------------------------------------

class AdmissibilityError(RuntimeError):
    """No grid epsilon certifies a lemma's inequalities: an outcome of the
    certification, not a configuration error."""


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
        s_lo, s_hi = sqrt_bounds(1 + 4 * a * a)
        inner_lo = (s_lo - 1) / (2 * a * a)
        t_lo, _ = sqrt_bounds(inner_lo)
        bound = 1 + (s_hi - 1) / 2 - 2 * one_m * t_lo + tail
        return [bound]
    if lemma == "near2a":
        sp_lo, _ = sqrt_bounds(1 + 4 * ap * ap)
        b1 = 1 / ap + 1 - one_m * (sp_lo - 1) / ap
        b2 = -2 * one_m + tail
        return [b1, b2]
    if lemma == "inbetween":
        sp_lo, sp_hi = sqrt_bounds(1 + 4 * ap * ap)
        t_lo, _ = sqrt_bounds((sp_lo - 1) / 2)
        b1 = Fraction(1, 2) + (sp_hi - 1) / 4 - 2 * one_m * t_lo / ap + tail
        s_lo, _ = sqrt_bounds(1 + 4 * a * a)
        b2 = 1 / (2 * a) + Fraction(1, 2) - one_m * (s_lo - 1) / a
        return [b1, b2]
    raise ValueError(f"unknown lemma '{lemma}'")


def admissible_epsilon(lemma: str, params: RegionParams):
    """Largest dyadic epsilon m / 1024 certified to satisfy the lemma
    inequalities, scaled by a safety factor 10% below the certified maximum.

    Returns (epsilon_used, epsilon_max_certified).  Raises
    ``AdmissibilityError`` if no grid point certifies (the lemma inequality
    has no room at these parameters).
    """
    for m in range(1023, 0, -1):
        eps = Fraction(m, 1024)
        if all(b < 0 for b in _lemma_upper_bounds(lemma, eps, params)):
            return eps * Fraction(9, 10), eps
    raise AdmissibilityError(f"no admissible epsilon for lemma '{lemma}' at {params}")


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


def calibrate_delta(epsilon, r: int, samples: int = 100_000, seed: int = 0) -> float:
    """Largest dyadic delta pi / 2^level, level <= 20, whose random
    small-angle pairs all satisfy the epsilon bounds; purely empirical,
    recorded in sweep reports.

    The area bound ties delta to arcsin(epsilon) analytically, so the
    calibration settles near that value; the empirical route keeps the sweep
    self-contained.
    """
    eps = float(epsilon)
    rng = np.random.default_rng(seed)
    wdim = r * (r - 1) // 2
    for level in range(1, 21):
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
    return math.pi / 2 ** 20


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
                seed: int = 0) -> SweepReport:
    """Random hypothesis-constrained sweep of one containment lemma.

    lemma in {"aq", "small_angles", "away", "near2a", "inbetween"}.

    For the three containment lemmas: p is sampled on the sphere and q in the
    ball, both in the lemma's parabolic region, with both layer angles below
    delta; the conclusion asserted is a_form(p, q) <= 1e-9.  For "aq" the
    sign of the form is checked against direct ball membership; for
    "small_angles" the three epsilon bounds are checked at the calibrated
    delta.  The containment lemmas take epsilon from ``admissible_epsilon``,
    "small_angles" takes 1/16, and delta is calibrated from 20,000 pairs.
    A sweep needs at least one sample: an empty one would certify nothing.
    """
    if sample_count < 1:
        raise ValueError(f"a sweep needs at least one sample, not {sample_count}")
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
        D = multiply_batch(-P, Q, free_step2_group(r))
        gap = (D * D).sum(axis=1) - Rf * Rf
        band = 1e-8
        keep = np.abs(A) > band
        mism = np.flatnonzero(np.sign(A[keep]) != np.sign(gap[keep]))
        violations = [{"index": int(i)} for i in mism[:20]]
        return SweepReport(lemma=lemma, params=params, requested=m,
                           accepted=int(keep.sum()), violations=violations,
                           max_a_form=float(np.max(A)), epsilon=None, delta=None,
                           seed=seed, tolerance=band,
                           notes={"kind": "sign-equivalence", "band": band})

    if lemma == "small_angles":
        epsilon, eps_max = Fraction(1, 16), None
    else:
        epsilon, eps_max = admissible_epsilon(lemma, params)
    delta = calibrate_delta(epsilon, r, samples=20_000, seed=seed + 1)

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
    # the conclusion a_form(p, q) <= 0, up to float rounding
    tolerance = 1e-9
    group = free_step2_group(r)
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
        D = multiply_batch(-P, Q, group)
        gap = (D * D).sum(axis=1) - Rf * Rf
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
