"""Exact certificates for the free step-2 covering argument.

On the free-nilpotent group of step 2 and rank r with the Euclidean-ball
quasi-distance of radius R, membership of q in the unit ball around a sphere
point p is equivalent to the sign of an explicit quadratic form a_form(p, q)
(exact in rational arithmetic).  The covering bound rests on three containment
lemmas over a parabolic partition of the group (parameters a = 0.9 and
a' = 1.9), each valid for all small-angle pairs once an epsilon satisfying the
lemma's scalar inequality exists.  This module:

* evaluates the membership form exactly (``a_form``);
* classifies points into the parabolic regions exactly (``region_classify``);
* certifies the largest admissible epsilon on a dyadic grid, found by
  bisection, with outward-rounded rational square-root enclosures
  (``admissible_epsilon``);
* keys points by region and small-angle cell in integers, so that two points
  with one key meet the small-angle bounds of their region's lemma
  (``cell_key``);
* runs random sweeps over pairs with equal keys, each pair decided by an exact
  HS comparison (``lemma_sweep``); the "aq" sweep checks the form's sign
  against the same exact comparison, with tolerance 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice
from typing import ClassVar

import numpy as np

from .algebra import free_step2_group
from .metrics import HSDistance
from .scalars import ExactPoint, fmt_scalar, over_common_denominator, sqrt_bounds


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


def _exact(p, params: RegionParams):
    """p as integer numerators over one positive denominator (an
    ``ExactPoint`` passes as it is), checked against the group's dimension."""
    nums, den = over_common_denominator(p)
    if len(nums) != params.dim():
        raise ValueError(f"points must have dimension {params.dim()} for rank {params.r}")
    return nums, den


# ---------------------------------------------------------------------------
# the membership form
# ---------------------------------------------------------------------------

def a_form(p, q, params: RegionParams):
    """Membership form: for ||p|| = R exactly, q lies in the closed unit ball
    around p iff a_form(p, q) <= 0.  Exact on rational inputs, which may be
    ``ExactPoint``s.

        ||q||^2 - 2<p,q> + sum_{i<j} (p_ij - q_ij)(p_i q_j - q_i p_j)
                                   + (p_i q_j - q_i p_j)^2 / 4

    With p = P / a and q = Q / b, and C_ij = P_i Q_j - Q_i P_j, that is the
    integer 4 a^2 ||Q||^2 - 8 a b <P,Q> + sum 4 (b P_ij - a Q_ij) C_ij + C_ij^2
    over 4 a^2 b^2.
    """
    r = params.r
    P, a = _exact(p, params)
    Q, b = _exact(q, params)
    total = 4 * a * a * sum(y * y for y in Q) - 8 * a * b * sum(x * y for x, y in zip(P, Q))
    for idx, (i, j) in enumerate(combinations(range(r), 2), r):
        cross = P[i] * Q[j] - Q[i] * P[j]
        total += 4 * (b * P[idx] - a * Q[idx]) * cross + cross * cross
    return Fraction(total, 4 * a * a * b * b)


# ---------------------------------------------------------------------------
# parabolic regions and small-angle cells
# ---------------------------------------------------------------------------

STEEP = "steep"        # R ||w|| >  a' ||v||^2
BAND = "band"          # a ||v||^2 < R ||w|| <= a' ||v||^2
SHALLOW = "shallow"    # R ||w|| <= a  ||v||^2

_REGION_OF_LEMMA = {"away": SHALLOW, "near2a": STEEP, "inbetween": BAND}
_LEMMA_OF_REGION = {region: lemma for lemma, region in _REGION_OF_LEMMA.items()}


def _region(nums, den, params: RegionParams) -> str:
    """The region of nums / den: R ||w|| against c ||v||^2 through squares,
    in integers, (R den)^2 ||W||^2 against c^2 ||V||^4 on the numerators."""
    Rn, Rd = params.R.as_integer_ratio()
    lhs = (Rn * den) ** 2 * sum(x * x for x in nums[params.r:])
    rhs = (Rd * sum(x * x for x in nums[:params.r])) ** 2
    for region, c in ((STEEP, params.a_prime), (BAND, params.a)):
        cn, cd = c.as_integer_ratio()
        if lhs * cd * cd > cn * cn * rhs:
            return region
    return SHALLOW


def region_classify(p, params: RegionParams) -> str:
    """Exact parabolic-region label of a point; dilation-invariant."""
    return _region(*_exact(p, params), params)


def _cell(x, side):
    """The cube-face cell of the integer vector x at side ``side`` (see
    ``cell_key``); () for the zero vector."""
    size = [abs(y) for y in x]
    top = max(size)
    if not top:
        return ()
    i = size.index(top)
    cell = (i, 1 if x[i] > 0 else -1)
    if len(x) == 1:
        return cell
    n, d = side.as_integer_ratio()
    return cell + tuple((y + top) * d // (top * n) for k, y in enumerate(x) if k != i)


def _cell_sides(epsilon, params: RegionParams):
    """Cell sides of the layers v and w at epsilon: epsilon floor(2^10 /
    sqrt(m - 1)) / 2^10 <= epsilon / sqrt(m - 1) for a layer of dimension m,
    and None for m = 1, whose cell is a sign."""
    return tuple(epsilon * Fraction(math.isqrt((1 << 20) // (m - 1)), 1 << 10)
                 if m > 1 else None for m in (params.r, params.w_dim()))


def _key(p, params: RegionParams, sides):
    """The key of ``cell_key`` at the given cell sides, for p = (nums, den)."""
    (nums, den), r = p, params.r
    return _region(nums, den, params), _cell(nums[:r], sides[0]), _cell(nums[r:], sides[1])


def cell_key(p, params: RegionParams):
    """The key of a point: its region, then the cells of its layers v and w
    at the sides of the region's epsilon from ``admissible_epsilon``.  Exact,
    in integers, and dilation-invariant.

    The cell of x in R^m is the face (the index i of the largest |x_i|, and
    its sign), plus floor((x_j / |x_i| + 1) / s) for each j != i, with a
    rational side s <= epsilon / sqrt(m - 1); for m = 1 it is the sign, and
    the zero vector has a cell of its own.  Two directions u, u' in one cell
    lie within chord epsilon, so every small-angle bound the lemmas assume
    holds for them:
    1. y = x / |x_i| and y' = x' / |x'_i| lie on one face of the cube
       [-1, 1]^m and differ by less than s in each of the m - 1 other
       coordinates, so |y - y'| <= s sqrt(m - 1) <= epsilon;
    2. radial projection onto the unit sphere is the nearest-point map of
       the unit ball on the cube's faces, so it is 1-Lipschitz there;
    3. chord |u - u'| <= epsilon gives sin theta <= epsilon and
       cos theta >= 1 - epsilon^2 / 2, hence |p_i q_j - q_i p_j| <=
       epsilon |v_p| |v_q| and <u, u'> >= 1 - epsilon.  A zero layer meets
       these bounds against any partner.
    """
    nums, den = _exact(p, params)
    epsilon, _ = admissible_epsilon(_LEMMA_OF_REGION[_region(nums, den, params)], params)
    return _key((nums, den), params, _cell_sides(epsilon, params))


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
        t_lo, _ = sqrt_bounds((s_lo - 1) / (2 * a * a))
        return [1 + (s_hi - 1) / 2 - 2 * one_m * t_lo + tail]
    if lemma == "near2a":
        sp_lo, _ = sqrt_bounds(1 + 4 * ap * ap)
        return [1 / ap + 1 - one_m * (sp_lo - 1) / ap, -2 * one_m + tail]
    if lemma == "inbetween":
        sp_lo, sp_hi = sqrt_bounds(1 + 4 * ap * ap)
        t_lo, _ = sqrt_bounds((sp_lo - 1) / 2)
        s_lo, _ = sqrt_bounds(1 + 4 * a * a)
        return [Fraction(1, 2) + (sp_hi - 1) / 4 - 2 * one_m * t_lo / ap + tail,
                1 / (2 * a) + Fraction(1, 2) - one_m * (s_lo - 1) / a]
    raise ValueError(f"unknown lemma '{lemma}'")


def admissible_epsilon(lemma: str, params: RegionParams):
    """Largest dyadic epsilon m / 1024 < 1 certified to satisfy the lemma
    inequalities, scaled by a safety factor 10% below the certified maximum.

    Every upper bound of ``_lemma_upper_bounds`` increases with epsilon: its
    ``tail`` has positive coefficients, and each (1 - epsilon) term is
    multiplied by a negative constant.  So the certified grid points are an
    initial segment 1 .. M of the grid, and bisection finds M in ten
    evaluations.

    Returns (epsilon_used, epsilon_max_certified).  Raises
    ``AdmissibilityError`` if no grid point certifies (the lemma inequality
    has no room at these parameters).
    """
    lo, hi = 0, 1024   # m <= lo certifies (lo = 0 vacuously), m >= hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok = all(b < 0 for b in _lemma_upper_bounds(lemma, Fraction(mid, 1024), params))
        lo, hi = (mid, hi) if ok else (lo, mid)
    if not lo:
        raise AdmissibilityError(f"no admissible epsilon for lemma '{lemma}' at {params}")
    eps = Fraction(lo, 1024)
    return eps * Fraction(9, 10), eps


# ---------------------------------------------------------------------------
# sphere-point parametrizations
# ---------------------------------------------------------------------------

def rational_sphere_points(dim: int, R, count: int, rng) -> list:
    """Rational points exactly on the Euclidean sphere of radius R in R^dim.

    Stereographic images of random rational vectors: for u in Q^(dim-1),
    p = R * (2u, 1 - |u|^2) / (1 + |u|^2) has |p| = R exactly.  Coordinates
    are shuffled and sign-flipped for coverage.
    """
    if dim < 1:
        raise ValueError(f"a sphere needs dimension at least 1, not {dim}")
    R = Fraction(R)
    out = []
    for _ in range(count):
        u = [Fraction(int(rng.integers(-64, 65)), int(rng.integers(1, 65)))
             for _ in range(dim - 1)]
        s = sum(x * x for x in u)
        p = [2 * x * R / (1 + s) for x in u] + [R * (1 - s) / (1 + s)]
        out.append(tuple(p[k] if rng.integers(0, 2) == 0 else -p[k]
                         for k in rng.permutation(dim).tolist()))
    return out


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    lemma: str
    params: RegionParams
    requested: int
    violations: list
    max_a_form: float
    epsilon: Fraction | None
    # the small-angle threshold: the cell sides of v and w at epsilon
    delta: tuple | None
    seed: int
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
            "accepted": self.requested,     # every pair is decided
            "violations": self.violations,
            "max_a_form": self.max_a_form,
            "epsilon": fmt_scalar(self.epsilon) if self.epsilon is not None else None,
            "delta": [fmt_scalar(s) if s is not None else None for s in self.delta]
            if self.delta is not None else None,
            "seed": self.seed,
            "tolerance": 0.0,
            "notes": self.notes,
        }


# p splits its norm R by the rational circle point (T^2 - t^2, 2 t T) / (T^2 + t^2)
_T = 1 << 10


def _sphere_points(rng, params: RegionParams, region):
    """The circle points (c, s, h) = h (cos phi, sin phi) that put p in
    ``region`` (all for None), and ``on_sphere(k, iv, iw)``: p = R (cos phi
    u_v, sin phi u_w) exactly on the sphere, for circle point k and the unit
    directions iv, iw (N / D, |N| = D) of 1024 ``rational_sphere_points``."""
    r, w = params.r, params.w_dim()
    Rn, Rd = params.R.as_integer_ratio()
    circle = [(_T * _T - t * t, 2 * t * _T, _T * _T + t * t) for t in range(_T + 1)]
    circle = [(c, s, h) for c, s, h in circle if region is None or region == _region(
        [Rn * c] + [0] * (r - 1) + [Rn * s] + [0] * (w - 1), Rd * h, params)]
    v_dirs, w_dirs = ([over_common_denominator(u) for u in rational_sphere_points(m, 1, 1024, rng)]
                      for m in (r, w))

    def on_sphere(k, iv, iw):
        (c, s, h), (nv, dv), (nw, dw) = circle[k], v_dirs[iv], w_dirs[iw]
        return ExactPoint([Rn * c * dw * x for x in nv] + [Rn * s * dv * x for x in nw],
                          Rd * h * dv * dw)
    return circle, on_sphere


def _in_cell(cell, side, norm, u):
    """A float vector of Euclidean norm ``norm`` whose direction is drawn
    uniformly over ``cell`` on its cube face by the uniforms u; zero for the
    zero cell."""
    if not cell:
        return [0.0] * len(u)
    i, sign, *c = cell
    s = float(side or 0)
    y = [lo + v * (min(lo + s, 1.0) - lo) for lo, v in zip((k * s - 1 for k in c), u)]
    y.insert(i, float(sign))
    f = norm / math.hypot(*y)
    return [f * x for x in y]


def _same_key_pairs(rng, params: RegionParams, region, sides):
    """Endless (p, q) ``ExactPoint`` pairs with equal keys at ``sides``: p
    exactly on the sphere of radius R, in ``region`` (any for None), and q in
    the closed ball.

    p is drawn by ``_sphere_points``.  q's directions are drawn uniformly
    over p's cells, not near p, and its layer norms independently of p's, as
    the dilate by a uniform lam in [0, 1) of such a split.  q is built in
    float and read exactly; its key and norm are then checked exactly, so a
    rounding across a boundary drops the pair.
    """
    r, w = params.r, params.w_dim()
    Rn, Rd = params.R.as_integer_ratio()
    circle, on_sphere = _sphere_points(rng, params, region)
    n = 256
    while True:
        split_p, split_q = rng.integers(0, len(circle), (2, n)).tolist()
        iv, iw = rng.integers(0, 1024, (2, n)).tolist()
        lam = rng.random(n).tolist()
        U = rng.random((n, r + w)).tolist()
        for k in range(n):
            p = on_sphere(split_p[k], iv[k], iw[k])
            key = _key(p, params, sides)
            c, s, h = circle[split_q[k]]
            size = float(params.R) / h
            q = over_common_denominator(
                _in_cell(key[1], sides[0], lam[k] * c * size, U[k][:r])
                + _in_cell(key[2], sides[1], lam[k] ** 2 * s * size, U[k][r:]))
            if (_key(q, params, sides) == key
                    and Rd * Rd * sum(x * x for x in q.nums) <= Rn * Rn * q.den * q.den):
                yield p, q


def _offset_pairs(rng, params: RegionParams):
    """Endless (p, q) ``ExactPoint`` pairs: p exactly on the sphere of
    radius R, drawn by ``_sphere_points`` from any region, and q = p + R o /
    2^10 for an integer vector o uniform in [-m, m]^dim.  With m = 2^10
    sqrt(3 / dim), |q - p| is about R, and about half the q fall inside the
    unit ball around p at every rank and radius."""
    Rn, Rd = params.R.as_integer_ratio()
    circle, on_sphere = _sphere_points(rng, params, None)
    m = int(_T * math.sqrt(3 / params.dim()))
    n = 256
    while True:
        split = rng.integers(0, len(circle), n).tolist()
        iv, iw = rng.integers(0, 1024, (2, n)).tolist()
        O = rng.integers(-m, m + 1, (n, params.dim())).tolist()
        for k in range(n):
            p = on_sphere(split[k], iv[k], iw[k])
            yield p, ExactPoint([x * _T * Rd + Rn * o * p.den for x, o in zip(p.nums, O[k])],
                                p.den * _T * Rd)


def _chord_within(x, y, epsilon) -> bool:
    """|x / |x| - y / |y|| <= epsilon, exactly, for integer vectors and
    0 < epsilon < sqrt(2): <x, y> >= (1 - epsilon^2 / 2) |x| |y|.  A zero
    vector is within any chord."""
    nx, ny = sum(a * a for a in x), sum(b * b for b in y)
    ip = sum(a * b for a, b in zip(x, y))
    return not nx or not ny or (ip > 0 and ip * ip >= (1 - epsilon * epsilon / 2) ** 2 * nx * ny)


def _decide_pairs(pairs, params: RegionParams, contained: bool):
    """Decide each pair exactly: the sign of the HS comparison of d(p, q)
    with 1 must agree with that of ``a_form(p, q)``, as it does for p on the
    sphere, and with ``contained`` q must lie in the closed ball.  Returns
    the violations, the largest form as a float, and the count of q inside."""
    d = HSDistance(free_step2_group(params.r), params.R)
    violations, forms, inside = [], [], 0
    for p, q in pairs:
        sign = d.compare(p, q, Fraction(1))
        af = a_form(p, q, params)
        forms.append(af)
        inside += sign <= 0
        if (af > 0) - (af < 0) != sign or (contained and sign > 0):
            violations.append({"compare": sign, "a_form": fmt_scalar(af),
                               "p": [fmt_scalar(Fraction(x, p.den)) for x in p.nums],
                               "q": [fmt_scalar(Fraction(x, q.den)) for x in q.nums]})
    return violations, float(max(forms)), inside


def _cell_sweep(lemma, params: RegionParams, sample_count, seed, epsilon, sides):
    """The sweep of ``lemma_sweep`` over same-key pairs at the given cell
    sides (the certified ones there), or over offset pairs for "aq"."""
    region = _REGION_OF_LEMMA.get(lemma)
    rng = np.random.default_rng(seed)
    pairs = islice(_offset_pairs(rng, params) if lemma == "aq"
                   else _same_key_pairs(rng, params, region, sides), sample_count)
    if lemma == "small_angles":
        violations = [{"index": index, "layer": layer}
                      for index, (p, q) in enumerate(pairs)
                      for layer, part in (("v", slice(0, params.r)), ("w", slice(params.r, None)))
                      if not _chord_within(p.nums[part], q.nums[part], epsilon)]
        max_form, notes = float("nan"), {"kind": "chord-bound"}
    else:
        violations, max_form, inside = _decide_pairs(pairs, params, contained=lemma != "aq")
        notes = {"region": region, "cross_check": "exact a_form"} if region else {
            "kind": "sign-equivalence", "cross_check": "exact a_form",
            "inside": inside, "outside": sample_count - inside}
    return SweepReport(lemma=lemma, params=params, requested=sample_count,
                       violations=violations, max_a_form=max_form, epsilon=epsilon,
                       delta=sides, seed=seed, notes=notes)


def lemma_sweep(lemma: str, params: RegionParams, sample_count: int = 10_000,
                seed: int = 0) -> SweepReport:
    """Random sweep of one containment lemma, every pair decided exactly.

    lemma in {"aq", "small_angles", "away", "near2a", "inbetween"}.

    For the three containment lemmas: p is drawn exactly on the sphere and q
    in the ball, both in the lemma's parabolic region and with equal
    ``cell_key``s; each pair is decided by the exact HS comparison
    d(p, q) <= 1, and the sign of the exact ``a_form`` must agree.  For "aq"
    q is p plus a small offset, inside the ball or not, and the signs must
    agree likewise, with tolerance 0; the notes count q inside and outside.
    For "small_angles" the chord bound epsilon = 1/16 is checked exactly
    between the layer directions of same-cell pairs.  The containment lemmas
    take epsilon from ``admissible_epsilon``.  A sweep needs at least one
    sample: an empty one would certify nothing.
    """
    if sample_count < 1:
        raise ValueError(f"a sweep needs at least one sample, not {sample_count}")
    epsilon = eps_max = None
    if lemma == "small_angles":
        epsilon = Fraction(1, 16)
    elif lemma != "aq":
        epsilon, eps_max = admissible_epsilon(lemma, params)
    rep = _cell_sweep(lemma, params, sample_count, seed, epsilon,
                      _cell_sides(epsilon, params) if epsilon else None)
    if eps_max:
        rep.notes["epsilon_max_certified"] = fmt_scalar(eps_max)
    return rep
