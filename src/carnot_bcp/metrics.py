"""Homogeneous quasi-distances on graded groups, and their evaluators.

Every distance here is left-invariant, so evaluation reduces to the distance
from the identity of the displacement p^-1 q.  The workhorse kinds:

* ``HSDistance``     -- the quasi-distance whose unit ball at the identity is a
  Euclidean ball of radius R in exponential coordinates (Hebisch-Sikora).  The
  value is the unique lambda with sum_i x_i^2 lambda^(-2 w_i) = R^2.  The
  substitution u = lambda^(-2/q), with q > 0 the smallest rational making every
  a_w = q w an integer, turns it into the polynomial equation
  sum_w s_w u^(a_w) = R^2 (s_w the squared norm of the weight-w coordinates),
  solved in closed form for one weight or two weights w, 2w and otherwise by
  Newton from an upper bracket; ball membership is decided exactly in
  rational arithmetic whenever the data permit.  A power d^(1/t) of an HS
  distance (a snowflake, ``power_distance``) is the HS distance of the same R
  on the t-power of the group.
* ``UnitBallDistance`` -- gauge of an arbitrary star-interval unit-ball oracle.
* ``ProductMaxDistance`` / ``LpComboDistance`` -- product combinations.
* ``QuotientDistance`` -- distance induced by an HS distance on the image of
  a surjective graded morphism: minimum of the upstairs distance over the
  kernel fiber, in closed form through one Gram matrix per weight.
* ``CCHeisenbergDistance`` -- the exact sub-Riemannian distance on the first
  Heisenberg group (circular-arc geodesics).

Exactness contract: ``compare(p, q, rho)`` returns the sign of d(p,q) - rho
decided in exact integer arithmetic, raising ``ExactnessError`` when the kind
or the inputs cannot support it; ``value`` always returns a float.  Exact
comparison goes through one path, in the base class: ``QuasiDistance.compare``
forms the displacement p^-1 q with ``algebra.displacement`` as integer
numerators over one positive denominator and hands (nums, den, rho) to the
kind's ``_sign``, the only exact method a kind defines.  Either point may
come as the ``scalars.ExactPoint`` of ``over_common_denominator``; a family
check converts each of its points once that way, so the n^2 comparisons of
an n-ball family read n + 1 converted points, not 2 n^2.  ``_sign`` decides the
sign with integers only: HS cross-multiplies its power sum against R^2 in
``_ball_excess``, which an exact dilation orbit also reads at integer points
to build the polynomials that certify it for every count; the quotient
hands HS the sums of its Gram form, and the products split the numerators
before calling their components' ``_sign``.  The public
``compare_from_identity(x, rho)`` is the same hook for a point given by
rational coordinates, which it puts over one denominator; a float coordinate
is an ``ExactnessError``.  Every distance lives on a group, and no kind
overrides ``compare`` or ``compare_from_identity``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .algebra import (
    AlgebraError,
    ExactnessError,
    GradedGroup,
    _product,
    abelian_group,
    dilate,
    dilate_batch,
    displacement,
    heisenberg_group,
    make_group,
    multiply_batch,
    multiply_floats,
    power_group,
)
from .exact_linalg import min_norm_right_inverse, rref
from .scalars import all_exact, int_power, over_common_denominator
from .structure import MorphismMatrix, validate_morphism

TWO_PI = 2.0 * math.pi


class OracleError(RuntimeError):
    """Membership oracle behaved inconsistently with the star-interval property."""


class SolverError(RuntimeError):
    """Root finder failed to converge, or was given non-finite coordinates."""


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------

class QuasiDistance:
    """Common interface: float evaluation plus optional exact comparisons.

    ``exact_capable`` is True exactly when ``_sign`` decides every rational
    point at every positive rational radius.  It alone decides a family's
    mode: ``BesicovitchFamily`` reads it, so every family on an
    exact-capable distance is exact and every other one margin, and no
    caller selects a mode.  A dilation orbit is exact only and raises
    ``ExactnessError`` on a distance that is not exact-capable.
    """

    kind = "abstract"
    exact_capable = False

    def __init__(self, group: GradedGroup):
        self.group = group

    @property
    def weights(self):
        return self.group.weights

    def identity(self):
        return self.group.identity()

    def value(self, p, q) -> float:
        """d(p, q) as a float: one float BCH product p^-1 q, each coordinate
        read as a float once, then ``value_from_identity``."""
        return self.value_from_identity(
            multiply_floats([-float(x) for x in p], [float(x) for x in q], self.group))

    def value_from_identity(self, x) -> float:
        raise NotImplementedError

    def value_from_identity_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.array([self.value_from_identity(tuple(row)) for row in X])

    def value_batch(self, P, Q) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        Q = np.asarray(Q, dtype=float)
        return self.value_from_identity_batch(multiply_batch(-P, Q, self.group))

    def exceeds_batch(self, P, Q, t) -> np.ndarray:
        """Rowwise d(p_i, q_i) > t_i as a bool array, for positive t (an
        array, or one float for every row).  Here from the values, so a NaN
        value exceeds nothing; a kind may decide membership without them."""
        return self.value_batch(P, Q) > t

    def compare(self, p, q, rho) -> int:
        """Exact sign of d(p, q) - rho, or raise ExactnessError: the sign of
        d(e, p^-1 q) - rho for the displacement formed in integers."""
        return self._sign(*displacement(p, q, self.group), rho)

    def compare_from_identity(self, x, rho) -> int:
        """Exact sign of d(e, x) - rho for rational coordinates x."""
        if not all_exact(x):
            raise ExactnessError("exact comparison needs rational coordinates")
        if len(x) != self.group.dim:
            raise AlgebraError("vector length does not match algebra dimension")
        return self._sign(*over_common_denominator(x), rho)

    def _sign(self, nums, den, rho) -> int:
        """Exact sign of d(e, x) - rho at x = nums / den, integer numerators
        over one positive integer denominator; the one exact hook of a kind."""
        raise ExactnessError(f"{self.kind} distance has no exact comparison")

    def __repr__(self):
        return f"<{type(self).__name__} on {self.group.name}>"


# ---------------------------------------------------------------------------
# Hebisch-Sikora Euclidean-ball distances
# ---------------------------------------------------------------------------

# Newton stops once a step moves u by at most step_tol * u, with step_tol =
# _NEWTON_TOL / q.  The step then approximates the remaining error e, the
# error after it is at most (a_max - 1) / 2 * e^2 relative, and lam = u^(-q/2)
# has q/2 times that: at most w_max / 4 * _NEWTON_TOL^2.  The floor of 4 ulps
# keeps a large q from asking for less than the rounding of u.
_NEWTON_TOL = 1e-9
_NEWTON_STEP_FLOOR = 2.0 ** -50
_NEWTON_MAX_STEPS = 100
# powers of u that Newton forms stay within 2^(+-_U_EXP_MAX); see _HSPlan.t_lo
_U_EXP_MAX = 900
# and lam itself within 2^(+-_LAM_EXP_MAX), which binds only for weights below 1/2
_LAM_EXP_MAX = 1000


class _HSPlan:
    """The HS equation of one weight vector, reduced to a polynomial.

    Coordinates sharing a weight w collapse into one squared sum s_w.  With
    q = lcm(weight denominators) / gcd(weight numerators), the smallest q > 0
    making every exponent a_w = q w an integer, the substitution
    u = lam^(-2/q) turns sum_w s_w lam^(-2w) = R^2 into

        f(u) = sum_w s_w u^(a_w) - R^2 = 0,

    a polynomial with nonnegative coefficients and positive integer exponents,
    so f is increasing and convex on u > 0 and lam = u^(-q/2).  The exponents
    come from the exact weights, so no float rounding enters them.
    """

    def __init__(self, weights):
        groups = {}
        for i, w in enumerate(weights):
            groups.setdefault(Fraction(w), []).append(i)
        self.weights = sorted(groups)
        self.term_of = tuple(self.weights.index(Fraction(w)) for w in weights)
        # a lone coordinate is picked as a column, a group is summed
        self.index = [groups[w][0] if len(groups[w]) == 1 else np.array(groups[w])
                      for w in self.weights]
        q = Fraction(math.lcm(*(w.denominator for w in self.weights)),
                     math.gcd(*(w.numerator for w in self.weights)))
        self.exps = [int(q * w) for w in self.weights]
        # Horner's rule from the top term down: multiply by u^g for the gap
        # g = a_k - a_(k-1), then add s_(k-1), or -R^2 below the last (None)
        gaps = [b - a for a, b in zip([0] + self.exps, self.exps)]
        self.horner = list(zip(gaps[::-1], list(range(len(gaps) - 2, -1, -1)) + [None]))
        self.root_powers = [1.0 / a for a in self.exps]
        self.two_w = [2.0 * float(w) for w in self.weights]
        self.lam_power = -float(q) / 2
        self.closed_power = 0.5 / float(self.weights[0])
        self.step_tol = max(_NEWTON_TOL / float(q), _NEWTON_STEP_FLOOR)
        # lam = u^(-q/2) magnifies the rounding of u q/2 times; above q = 2
        # one Newton step in lam itself removes that, as it removes the error
        # y e |ln base| of a power whose float exponent y(1 + e) is not y
        self.polish = q > 2 or Fraction(self.lam_power) != -q / 2
        self.polish_closed = Fraction(self.closed_power) != 1 / (2 * self.weights[0])
        # rows with squared sum in [t_lo R^2, t_hi R^2] are solved as they
        # are.  Newton starts from u0 = 1/r, r = max_w (s_w / R^2)^(1/a_w),
        # and on [u*, u0] every term has s_w u^(a_w) <= R^2, so no power of u
        # overflows while r^(a_max) >= 2^-_U_EXP_MAX, and the leading one
        # stays normal while r^(a_min) <= 2^_U_EXP_MAX.  As the largest s_w
        # is at least 1/K of the sum, these bounds on the sum imply both; the
        # lower t_hi also keeps s1^2 of the two-weight closed form finite.
        # At the root no term exceeds R^2 and one is at least R^2 / K, so a
        # sum of t R^2 puts lam between (t / K)^(1/(2 w_min)) and
        # (K t)^(1/(2 w_min)) (or nearer 1).  Both also stay within
        # 2^(+-_LAM_EXP_MAX), so that lam neither overflows nor rounds to 0;
        # this narrows the range only for weights below 1/2.
        K, lam_room = len(self.exps), 2 * _LAM_EXP_MAX * float(self.weights[0])
        self.t_lo = K * 2.0 ** max(float(-_U_EXP_MAX * self.weights[0] / self.weights[-1]),
                                   -lam_room)
        self.t_hi = 2.0 ** min(_U_EXP_MAX / 2, lam_room - math.log2(K))
        self.closed = len(self.exps) == 1 or self.exps == [1, 2]

    def closed_form(self, S, R2, sqrt):
        """lam for one weight, or for two weights w and 2w (a quadratic in
        lam^(-2w)); S holds floats or arrays, sqrt is math.sqrt or np.sqrt."""
        if len(S) == 1:
            lam = (S[0] / R2) ** self.closed_power
        else:
            s1, s2 = S
            lam = ((s1 + sqrt(s1 * s1 + 4.0 * R2 * s2)) / (2.0 * R2)) ** self.closed_power
        return self.polish_step(lam, S, R2) if self.polish_closed else lam

    def newton_step(self, u, S, R2):
        """One Newton step on f; u and S hold floats or arrays.  f and f'
        come together from Horner's rule over the K terms present,

            f = (...(s_K u^(g_K) + s_(K-1)) u^(g_(K-1)) + ... + s_1) u^(g_1) - R^2

        with g_k = a_k - a_(k-1), so the work grows with K, not with the
        degree, and a gap of 1 or 2 needs no pow.  Returns (new u, step)."""
        p, dp = S[-1], None
        for g, k in self.horner:
            c = -R2 if k is None else S[k]
            # p u^g + c, with derivative p' u^g + g p u^(g-1)
            if g == 1:
                dp = p if dp is None else dp * u + p
                p = p * u + c
            else:
                v = u if g == 2 else u ** (g - 1)
                dp = (g * p if dp is None else dp * u + g * p) * v
                p = p * v * u + c
        step = p / dp
        return u - step, step

    def polish_step(self, lam, S, R2):
        """One Newton step in lam on sum_w s_w lam^(-2w) = R^2."""
        t = [s * lam ** -tw for s, tw in zip(S, self.two_w)]
        return lam + lam * (sum(t) - R2) / sum(tw * ti for tw, ti in zip(self.two_w, t))

    def newton(self, u, S, R2, done):
        """Newton on f from an upper bracket u, then lam; done is
        np.ndarray.all for arrays, bool for floats."""
        for _ in range(_NEWTON_MAX_STEPS):
            u, step = self.newton_step(u, S, R2)
            if done(step <= self.step_tol * u):
                lam = u ** self.lam_power
                return self.polish_step(lam, S, R2) if self.polish else lam
        raise SolverError("HS root solve did not converge")

    def rescaled(self, X, R):
        """The rows dilated by 1/lam_lo before anything is squared, for
        lam_lo = max_i (|x_i| / R)^(1/w_i), formed without a square that
        could under- or overflow.  Returns lam_lo and the coefficients c_w = s_w lam_lo^(-2w)
        / R^2 of sum_w c_w u^(a_w) = 1, each at most the number of coordinates
        of weight w and one of them at least 1, so the root (lam / lam_lo)^(-2/q)
        lies in (0, 1].  X holds one (m,) array of coordinates per dimension."""
        rho = [abs(x) ** (2.0 / self.two_w[k]) / R ** (2.0 / self.two_w[k])
               for x, k in zip(X, self.term_of)]
        lam_lo = np.maximum.reduce(rho)
        C = [0.0] * len(self.exps)
        for r, k in zip(rho, self.term_of):
            C[k] = C[k] + (r / lam_lo) ** self.two_w[k]
        return lam_lo, C

    def solve_rows(self, S, R2, method):
        """lam for rows with squared sums S (one (m,) array per weight), each
        sum in [t_lo R^2, t_hi R^2]."""
        if method == "auto" and self.closed:
            return self.closed_form(S, R2, np.sqrt)
        r = np.maximum.reduce([(s / R2) ** e for s, e in zip(S, self.root_powers)])
        return self.newton(1.0 / r, S, R2, np.ndarray.all)

    def solve_point(self, S, R2):
        """``solve_rows`` for one point, in plain floats (S a list of floats)."""
        if self.closed:
            return self.closed_form(S, R2, math.sqrt)
        r = max((s / R2) ** e for s, e in zip(S, self.root_powers))
        return self.newton(1.0 / r, S, R2, bool)


def _hs_lambda_batch(X, weights, R, plan=None, method="auto"):
    """Solve sum x_i^2 lam^(-2 w_i) = R^2 rowwise; X is (m, n) float.

    Rows are reduced to the polynomial f(u) = sum_w s_w u^(a_w) - R^2 of
    ``_HSPlan``, with u = lam^(-2/q).  One weight, or two weights w and 2w,
    have closed forms; otherwise (or when method="iterative" forces the
    general route, which the closed forms are tested against) Newton starts
    from the upper bracket u0 = min over s_w > 0 of (R^2 / s_w)^(1/a_w), where
    f(u0) >= 0.  Since f is increasing and convex, every iterate from above
    stays above the root: the tangent at u > u* lies below f, so it crosses
    zero in [u*, u).  The iterates therefore decrease monotonically to u*,
    quadratically once close, in a number of steps that does not grow with
    q.  One Newton step in lam follows for q > 2, where u^(-q/2) magnifies
    the rounding of u, and for a root exponent that float cannot hold
    exactly.  Rows near the ends of the float range, where the
    powers of u would overflow or the squares underflow, are dilated from
    their coordinates to a lam of order one first; so is a row of finite
    coordinates whose squares overflow.  A row whose coordinates are all
    zero has lam = 0; a row with a NaN or infinite coordinate raises
    SolverError; a row whose lam leaves the float range, as it can for a
    weight below 1, has lam = 0 or inf.
    """
    if plan is None:
        plan = _HSPlan(weights)
    X = np.asarray(X, dtype=float)
    if X.shape[-1:] != (len(plan.term_of),):
        raise AlgebraError("vector length does not match algebra dimension")
    # the output comes first, below the solve's temporaries in the heap, so
    # that the allocator can return their memory once they are freed; on
    # large batches this lowers the peak memory
    lam = np.zeros(len(X))
    if not len(X):
        return lam
    # a finite row whose squares overflow is rescaled below
    with np.errstate(over="ignore"):
        S = [X[:, ix] ** 2 if isinstance(ix, int) else (X[:, ix] ** 2).sum(axis=1)
             for ix in plan.index]
        total = sum(S[1:], S[0])
    R2 = R * R
    lo, hi = plan.t_lo * R2, plan.t_hi * R2
    # one test for the common case, which a NaN or infinite sum fails too
    if total.min() >= lo and total.max() <= hi:
        lam[:] = plan.solve_rows(S, R2, method)
        return lam
    if not np.isfinite(X).all():
        raise SolverError("nonfinite coordinates")
    inner = (total >= lo) & (total <= hi)
    if inner.any():
        lam[inner] = plan.solve_rows([s[inner] for s in S], R2, method)
    # zero is decided from the coordinates: the square of one below about
    # 1e-162 is 0, and such a row is rescaled, not taken for the identity
    outer = ~inner & X.any(axis=1)
    if outer.any():
        # for a weight below 1, lam_lo can round to 0 or overflow, and lam,
        # at most K^(1/(2 w_min)) lam_lo, then rounds the same way
        with np.errstate(over="ignore", invalid="ignore"):
            lam_lo, C = plan.rescaled(X[outer].T, R)
        fin = (lam_lo > 0) & (lam_lo < np.inf)
        with np.errstate(over="ignore"):
            lam_lo[fin] *= plan.solve_rows([c[fin] for c in C], 1.0, method)
        lam[outer] = lam_lo
    return lam


class HSDistance(QuasiDistance):
    """Homogeneous quasi-distance with Euclidean unit ball of radius R.

    A genuine distance for R below an (unspecified) threshold; the package
    measures the quasi-triangle constant empirically instead of assuming it.
    """

    kind = "hs"

    def __init__(self, group: GradedGroup, R=Fraction(1)):
        super().__init__(group)
        self.R = Fraction(R)
        if self.R <= 0:
            raise ValueError("radius parameter R must be positive")
        # comparisons against radius rho need rho^(2 w_i) rational, which
        # holds for every rational rho exactly when all 2 w_i are integers
        self.exact_capable = all((2 * w).denominator == 1 for w in group.weights)
        self._plan = _HSPlan(group.weights)
        # per term of the plan, its weight w and the exponent 2w = e / r
        self._exact_terms = [(w, (2 * w).numerator, (2 * w).denominator)
                             for w in self._plan.weights]
        self._R2 = (self.R.numerator ** 2, self.R.denominator ** 2)
        # R for the solves, and the ball test of exceeds_batch: -w_i and R^2
        self._R_float = float(self.R)
        self._neg_w = -np.array(group.algebra.float_weights)
        self._R2_float = self._R_float ** 2

    def value_from_identity(self, x):
        """The batch solve for one point: in plain floats with no numpy when
        its squared sum is in the batch's common range, and by the batch
        solve itself otherwise, which decides a zero, a non-finite and a
        rescaled point for both paths.  The common range keeps lam in float
        range, so a lam beyond it, as weights far below 1 give, is 0 or inf
        from the batch on both paths."""
        plan = self._plan
        if len(x) != len(plan.term_of):
            raise AlgebraError("vector length does not match algebra dimension")
        S = [0.0] * len(plan.exps)
        for v, k in zip(x, plan.term_of):
            v = float(v)
            S[k] += v * v
        total = sum(S)
        R2 = self._R_float * self._R_float
        if plan.t_lo * R2 <= total <= plan.t_hi * R2:
            return plan.solve_point(S, R2)
        return float(self.value_from_identity_batch([x])[0])

    def value_from_identity_batch(self, X):
        return _hs_lambda_batch(X, self.weights, self._R_float, self._plan)

    def exceeds_batch(self, P, Q, t):
        """d(p_i, q_i) > t_i with no root solve: d(e, x) <= t exactly when
        delta_(1/t) x lies in the Euclidean ball of radius R, the test that
        ``_sign`` makes in integers.  Each coordinate is scaled by t^(-w_i)
        before it is squared, so radii far below 1 stay in range; a square
        that overflows is a point far outside, and exceeds."""
        X = multiply_batch(-np.asarray(P, dtype=float), np.asarray(Q, dtype=float),
                           self.group)
        Y = X * np.asarray(t, dtype=float)[..., None] ** self._neg_w
        with np.errstate(over="ignore"):
            s = (Y * Y).sum(axis=1)
        if not np.isfinite(s).all() and not np.isfinite(X).all():
            raise SolverError("nonfinite coordinates")
        return s > self._R2_float

    def _sign(self, nums, den, rho):
        """With x = N / den, rho = u / v and R = a / b, the sign of
        sum_w S_w / (den^2 rho^(2w)) - R^2, S_w = sum of N_i^2 over the
        coordinates of weight w: for U the largest u^(2w) of the terms
        present, which every u^(2w) divides, the sign of

            b^2 sum_w S_w v^(2w) (U / u^(2w)) - a^2 den^2 U.

        A term with S_w = 0 needs no power of rho; the first term without
        one, by weight, is the ExactnessError."""
        return self._sums_sign(self._square_sums(nums), den, rho)

    def _sums_sign(self, S, den, rho):
        """``_sign`` from the sums S_w, one integer per weight of the plan."""
        if not isinstance(rho, Fraction):
            rho = Fraction(rho)
        u, v = rho.as_integer_ratio()
        if u <= 0:
            raise ValueError("comparison radius must be positive")
        terms = []
        for s, (w, e, r) in zip(S, self._exact_terms):
            if s:
                if r == 1:
                    up, vp = u ** e, v ** e
                else:
                    up, vp = int_power(u, e, r), int_power(v, e, r)
                    if up is None or vp is None:
                        raise ExactnessError(f"radius {rho} has no exact power for weight {w}")
                terms.append((s * vp, up))
        excess = self._ball_excess(terms, den)
        return (excess > 0) - (excess < 0)

    def _square_sums(self, nums):
        """S_w, the sum of N_i^2 over the coordinates of weight w, for each
        weight of the plan."""
        S = [0] * len(self._exact_terms)
        for n, k in zip(nums, self._plan.term_of):
            if n:
                S[k] += n * n
        return S

    def _ball_excess(self, terms, den):
        """b^2 sum_w S_w v^(2w) (U / u^(2w)) - a^2 den^2 U, the integer whose
        sign ``_sign`` returns, for terms (S_w v^(2w), u^(2w)) in weight
        order and U the last u^(2w), which each u^(2w) divides.  The
        dilation orbits evaluate it on integer points of a polynomial."""
        U = terms[-1][1] if terms else 1
        a2, b2 = self._R2
        return sum(t * (U // up) for t, up in terms) * b2 - a2 * den * den * U

    # the base method, bound here as well because perfbench/tracer.py wraps
    # HSDistance.__dict__["compare"]
    compare = QuasiDistance.compare


# ---------------------------------------------------------------------------
# unit-ball oracle distances
# ---------------------------------------------------------------------------

class UnitBallDistance(QuasiDistance):
    """Gauge distance of a caller-supplied unit-ball membership oracle.

    The oracle must satisfy the star-interval property: for every p the set of
    lambda with delta_(1/lambda)(p) in K is a closed interval [d(e,p), inf).
    bound_radius is a Euclidean radius certainly containing K (for bracketing).
    The gauge is bisected to a relative width of 1e-10.
    """

    kind = "unit_ball_oracle"

    def __init__(self, group: GradedGroup, oracle, bound_radius: float):
        super().__init__(group)
        self.oracle = oracle
        self.bound_radius = float(bound_radius)

    def _inside(self, x, lam):
        pt = dilate(tuple(x), 1.0 / lam, self.group)
        return bool(self.oracle(pt))

    def value_from_identity(self, x):
        xf = tuple(float(v) for v in x)
        if not any(xf):
            return 0.0
        n = len(xf)
        w = [float(v) for v in self.weights]
        R = self.bound_radius
        lam_hi = max((abs(v) * math.sqrt(n) / (R * 0.5)) ** (1.0 / wi)
                     for v, wi in zip(xf, w) if v != 0)
        lam_hi = max(lam_hi, 1e-300)
        grow = 0
        while not self._inside(xf, lam_hi):
            lam_hi *= 2.0
            grow += 1
            if grow > 200:
                raise OracleError("bracketing failure: oracle never accepts large dilations")
        lam_lo = lam_hi
        shrink = 0
        while self._inside(xf, lam_lo):
            lam_lo *= 0.5
            shrink += 1
            if shrink > 2000:
                raise OracleError("bracketing failure: oracle accepts arbitrarily small dilations")
        for _ in range(200):
            mid = 0.5 * (lam_lo + lam_hi)
            if self._inside(xf, mid):
                lam_hi = mid
            else:
                lam_lo = mid
            if lam_hi - lam_lo <= 1e-10 * lam_hi:
                break
        return lam_hi


def disk_union_segment_ball() -> UnitBallDistance:
    """Plane quasi-distance whose unit ball is the closed unit disk plus the
    segment [-2, 2] x {0}; its gauge from the origin is discontinuous on the
    punctured x-axis."""
    plane = abelian_group([1, 1])

    def oracle(pt):
        x, y = pt
        return x * x + y * y <= 1.0 or (y == 0.0 and abs(x) <= 2.0)

    return UnitBallDistance(plane, oracle, bound_radius=2.0)


def punctured_disk_ball() -> UnitBallDistance:
    """Plane quasi-distance whose unit ball is the closed unit disk minus the
    half-open x-axis segments [-1, -1/2) and (1/2, 1]."""
    plane = abelian_group([1, 1])

    def oracle(pt):
        x, y = pt
        if x * x + y * y > 1.0:
            return False
        if y == 0.0 and 0.5 < abs(x) <= 1.0:
            return False
        return True

    return UnitBallDistance(plane, oracle, bound_radius=1.0)


# ---------------------------------------------------------------------------
# powers (snowflakes), products, lp-combinations
# ---------------------------------------------------------------------------

def power_distance(d: HSDistance, t) -> HSDistance:
    """d^(1/t) for an HS distance d: the HS distance of the same R on the
    t-power of its group, since lam solves sum_i x_i^2 lam^(-2 w_i) = R^2
    exactly when lam^(1/t) solves sum_i x_i^2 mu^(-2 t w_i) = R^2."""
    if not isinstance(d, HSDistance):
        raise ValueError("powers are built over an HS distance")
    return HSDistance(power_group(d.group, t), d.R)


def euclidean_line() -> HSDistance:
    """The line with |x - y| (HS distance on the 1-dimensional abelian group)."""
    return HSDistance(abelian_group([1]))


def snowflake_line(s=Fraction(2)) -> HSDistance:
    """The line with |x - y|^(1/s)."""
    return power_distance(euclidean_line(), s)


class _CombinedDistance(QuasiDistance):
    """Shared plumbing for componentwise combinations on a product group: a
    kind defines ``combine(v1, v2)``, the value from the values of the two
    components (floats, or arrays rowwise), and its exact ``_sign``.

    ``slice1`` and ``slice2`` are the positions of each component's
    coordinates in the product, in the component's own coordinate order, so
    ``split`` hands a component its point as that component reads it, also
    when the component is itself a product."""

    def __init__(self, d1: QuasiDistance, d2: QuasiDistance):
        self.components = (d1, d2)
        group, (self.slice1, self.slice2) = _product(d1.group, d2.group)
        super().__init__(group)
        self.exact_capable = d1.exact_capable and d2.exact_capable

    def split(self, x):
        if len(x) != self.group.dim:
            raise AlgebraError("vector length does not match algebra dimension")
        return (tuple(x[i] for i in self.slice1), tuple(x[i] for i in self.slice2))

    def split_batch(self, X):
        X = np.asarray(X, dtype=float)
        if X.shape[-1:] != (self.group.dim,):
            raise AlgebraError("vector length does not match algebra dimension")
        return X[:, list(self.slice1)], X[:, list(self.slice2)]

    def value_from_identity(self, x):
        (x1, x2), (d1, d2) = self.split(x), self.components
        return float(self.combine(d1.value_from_identity(x1), d2.value_from_identity(x2)))

    def value_from_identity_batch(self, X):
        (X1, X2), (d1, d2) = self.split_batch(X), self.components
        return self.combine(d1.value_from_identity_batch(X1), d2.value_from_identity_batch(X2))


class ProductMaxDistance(_CombinedDistance):
    """max(d1, d2) on the direct product; preserves the weak covering property."""

    kind = "product_max"

    def combine(self, v1, v2):
        return np.maximum(v1, v2)

    def _sign(self, nums, den, rho):
        n1, n2 = self.split(nums)
        s1 = self.components[0]._sign(n1, den, rho)
        s2 = self.components[1]._sign(n2, den, rho)
        if s1 > 0 or s2 > 0:
            return 1
        if s1 == 0 or s2 == 0:
            return 0
        return -1


def _is_line(d):
    """The Euclidean line: an HS distance on one coordinate of weight 1,
    whose value at x is |x| / R."""
    return isinstance(d, HSDistance) and d.weights == (1,)


class LpComboDistance(_CombinedDistance):
    """(d1^r + d2^r)^(1/r) on the direct product, r >= 1.

    Exact comparisons exist for r = 1 when one component is the Euclidean
    line, whose values |x| / R are rational, and the other is exact-capable
    (the line times a snowflake, the configuration of the covering
    counterexamples): d <= rho exactly when the other leg is at most rho
    minus the line's value.  Any other r has margin certificates only.

    In float, r = 1 is the sum of the two values, and any other r takes
    them over the larger one, m ((v1 / m)^r + (v2 / m)^r)^(1/r) with
    m = max(v1, v2), so that no power overflows where the value is finite.
    """

    kind = "lp_combo"

    def __init__(self, d1, d2, r):
        super().__init__(d1, d2)
        self.r = Fraction(r)
        if self.r < 1:
            raise ValueError("lp exponent must be >= 1")
        self.exact_capable = self.r == 1 and self.exact_capable and (
            _is_line(d1) or _is_line(d2))

    def combine(self, v1, v2):
        if self.r == 1:
            return v1 + v2
        rf = float(self.r)
        m = np.maximum(v1, v2)
        # 0 at 0, and inf where a value is inf
        scale = np.where((m > 0) & (m < np.inf), m, 1.0)
        return m * ((v1 / scale) ** rf + (v2 / scale) ** rf) ** (1.0 / rf)

    def _sign(self, nums, den, rho):
        if self.r != 1:
            raise ExactnessError("no exact comparison for this lp combination")
        rho = Fraction(rho)
        n1, n2 = self.split(nums)
        d1, d2 = self.components
        for line, nl, other, no in ((d1, n1, d2, n2), (d2, n2, d1, n1)):
            if not _is_line(line):
                continue
            rem = rho - Fraction(abs(nl[0]), den) / line.R
            if rem < 0:
                return 1
            if rem == 0:
                # d = |x_line| / R + other >= rho, strict unless the other leg is 0
                return 1 if any(no) else 0
            return other._sign(no, den, rem)
        raise ExactnessError("no exact comparison for this lp combination")


def product_max_distance(d1, d2) -> ProductMaxDistance:
    return ProductMaxDistance(d1, d2)


def lp_combination_distance(d1, d2, r) -> LpComboDistance:
    return LpComboDistance(d1, d2, r)


# ---------------------------------------------------------------------------
# quotient distances through surjective graded morphisms
# ---------------------------------------------------------------------------

class QuotientDistance(QuasiDistance):
    """Distance induced by an HS distance on the target of a surjective graded
    morphism: d(p, q) = min of dhat(e, y) over the fiber of p^-1 q.

    The minimum has a closed form, d(e, x) = dhat(e, M x), with the rational
    matrix M = A^T (A A^T)^-1 built once from the morphism's matrix A:

    * in exponential coordinates the morphism is the linear map A, so the
      fiber of x is the affine space {y : A y = x}, which is S x + K for the
      section S and the kernel K;
    * A is graded, so the fiber is the product over the weights w of the
      spaces {y_w : A_w y_w = x_w}, and A A^T is block-diagonal: M x holds in
      every block the point of least norm, P_w (S x)_w with P_w the orthogonal
      projection onto K_w^perp;
    * the HS gauge increases in each block norm |y_w|, so M x minimizes it.

    The gauge reads M x only through its squared block norms, and M maps
    the weight-w coordinates of the target into those of the source, so
    |(M x)_w|^2 = x_w^T G_w x_w for the Gram matrix G = M^T M = (A A^T)^-1,
    block-diagonal by weight as A A^T is.  So nothing is lifted to the
    source group:

    * float values, scalar and batch, are those of the HS distance with
      dhat's R on the target group, at the point L x, where L is the
      block-diagonal float factor with L_w^T L_w = G_w (the transposed
      Cholesky factor of each block), so |L_w x_w|^2 = x_w^T G_w x_w and no
      sum can go below 0.  That HS distance also decides every zero, tiny,
      huge and non-finite point.  A coordinate projection has G = L = I:
      its points go to that HS distance as they are, and its values are
      those of dhat at M x, bit for bit;
    * ``_sign`` hands that HS distance the sums x_w^T G_w x_w in integers,
      from G over one common denominator.

    Quotient distances are exact-capable whenever ``dhat`` is.  ``dhat``
    must be an ``HSDistance`` itself: the quotient reads only its group and
    R, so the overrides of a subclass would not be seen.  ``grid_value`` is
    the independent brute-force oracle used in tests.
    """

    kind = "quotient"

    def __init__(self, dhat: QuasiDistance, morphism: MorphismMatrix):
        if type(dhat) is not HSDistance:
            raise ValueError("quotient distances are built over an HS distance, "
                             "an HSDistance itself and not a subclass")
        if dhat.group.algebra != morphism.source:
            raise ValueError("the morphism's source is not the group of dhat")
        if not validate_morphism(morphism).ok:
            raise ValueError("quotient requires a graded Lie algebra morphism")
        if not morphism.is_surjective():
            raise ValueError("quotient requires a surjective morphism")
        self.dhat = dhat
        self.morphism = morphism
        self.exact_capable = dhat.exact_capable
        super().__init__(make_group(morphism.target, name="quotient_target"))
        self._hs = HSDistance(self.group, dhat.R)
        # G = M^T M for the minimizing lift M, and per weight of the target
        # its block: the coordinates, the float factor, and the terms
        # (i, j, c) of x^T G x for i <= j and G_ij nonzero, c = G_ii or 2 G_ij
        lift = min_norm_right_inverse(morphism.entries)
        n = self.group.dim
        gram = [[sum(row[i] * row[j] for row in lift) for j in range(n)] for i in range(n)]
        factor = np.zeros((n, n))
        blocks = []
        for k in range(len(self._hs._plan.weights)):
            ix = [i for i in range(n) if self._hs._plan.term_of[i] == k]
            factor[np.ix_(ix, ix)] = np.linalg.cholesky(
                [[float(gram[i][j]) for j in ix] for i in ix]).T
            blocks.append([(i, j, gram[i][j] if i == j else 2 * gram[i][j])
                           for i in ix for j in ix if i <= j and gram[i][j]])
        # L in numpy, and its rows as (j, L_ij) for L_ij nonzero, or None when
        # L is the identity, as for a coordinate projection: then L x is x
        identity = (factor == np.eye(n)).all()
        self._factor_T = None if identity else factor.T
        self._factor_rows = None if identity else [
            [(j, float(c)) for j, c in enumerate(row) if c] for row in factor]
        # the terms as integers c g over the lcm g of the denominators
        g = self._gram_scale = math.lcm(*(c.denominator for t in blocks for _i, _j, c in t))
        self._gram_int = [[(i, j, int(c * g)) for i, j, c in terms] for terms in blocks]
        # the exact section and the kernel basis in float, for grid_value
        self.section = np.array(_right_inverse_columns(morphism), dtype=float)
        self.kernel = np.array(morphism.kernel_basis(), dtype=float).reshape(
            -1, morphism.source.dim)

    def value_from_identity(self, x):
        """The target's HS value at L x, which is computed in plain floats."""
        if self._factor_rows is not None:
            if len(x) != self.group.dim:
                raise AlgebraError("vector length does not match algebra dimension")
            x = [float(v) for v in x]
            x = [sum(c * x[j] for j, c in row) for row in self._factor_rows]
        return self._hs.value_from_identity(x)

    def value_from_identity_batch(self, X):
        if self._factor_T is not None:
            X = np.asarray(X, dtype=float)
            if X.ndim != 2 or X.shape[1] != self.group.dim:
                raise AlgebraError("vector length does not match algebra dimension")
            # an infinite coordinate times a zero of L is NaN, a point that
            # HS rejects as it rejects the infinite one
            with np.errstate(over="ignore", invalid="ignore"):
                X = X @ self._factor_T
        return self._hs.value_from_identity_batch(X)

    def _sign(self, nums, den, rho):
        # with G = Gi / g for an integer Gi, s_w = N^T Gi N / (g den^2),
        # which is g N^T Gi N over (g den)^2, the form HS's sums take
        g = self._gram_scale
        return self._hs._sums_sign(
            [g * sum(c * nums[i] * nums[j] for i, j, c in terms) for terms in self._gram_int],
            g * den, rho)

    # the base methods, bound here as well because perfbench/ calls
    # value_batch_refined and wraps QuotientDistance.__dict__["value"]
    value = QuasiDistance.value
    value_batch_refined = QuasiDistance.value_batch

    # -- the section lift and the grid oracle ----------------------------
    def lift(self, p):
        return self.section @ np.asarray(p, dtype=float)

    def _fiber_displacements(self, p, q, T):
        """Displacements lift(p)^-1 * (k(t) * lift(q)) for rows t of T."""
        ghat = self.dhat.group
        m = len(T)
        Q = multiply_batch(T @ self.kernel, np.repeat(self.lift(q)[None, :], m, axis=0), ghat)
        return multiply_batch(np.repeat(-self.lift(p)[None, :], m, axis=0), Q, ghat)

    def grid_value(self, p, q, resolution=16, levels=4):
        """Refining-grid minimization over the kernel box: the brute oracle.
        Each level shrinks the box threefold around the best point so far."""
        kdim = len(self.kernel)
        if kdim == 0:
            return self.dhat.value(self.lift(p), self.lift(q))
        base = float(self.dhat.value(self.lift(p), self.lift(q)))
        if base == 0.0:
            return 0.0
        center = np.zeros(kdim)
        half = 4.0 * base
        best = base
        for _ in range(levels):
            axes = [np.linspace(c - half, c + half, resolution) for c in center]
            mesh = np.meshgrid(*axes, indexing="ij")
            T = np.stack([m.ravel() for m in mesh], axis=1)
            vals = self.dhat.value_from_identity_batch(
                self._fiber_displacements(p, q, T))
            i = int(np.argmin(vals))
            if vals[i] < best:
                best = float(vals[i])
                center = T[i]
            else:
                center = T[i] if vals[i] == best else center
            half /= 3.0
        return best


def _right_inverse_columns(m: MorphismMatrix):
    """Exact right inverse S (source_dim x target_dim) with entries @ S = I."""
    A = m.entries
    nt, ns = len(A), len(A[0])
    aug = [list(A[r]) + [Fraction(1 if c == r else 0) for c in range(nt)]
           for r in range(nt)]
    red, pivots = rref(aug)
    S = [[Fraction(0)] * nt for _ in range(ns)]
    for rrow, pc in zip(red, pivots):
        if pc >= ns:
            raise ValueError("morphism is not surjective")
        for c in range(nt):
            S[pc][c] = rrow[ns + c]
    return tuple(tuple(row) for row in S)


def quotient_distance(dhat: QuasiDistance, morphism: MorphismMatrix) -> QuotientDistance:
    return QuotientDistance(dhat, morphism)


# ---------------------------------------------------------------------------
# sub-Riemannian distance on the first Heisenberg group
# ---------------------------------------------------------------------------

def _cc_arc_parameter(mu: float) -> float:
    """Solve (theta - sin theta) / (8 sin^2(theta/2)) = mu for theta in (0, 2pi).

    The left side increases from 0 to infinity; Newton with bisection
    safeguard.  mu is |z| / rho^2 of the target point.
    """

    def f(th):
        s = math.sin(0.5 * th)
        return (th - math.sin(th)) / (8.0 * s * s)

    lo, hi = 1e-12, TWO_PI - 1e-12
    if mu <= f(lo):
        return lo
    if mu >= f(hi):
        return hi
    th = min(max(12.0 * mu, lo), 0.9 * TWO_PI) if mu < 0.5 else 0.5 * TWO_PI
    for _ in range(100):
        s = math.sin(0.5 * th)
        c = math.cos(0.5 * th)
        val = (th - math.sin(th)) / (8.0 * s * s)
        if val > mu:
            hi = th
        else:
            lo = th
        dval = 0.25 - (th - math.sin(th)) * c / (8.0 * s ** 3)
        step = (val - mu) / dval if dval != 0 else 0.0
        nt = th - step
        if not (lo < nt < hi):
            nt = 0.5 * (lo + hi)
        if abs(nt - th) <= 1e-15 * th:
            th = nt
            break
        th = nt
    return th


def cc_distance_h1_from_identity(x: float, y: float, z: float, a: float = 1.0) -> float:
    """Exact sub-Riemannian distance from the identity on the first Heisenberg
    group, for the metric making (aX, aY) orthonormal.

    Planar displacement rho and area budget |z| determine a circular-arc
    geodesic; pure vertical targets are reached by full circles of length
    2 sqrt(pi |z|), pure horizontal ones by straight segments.
    """
    rho2 = x * x + y * y
    zz = abs(z)
    if zz <= 1e-14 * rho2:
        return math.sqrt(rho2) / a
    if rho2 == 0.0:
        return 2.0 * math.sqrt(math.pi * zz) / a
    mu = zz / rho2
    if mu >= 1e10:
        # near-axis asymptotics: full circle minus the chord
        return (2.0 * math.sqrt(math.pi * zz) - math.sqrt(rho2)) / a
    th = _cc_arc_parameter(mu)
    rho = math.sqrt(rho2)
    return rho * th / (2.0 * math.sin(0.5 * th)) / a


class CCHeisenbergDistance(QuasiDistance):
    """Sub-Riemannian distance on the first Heisenberg group (scale a).

    Left-invariant and one-homogeneous with respect to the standard dilations
    (lambda, lambda, lambda^2).  Float backend only, so its certificates are
    margin families.
    """

    kind = "cc_h1"
    exact_capable = False

    def __init__(self, a=1.0):
        super().__init__(heisenberg_group(1))
        self.a = float(a)
        # not 0 < a also catches NaN
        if not 0 < self.a:
            raise ValueError("scale must be positive")
        if self.a == math.inf:
            raise ValueError("scale must be finite")

    def value_from_identity(self, x):
        if len(x) != 3:
            raise AlgebraError("vector length does not match algebra dimension")
        x, y, z = (float(v) for v in x)
        # as for HS: a NaN or infinite coordinate is an error, not a distance
        # that NaN comparisons would call covered
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise SolverError("nonfinite coordinates")
        v = cc_distance_h1_from_identity(x, y, z, self.a)
        if math.isfinite(v):
            return v
        # a square or a product overflowed at a finite point; by homogeneity
        # d(x, y, z) = s d(x / s, y / s, z / s^2)
        s = max(abs(x), abs(y), math.sqrt(abs(z)))
        return s * cc_distance_h1_from_identity(x / s, y / s, z / s / s, self.a)


# ---------------------------------------------------------------------------
# generic utilities
# ---------------------------------------------------------------------------

def project(d: QuasiDistance, V, factors):
    """The rows of V projected onto the unit sphere of d, then dilated by
    ``factors``: (points, radii), where a radius is its row's factor, the
    point's distance from the identity.  One batch solve and two batch
    dilations, whatever the rows.  A row whose projection fails (a zero row,
    or a distance that is zero or not finite) gets radius 0, whatever its
    point."""
    lam = d.value_from_identity_batch(V)
    ok = (lam > 0) & np.isfinite(lam)
    V = dilate_batch(V, 1.0 / np.where(ok, lam, 1.0), d.group)
    return dilate_batch(V, factors, d.group), np.where(ok, factors, 0.0)


def estimate_quasi_triangle_constant(d: QuasiDistance, sample_count: int,
                                     seed=0) -> float:
    """Empirical quasi-triangle constant: max d(p,q) / (d(p,m) + d(m,q)).

    The larger of two estimates from sampled points, Gaussian directions
    projected onto dilation spheres of log-uniform radius in [0.05, 1]:
    independent triples, and the sharper configuration (e, u, u*v) with u, v
    on dilation spheres, where the denominator d(e,u) + d(u, u*v) is the two
    sphere radii exactly: the radii of ``project``.
    """
    rng = np.random.default_rng(seed)

    def sample():
        V = rng.standard_normal((sample_count, d.group.dim))
        norms = np.linalg.norm(V, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        radii = np.exp(rng.uniform(math.log(0.05), math.log(1.0), size=sample_count))
        return project(d, V / norms, radii)

    best = 0.0
    P, _ = sample()
    M, _ = sample()
    Q, _ = sample()
    num = d.value_batch(P, Q)
    den = d.value_batch(P, M) + d.value_batch(M, Q)
    ok = den > 0
    if np.any(ok):
        best = float(np.max(num[ok] / den[ok]))
    U, ru = sample()
    V, rv = sample()
    W = multiply_batch(U, V, d.group)
    num = d.value_from_identity_batch(W)
    den = ru + rv
    ok = den > 0
    if np.any(ok):
        best = max(best, float(np.max(num[ok] / den[ok])))
    return best
