"""Graded nilpotent Lie algebras and their groups, in exponential coordinates.

An algebra is given by structure constants on a weighted basis: basis vector i
carries a positive rational weight w_i (the degree of the layer containing it)
and the bracket is the bilinear extension of a sparse table
[X_i, X_j] = sum_k c_ijk X_k.  The basis is kept in adapted order (weights
non-decreasing) so layer projections are contiguous slices.

The group sits on the same coordinates through the exponential map.  The
product is the Baker-Campbell-Hausdorff series, implemented in closed form
through step 3:

    p * q = p + q + [p,q]/2 + ([p,[p,q]] + [q,[q,p]])/12

which is the exact group law for every group of nilpotency step <= 3 (all the
groups this package constructs).  With rational inputs every operation here is
exact; batch variants operate on float numpy arrays for search workloads.
The inputs alone choose the backend: ``multiply`` and ``dilate`` are exact
when every coordinate (and the factor of ``dilate``) is rational, which for
``dilate`` needs the factor's power of every weight to be rational, and float
when any of them is a float, reading every coordinate as a float.  Each
number type has one table of structure constants, built once per algebra:
the exact product is ``displacement``, p^-1 q in integers over one
denominator from the integer table ``scaled_bracket``, and ``multiply`` of
rational points is ``displacement(inverse(p), q)`` read as Fractions; the
float products read ``float_bracket`` and ``float_weights``.  The float
product of two points is ``multiply_floats``, on coordinates already read
as floats, which ``multiply`` of non-rational points and the scalar distance
values both call; ``multiply_batch`` sums the same terms in the same order,
so the two agree bit for bit.  A batch row that overflows, or multiplies an
infinite coordinate by zero, holds inf or NaN without a numpy warning, and
a distance rejects it as it rejects the same scalar product (the HS and
quotient distances with ``SolverError``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exact_linalg import rank, span_basis
from .scalars import (all_exact, fmt_scalar, is_exact, over_common_denominator, parse_scalar,
                      rat_pow)

MAX_SUPPORTED_STEP = 3


class AlgebraError(ValueError):
    """Malformed structure constants or out-of-contract request."""


class UnsupportedStepError(AlgebraError):
    """Group law requested beyond the implemented BCH truncation depth."""


class ExactnessError(AlgebraError):
    """An exact-mode operation would produce an irrational result."""


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

def _normalize_bracket(dim, bracket):
    """Canonicalize a sparse bracket table to keys (i, j) with i < j, 0-based.

    Accepts entries for (i, j) and/or (j, i); when both orientations appear
    they must be antisymmetric negatives of each other.  Zero coefficients
    are dropped.
    """
    table = {}
    for (i, j), terms in bracket.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise AlgebraError(f"bracket index pair ({i},{j}) out of range for dim {dim}")
        if i == j:
            if any(c != 0 for _, c in terms):
                raise AlgebraError(f"nonzero bracket [X_{i},X_{i}]")
            continue
        sign = 1
        key = (i, j)
        if i > j:
            sign, key = -1, (j, i)
        acc = {}
        for k, c in terms:
            if not 0 <= k < dim:
                raise AlgebraError(f"bracket target index {k} out of range for dim {dim}")
            acc[k] = acc.get(k, Fraction(0)) + Fraction(c) * sign
        entry = tuple(sorted((k, v) for k, v in acc.items() if v != 0))
        if key in table and table[key] != entry:
            raise AlgebraError(
                f"bracket pair {key} given in both orientations with"
                " inconsistent (non-antisymmetric) coefficients")
        table[key] = entry
    return {k: v for k, v in table.items() if v}


@dataclass(frozen=True)
class StructureConstants:
    """A graded Lie algebra: dimension, layer weights, sparse bracket table.

    bracket maps (i, j) with i < j (0-based) to a tuple of (k, coefficient);
    [X_j, X_i] = -[X_i, X_j] is implied.
    """

    dim: int
    weights: tuple
    bracket: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise AlgebraError("dimension must be >= 1")
        w = tuple(Fraction(x) for x in self.weights)
        if len(w) != self.dim:
            raise AlgebraError("weights length must equal dim")
        if any(x <= 0 for x in w):
            raise AlgebraError("weights must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bracket", _normalize_bracket(self.dim, self.bracket))

    def __hash__(self):
        return hash((self.dim, self.weights, tuple(sorted(self.bracket.items()))))

    def __eq__(self, other):
        return (isinstance(other, StructureConstants)
                and self.dim == other.dim and self.weights == other.weights
                and self.bracket == other.bracket)

    @cached_property
    def scaled_bracket(self):
        """(L, table): L is the lcm of the denominators of the structure
        constants and table lists ((i, j), ((k, L c_ijk), ...)) with integer
        coefficients, so [a, b] = [a, b]_L / L for the bracket [., .]_L of
        the table.  Built once per algebra."""
        L = math.lcm(*(c.denominator for terms in self.bracket.values() for _k, c in terms))
        return L, tuple(((i, j), tuple((k, int(c * L)) for k, c in terms))
                        for (i, j), terms in self.bracket.items())

    @cached_property
    def float_bracket(self):
        """The bracket table with float coefficients, for the float products:
        a Fraction c times a float x is float(c) * x, so the float table gives
        the same bits without the Fraction dispatch.  Built once per algebra."""
        return tuple(((i, j), tuple((k, float(c)) for k, c in terms))
                     for (i, j), terms in self.bracket.items())

    @cached_property
    def float_weights(self):
        """The weights as floats, for the float dilations and solvers."""
        return tuple(float(w) for w in self.weights)

    def layers(self):
        """Map weight -> tuple of basis indices (the layer decomposition)."""
        out = {}
        for i, w in enumerate(self.weights):
            out.setdefault(w, []).append(i)
        return {w: tuple(ix) for w, ix in sorted(out.items())}

    @cached_property
    def _bracket_rows(self):
        """a -> {b: terms of [X_a, X_b]} for the nonzero brackets of the
        integer table of ``scaled_bracket``, in both orientations."""
        rows = {}
        for (i, j), terms in self.scaled_bracket[1]:
            rows.setdefault(i, {})[j] = terms
            rows.setdefault(j, {})[i] = tuple((k, -c) for k, c in terms)
        return rows

    def step(self) -> int:
        """Nilpotency step: length of the lower central series."""
        return self._step

    @cached_property
    def _step(self):
        # [X_a, v] from the row of each X_a that has brackets; spans only,
        # so the brackets may be those of the table scaled by L
        current = [_unit(self.dim, i) for i in range(self.dim)]
        s = 0
        while current:
            s += 1
            nxt = []
            for row in self._bracket_rows.values():
                for v in current:
                    out = [0] * self.dim
                    for j, terms in row.items():
                        if v[j]:
                            for k, c in terms:
                                out[k] += c * v[j]
                    if any(out):
                        nxt.append(out)
            current = span_basis(nxt)
        return s


def _unit(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return tuple(v)


def bracket(a, b, alg: StructureConstants):
    """[a, b]: bilinear extension of the structure constants. Exact on rationals."""
    if len(a) != alg.dim or len(b) != alg.dim:
        raise AlgebraError("vector length does not match algebra dimension")
    return _bracket_items(a, b, alg.bracket.items(), Fraction(0))


def _bracket_items(a, b, items, zero):
    """[a, b] for the entries ((i, j), ((k, c_ijk), ...)) of a bracket table,
    with ``zero`` in the coordinates no entry reaches: ``bracket`` on
    Fractions, ``float_bracket`` on floats and the integer table of
    ``scaled_bracket`` on integers, each with the zero of its type.  A zero
    derived from the inputs would be NaN at an infinite float coordinate."""
    out = [zero] * len(a)
    for (i, j), terms in items:
        coef = a[i] * b[j] - a[j] * b[i]
        if coef == 0:
            continue
        for k, c in terms:
            out[k] = out[k] + c * coef
    return tuple(out)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    issues: list

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"ok": self.ok, "issues": self.issues}


def validate_algebra(alg: StructureConstants) -> ValidationReport:
    """Check grading compatibility and Jacobi; list every violation.

    Antisymmetry is canonical by construction (only i<j pairs are stored), so
    the report focuses on the two identities that can actually fail for a
    normalized table, plus index sanity already enforced at construction.
    Nilpotency needs no check: positive weights and a grading-compatible
    bracket force it.
    """
    issues = []
    w = alg.weights
    for (i, j), terms in alg.bracket.items():
        for k, c in terms:
            if c != 0 and w[k] != w[i] + w[j]:
                issues.append({
                    "kind": "grading",
                    "pair": [i + 1, j + 1],
                    "target": k + 1,
                    "detail": f"weight {w[k]} != {w[i]} + {w[j]}",
                })
    for triple in _jacobi_violations(alg):
        issues.append({
            "kind": "jacobi",
            "triple": [t + 1 for t in triple],
            "detail": "cyclic bracket sum is nonzero",
        })
    return ValidationReport(ok=not issues, issues=issues)


def _jacobi_violations(alg):
    """The triples i < j < k, in lexicographic order, whose cyclic sum
    [X_i,[X_j,X_k]] + [X_j,[X_k,X_i]] + [X_k,[X_i,X_j]] is nonzero.  Only the
    triples with a nonzero double bracket are visited: [X_a, X_m] != 0 for a
    target m of a nonzero [X_b, X_c]."""
    row = alg._bracket_rows
    triples = {tuple(sorted((a, b, c)))
               for (b, c), terms in alg.scaled_bracket[1] for m, _c in terms
               for a in row.get(m, ()) if a != b and a != c}
    out = []
    for i, j, k in sorted(triples):
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in row.get(b, {}).get(c, ()):
                for t, ct in row.get(a, {}).get(m, ()):
                    total[t] = total.get(t, 0) + cm * ct
        if any(total.values()):
            out.append((i, j, k))
    return out


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedGroup:
    """A simply connected graded group identified with its algebra
    coordinates, given by its algebra and its name.  ``step``, the algebra's
    nilpotency step, is derived once on construction and kept as a plain
    attribute, since the float products read it on every call."""

    algebra: StructureConstants
    step: int = field(init=False)
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "step", self.algebra.step())

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def weights(self):
        return self.algebra.weights

    def identity(self):
        return tuple(Fraction(0) for _ in range(self.dim))


def make_group(alg: StructureConstants, name="") -> GradedGroup:
    report = validate_algebra(alg)
    if not report.ok:
        raise AlgebraError(f"invalid algebra for group '{name}': {report.issues}")
    return GradedGroup(algebra=alg, name=name)


def multiply(p, q, group: GradedGroup):
    """BCH product in exponential coordinates.

    Rational points (``int`` or ``Fraction`` coordinates) multiply exactly,
    through the integer BCH of ``displacement``, and come back as Fractions.
    Otherwise every coordinate is read as a float, once, and the product is
    ``multiply_floats``.
    """
    if all_exact(p) and all_exact(q):
        nums, den = displacement(inverse(p, group), q, group)
        return tuple(Fraction(n, den) for n in nums)
    return multiply_floats([float(x) for x in p], [float(x) for x in q], group)


def multiply_floats(p, q, group: GradedGroup):
    """The float BCH product of points whose coordinates are Python floats
    already, the one float product of single points: ``multiply`` reads its
    points into it, and so does ``QuasiDistance.value`` for p^-1 q, without
    the exactness test.  The series is summed term by term on
    ``float_bracket`` in the order and with the scalars of ``multiply_batch``,
    so the two give the same floats.
    """
    if group.step > MAX_SUPPORTED_STEP:
        raise UnsupportedStepError(
            f"group step {group.step} exceeds supported truncation {MAX_SUPPORTED_STEP}")
    alg = group.algebra
    if len(p) != alg.dim or len(q) != alg.dim:
        raise AlgebraError("vector length does not match algebra dimension")
    items = alg.float_bracket
    out = [x + y for x, y in zip(p, q)]
    pq = _bracket_items(p, q, items, 0.0)
    if any(pq):
        out = [x + 0.5 * y for x, y in zip(out, pq)]
    if group.step >= 3:
        ppq = _bracket_items(p, pq, items, 0.0)
        qqp = _bracket_items(q, tuple(-y for y in pq), items, 0.0)
        corr = [x + y for x, y in zip(ppq, qqp)]
        if any(corr):
            out = [x + (1 / 12) * y for x, y in zip(out, corr)]
    return tuple(out)


def displacement(p, q, group: GradedGroup):
    """p^-1 q as (numerators, denominator): a list of integers over one
    positive integer, exact for rational (or float) coordinates.  Either
    point may be given as the ``ExactPoint`` of ``over_common_denominator``,
    which is then read without converting it again.

    With p = P / a and q = Q / b over the least common denominator of each
    point, and [., .]_L the bracket of ``scaled_bracket`` (so [x, y] =
    [x, y]_L / L), put B = [P, Q]_L.  The BCH product of -p and q is then

        (a Q - b P) / (a b) - B / (2 L a b) + [b P + a Q, B]_L / (12 L^2 a^2 b^2),

    since [-p, [-p, q]] + [q, [q, -p]] = [p + q, [p, q]].  Through step 2
    that is (2 L (a Q - b P) - B) / (2 L a b), at step 3 the numerator
    12 L^2 a b (a Q - b P) - 6 L a b B + [b P + a Q, B]_L over 12 L^2 a^2 b^2.
    The bracket terms enter only where the table has brackets, the third
    only from step 3.  ``multiply`` of rational points is this product for
    the inverse of its first factor.
    """
    if group.step > MAX_SUPPORTED_STEP:
        raise UnsupportedStepError(
            f"group step {group.step} exceeds supported truncation {MAX_SUPPORTED_STEP}")
    P, a = over_common_denominator(p)
    Q, b = over_common_denominator(q)
    # on the numerators: an ExactPoint has length 2 whatever its dimension
    if len(P) != group.dim or len(Q) != group.dim:
        raise AlgebraError("vector length does not match algebra dimension")
    diff = [a * y - b * x for x, y in zip(P, Q)]
    ab = a * b
    L, table = group.algebra.scaled_bracket
    if not table:
        return diff, ab
    B = _bracket_items(P, Q, table, 0)
    k = 2 * L
    if group.step < 3:
        return [k * x - y for x, y in zip(diff, B)], k * ab
    C = _bracket_items([b * x + a * y for x, y in zip(P, Q)], B, table, 0)
    k2 = 3 * k * ab
    k1 = k2 * k
    return [k1 * x - k2 * y + z for x, y, z in zip(diff, B, C)], k1 * ab


def inverse(p, group: GradedGroup):
    """Group inverse: exp(v)^(-1) = exp(-v) at every step, exact."""
    return tuple(-x for x in p)


def dilate(p, lam, group: GradedGroup):
    """Coordinate i scaled by lam**w_i.

    The inputs decide the backend: the result is exact when lam and every
    coordinate are rational (``int`` or ``Fraction``), which needs lam^w_i
    rational for every weight (an ``ExactnessError`` otherwise), and float
    when any of them is a float.
    """
    w = group.weights
    if len(p) != len(w):
        raise AlgebraError("vector length does not match algebra dimension")
    if is_exact(lam) and all_exact(p):
        lam = Fraction(lam)
        if lam <= 0:
            raise AlgebraError("dilation factor must be positive")
        factors = [rat_pow(lam, wi) for wi in w]
        for wi, f in zip(w, factors):
            if f is None:
                raise ExactnessError(
                    f"lambda={lam} has no exact power for weight {wi}")
        return tuple(x * f for x, f in zip(p, factors))
    lamf = float(lam)
    if lamf <= 0:
        raise AlgebraError("dilation factor must be positive")
    return tuple(float(x) * lamf ** wi for x, wi in zip(p, group.algebra.float_weights))


# ---------------------------------------------------------------------------
# float batch backend (numpy); used by searches and solvers
# ---------------------------------------------------------------------------

def bracket_batch(A, B, alg: StructureConstants):
    """Rowwise bracket of float arrays of shape (m, n)."""
    out = np.zeros_like(A)
    for (i, j), terms in alg.float_bracket:
        coef = A[:, i] * B[:, j]
        coef -= A[:, j] * B[:, i]
        for k, c in terms:
            out[:, k] += c * coef
    return out


def multiply_batch(P, Q, group: GradedGroup):
    """Rowwise BCH product on float arrays of shape (m, n); row i is the
    ``multiply_floats`` of P[i] and Q[i]."""
    if group.step > MAX_SUPPORTED_STEP:
        raise UnsupportedStepError("unsupported step")
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    # numpy would broadcast a row of one entry and index past a short one
    if P.shape[-1:] != (group.dim,) or Q.shape[-1:] != (group.dim,):
        raise AlgebraError("vector length does not match algebra dimension")
    alg = group.algebra
    # the terms of ``multiply_floats`` in its order, each added into an array
    # this call owns, so that no sum or scaled copy is allocated.  A row that
    # overflows, or meets inf * 0, is inf or NaN as in the scalar product,
    # where the distances reject it, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        out = P + Q
        pq = bracket_batch(P, Q, alg)
        if group.step >= 3:
            # from the unscaled [P, Q], before pq is halved below
            corr = bracket_batch(P, pq, alg)
            corr += bracket_batch(Q, -pq, alg)
            corr *= 1 / 12
        pq *= 0.5
        out += pq
        if group.step >= 3:
            out += corr
    return out


def dilate_batch(P, lam, group: GradedGroup):
    """Rowwise dilation; lam is a scalar or an (m,) array.

    Row i is ``dilate(P[i], lam[i])`` up to rounding, but not bit for bit as
    the batch product is the scalar one: lam^w comes from numpy's vectorized
    power here and from the C library's pow in ``dilate``, and the two round
    differently, a few ulps apart at most.
    """
    P = np.asarray(P, dtype=float)
    if P.shape[-1:] != (group.dim,):
        raise AlgebraError("vector length does not match algebra dimension")
    lam = np.asarray(lam, dtype=float)
    w = np.array(group.algebra.float_weights)
    if lam.ndim == 0:
        return P * lam ** w
    return P * lam[:, None] ** w[None, :]


# ---------------------------------------------------------------------------
# built-in groups
# ---------------------------------------------------------------------------

def abelian_group(weights) -> GradedGroup:
    """R^n with the abelian law and dilations lam^w_i per coordinate."""
    w = sorted(Fraction(x) for x in weights)
    alg = StructureConstants(dim=len(w), weights=tuple(w), bracket={})
    return make_group(alg, name=f"abelian{tuple(map(str, w))}")


def heisenberg_group(n: int) -> GradedGroup:
    """n-th Heisenberg group, standard stratification, basis (X_1..X_n, Y_1..Y_n, Z)."""
    if n < 1:
        raise AlgebraError("heisenberg index must be >= 1")
    dim = 2 * n + 1
    weights = tuple([Fraction(1)] * (2 * n) + [Fraction(2)])
    br = {(j, n + j): ((dim - 1, Fraction(1)),) for j in range(n)}
    alg = StructureConstants(dim=dim, weights=weights, bracket=br)
    return make_group(alg, name=f"heisenberg({n})")


def heisenberg_nonstandard_group(alpha) -> GradedGroup:
    """First Heisenberg group graded by weights (1, alpha, alpha+1), alpha > 1.

    Same group law as heisenberg(1); only the dilations differ.  This grading
    is not a stratification and the degree-1 and degree-alpha layers do not
    commute, which is exactly what makes the group the minimal BCP obstruction.
    """
    a = Fraction(alpha)
    if a <= 1:
        raise AlgebraError("nonstandard exponent must be > 1")
    weights = (Fraction(1), a, a + 1)
    br = {(0, 1): ((2, Fraction(1)),)}
    alg = StructureConstants(dim=3, weights=weights, bracket=br)
    return make_group(alg, name=f"heisenberg_nonstandard({a})")


def free_step2_group(r: int) -> GradedGroup:
    """Free-nilpotent group of step 2 and rank r.

    Basis X_1..X_r (weight 1) followed by X_ij = [X_i, X_j] for i < j in
    lexicographic order (weight 2); dim = r + r(r-1)/2.
    """
    if r < 2:
        raise AlgebraError("free step-2 rank must be >= 2")
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    dim = r + len(pairs)
    weights = tuple([Fraction(1)] * r + [Fraction(2)] * len(pairs))
    br = {(i, j): ((r + idx, Fraction(1)),) for idx, (i, j) in enumerate(pairs)}
    alg = StructureConstants(dim=dim, weights=weights, bracket=br)
    return make_group(alg, name=f"free_step2({r})")


def direct_sum(parts):
    """Direct sum of algebras given as (weights, bracket) pairs.

    The basis is sorted by (weight, part, index), so weights stay
    non-decreasing; StructureConstants re-orients a bracket pair that the
    sort reverses.  Returns the StructureConstants and the map
    (part, local index) -> position.
    """
    basis = sorted((w, fi, li) for fi, (weights, _br) in enumerate(parts)
                   for li, w in enumerate(weights))
    pos = {(fi, li): p for p, (_w, fi, li) in enumerate(basis)}
    br = {(pos[fi, i], pos[fi, j]): tuple((pos[fi, k], c) for k, c in terms)
          for fi, (_w, part_br) in enumerate(parts) for (i, j), terms in part_br.items()}
    alg = StructureConstants(dim=len(basis), weights=tuple(w for w, _fi, _li in basis),
                             bracket=br)
    return alg, pos


def _product(g: GradedGroup, h: GradedGroup):
    """The direct product of g and h, and for each factor the positions of
    its coordinates in the product, in the factor's own coordinate order.
    ``direct_sum`` alone decides the basis order, so a factor that is itself
    a product is read as its own coordinates, whatever its factors were."""
    alg, pos = direct_sum([(g.weights, g.algebra.bracket), (h.weights, h.algebra.bracket)])
    slices = tuple(tuple(pos[fi, li] for li in range(grp.dim)) for fi, grp in enumerate((g, h)))
    return make_group(alg, name=f"product({g.name},{h.name})"), slices


def product_group(g: GradedGroup, h: GradedGroup) -> GradedGroup:
    """Direct product, layers merged weight-by-weight (see ``direct_sum``).
    The group keeps no record of its factors: a product distance takes
    their positions from ``_product``."""
    return _product(g, h)[0]


def power_group(g: GradedGroup, t) -> GradedGroup:
    """t-power: same algebra, every layer weight multiplied by t > 0."""
    t = Fraction(t)
    if t <= 0:
        raise AlgebraError("power exponent must be positive")
    alg = StructureConstants(dim=g.dim, weights=tuple(w * t for w in g.weights),
                             bracket=g.algebra.bracket)
    return make_group(alg, name=f"power({g.name},{t})")


def step3_rank3_group() -> GradedGroup:
    """Stratified step-3 group of rank 3 with the single relation [e2,e3] = 0.

    dim 10; used as the step-3 fixture: its grading is a stratification, but
    the slanted subspace span{e1, e2+[e1,e2], e3} is in direct sum with the
    derived algebra yet fails to generate a stratification.
    """
    # basis: e1 e2 e3 | f12 f13 | g112 g113 g212 g213 g313
    names = dict(e1=0, e2=1, e3=2, f12=3, f13=4, g112=5, g113=6, g212=7, g213=8, g313=9)
    one = Fraction(1)
    br = {
        (names["e1"], names["e2"]): ((names["f12"], one),),
        (names["e1"], names["e3"]): ((names["f13"], one),),
        (names["e1"], names["f12"]): ((names["g112"], one),),
        (names["e1"], names["f13"]): ((names["g113"], one),),
        (names["e2"], names["f12"]): ((names["g212"], one),),
        (names["e2"], names["f13"]): ((names["g213"], one),),
        (names["e3"], names["f12"]): ((names["g213"], one),),
        (names["e3"], names["f13"]): ((names["g313"], one),),
    }
    weights = tuple([Fraction(1)] * 3 + [Fraction(2)] * 2 + [Fraction(3)] * 5)
    alg = StructureConstants(dim=10, weights=weights, bracket=br)
    return make_group(alg, name="step3_rank3")


# tag -> (constructor, the names of its parameters in order)
_BUILTINS = {
    "abelian": (abelian_group, ("weights",)),
    "heisenberg": (lambda n: heisenberg_group(int(n)), ("n",)),
    "heisenberg_nonstandard": (heisenberg_nonstandard_group, ("alpha",)),
    "free_step2": (lambda rank: free_step2_group(int(rank)), ("rank",)),
    "step3_rank3": (step3_rank3_group, ()),
}


def builtin_group(name: str, **params) -> GradedGroup:
    """Construct a validated built-in group by tag.

    Tags: abelian(weights=...), heisenberg(n=...), heisenberg_nonstandard(alpha=...),
    free_step2(rank=...), step3_rank3().  Parameters a tag does not use are
    ignored, and a missing (or None) one is an AlgebraError naming it.
    Products and powers are built with product_group / power_group on
    existing groups.
    """
    if name not in _BUILTINS:
        raise AlgebraError(f"unknown built-in group tag '{name}'")
    make, names = _BUILTINS[name]
    for key in names:
        if params.get(key) is None:
            raise AlgebraError(f"built-in group '{name}' needs the parameter '{key}'")
    return make(*(params[key] for key in names))


# ---------------------------------------------------------------------------
# group-definition JSON (rationals as "p/q" strings, 1-based indices)
# ---------------------------------------------------------------------------

def group_to_json(group: GradedGroup) -> dict:
    alg = group.algebra
    return {
        "dim": alg.dim,
        "weights": [fmt_scalar(w) for w in alg.weights],
        "brackets": [
            {"i": i + 1, "j": j + 1,
             "terms": [{"k": k + 1, "c": fmt_scalar(c)} for k, c in terms]}
            for (i, j), terms in sorted(alg.bracket.items())
        ],
        "name": group.name,
    }


def group_from_json(data) -> GradedGroup:
    if isinstance(data, str):
        data = json.loads(data)
    dim = int(data["dim"])
    weights = tuple(parse_scalar(w) for w in data["weights"])
    br = {}
    for ent in data.get("brackets", []):
        i, j = int(ent["i"]) - 1, int(ent["j"]) - 1
        terms = tuple((int(t["k"]) - 1, parse_scalar(t["c"])) for t in ent["terms"])
        br[(i, j)] = terms
    alg = StructureConstants(dim=dim, weights=weights, bracket=br)
    return make_group(alg, name=data.get("name", "from_json"))


def load_group(path) -> GradedGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_json(json.load(fh))
