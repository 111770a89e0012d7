"""Grading-level structure: classification, decomposition, quotient witnesses.

The algebraic criterion driving everything else in this package is whether any
two layers of different degree fail to commute.  If they all commute, the
group splits as a direct product of powers of stratified groups of step <= 2
(decompose_commuting builds that splitting explicitly).  If some cross-degree
bracket survives, a three-dimensional quotient witness is extracted: a
surjective graded morphism from a generated subalgebra onto a power of a
non-standard Heisenberg algebra (heisenberg_quotient_witness).

All subspace decisions here are exact rational rank computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraError,
    GradedGroup,
    StructureConstants,
    ValidationReport,
    _unit,
    bracket,
    direct_sum,
)
from .exact_linalg import (
    in_span,
    nullspace,
    orthogonal_complement_within,
    rank,
    solve_in_span,
    span_basis,
)
from .scalars import fmt_scalar


class ClassificationError(AlgebraError):
    """Operation applied to an algebra outside its classification precondition."""


# ---------------------------------------------------------------------------
# commuting different layers
# ---------------------------------------------------------------------------

@dataclass
class ClassificationVerdict:
    commuting_different_layers: bool
    witness: tuple | None  # (t, s, i, j): [X_i, X_j] != 0 with weight(i)=t != s=weight(j)
    verdict: str

    def to_json(self):
        w = None
        if self.witness is not None:
            t, s, i, j = self.witness
            w = {"t": fmt_scalar(t), "s": fmt_scalar(s), "i": i + 1, "j": j + 1}
        return {
            "commuting_different_layers": self.commuting_different_layers,
            "witness": w,
            "bcp_admissible": self.commuting_different_layers,
            "verdict": self.verdict,
        }


def has_commuting_different_layers(alg: StructureConstants) -> ClassificationVerdict:
    """Decide [V_t, V_s] = 0 for all degrees t != s; exact.

    A true verdict means continuous homogeneous quasi-distances satisfying the
    Besicovitch Covering Property exist on the group; a false verdict (with a
    witness bracket pair) means no continuous self-similar quasi-distance can
    satisfy it.
    """
    w = alg.weights
    for (i, j), terms in sorted(alg.bracket.items()):
        if w[i] != w[j] and any(c != 0 for _, c in terms):
            t, s = w[i], w[j]
            txt = (f"cross-degree bracket [X_{i+1}, X_{j+1}] != 0 between layers of "
                   f"degree {t} and {s}: no continuous homogeneous (or self-similar) "
                   "quasi-distance on this group satisfies the Besicovitch Covering "
                   "Property")
            return ClassificationVerdict(False, (t, s, i, j), txt)
    txt = ("all layers of different degree commute: the group carries continuous "
           "homogeneous quasi-distances satisfying the Besicovitch Covering Property")
    return ClassificationVerdict(True, None, txt)


# ---------------------------------------------------------------------------
# stratifications
# ---------------------------------------------------------------------------

def is_stratification(alg: StructureConstants):
    """Whether the grading is a stratification: integer layers 1..s generated by V_1.

    Returns (bool, report dict).  The bracket condition [V_1, V_j] = V_{j+1}
    is an exact rank check; containment in V_{j+1} is automatic from grading
    compatibility, so equality reduces to dimension count of the bracket span.
    """
    layers = alg.layers()
    degrees = sorted(layers)
    s = len(degrees)
    report = {"degrees": [str(d) for d in degrees]}
    if degrees != [Fraction(k) for k in range(1, s + 1)]:
        report["reason"] = "layer degrees are not exactly 1..s"
        return False, report
    n = alg.dim
    for j in range(1, s):
        v1 = [_unit(n, i) for i in layers[Fraction(1)]]
        vj = [_unit(n, i) for i in layers[Fraction(j)]]
        span = [bracket(a, b, alg) for a in v1 for b in vj]
        got = rank(span)
        want = len(layers[Fraction(j + 1)])
        if got != want:
            report["reason"] = (f"bracket of layers 1 and {j} spans rank {got}, "
                                f"layer {j+1} has dimension {want}")
            return False, report
    report["reason"] = "ok"
    return True, report


def stratification_from_layer(alg: StructureConstants, candidate_rows):
    """Try to generate a stratification from a candidate first layer.

    candidate_rows is a basis of a subspace V in the algebra's coordinates.
    Builds V_{j+1} = [V, V_j] iteratively and checks the chain is a direct sum
    that exhausts the algebra.  Returns (ok, layers or reason).
    """
    n = alg.dim
    v = span_basis([tuple(Fraction(x) for x in row) for row in candidate_rows])
    chain = [v]
    total = list(v)
    while True:
        last = chain[-1]
        nxt = span_basis([bracket(a, b, alg) for a in v for b in last])
        if not nxt:
            break
        before = rank(total)
        if rank(total + nxt) != before + len(nxt):
            return False, ("generated layers are not in direct sum at depth "
                           f"{len(chain) + 1}")
        total += nxt
        chain.append(nxt)
        if len(chain) > n:
            return False, "generation does not terminate"
    if rank(total) != n:
        return False, "generated layers do not span the algebra"
    return True, chain


# ---------------------------------------------------------------------------
# morphisms of graded algebras
# ---------------------------------------------------------------------------

@dataclass
class MorphismMatrix:
    """Linear map between graded algebras; rows indexed by target basis.

    entries[r][c] is the coefficient of target basis vector r in the image of
    source basis vector c.
    """

    entries: tuple
    source: StructureConstants
    target: StructureConstants

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in r) for r in self.entries)
        if len(rows) != self.target.dim or any(len(r) != self.source.dim for r in rows):
            raise AlgebraError("morphism matrix shape does not match algebras")
        self.entries = rows

    def apply(self, vec):
        return tuple(sum(row[c] * vec[c] for c in range(self.source.dim))
                     for row in self.entries)

    def column(self, c):
        return tuple(row[c] for row in self.entries)

    def rank(self):
        return rank([self.column(c) for c in range(self.source.dim)])

    def is_surjective(self):
        return self.rank() == self.target.dim

    def kernel_basis(self):
        return nullspace(self.entries)

    def to_json(self):
        return {"entries": [[fmt_scalar(x) for x in row] for row in self.entries]}


def validate_morphism(m: MorphismMatrix):
    """Check the Lie and grading conditions; report every violation.

    Conditions: phi[a,b] = [phi a, phi b] on all source basis pairs, and each
    source basis vector of degree t maps into the degree-t layer of the target.
    """
    issues = []
    src, tgt = m.source, m.target
    tgt_layers = tgt.layers()
    for c in range(src.dim):
        col = m.column(c)
        w = src.weights[c]
        allowed = set(tgt_layers.get(w, ()))
        bad = [r for r in range(tgt.dim) if col[r] != 0 and r not in allowed]
        if bad:
            issues.append({"kind": "layer", "source_index": c + 1,
                           "detail": f"image hits target indices {[b+1 for b in bad]} "
                                     f"outside the degree-{w} layer"})
    units = [_unit(src.dim, i) for i in range(src.dim)]
    images = [m.column(c) for c in range(src.dim)]     # phi of each basis vector
    zero = (Fraction(0),) * tgt.dim
    for i in range(src.dim):
        for j in range(i + 1, src.dim):
            br = bracket(units[i], units[j], src)
            lhs = m.apply(br) if any(br) else zero
            rhs = bracket(images[i], images[j], tgt)
            if lhs != rhs:
                issues.append({"kind": "bracket", "pair": [i + 1, j + 1],
                               "detail": "phi[a,b] != [phi a, phi b]"})
    return ValidationReport(ok=not issues, issues=issues)


def is_graded_isomorphism(m: MorphismMatrix) -> bool:
    return (validate_morphism(m).ok and m.source.dim == m.target.dim
            and m.rank() == m.source.dim)


# ---------------------------------------------------------------------------
# subalgebras in a chosen rational basis
# ---------------------------------------------------------------------------

def subalgebra_constants(alg: StructureConstants, basis_rows):
    """Structure constants induced on the span of basis_rows.

    The rows must be linearly independent and their span closed under the
    bracket (checked exactly); weights require each basis row to be
    homogeneous, i.e. supported in a single layer.  Returns
    (StructureConstants, embedding MorphismMatrix into alg).
    """
    rows = [tuple(Fraction(x) for x in r) for r in basis_rows]
    if rank(rows) != len(rows):
        raise AlgebraError("subalgebra basis rows are dependent")
    weights = []
    for r in rows:
        degs = {alg.weights[i] for i, x in enumerate(r) if x != 0}
        if len(degs) != 1:
            raise AlgebraError("subalgebra basis row is not homogeneous")
        weights.append(degs.pop())
    order = sorted(range(len(rows)), key=lambda i: (weights[i], i))
    rows = [rows[i] for i in order]
    weights = [weights[i] for i in order]
    br = {}
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            vec = bracket(rows[a], rows[b], alg)
            coeffs = solve_in_span(rows, vec)
            if coeffs is None:
                raise AlgebraError("candidate basis span is not bracket-closed")
            terms = tuple((k, c) for k, c in enumerate(coeffs) if c != 0)
            if terms:
                br[(a, b)] = terms
    sub = StructureConstants(dim=len(rows), weights=tuple(weights), bracket=br)
    embed = MorphismMatrix(
        entries=tuple(tuple(rows[c][r] for c in range(len(rows)))
                      for r in range(alg.dim)),
        source=sub, target=alg)
    return sub, embed


def generated_subalgebra(alg: StructureConstants, seed_rows):
    """Basis of the Lie subalgebra generated by the seed vectors (exact closure)."""
    basis = span_basis([tuple(Fraction(x) for x in r) for r in seed_rows])
    while True:
        new = []
        for a in basis:
            for b in basis:
                v = bracket(a, b, alg)
                if any(x != 0 for x in v) and not in_span(basis + new, v):
                    new.append(v)
        if not new:
            return basis
        basis = span_basis(basis + new)


# ---------------------------------------------------------------------------
# decomposition of commuting-different-layer algebras
# ---------------------------------------------------------------------------

def decompose_commuting(alg: StructureConstants):
    """Split a commuting-different-layers algebra into powers of step <= 2 pieces.

    Returns a list of (t, factor) pairs where each factor is stratified of
    step <= 2 (weights 1 or 1,2) and the direct sum of the t-powers of the
    factors is isomorphic to alg; also returns the isomorphism as a
    MorphismMatrix from the reassembled algebra onto alg.

    The splitting peels the lowest degree t1: V_t1 + [V_t1, V_t1] splits off
    as a t1-power of a stratified algebra of step <= 2 (abelian when
    [V_t1, V_t1] = 0), and the orthogonal complement of the bracket image
    (coordinate inner product) keeps the rest of the degree-2*t1 layer.  The
    peeled factor is stratified by construction: the brackets of V_t1 span
    [V_t1, V_t1] by definition, and [V_t1, V_2t1] = 0 with Jacobi gives
    [[V_t1, V_t1], [V_t1, V_t1]] = 0.  The one claim checked is the result's:
    the reassembly must be a graded isomorphism onto alg.
    """
    verdict = has_commuting_different_layers(alg)
    if not verdict.commuting_different_layers:
        raise ClassificationError(
            "decomposition requires commuting different layers; witness: "
            f"{verdict.witness}")
    n = alg.dim
    factors = []          # (t, StructureConstants, rows embedding factor into alg)
    remaining = [_unit(n, i) for i in range(n)]

    def degree_of(row):
        degs = {alg.weights[i] for i, x in enumerate(row) if x != 0}
        if len(degs) != 1:
            raise AlgebraError("non-homogeneous basis row during decomposition")
        return degs.pop()

    while remaining:
        t1 = min(degree_of(r) for r in remaining)
        layer1 = [r for r in remaining if degree_of(r) == t1]
        remaining = [r for r in remaining if degree_of(r) != t1]
        brs = span_basis([bracket(a, b, alg) for a in layer1 for b in layer1])
        if brs:
            # no earlier peel touches degree 2*t1, so layer2 spans that layer
            layer2 = [r for r in remaining if degree_of(r) == 2 * t1]
            remaining = ([r for r in remaining if degree_of(r) != 2 * t1]
                         + orthogonal_complement_within(layer2, brs))
        sub, _ = subalgebra_constants(alg, layer1 + brs)
        norm = StructureConstants(dim=sub.dim, weights=tuple(w / t1 for w in sub.weights),
                                  bracket=sub.bracket)
        factors.append((t1, norm, layer1 + brs))

    iso = reassembly_isomorphism(alg, factors)
    if not is_graded_isomorphism(iso):
        raise AlgebraError("the peeled factors do not reassemble the algebra")
    return [(t, f) for t, f, _rows in factors], iso


def reassembly_isomorphism(alg: StructureConstants, factors) -> MorphismMatrix:
    """Isomorphism from the direct sum of t-powers of the factors onto alg."""
    assembled, pos = direct_sum([(tuple(w * t for w in f.weights), f.bracket)
                                 for t, f, _rows in factors])
    cols = [None] * assembled.dim
    for fi, (_t, f, rows) in enumerate(factors):
        for li in range(f.dim):
            cols[pos[fi, li]] = rows[li]
    entries = tuple(tuple(col[r] for col in cols) for r in range(alg.dim))
    return MorphismMatrix(entries=entries, source=assembled, target=alg)


# ---------------------------------------------------------------------------
# non-commuting witness: quotient onto a non-standard Heisenberg power
# ---------------------------------------------------------------------------

def nonstandard_heisenberg_power_algebra(t, s) -> StructureConstants:
    """Three-dimensional algebra with weights (t, s, t+s) and [Y1, Y2] = Y3.

    This is the t-power of the non-standard Heisenberg algebra of exponent s/t.
    """
    t, s = Fraction(t), Fraction(s)
    return StructureConstants(dim=3, weights=(t, s, t + s),
                              bracket={(0, 1): ((2, Fraction(1)),)})


def heisenberg_quotient_witness(alg: StructureConstants):
    """Extract the minimal obstruction witness from a non-commuting grading.

    Picks the lexicographically first basis pair (i, j) with a nonzero
    cross-degree bracket, generates the subalgebra spanned by that pair, and
    maps it onto the 3-dimensional power of a non-standard Heisenberg algebra
    (X1 -> Y1, X2 -> Y2, [X1,X2] -> Y3, everything of higher degree -> 0).

    Returns (subalgebra_basis_rows, MorphismMatrix, (t, s) exponent pair).
    """
    n = alg.dim
    pair = None
    for (i, j) in sorted(alg.bracket):
        if alg.weights[i] != alg.weights[j] and alg.bracket[(i, j)]:
            pair = (i, j)
            break
    if pair is None:
        raise ClassificationError("all different-degree layers commute: no witness")
    i, j = pair
    if alg.weights[i] > alg.weights[j]:
        i, j = j, i
    t, s = alg.weights[i], alg.weights[j]
    x1, x2 = _unit(n, i), _unit(n, j)
    x3 = bracket(x1, x2, alg)
    gen = generated_subalgebra(alg, [x1, x2])
    # order the generated basis with x1, x2, x3 first, the rest after
    lead = [x1, x2, x3]
    rest = []
    for row in gen:
        if not in_span(lead + rest, row):
            rest.append(row)
    basis_rows = lead + rest
    sub, _embed = subalgebra_constants(alg, basis_rows)
    # subalgebra_constants sorts by weight; locate the images of x1, x2, x3
    sub_rows = _embed.entries  # alg.dim x sub.dim, columns are basis vectors
    cols = [tuple(sub_rows[r][c] for r in range(alg.dim)) for c in range(sub.dim)]
    target = nonstandard_heisenberg_power_algebra(t, s)
    entries = [[Fraction(0)] * sub.dim for _ in range(3)]
    for c, col in enumerate(cols):
        if col == x1:
            entries[0][c] = Fraction(1)
        elif col == x2:
            entries[1][c] = Fraction(1)
        elif col == x3:
            entries[2][c] = Fraction(1)
    m = MorphismMatrix(entries=tuple(tuple(r) for r in entries),
                       source=sub, target=target)
    rep = validate_morphism(m)
    if not rep.ok or not m.is_surjective():
        raise AlgebraError(f"witness construction produced an invalid morphism: {rep.issues}")
    return [tuple(c) for c in cols], m, (t, s)


def classify_group(group: GradedGroup) -> dict:
    """Full classification payload for reports: verdict plus witness morphism."""
    verdict = has_commuting_different_layers(group.algebra)
    payload = verdict.to_json()
    strat, strat_report = is_stratification(group.algebra)
    payload["is_stratification"] = strat
    payload["stratification_report"] = strat_report
    payload["step"] = group.step
    if not verdict.commuting_different_layers:
        _basis, m, (t, s) = heisenberg_quotient_witness(group.algebra)
        payload["quotient_witness"] = {
            "exponent_pair": [fmt_scalar(t), fmt_scalar(s)],
            "morphism": m.to_json(),
        }
    return payload
