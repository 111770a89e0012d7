"""Exact linear algebra over the rationals.

Subspace questions in the classification pipeline (layer spans, morphism
surjectivity, complements, Lie-closure of generated subalgebras) are all
settled by Gaussian elimination on Fraction matrices, so there is no tolerance
ambiguity anywhere a verdict is produced.  Matrices are lists of row tuples.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form. Returns (rref_rows, pivot_columns)."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def in_span(rows, vec) -> bool:
    """Whether vec lies in the row span of rows (exact)."""
    base = rank(rows)
    return rank(list(rows) + [tuple(vec)]) == base


def span_basis(rows):
    """A basis (rref rows) of the row span, zero rows dropped."""
    red, pivots = rref(rows)
    return [red[i] for i in range(len(pivots))]


def solve_in_span(rows, vec):
    """Coefficients c with sum_i c_i rows[i] = vec, or None if not in span."""
    if not rows:
        return None if any(Fraction(v) != 0 for v in vec) else []
    n = len(rows[0])
    # Solve rows^T c = vec by eliminating the augmented n x (m+1) system.
    m = len(rows)
    aug = [[Fraction(rows[i][j]) for i in range(m)] + [Fraction(vec[j])]
           for j in range(n)]
    red, pivots = rref(aug)
    coeffs = [Fraction(0)] * m
    for rrow, pc in zip(red, pivots):
        if pc == m:  # pivot in the RHS column: inconsistent
            return None
        coeffs[pc] = rrow[m]
    # verify (guards against free-variable cases)
    for j in range(n):
        if sum(coeffs[i] * Fraction(rows[i][j]) for i in range(m)) != Fraction(vec[j]):
            return None
    return coeffs


def nullspace(rows):
    """Basis of {x : rows @ x = 0} (exact)."""
    if not rows:
        return []
    red, pivots = rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for rrow, pc in zip(red, pivots):
            vec[pc] = -rrow[fc]
        basis.append(tuple(vec))
    return basis


def orthogonal_complement_within(ambient_rows, sub_rows):
    """Basis of the orthogonal complement of span(sub) inside span(ambient).

    Orthogonality is with respect to the coordinate dot product.  Every
    returned vector lies in span(ambient) and is orthogonal to span(sub).
    """
    amb = span_basis(ambient_rows)
    if not amb:
        return []
    sub = span_basis(sub_rows)
    if not sub:
        return amb
    # x = sum c_i amb_i with <x, sub_j> = 0: solve G c = 0 where
    # G[j][i] = <sub_j, amb_i>.
    gram = [tuple(sum(Fraction(s[k]) * Fraction(a[k]) for k in range(len(a)))
                  for a in amb) for s in sub]
    coeff_basis = nullspace(gram)
    out = []
    for c in coeff_basis:
        vec = [Fraction(0)] * len(amb[0])
        for ci, a in zip(c, amb):
            if ci != 0:
                for k in range(len(vec)):
                    vec[k] += ci * Fraction(a[k])
        out.append(tuple(vec))
    return out


def min_norm_right_inverse(rows):
    """Exact right inverse A^T (A A^T)^-1 of a full-row-rank matrix A, as rows
    (one per column of A): it maps x to the solution of A y = x of least
    Euclidean norm.  One elimination of [A A^T | A] gives (A A^T)^-1 A, its
    transpose."""
    A = [tuple(map(Fraction, r)) for r in rows]
    n = len(A)
    gram = [[sum(a * b for a, b in zip(ri, rj)) for rj in A] for ri in A]
    red, pivots = rref([g + list(a) for g, a in zip(gram, A)])
    if pivots != list(range(n)):
        raise ValueError("matrix does not have full row rank")
    return [tuple(red[r][n + c] for r in range(n)) for c in range(len(A[0]))]
