"""Reference HS distance on Heisenberg groups for the tests of the root solver."""

import math

from carnot_bcp.algebra import multiply


def hs_heisenberg_closed_form(p, q, R, group):
    """Independent closed form of the HS distance on Heisenberg groups.

    For weights (1,...,1,2) the defining equation is a quadratic in lambda^2:
    with A the squared Euclidean norm of the first-layer displacement and z
    the last coordinate, d^2 = (A + sqrt(A^2 + 4 R^2 z^2)) / (2 R^2).
    Used as an oracle against the generic root finder.
    """
    x = multiply(tuple(-float(v) for v in p), tuple(float(v) for v in q), group)
    A = sum(v * v for v in x[:-1])
    z = x[-1]
    R = float(R)
    if A == 0 and z == 0:
        return 0.0
    lam2 = (A + math.sqrt(A * A + 4.0 * R * R * z * z)) / (2.0 * R * R)
    return math.sqrt(lam2)
