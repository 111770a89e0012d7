"""Integer polynomials in one variable, and where they are positive.

A polynomial is the list of its integer coefficients, lowest degree first.
Only signs matter here, so a polynomial may be multiplied by any positive
constant.  ``interpolate`` recovers a polynomial from its values at
t = 1, 2, ..., checking one node beyond its degree bound;
``first_nonpositive_power`` and ``positive_on`` decide the sign of a
polynomial at every power x^j of a rational x in (0, 1), through its roots
at 0, its sign at x and a Sturm chain (Sturm's theorem: for a < b, neither a
root, the sign variations of the chain at a less those at b count the
distinct real roots in (a, b]; Basu, Pollack and Roy, *Algorithms in Real
Algebraic Geometry*, chapter 2).
"""

from __future__ import annotations

import math
from fractions import Fraction


def interpolate(values):
    """The polynomial of degree below len(values) - 1, up to a positive
    factor, whose values at t = 1, 2, ... are ``values``: the last value is
    the check node.  A ValueError when the values are not those of such a
    polynomial.

    The forward differences D^k at t = 1 are integers, the (n - 1)-th is
    zero exactly when the check node agrees, and with d = n - 2 the
    polynomial is Newton's forward form times d!:
    sum_k D^k (d! / k!) (t - 1)(t - 2)...(t - k)."""
    diffs = []
    row = list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    if diffs.pop():
        raise ValueError(f"the values are not those of a polynomial of degree "
                         f"at most {len(diffs) - 1}: the check node disagrees")
    d = len(diffs) - 1
    poly = [0] * (d + 1)
    falling = [1]       # (t - 1)(t - 2)...(t - k), lowest degree first
    for k, c in enumerate(diffs):
        c *= math.factorial(d) // math.factorial(k)
        for i, b in enumerate(falling):
            poly[i] += c * b
        falling = [x - (k + 1) * y for x, y in zip([0] + falling, falling + [0])]
    g = math.gcd(*poly)
    return [c // g for c in poly] if g > 1 else poly


def _stripped(poly):
    """The polynomial divided by the largest power of t dividing it, with its
    zero top coefficients dropped; [] for the zero polynomial."""
    lo = next((i for i, c in enumerate(poly) if c), len(poly))
    hi = max((i for i, c in enumerate(poly) if c), default=-1)
    return list(poly[lo:hi + 1])


def sign_at(poly, x: Fraction) -> int:
    """The sign of poly(x) for a rational x, from b^deg poly(a / b) in
    integers."""
    a, b = x.numerator, x.denominator
    acc, bpow = 0, 1
    for c in reversed(poly):
        acc = acc * a + c * bpow
        bpow *= b
    return (acc > 0) - (acc < 0)


def _sturm_chain(poly):
    """P, P' and the negated remainders down to a constant, each made
    primitive; positive factors keep every sign.  The remainder of A by B
    is that of |lc(B)|^(deg A - deg B + 1) A, a pseudo-remainder, so the
    chain stays in integers."""
    chain = [poly]
    if len(poly) > 1:
        chain.append([i * c for i, c in enumerate(poly)][1:])
    while len(chain) > 1 and len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        lead = b[-1]
        scale = abs(lead)
        r = list(a)
        while len(r) >= len(b):
            top, shift = r[-1], len(r) - len(b)
            r = [scale * c for c in r]
            if lead < 0:
                top = -top
            for i, c in enumerate(b):
                r[shift + i] -= top * c
            r.pop()
        rem = _trimmed([-c for c in r])
        if not rem:
            break
        g = math.gcd(*rem)
        chain.append([c // g for c in rem])
    return chain


def _trimmed(poly):
    """The polynomial with its zero top coefficients dropped."""
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _variations(signs):
    signs = [s for s in signs if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def root_count(poly, x: Fraction) -> int:
    """The number of distinct real roots in (0, x] of a nonzero polynomial:
    the Sturm count V(0) - V(x) once the roots at 0 are stripped."""
    chain = _sturm_chain(_stripped(poly))
    return (_variations([(p[0] > 0) - (p[0] < 0) for p in chain])
            - _variations([sign_at(p, x) for p in chain]))


def positive_on(poly, x: Fraction) -> bool:
    """poly > 0 on all of (0, x]: after the roots at 0 are stripped, a
    positive sign at x and no root in (0, x]."""
    p = _stripped(poly)
    return bool(p) and sign_at(p, x) > 0 and root_count(p, x) == 0


def first_nonpositive_power(poly, x: Fraction):
    """The least j >= 1 with poly(x^j) <= 0, for a rational x in (0, 1), or
    None when poly(x^j) > 0 for every j >= 1.

    When ``positive_on`` fails, the powers are tried in turn down to the
    Cauchy bound beta = |c_0| / (|c_0| + max_(i >= 1) |c_i|) of the stripped
    polynomial, below which it has no root: every root t has
    |1 / t| < 1 + max |c_i / c_0|.  On (0, beta) the sign is that of c_0, so
    the first power below beta fails exactly when c_0 < 0."""
    if positive_on(poly, x):
        return None
    p = _stripped(poly)
    if not p:
        return 1
    beta = Fraction(abs(p[0]), abs(p[0]) + max(map(abs, p[1:]), default=0))
    j, s = 1, x
    while s >= beta:
        if sign_at(p, s) <= 0:
            return j
        j, s = j + 1, s * x
    return j if p[0] < 0 else None
