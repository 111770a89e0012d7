"""Dual scalar backends: exact rationals and double floats.

Certificates are decided in exact rational arithmetic (``fractions.Fraction``);
searches and solvers run in float for speed.  Helpers here convert between the
two, serialize rationals as ``"p/q"`` strings, and provide the handful of exact
number-theoretic operations the rest of the package needs (rational interval
enclosures of square roots, exact n-th roots).
"""

from __future__ import annotations

import math
from fractions import Fraction


def parse_scalar(text):
    """Parse ``"p/q"``, integer, or decimal text into a Fraction."""
    return Fraction(str(text).strip())


def fmt_scalar(x):
    """Serialize a scalar: rationals as "p/q", floats as shortest repr."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def is_exact(x) -> bool:
    return isinstance(x, (Fraction, int))


def all_exact(xs) -> bool:
    return all(is_exact(x) for x in xs)


def to_fractions(xs):
    """The exact rationals of the coordinates (a float converts exactly)."""
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in xs)


def sqrt_bounds(x: Fraction) -> tuple[Fraction, Fraction]:
    """Rational enclosure lo <= sqrt(x) <= hi with hi - lo = 2^-96 / den(x).

    Used to decide strict inequalities involving square roots rigorously:
    a decision made against the outward-rounded enclosure is conservative.
    """
    if x < 0:
        raise ValueError("sqrt of negative rational")
    if x == 0:
        return Fraction(0), Fraction(0)
    num, den = x.numerator, x.denominator
    # sqrt(num/den) = sqrt(num*den)/den; isqrt gives floor of integer sqrt
    shifted = num * den << 192
    s = math.isqrt(shifted)
    lo = Fraction(s, den << 96)
    hi = Fraction(s + 1, den << 96)
    return lo, hi


def nth_root_exact(x: Fraction, k: int):
    """Exact k-th root of a nonnegative rational, or None if irrational."""
    if k <= 0:
        raise ValueError("root order must be positive")
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    num = _iroot_exact(x.numerator, k)
    den = _iroot_exact(x.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _iroot_exact(n: int, k: int):
    """The integer r with r^k = n >= 0, or None; integers only, so neither a
    huge n nor a huge k overflows or stalls."""
    if n < 2:
        return n
    bits = n.bit_length()
    if bits <= k:
        return None  # 1 < n < 2^k: strictly between 1^k and 2^k
    # integer Newton from 2^ceil(bits/k) > n^(1/k) decreases to floor(n^(1/k))
    r = 1 << -(-bits // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r if r ** k == n else None
        r = s


def rat_pow(x: Fraction, w: Fraction):
    """x**w for rational w, exact when decidable, else None.

    Exact iff x is a perfect q-th power where q = denominator of w.
    """
    q = w.denominator
    root = nth_root_exact(x, q) if q > 1 else x
    if root is None:
        return None
    p = w.numerator
    return root ** p
