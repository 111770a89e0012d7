"""Dual scalar backends: exact rationals and double floats.

Certificates are decided in exact arithmetic (points are ``fractions.Fraction``
coordinates, comparisons run on integers over a common denominator); searches
and solvers run in float for speed.  Helpers here convert between the two,
serialize rationals as ``"p/q"`` strings of any length, and provide the
handful of exact number-theoretic operations the rest of the package needs
(rational interval enclosures of square roots, exact rational powers).  A
point put over its common denominator is an ``ExactPoint``; a family check
converts each of its points once and hands the ``ExactPoint`` to every
comparison, which takes it as it is.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

# Integers convert to and from decimal text in pieces of this many digits,
# below the least limit (640 digits) the interpreter may set on one int <-> str
# conversion, so values of any size round-trip without touching that
# process-wide setting.
_DIGITS = 600
_PIECE = 10 ** _DIGITS
_INTEGER_RATIO = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


def _int_text(n: int) -> str:
    """The decimal text of an integer of any size."""
    if n < 0:
        return "-" + _int_text(-n)
    pieces = []
    while n >= _PIECE:
        n, r = divmod(n, _PIECE)
        pieces.append(str(r).zfill(_DIGITS))
    pieces.append(str(n))
    return "".join(reversed(pieces))


def _text_int(digits: str) -> int:
    """The integer of a string of decimal digits of any length."""
    n = 0
    for i in range(0, len(digits), _DIGITS):
        piece = digits[i:i + _DIGITS]
        n = n * 10 ** len(piece) + int(piece)
    return n


def parse_scalar(text):
    """Parse ``"p/q"``, integer, or decimal text into a Fraction; integer
    and "p/q" text may have any number of digits.  A zero denominator is a
    ValueError, like any other text that names no rational."""
    text = str(text).strip()
    m = _INTEGER_RATIO.fullmatch(text)
    if m is None:
        return Fraction(text)
    sign, num, den = m.groups()
    den = _text_int(den) if den else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    value = Fraction(_text_int(num), den)
    return -value if sign == "-" else value


def fmt_scalar(x):
    """Serialize a scalar: rationals as "p/q", floats as shortest repr."""
    if isinstance(x, Fraction):
        num = _int_text(x.numerator)
        return f"{num}/{_int_text(x.denominator)}" if x.denominator != 1 else num
    if isinstance(x, int):
        return _int_text(x)
    return repr(float(x))


def is_exact(x) -> bool:
    return isinstance(x, (Fraction, int))


def all_exact(xs) -> bool:
    return all(is_exact(x) for x in xs)


class ExactPoint(NamedTuple):
    """A point with rational coordinates nums[i] / den: integer numerators
    over one positive denominator, the form exact comparisons read.
    ``over_common_denominator`` makes it over the least common one; the
    dilates of an exact orbit are made from it in integers, over a common
    one that need not be least.  It unpacks as ``nums, den``, so ``len`` of
    it is 2, not the dimension: the dimension is ``len(nums)``."""

    nums: list
    den: int


def over_common_denominator(xs):
    """Exact reals (Fractions, ints, floats: anything ``Fraction`` takes) as
    an ``ExactPoint`` of integer numerators over their least common positive
    denominator.  An ``ExactPoint`` is returned as it is, so a point
    converted once can be handed to any number of exact comparisons."""
    if isinstance(xs, ExactPoint):
        return xs
    try:
        ratios = [x.as_integer_ratio() for x in xs]
    except AttributeError:
        ratios = [Fraction(x).as_integer_ratio() for x in xs]
    den = math.lcm(*[d for _n, d in ratios])
    return ExactPoint([n * (den // d) for n, d in ratios], den)


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


def int_power(n: int, e: int, r: int):
    """n^(e/r) for integers n >= 0 and e, r >= 1 when it is an integer,
    else None."""
    if r > 1:
        n = _iroot_exact(n, r)
        if n is None:
            return None
    return n ** e


def rat_pow(x: Fraction, w: Fraction):
    """x**w for rational w, exact when decidable, else None.

    Exact iff x is a perfect q-th power where q = denominator of w; for
    q > 1 a negative x has none, and the root is taken in integers.
    """
    q = w.denominator
    if q == 1:
        return x ** w.numerator
    if x < 0:
        return None
    num = _iroot_exact(x.numerator, q)
    den = _iroot_exact(x.denominator, q)
    if num is None or den is None:
        return None
    return Fraction(num, den) ** w.numerator
