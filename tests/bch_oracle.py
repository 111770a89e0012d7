"""Reference BCH product for the tests of the exact group law."""

from fractions import Fraction

from carnot_bcp.algebra import bracket


def fraction_bch(p, q, g):
    """p * q by the BCH series through step 3 in Fractions, from ``bracket``:
    the oracle of the integer product, which it shares no code with."""
    p, q = tuple(map(Fraction, p)), tuple(map(Fraction, q))
    pq = bracket(p, q, g.algebra)
    # [p, [p, q]] + [q, [q, p]], zero below step 3
    third = [a + b for a, b in zip(bracket(p, pq, g.algebra),
                                   bracket(q, tuple(-x for x in pq), g.algebra))]
    return tuple(a + b + c / 2 + t / 12 for a, b, c, t in zip(p, q, pq, third))
