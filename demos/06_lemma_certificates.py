"""Sweep certificates for the free step-2 covering bound.

The covering argument on the free step-2 group with the Euclidean-ball
quasi-distance runs through: (1) an exact quadratic form whose sign decides
ball membership around sphere points, (2) a parabolic three-region partition
with parameters a = 0.9 and a' = 1.9, and (3) three containment lemmas for
small-angle pairs inside each region.  The epsilon room in each lemma is
certified on a dyadic grid with outward-rounded rational square-root
enclosures.  A point's key is its region plus the cube-face cells of its two
layers at that epsilon, and two directions in one cell lie within chord
epsilon; the sweeps then decide random pairs with equal keys exactly.
"""

from fractions import Fraction as F

import numpy as np

import carnot_bcp as cb
from carnot_bcp.certificates import (
    RegionParams,
    a_form,
    admissible_epsilon,
    cell_key,
    lemma_sweep,
    rational_sphere_points,
    region_classify,
)
from carnot_bcp.metrics import HSDistance

params = RegionParams(r=2, R=F(1))

# the membership form, exactly:
rng = np.random.default_rng(0)
p = rational_sphere_points(3, F(1), 1, rng)[0]
q = (F(1, 4), F(-1, 3), F(1, 8))
print("sphere point p:", tuple(map(str, p)))
print("a_form(p, q) =", a_form(p, q, params))
d = HSDistance(cb.free_step2_group(2), F(1))
print("ball membership sign agrees:", d.compare(p, q, F(1)),
      "(negative form <=> inside)")

# the parabolic partition
for pt in ((F(1), F(0), F(0)), (F(0), F(0), F(1)), (F(1), F(0), F(3, 2))):
    print("region of", tuple(map(str, pt)), "->", region_classify(pt, params))

# certified epsilon room per lemma, with the 10% safety margin
print()
for lemma in ("away", "near2a", "inbetween"):
    eps, eps_max = admissible_epsilon(lemma, params)
    print(f"lemma '{lemma}': certified epsilon up to {eps_max}, using {eps}")

# the key of p: region, then the cells of v and w (w has one coordinate at
# rank 2, so its cell is its sign)
print("cell key of p:", cell_key(p, params))

# the sweeps: each same-key pair decided by an exact comparison
print()
for lemma in ("away", "near2a", "inbetween"):
    rep = lemma_sweep(lemma, params, sample_count=5000, seed=0)
    print(f"sweep '{lemma}': cell side {rep.delta[0]} for v, "
          f"{rep.requested} same-key pairs, {len(rep.violations)} violations, "
          f"max form value {rep.max_a_form:.3e}")

