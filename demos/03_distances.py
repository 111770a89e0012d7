"""The quasi-distance zoo: Euclidean-ball gauges, snowflakes, quotients,
unit-ball oracles, and the exact sub-Riemannian distance on the first
Heisenberg group.
"""

import math
from fractions import Fraction as F

import carnot_bcp as cb
from carnot_bcp.metrics import (
    CCHeisenbergDistance,
    HSDistance,
    disk_union_segment_ball,
    estimate_quasi_triangle_constant,
    euclidean_line,
    lp_combination_distance,
    product_max_distance,
    punctured_disk_ball,
    quotient_distance,
    snowflake_line,
)
from carnot_bcp.structure import MorphismMatrix

# --- Euclidean-unit-ball distances ------------------------------------------
# d_R(p, q) = inf{lambda : delta_(1/lambda)(p^-1 q) inside the Euclidean ball
# of radius R}.  On abelian groups with unit weights this is |p - q| / R.
h1 = cb.heisenberg_group(1)
d1 = HSDistance(h1, F(1))
print("d(0, (0,0,1)) on heisenberg(1), R=1:", d1.value((0, 0, 0), (0, 0, 1)))

# Ball membership is decided in exact rational arithmetic: compare returns the
# sign of d(p, q) - rho, so 0 puts (0,0,1) on the unit sphere.
print("sign of d(0, (0,0,1)) - 1, exact:",
      d1.compare(h1.identity(), (F(0), F(0), F(1)), 1))

# The quasi-triangle constant is measured, never assumed: small R behaves
# like a metric, large R does not.
for R in (F(1, 4), F(1), F(10)):
    c = estimate_quasi_triangle_constant(HSDistance(h1, R), 2000, seed=0)
    print(f"empirical quasi-triangle constant at R={R}: {c:.4f}")

# --- products and snowflakes --------------------------------------------------
dmax = product_max_distance(euclidean_line(), snowflake_line(2))
dlp = lp_combination_distance(euclidean_line(), snowflake_line(2), 1)
print("\nmax-product d((0,0),(1,1)) =", dmax.value((0, 0), (1, 1)))
print("l1-combination d((0,0),(1,1)) =", dlp.value((0, 0), (1, 1)))

# --- unit-ball oracles: quasi-distances that fail to be continuous -----------
db1 = disk_union_segment_ball()     # unit disk plus the segment [-2,2] x {0}
db2 = punctured_disk_ball()         # unit disk minus two half-open slits
print("\ngauge of (2, 0) for the disk-plus-segment ball:",
      round(db1.value((0, 0), (2.0, 0.0)), 6))
print("gauge of (2, 1e-6) jumps to:",
      round(db1.value((0, 0), (2.0, 1e-6)), 6))
print("gauge of (1, 0) for the slit disk:", round(db2.value((0, 0), (1.0, 0.0)), 6))

# --- quotient distances through a surjective graded morphism ------------------
f32 = cb.free_step2_group(3)
Z, O = F(0), F(1)
m = MorphismMatrix(entries=((O, Z, Z, Z, Z, Z), (Z, O, Z, Z, Z, Z),
                            (Z, Z, Z, O, Z, Z)),
                   source=f32.algebra, target=h1.algebra)
dq = quotient_distance(HSDistance(f32, F(1, 2)), m)
p, q = (0.3, -0.2, 0.5), (-0.1, 0.4, 0.0)
print("\nquotient value:", dq.value(p, q),
      "| grid oracle:", dq.grid_value(p, q, resolution=12, levels=4))

# --- the sub-Riemannian distance on the first Heisenberg group ---------------
dcc = CCHeisenbergDistance(1.0)
print("\ncc distance to exp(Z): ", dcc.value((0, 0, 0), (0, 0, 1)),
      " (the full circle: 2 sqrt(pi) =", 2 * math.sqrt(math.pi), ")")
print("cc distance to exp(3X):", dcc.value((0, 0, 0), (3, 0, 0)), " (a segment)")

