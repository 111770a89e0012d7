"""Besicovitch families: rigorous certificates, orbit constructions, searches.

A family of balls with a common witness where no center lies in another ball
bounds the weak-covering constant from below.  On the non-standard Heisenberg
group such families exist at EVERY cardinality; the dilation-orbit construction
below builds them explicitly and verifies every comparison in exact rational
arithmetic, and two polynomials with a Sturm count certify the orbit for every
count at once.
"""

import time
from fractions import Fraction as F

import carnot_bcp as cb
from carnot_bcp.besicovitch import (
    BesicovitchFamily,
    countable_space,
    countable_space_two_ball_audit,
    dilation_orbit_family,
    orbit_every_count,
    search_family,
    segment_witness_nonbcp,
    verify_family,
)
from carnot_bcp.metrics import (
    HSDistance,
    euclidean_line,
    lp_combination_distance,
    snowflake_line,
)

# --- verification basics -------------------------------------------------------
d_line = euclidean_line()
fam = BesicovitchFamily(((F(-1),), (F(1),)), (F(1), F(1)), (F(0),), d_line)
print("two opposite unit balls on the line:", verify_family(fam).to_json())

bad = BesicovitchFamily(((F(1, 2),), (F(1),)), (F(1, 2), F(1)), (F(0),), d_line)
print("nested configuration rejected:", not verify_family(bad).valid)

# --- the countable space: families capped at one ball --------------------------
space = countable_space(20)
print("\ncountable space d(x2, x3) =", space.table[1][2])
print("two-ball audit:", countable_space_two_ball_audit(100, grid=16))

# --- dilation-orbit families on the non-standard Heisenberg group --------------
hn = cb.heisenberg_nonstandard_group(2)
d = HSDistance(hn, F(1))
# a rational point exactly on the unit sphere, in a productive orthant
# (first coordinate small, the product of all three negative)
u1, u2 = F(3, 100), F(-41, 100)
s = u1 * u1 + u2 * u2
p = (2 * u1 / (1 + s), 2 * u2 / (1 + s), (1 - s) / (1 + s))
print("\nseed point:", tuple(map(str, p)), "| on sphere:",
      sum(x * x for x in p) == 1)
for count in (5, 10, 15):
    res = dilation_orbit_family(d, p, F(1, 2), k=6, count=count)
    cert = verify_family(res.family)
    print(f"orbit family of {count} shrinking balls: exact certificate valid ="
          f" {cert.valid}")
# every count at once: the orbit test and the backward condition are sign
# conditions on two integer polynomials F and G in s = r^(1/q), and a Sturm
# count shows neither has a root in (0, s1] where both are positive
verdict = orbit_every_count(d, p, F(1, 2), 6)
print("certified for every count:", verdict["every_count"], "| roots of F and G in"
      f" (0, {verdict['s1']}]:", verdict["orbit_test"]["roots_in_interval"],
      verdict["backward"]["roots_in_interval"])

# --- segment witnesses ----------------------------------------------------------
# If the weak covering property held, a whole segment from each unit-sphere
# point with nonzero first coordinate would stay in the unit ball.  An exact
# rational segment point outside the ball is therefore a witness of failure.
w = segment_witness_nonbcp(d, samples=400, t_grid=8, seed=3)
print("\nsegment witness:", w.to_json())

# --- randomized searches ---------------------------------------------------------
print("\nsearches (witness at the identity, exact certificates):")
dlp = lp_combination_distance(euclidean_line(), snowflake_line(2), 1)
for budget in (10_000, 100_000):
    res = search_family(dlp, budget, strategy="annealed", seed=0)
    print(f"  l1-combination line x snowflake, budget {budget:>6}: "
          f"cardinality {res.cardinality}")

t0 = time.time()
res = search_family(d, 100_000, strategy="annealed", seed=0)
print(f"  non-standard Heisenberg, budget 100000: cardinality "
      f"{res.cardinality} in {time.time()-t0:.1f}s")
print("  family re-verifies exactly:", verify_family(res.family).valid)

# On a space where the covering property HOLDS, the same search saturates:
dsat = HSDistance(cb.free_step2_group(2), F(1))
cards = [search_family(dsat, b, strategy="annealed", seed=3).cardinality
         for b in (10_000, 50_000)]
print("  free step-2 rank 2 (covering property holds): cards", cards)
