"""Group arithmetic: exactness of the BCH product, dilations, built-ins."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import carnot_bcp as cb
from carnot_bcp.algebra import (
    AlgebraError,
    ExactnessError,
    StructureConstants,
    UnsupportedStepError,
    bracket,
    bracket_batch,
    dilate_batch,
    group_from_json,
    group_to_json,
    multiply_batch,
    multiply_floats,
)
from carnot_bcp.scalars import fmt_scalar, parse_scalar, rat_pow

from bch_oracle import fraction_bch

F = Fraction


def rand_rational_point(rng, n, num=8, den=8):
    return tuple(F(int(rng.integers(-num, num + 1)), int(rng.integers(1, den + 1)))
                 for _ in range(n))


def all_builtin_groups():
    h1 = cb.heisenberg_group(1)
    return [
        cb.abelian_group([1, 1, 1]),
        cb.abelian_group([1, 2, 2]),
        h1,
        cb.heisenberg_group(2),
        cb.heisenberg_group(3),
        cb.heisenberg_nonstandard_group(2),
        cb.heisenberg_nonstandard_group(F(3, 2)),
        cb.free_step2_group(2),
        cb.free_step2_group(3),
        cb.free_step2_group(4),
        cb.product_group(h1, cb.abelian_group([1])),
        cb.power_group(h1, 2),
        cb.power_group(h1, F(1, 2)),
        cb.step3_rank3_group(),
    ]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_heisenberg_ok():
    assert cb.validate_algebra(cb.heisenberg_group(1).algebra).ok


def test_validate_abelian_ok():
    assert cb.validate_algebra(cb.abelian_group([1, 1, 1]).algebra).ok


def test_validate_grading_violation():
    # Heisenberg bracket with weights (1,1,1): 1 + 1 != 1
    alg = StructureConstants(dim=3, weights=(1, 1, 1),
                             bracket={(0, 1): ((2, F(1)),)})
    rep = cb.validate_algebra(alg)
    assert not rep.ok
    assert any(i["kind"] == "grading" and i["pair"] == [1, 2] and i["target"] == 3
               for i in rep.issues)


def test_validate_jacobi_violation():
    # grading-compatible but genuinely non-Jacobi: with [e1,e2]=e3,
    # [e2,e3]=e4, [e1,e4]=e5 and [e1,e3]=0, the cyclic sum over (e1,e2,e3)
    # collapses to [e1,e4] = e5 != 0
    alg = StructureConstants(
        dim=5, weights=(1, 1, 2, 3, 4),
        bracket={(0, 1): ((2, F(1)),), (1, 2): ((3, F(1)),),
                 (0, 3): ((4, F(1)),)})
    rep = cb.validate_algebra(alg)
    assert any(i["kind"] == "jacobi" for i in rep.issues)


def dense_issues(alg):
    """The validation issues from the dense Fraction loop over every triple
    i < j < k of basis vectors: the oracle for the sparse integer check."""
    w = alg.weights
    issues = [{"kind": "grading", "pair": [i + 1, j + 1], "target": k + 1,
               "detail": f"weight {w[k]} != {w[i]} + {w[j]}"}
              for (i, j), terms in alg.bracket.items() for k, c in terms
              if c != 0 and w[k] != w[i] + w[j]]
    units = [tuple(F(int(a == b)) for b in range(alg.dim)) for a in range(alg.dim)]

    def br(a, b):
        return bracket(a, b, alg)

    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(j + 1, alg.dim):
                x, y, z = units[i], units[j], units[k]
                jac = [a + b + c for a, b, c in
                       zip(br(x, br(y, z)), br(y, br(z, x)), br(z, br(x, y)))]
                if any(jac):
                    issues.append({"kind": "jacobi", "triple": [i + 1, j + 1, k + 1],
                                   "detail": "cyclic bracket sum is nonzero"})
    return issues


def dense_step(alg):
    """Length of the lower central series from Fraction brackets of spans."""
    from carnot_bcp.exact_linalg import span_basis
    full = [tuple(F(int(a == b)) for b in range(alg.dim)) for a in range(alg.dim)]
    current, s = full, 0
    while current:
        s += 1
        current = span_basis([v for a in full for b in current
                              for v in [bracket(a, b, alg)] if any(v)])
    return s


def random_graded_table(rng):
    """A table whose every bracket lands in the layer of the summed weights,
    with rational coefficients; most such tables fail Jacobi, some pass."""
    weights = sorted(rng.choice((1, 1, 1, 2, 2, 3, 4)) for _ in range(rng.randint(3, 8)))
    dim = len(weights)
    bracket_table = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            targets = [k for k in range(dim) if weights[k] == weights[i] + weights[j]]
            if targets and rng.random() < 0.4:
                bracket_table[i, j] = tuple(
                    (k, F(rng.randint(-3, 3), rng.randint(1, 4)))
                    for k in rng.sample(targets, rng.randint(1, len(targets))))
    return StructureConstants(dim=dim, weights=tuple(weights), bracket=bracket_table)


def test_sparse_jacobi_check_matches_the_dense_oracle():
    rng = random.Random(7)
    tables = [random_graded_table(rng) for _ in range(300)]
    tables += [g.algebra for g in all_builtin_groups()]
    tables.append(StructureConstants(
        dim=5, weights=(1, 1, 2, 3, 4),
        bracket={(0, 1): ((2, F(1)),), (1, 2): ((3, F(1)),), (0, 3): ((4, F(1)),)}))
    kinds = set()
    for alg in tables:
        rep = cb.validate_algebra(alg)
        assert rep.issues == dense_issues(alg)
        kinds.update(i["kind"] for i in rep.issues)
        if rep.ok:
            assert alg.step() == dense_step(alg)
    assert "jacobi" in kinds
    assert sum(cb.validate_algebra(a).ok for a in tables) > 30


def test_bracket_index_out_of_range():
    with pytest.raises(AlgebraError):
        StructureConstants(dim=2, weights=(1, 1), bracket={(0, 5): ((1, F(1)),)})


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------

def test_bracket_heisenberg_xy_is_z():
    h1 = cb.heisenberg_group(1)
    x = (F(1), F(0), F(0))
    y = (F(0), F(1), F(0))
    assert bracket(x, y, h1.algebra) == (F(0), F(0), F(1))


def test_bracket_antisymmetry_on_self():
    g = cb.free_step2_group(3)
    rng = np.random.default_rng(0)
    a = rand_rational_point(rng, g.dim)
    assert bracket(a, a, g.algebra) == g.identity()


def test_bracket_bilinearity_f32():
    g = cb.free_step2_group(3)
    e = [tuple(F(1 if i == j else 0) for j in range(6)) for i in range(6)]
    x12 = tuple(F(v) for v in (0, 0, 0, 1, 0, 0))
    x13 = tuple(F(v) for v in (0, 0, 0, 0, 1, 0))
    x23 = tuple(F(v) for v in (0, 0, 0, 0, 0, 1))
    s = tuple(a + b for a, b in zip(e[0], e[1]))  # X1 + X2
    got = bracket(s, e[2], g.algebra)             # [X1+X2, X3] = X13 + X23
    assert got == tuple(a + b for a, b in zip(x13, x23))
    assert bracket(e[0], e[1], g.algebra) == x12


def test_bracket_jacobi_random():
    g = cb.step3_rank3_group()
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b, c = (rand_rational_point(rng, g.dim, 4, 4) for _ in range(3))
        alg = g.algebra
        lhs = bracket(a, bracket(b, c, alg), alg)
        mid = bracket(b, bracket(c, a, alg), alg)
        rhs = bracket(c, bracket(a, b, alg), alg)
        total = tuple(x + y + z for x, y, z in zip(lhs, mid, rhs))
        assert total == g.identity()


# ---------------------------------------------------------------------------
# multiply / inverse / dilate
# ---------------------------------------------------------------------------

def test_heisenberg_law_basic_point():
    h1 = cb.heisenberg_group(1)
    p = (F(1), F(0), F(0))
    q = (F(0), F(1), F(0))
    assert cb.multiply(p, q, h1) == (F(1), F(1), F(1, 2))


def test_multiply_identity():
    g = cb.free_step2_group(3)
    rng = np.random.default_rng(2)
    p = rand_rational_point(rng, g.dim)
    assert cb.multiply(p, g.identity(), g) == p
    assert cb.multiply(g.identity(), p, g) == p


def test_negation_is_inverse_step2():
    g = cb.free_step2_group(2)
    rng = np.random.default_rng(3)
    p = rand_rational_point(rng, g.dim)
    assert cb.multiply(p, tuple(-x for x in p), g) == g.identity()
    assert cb.inverse(p, g) == tuple(-x for x in p)


def test_inverse_step3_random():
    g = cb.step3_rank3_group()
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = rand_rational_point(rng, g.dim, 6, 6)
        assert cb.multiply(p, cb.inverse(p, g), g) == g.identity()


def fraction_constant_multiply(p, q, g):
    """The float BCH series summed with the Fraction structure constants of
    ``bracket``, as ``multiply`` summed it before its float table."""
    pq = cb.bracket(p, q, g.algebra)
    out = [x + y for x, y in zip(p, q)]
    if any(pq):
        out = [x + 0.5 * y for x, y in zip(out, pq)]
    if g.step >= 3:
        corr = [x + y for x, y in zip(cb.bracket(p, pq, g.algebra),
                                      cb.bracket(q, tuple(-y for y in pq), g.algebra))]
        if any(corr):
            out = [x + (1 / 12) * y for x, y in zip(out, corr)]
    return tuple(out)


@pytest.mark.parametrize("g", all_builtin_groups(), ids=lambda g: g.name)
def test_float_multiply_keeps_the_fraction_constant_bits(g):
    # the float copy of the structure constants gives the same bits, signed
    # zeros included, at scales from 2^-500 to 2^500
    rng = np.random.default_rng(13)
    points = [tuple(float(x) for x in rng.standard_normal(g.dim) * 2.0 ** e)
              for e in (-500, -20, 0, 0, 0, 20, 500) for _ in range(6)]
    points += [(0.0,) * g.dim, (-0.0,) * g.dim]
    for p in points:
        for q in points[::2]:
            got = cb.multiply(p, q, g)
            assert all(type(x) is float for x in got)
            assert [x.hex() for x in got] == [x.hex() for x in fraction_constant_multiply(p, q, g)]


def old_float_multiply(p, q, g):
    """The float branch of ``multiply`` as it was before it moved into
    ``multiply_floats``: checks, tuple conversions, then the series."""
    if g.step > cb.algebra.MAX_SUPPORTED_STEP:
        raise UnsupportedStepError("unsupported step")
    if len(p) != g.dim or len(q) != g.dim:
        raise AlgebraError("vector length does not match algebra dimension")
    p = tuple(float(x) for x in p)
    q = tuple(float(x) for x in q)
    items = g.algebra.float_bracket
    out = [x + y for x, y in zip(p, q)]
    pq = cb.algebra._bracket_items(p, q, items, 0.0)
    if any(pq):
        out = [x + 0.5 * y for x, y in zip(out, pq)]
    if g.step >= 3:
        corr = [x + y for x, y in zip(cb.algebra._bracket_items(p, pq, items, 0.0),
                                      cb.algebra._bracket_items(q, tuple(-y for y in pq),
                                                                items, 0.0))]
        if any(corr):
            out = [x + (1 / 12) * y for x, y in zip(out, corr)]
    return tuple(out)


@pytest.mark.parametrize("g", all_builtin_groups(), ids=lambda g: g.name)
def test_multiply_floats_is_the_float_branch_of_multiply(g):
    # bit for bit, signed zeros, infinities and NaNs included; a point of
    # floats, of numpy floats, or with a Fraction among floats goes through
    # multiply to the same product
    P, Q = batch_product_rows(g)
    for p, q in zip(P, Q):
        want = [x.hex() for x in old_float_multiply(p, q, g)]
        got = multiply_floats(p.tolist(), q.tolist(), g)
        assert all(type(x) is float for x in got) and [x.hex() for x in got] == want
        assert [x.hex() for x in cb.multiply(tuple(p), tuple(q), g)] == want
        if math.isfinite(p[0]):
            mixed = cb.multiply((F(p[0]), *p[1:].tolist()), tuple(q.tolist()), g)
            assert [x.hex() for x in mixed] == want


@pytest.mark.parametrize("g", all_builtin_groups(), ids=lambda g: g.name)
def test_displacement_is_the_bch_product_of_the_inverse(g):
    # integers over one denominator, equal to multiply(inverse(p), q) in
    # Fractions: small rationals, ints, floats, and scales 2^(+-700)
    rng = np.random.default_rng(11)
    points = [rand_rational_point(rng, g.dim) for _ in range(30)]
    points += [tuple(x * F(2) ** e for x in rand_rational_point(rng, g.dim, 50, 9))
               for e in (700, -700) for _ in range(5)]
    points += [g.identity(), tuple(range(g.dim)),
               tuple(float(x) for x in rand_rational_point(rng, g.dim))]
    for p in points:
        for q in points[::3]:
            nums, den = cb.displacement(p, q, g)
            assert den > 0 and all(isinstance(n, int) for n in nums)
            assert tuple(F(n, den) for n in nums) == fraction_bch(cb.inverse(p, g), q, g)


@pytest.mark.parametrize("g", all_builtin_groups(), ids=lambda g: g.name)
def test_exact_multiply_is_the_fraction_bch(g):
    # small rationals, ints and scales 2^(+-700); the product of rational
    # points is a tuple of Fractions, ints included
    rng = np.random.default_rng(12)
    points = [rand_rational_point(rng, g.dim) for _ in range(20)]
    points += [tuple(int(x) for x in rng.integers(-9, 10, g.dim)) for _ in range(5)]
    points += [tuple(x * F(2) ** e for x in rand_rational_point(rng, g.dim, 50, 9))
               for e in (700, -700) for _ in range(3)]
    for p in points:
        for q in points[::2]:
            got = cb.multiply(p, q, g)
            assert all(type(x) is F for x in got)
            assert got == fraction_bch(p, q, g)


def test_unsupported_step_rejected():
    # free step-2 relations plus a fake chain up to step 4
    alg = StructureConstants(
        dim=5, weights=(1, 1, 2, 3, 4),
        bracket={(0, 1): ((2, F(1)),), (0, 2): ((3, F(1)),),
                 (0, 3): ((4, F(1)),)})
    assert cb.validate_algebra(alg).ok
    g = cb.GradedGroup(algebra=alg, name="step4")
    assert g.step == 4
    with pytest.raises(UnsupportedStepError):
        cb.multiply(g.identity(), g.identity(), g)
    with pytest.raises(UnsupportedStepError):
        cb.displacement(g.identity(), g.identity(), g)


def test_a_group_derives_its_step_from_its_algebra():
    # a step given apart from the algebra could disagree with it: step 2 on
    # the step-3 fixture dropped the step-3 BCH terms of every product
    g = cb.step3_rank3_group()
    assert cb.GradedGroup(algebra=g.algebra, name="again").step == 3
    with pytest.raises(TypeError):
        cb.GradedGroup(algebra=g.algebra, step=2)
    assert cb.GradedGroup(algebra=g.algebra, name=g.name) == g
    assert hash(cb.GradedGroup(algebra=g.algebra, name=g.name)) == hash(g)


def test_dilate_nonstandard_example():
    hn = cb.heisenberg_nonstandard_group(2)
    assert cb.dilate((F(1), F(1), F(1)), F(2), hn) == (F(2), F(4), F(8))


def test_dilate_identity_factor():
    g = cb.heisenberg_group(2)
    rng = np.random.default_rng(5)
    p = rand_rational_point(rng, g.dim)
    assert cb.dilate(p, F(1), g) == p


def test_dilate_one_parameter_group():
    g = cb.heisenberg_nonstandard_group(2)
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = rand_rational_point(rng, g.dim)
        lhs = cb.dilate(cb.dilate(p, F(2), g), F(3), g)
        assert lhs == cb.dilate(p, F(6), g)


def test_dilate_exact_mode_rejects_irrational():
    g = cb.power_group(cb.heisenberg_group(1), F(1, 2))  # weights 1/2, 1/2, 1
    with pytest.raises(ExactnessError, match="no exact power for weight 1/2"):
        cb.dilate((F(1), F(1), F(1)), F(2), g)
    # perfect square factor is fine: 4^(1/2) = 2
    assert cb.dilate((F(1), F(1), F(1)), F(4), g) == (F(2), F(2), F(4))
    # a float factor or coordinate takes the float backend
    assert cb.dilate((F(1), F(1), F(1)), 4.0, g) == (2.0, 2.0, 4.0)
    assert cb.dilate((1.0, F(1), F(1)), F(4), g) == (2.0, 2.0, 4.0)


def test_exact_roots_beyond_the_float_range():
    # integers of 1024 bits and more have no float value; the roots are
    # taken in integers only
    assert rat_pow(F(2 ** 2000), F(1, 2)) == 2 ** 1000
    assert rat_pow(F(3 ** 1001, 2 ** 2002), F(1, 7)) == F(3 ** 143, 2 ** 286)
    assert rat_pow(F(2 ** 2000 + 1), F(1, 2)) is None
    # zero, and a negative base: a root of order q > 1 of one is not taken
    assert rat_pow(F(0), F(3, 2)) == 0 and rat_pow(F(-2), F(3)) == -8
    assert rat_pow(F(-8), F(1, 3)) is None and rat_pow(F(-1, 8), F(2, 3)) is None
    # (1/4)^600 = 2^-1200: weight 3/2 needs its square root 2^-600
    g = cb.heisenberg_nonstandard_group(F(3, 2))  # weights 1, 3/2, 5/2
    lam = F(1, 4) ** 600
    assert cb.dilate((F(1), F(1), F(1)), lam, g) == \
        (F(1, 2 ** 1200), F(1, 2 ** 1800), F(1, 2 ** 3000))


def test_scalar_text_of_integers_beyond_the_conversion_limit():
    # the interpreter refuses int <-> str of more than 4300 digits by default;
    # fmt_scalar and parse_scalar convert in pieces, and the text of a value
    # under the limit is str's own
    big = 3 ** 20000 + 1                       # 9,543 digits
    for x in (F(1, 3), F(-7), F(10 ** 4000 + 1, 2 ** 100), -F(10 ** 599),
              F(10 ** 600), F(big, 7 ** 5000), -F(big), F(1, big)):
        text = fmt_scalar(x)
        assert parse_scalar(text) == x
        if max(abs(x.numerator), x.denominator) < 10 ** 4000:
            assert text == (str(x.numerator) if x.denominator == 1 else str(x))
    assert fmt_scalar(big) == fmt_scalar(F(big))
    assert parse_scalar("1/" + "1" * 5000) == F(1, (10 ** 5000 - 1) // 9)
    assert parse_scalar(" -0012/0030 ") == F(-2, 5)
    for text in ("0.1", "1e-3", "-2.5E2"):
        assert parse_scalar(text) == F(text)
    with pytest.raises(ValueError):
        parse_scalar("1/-2")
    # a zero denominator is malformed text, like "1/-2", not an arithmetic error
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar("1/0")


# ---------------------------------------------------------------------------
# built-ins
# ---------------------------------------------------------------------------

def test_free_step2_rank2_is_heisenberg():
    f22 = cb.free_step2_group(2)
    h1 = cb.heisenberg_group(1)
    assert f22.algebra == h1.algebra
    assert f22.dim == 3 and f22.weights == (F(1), F(1), F(2))


def test_free_step2_dimensions():
    for r in (2, 3, 4, 5):
        g = cb.free_step2_group(r)
        assert g.dim == r + r * (r - 1) // 2


def test_power_weights():
    g = cb.power_group(cb.heisenberg_group(1), 2)
    assert g.weights == (F(2), F(2), F(4))


def test_product_of_lines_is_plane():
    a = cb.abelian_group([1])
    prod = cb.product_group(a, a)
    assert prod.algebra == cb.abelian_group([1, 1]).algebra


def test_product_weight_sorting_and_slices():
    from carnot_bcp.metrics import HSDistance, ProductMaxDistance, euclidean_line
    g = cb.product_group(cb.heisenberg_group(1), cb.abelian_group([1]))
    assert g.weights == (F(1), F(1), F(1), F(2))
    d = ProductMaxDistance(HSDistance(cb.heisenberg_group(1)), euclidean_line())
    assert d.group == g
    # the Heisenberg factor reads X, Y and the weight-2 Z, the line the rest
    assert d.split((0, 1, 2, 3)) == ((0, 1, 3), (2,))
    assert [x.tolist() for x in d.split_batch([(0, 1, 2, 3)])] == [[[0, 1, 3]], [[2]]]


def test_builtin_group_dispatch():
    g = cb.builtin_group("heisenberg", n=2)
    assert g.dim == 5
    with pytest.raises(AlgebraError):
        cb.builtin_group("nope")
    # a missing parameter is named, not a bare KeyError
    with pytest.raises(AlgebraError, match="'n'"):
        cb.builtin_group("heisenberg")
    with pytest.raises(AlgebraError, match="'weights'"):
        cb.builtin_group("abelian", n=2)


# ---------------------------------------------------------------------------
# algebraic identities across all built-ins
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", all_builtin_groups(), ids=lambda g: g.name)
def test_associativity_exact(group):
    rng = np.random.default_rng(7)
    for _ in range(25):
        p, q, r = (rand_rational_point(rng, group.dim, 5, 5) for _ in range(3))
        assert cb.multiply(cb.multiply(p, q, group), r, group) == \
            cb.multiply(p, cb.multiply(q, r, group), group)


@pytest.mark.parametrize("group", all_builtin_groups(), ids=lambda g: g.name)
def test_dilations_are_automorphisms(group):
    rng = np.random.default_rng(8)
    if any(w.denominator > 1 for w in group.weights):
        lams = [F(4), F(9, 4)] if all(w.denominator <= 2 for w in group.weights) \
            else [F(1)]
    else:
        lams = [F(2), F(3, 5)]
    for lam in lams:
        for _ in range(10):
            p, q = (rand_rational_point(rng, group.dim, 5, 5) for _ in range(2))
            lhs = cb.dilate(cb.multiply(p, q, group), lam, group)
            rhs = cb.multiply(cb.dilate(p, lam, group), cb.dilate(q, lam, group), group)
            assert lhs == rhs


def test_step2_law_coefficients():
    # the step-2 product must match the explicit law coordinate by
    # coordinate: first layer adds, pair (i, j) gets (p_i q_j - q_i p_j)/2
    g = cb.free_step2_group(3)
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = rand_rational_point(rng, 6)
        q = rand_rational_point(rng, 6)
        got = cb.multiply(p, q, g)
        pairs = [(0, 1), (0, 2), (1, 2)]
        want = list(p[:3 + 3])
        for k in range(3):
            want[k] = p[k] + q[k]
        for idx, (i, j) in enumerate(pairs):
            want[3 + idx] = p[3 + idx] + q[3 + idx] + \
                (p[i] * q[j] - q[i] * p[j]) / 2
        assert got == tuple(want)


def test_multiply_batch_matches_exact():
    g = cb.step3_rank3_group()
    rng = np.random.default_rng(9)
    P = rng.standard_normal((50, g.dim))
    Q = rng.standard_normal((50, g.dim))
    batch = multiply_batch(P, Q, g)
    for i in range(0, 50, 10):
        exact = cb.multiply(tuple(P[i]), tuple(Q[i]), g)
        assert np.allclose(batch[i], [float(x) for x in exact], rtol=1e-12)


BATCH_PRODUCT_GROUPS = all_builtin_groups() + [
    cb.product_group(cb.step3_rank3_group(), cb.heisenberg_group(1))]


def batch_product_rows(g):
    """Factors at scales from 2^-500 to 2^500, where a step-3 term overflows
    as the true one does, then rows holding +-inf in one coordinate of
    either factor."""
    rng = np.random.default_rng(14)
    scales = 2.0 ** np.repeat([-500, -20, 0, 20, 500], 40)[:, None]
    P = rng.standard_normal((200, g.dim)) * scales
    Q = rng.standard_normal((200, g.dim)) * scales
    infinite = rng.standard_normal((4 * g.dim, g.dim))
    for r in range(4 * g.dim):
        infinite[r, r % g.dim] = math.inf if r % 2 else -math.inf
    P = np.concatenate([P, infinite[:2 * g.dim], rng.standard_normal((2 * g.dim, g.dim))])
    Q = np.concatenate([Q, rng.standard_normal((2 * g.dim, g.dim)), infinite[2 * g.dim:]])
    return P, Q


@pytest.mark.parametrize("g", BATCH_PRODUCT_GROUPS, ids=lambda g: g.name)
def test_multiply_batch_is_the_float_multiply_row_for_row(g):
    # the same terms in the same order give the same floats: == takes -0.0
    # for 0.0, and a step-3 term that overflows is NaN on both sides.  A
    # rational coordinate among floats is read as its float
    P, Q = batch_product_rows(g)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = multiply_batch(P, Q, g)
    for p, q, row in zip(P, Q, batch):
        got = cb.multiply(tuple(p), tuple(q), g)
        assert all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(row, got))
        if math.isfinite(p[0]):
            mixed = cb.multiply((F(p[0]), *p[1:]), tuple(q), g)
            assert [x.hex() for x in mixed] == [x.hex() for x in got]


def allocating_bracket_batch(A, B, alg):
    """``bracket_batch`` as it was before it subtracted in place."""
    out = np.zeros_like(A)
    for (i, j), terms in alg.float_bracket:
        coef = A[:, i] * B[:, j] - A[:, j] * B[:, i]
        for k, c in terms:
            out[:, k] += c * coef
    return out


def allocating_multiply_batch(P, Q, g):
    """``multiply_batch`` as it was before it added in place, kept as the
    oracle of the in-place product: every term a new array, and the step-3
    term read from the unscaled [P, Q]."""
    pq = allocating_bracket_batch(P, Q, g.algebra)
    out = P + Q + 0.5 * pq
    if g.step >= 3:
        out = out + (1 / 12) * (allocating_bracket_batch(P, pq, g.algebra)
                                + allocating_bracket_batch(Q, -pq, g.algebra))
    return out


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("g", BATCH_PRODUCT_GROUPS, ids=lambda g: g.name)
def test_the_in_place_batch_product_is_the_allocating_one_bit_for_bit(g):
    # signed zeros, infinities and NaNs included; the factors are untouched
    P, Q = batch_product_rows(g)
    P0, Q0 = P.copy(), Q.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        got = multiply_batch(P, Q, g)
        assert same_bits(bracket_batch(P, Q, g.algebra),
                         allocating_bracket_batch(P, Q, g.algebra))
        want = allocating_multiply_batch(P0, Q0, g)
    assert same_bits(P, P0) and same_bits(Q, Q0)
    assert same_bits(got, want)


@pytest.mark.parametrize("g", [
    cb.heisenberg_group(1), cb.heisenberg_nonstandard_group(2),
    cb.heisenberg_nonstandard_group(F(3, 2)), cb.step3_rank3_group()], ids=lambda g: g.name)
def test_dilate_batch_is_the_float_dilate_within_a_few_ulps(g):
    # unlike the products, the dilations need not agree bit for bit: dilate
    # takes lam^w with Python's float power (the C library pow) and
    # dilate_batch with numpy's vectorized power, which round differently
    # (at most 2 ulps apart on 20,000 rows of each of these groups)
    rng = np.random.default_rng(15)
    P = rng.standard_normal((5000, g.dim))
    lam = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=len(P)))
    scalar = np.array([cb.dilate(tuple(p), x, g) for p, x in zip(P, lam)])
    np.testing.assert_array_max_ulp(dilate_batch(P, lam, g), scalar, maxulp=4)


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------

def test_group_json_round_trip(tmp_path):
    g = cb.heisenberg_nonstandard_group(F(3, 2))
    data = group_to_json(g)
    assert data["weights"] == ["1", "3/2", "5/2"]
    g2 = group_from_json(json.dumps(data))
    assert g2.algebra == g.algebra
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    assert cb.load_group(path).algebra == g.algebra


# parameters that build each built-in tag
BUILTIN_PARAMS = {
    "abelian": {"weights": ["1", "2", "2"]},
    "heisenberg": {"n": 2},
    "heisenberg_nonstandard": {"alpha": "3/2"},
    "free_step2": {"rank": 3},
    "step3_rank3": {},
}


@pytest.mark.parametrize("tag", sorted(BUILTIN_PARAMS))
def test_group_json_round_trip_of_every_builtin_tag(tag):
    from carnot_bcp.algebra import _BUILTINS
    assert set(BUILTIN_PARAMS) == set(_BUILTINS)
    g = cb.builtin_group(tag, **BUILTIN_PARAMS[tag])
    assert group_from_json(group_to_json(g)) == g


def test_group_json_omitted_pairs_are_zero():
    data = {"dim": 3, "weights": ["1", "1", "2"],
            "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}]}
    g = group_from_json(json.dumps(data))
    assert g.algebra == cb.heisenberg_group(1).algebra
