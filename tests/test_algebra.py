"""Group arithmetic: exactness of the BCH product, dilations, built-ins."""

import json
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
    group_from_json,
    group_to_json,
    multiply_batch,
)
from carnot_bcp.scalars import nth_root_exact

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


def test_unsupported_step_rejected():
    # free step-2 relations plus a fake chain up to step 4
    alg = StructureConstants(
        dim=5, weights=(1, 1, 2, 3, 4),
        bracket={(0, 1): ((2, F(1)),), (0, 2): ((3, F(1)),),
                 (0, 3): ((4, F(1)),)})
    assert cb.validate_algebra(alg).ok
    g = cb.GradedGroup(algebra=alg, step=alg.step(), name="step4")
    assert g.step == 4
    with pytest.raises(UnsupportedStepError):
        cb.multiply(g.identity(), g.identity(), g)


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
    with pytest.raises(ExactnessError):
        cb.dilate((F(1), F(1), F(1)), F(2), g, exact=True)
    # perfect square factor is fine: 4^(1/2) = 2
    assert cb.dilate((F(1), F(1), F(1)), F(4), g, exact=True) == (F(2), F(2), F(4))


def test_exact_roots_beyond_the_float_range():
    # integers of 1024 bits and more have no float value; the roots are
    # taken in integers only
    assert nth_root_exact(F(2 ** 2000), 2) == 2 ** 1000
    assert nth_root_exact(F(3 ** 1001, 2 ** 2002), 7) == F(3 ** 143, 2 ** 286)
    assert nth_root_exact(F(2 ** 2000 + 1), 2) is None
    # (1/4)^600 = 2^-1200: weight 3/2 needs its square root 2^-600
    g = cb.heisenberg_nonstandard_group(F(3, 2))  # weights 1, 3/2, 5/2
    lam = F(1, 4) ** 600
    assert cb.dilate((F(1), F(1), F(1)), lam, g, exact=True) == \
        (F(1, 2 ** 1200), F(1, 2 ** 1800), F(1, 2 ** 3000))


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
    g = cb.product_group(cb.heisenberg_group(1), cb.abelian_group([1]))
    assert g.weights == (F(1), F(1), F(1), F(2))
    s1, s2 = g.factor_slices
    assert sorted(s1 + s2) == [0, 1, 2, 3]
    # weight-2 coordinate belongs to the Heisenberg factor
    assert 3 in s1


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
    cb.save_group(g, path)
    assert cb.load_group(path).algebra == g.algebra


def test_group_json_omitted_pairs_are_zero():
    data = {"dim": 3, "weights": ["1", "1", "2"],
            "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}]}
    g = group_from_json(json.dumps(data))
    assert g.algebra == cb.heisenberg_group(1).algebra
