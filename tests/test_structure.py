"""Classification: commuting layers, stratifications, decomposition, witnesses."""

from fractions import Fraction

import pytest

import carnot_bcp as cb
from carnot_bcp.structure import (
    ClassificationError,
    MorphismMatrix,
    classify_group,
    decompose_commuting,
    generated_subalgebra,
    has_commuting_different_layers,
    heisenberg_quotient_witness,
    is_graded_isomorphism,
    is_stratification,
    stratification_from_layer,
    validate_morphism,
)

F = Fraction


# ---------------------------------------------------------------------------
# commuting different layers
# ---------------------------------------------------------------------------

def test_standard_heisenberg_commutes():
    for n in (1, 2, 3):
        v = has_commuting_different_layers(cb.heisenberg_group(n).algebra)
        assert v.commuting_different_layers and v.witness is None


def test_nonstandard_heisenberg_does_not():
    v = has_commuting_different_layers(cb.heisenberg_nonstandard_group(2).algebra)
    assert not v.commuting_different_layers
    t, s, i, j = v.witness
    assert (t, s) == (F(1), F(2)) and (i, j) == (0, 1)


def test_abelian_commutes():
    v = has_commuting_different_layers(cb.abelian_group([1, 2, 3]).algebra)
    assert v.commuting_different_layers


def test_product_verdict_is_conjunction():
    good = cb.heisenberg_group(1)
    bad = cb.heisenberg_nonstandard_group(2)
    assert has_commuting_different_layers(
        cb.product_group(good, good).algebra).commuting_different_layers
    assert not has_commuting_different_layers(
        cb.product_group(good, bad).algebra).commuting_different_layers
    assert not has_commuting_different_layers(
        cb.product_group(bad, cb.abelian_group([1])).algebra).commuting_different_layers


# ---------------------------------------------------------------------------
# stratifications
# ---------------------------------------------------------------------------

def test_free_step2_is_stratified():
    ok, rep = is_stratification(cb.free_step2_group(3).algebra)
    assert ok, rep


def test_nonstandard_grading_is_not_stratification():
    # alpha = 2 gives integer degrees 1,2,3 but [V1,V1] = 0 != V2
    ok, rep = is_stratification(cb.heisenberg_nonstandard_group(2).algebra)
    assert not ok
    assert "rank 0" in rep["reason"]
    # alpha = 3/2 fails already on the degree pattern
    ok, rep = is_stratification(cb.heisenberg_nonstandard_group(F(3, 2)).algebra)
    assert not ok
    assert "1..s" in rep["reason"]


def test_step3_fixture_is_stratified():
    ok, _ = is_stratification(cb.step3_rank3_group().algebra)
    assert ok


def test_slanted_complement_does_not_stratify():
    g = cb.step3_rank3_group()
    # span{e1, e2 + [e1,e2], e3}: in direct sum with the derived algebra but
    # the generated chain self-intersects at depth 3
    V = [(1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
         (0, 1, 0, 1, 0, 0, 0, 0, 0, 0),
         (0, 0, 1, 0, 0, 0, 0, 0, 0, 0)]
    ok, reason = stratification_from_layer(g.algebra, V)
    assert not ok
    assert "direct sum" in reason


def test_standard_layer_does_stratify():
    g = cb.step3_rank3_group()
    V = [(1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
         (0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
         (0, 0, 1, 0, 0, 0, 0, 0, 0, 0)]
    ok, chain = stratification_from_layer(g.algebra, V)
    assert ok and len(chain) == 3


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def f32_to_h1_matrix():
    f32 = cb.free_step2_group(3)
    h1 = cb.heisenberg_group(1)
    Z, O = F(0), F(1)
    return MorphismMatrix(
        entries=((O, Z, Z, Z, Z, Z), (Z, O, Z, Z, Z, Z), (Z, Z, Z, O, Z, Z)),
        source=f32.algebra, target=h1.algebra)


def test_zero_map_is_valid_not_surjective():
    f32 = cb.free_step2_group(3)
    h1 = cb.heisenberg_group(1)
    m = MorphismMatrix(entries=tuple(tuple(F(0) for _ in range(6)) for _ in range(3)),
                       source=f32.algebra, target=h1.algebra)
    assert validate_morphism(m).ok
    assert not m.is_surjective()


def test_f32_to_h1_valid_surjective():
    m = f32_to_h1_matrix()
    assert validate_morphism(m).ok
    assert m.is_surjective()
    assert len(m.kernel_basis()) == 3


def test_layer_violating_map_reported():
    h1 = cb.heisenberg_group(1)
    # swap a weight-1 source vector onto the weight-2 target coordinate
    m = MorphismMatrix(entries=((F(0), F(0), F(0)),
                                (F(0), F(0), F(0)),
                                (F(1), F(0), F(0))),
                       source=h1.algebra, target=h1.algebra)
    rep = validate_morphism(m)
    assert not rep.ok
    assert any(i["kind"] == "layer" for i in rep.issues)


def test_bracket_violating_map_reported():
    h1 = cb.heisenberg_group(1)
    # X -> X, Y -> Y, Z -> 0 breaks phi[X,Y] = [phi X, phi Y]
    m = MorphismMatrix(entries=((F(1), F(0), F(0)),
                                (F(0), F(1), F(0)),
                                (F(0), F(0), F(0))),
                       source=h1.algebra, target=h1.algebra)
    rep = validate_morphism(m)
    assert any(i["kind"] == "bracket" for i in rep.issues)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_abelian_mixed_weights():
    alg = cb.abelian_group([1, 2, 2]).algebra
    factors, iso = decompose_commuting(alg)
    assert [(t, f.dim) for t, f in factors] == [(F(1), 1), (F(2), 2)]
    assert validate_morphism(iso).ok and is_graded_isomorphism(iso)


def test_decompose_heisenberg_single_factor():
    factors, iso = decompose_commuting(cb.heisenberg_group(1).algebra)
    assert len(factors) == 1
    t, f = factors[0]
    assert t == F(1) and f.dim == 3
    assert is_stratification(f)[0]
    assert is_graded_isomorphism(iso)


def test_decompose_power_of_heisenberg():
    g = cb.power_group(cb.heisenberg_group(1), 3)
    factors, iso = decompose_commuting(g.algebra)
    assert len(factors) == 1
    t, f = factors[0]
    assert t == F(3)
    assert f.weights == (F(1), F(1), F(2))
    assert is_stratification(f)[0]
    assert is_graded_isomorphism(iso)


def test_decompose_product_mixture():
    g = cb.product_group(cb.power_group(cb.heisenberg_group(1), 2),
                         cb.abelian_group([1]))
    factors, iso = decompose_commuting(g.algebra)
    assert sorted((t, f.dim) for t, f in factors) == [(F(1), 1), (F(2), 3)]
    for t, f in factors:
        ok, _ = is_stratification(f)
        assert ok and len(f.layers()) <= 2
    assert is_graded_isomorphism(iso)


def test_decompose_rejects_a_wrong_complement(monkeypatch):
    # the bracket image in place of its complement: the reassembly counts the
    # centre of H1 twice and misses the abelian weight-2 coordinate
    from carnot_bcp import structure
    g = cb.product_group(cb.heisenberg_group(1), cb.abelian_group([2]))
    monkeypatch.setattr(structure, "orthogonal_complement_within",
                        lambda ambient, sub: list(sub))
    with pytest.raises(cb.AlgebraError, match="reassemble"):
        decompose_commuting(g.algebra)


def test_decompose_requires_commuting():
    with pytest.raises(ClassificationError):
        decompose_commuting(cb.heisenberg_nonstandard_group(2).algebra)


# ---------------------------------------------------------------------------
# quotient witness
# ---------------------------------------------------------------------------

def test_witness_on_nonstandard_heisenberg_itself():
    alg = cb.heisenberg_nonstandard_group(2).algebra
    basis, m, (t, s) = heisenberg_quotient_witness(alg)
    assert (t, s) == (F(1), F(2))
    assert validate_morphism(m).ok and m.is_surjective()
    assert m.rank() == 3


def test_witness_ignores_abelian_factor():
    g = cb.product_group(cb.heisenberg_nonstandard_group(2), cb.abelian_group([1]))
    basis, m, (t, s) = heisenberg_quotient_witness(g.algebra)
    assert (t, s) == (F(1), F(2))
    assert validate_morphism(m).ok and m.is_surjective()


def test_witness_on_stratified_step3():
    basis, m, (t, s) = heisenberg_quotient_witness(cb.step3_rank3_group().algebra)
    assert (t, s) == (F(1), F(2))
    assert validate_morphism(m).ok and m.is_surjective()
    assert m.target.weights == (F(1), F(2), F(3))


def test_witness_requires_noncommuting():
    with pytest.raises(ClassificationError):
        heisenberg_quotient_witness(cb.heisenberg_group(2).algebra)


def test_generated_subalgebra_closure():
    alg = cb.step3_rank3_group().algebra
    e1 = tuple(F(1 if i == 0 else 0) for i in range(10))
    e2 = tuple(F(1 if i == 1 else 0) for i in range(10))
    basis = generated_subalgebra(alg, [e1, e2])
    # e1, e2 generate e1, e2, f12, g112, g212: dimension 5
    assert len(basis) == 5


# ---------------------------------------------------------------------------
# classification payload
# ---------------------------------------------------------------------------

def test_classify_group_payload():
    payload = classify_group(cb.heisenberg_nonstandard_group(2))
    assert payload["bcp_admissible"] is False
    assert payload["witness"]["t"] == "1" and payload["witness"]["s"] == "2"
    assert "quotient_witness" in payload
    payload = classify_group(cb.heisenberg_group(2))
    assert payload["bcp_admissible"] is True and payload["witness"] is None
