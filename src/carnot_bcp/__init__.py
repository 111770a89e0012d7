"""Computational metric geometry on graded nilpotent groups.

Construct graded groups from structure constants, evaluate homogeneous
quasi-distances on them (Hebisch-Sikora Euclidean-ball distances, unit-ball
oracles, snowflakes, products, quotients by graded morphisms, the
sub-Riemannian distance on the first Heisenberg group), decide the
commuting-different-layers criterion that governs whether the Besicovitch
Covering Property can hold, and produce / rigorously verify Besicovitch-ball
certificates in exact rational arithmetic.
"""

from .algebra import (
    AlgebraError,
    ExactnessError,
    GradedGroup,
    StructureConstants,
    UnsupportedStepError,
    abelian_group,
    bracket,
    builtin_group,
    dilate,
    displacement,
    free_step2_group,
    group_from_json,
    group_to_json,
    heisenberg_group,
    heisenberg_nonstandard_group,
    inverse,
    load_group,
    make_group,
    multiply,
    power_group,
    product_group,
    save_group,
    step3_rank3_group,
    validate_algebra,
)
from .structure import (
    ClassificationVerdict,
    MorphismMatrix,
    decompose_commuting,
    has_commuting_different_layers,
    heisenberg_quotient_witness,
    is_stratification,
    stratification_from_layer,
    validate_morphism,
)
from .metrics import (
    CCHeisenbergDistance,
    HSDistance,
    LpComboDistance,
    ProductMaxDistance,
    QuasiDistance,
    QuotientDistance,
    UnitBallDistance,
    boundary_sample,
    cc_distance_h1,
    disk_union_segment_ball,
    estimate_quasi_triangle_constant,
    euclidean_line,
    hs_distance,
    hs_membership,
    lp_combination_distance,
    packing_count,
    power_distance,
    product_max_distance,
    punctured_disk_ball,
    quotient_distance,
    snowflake_line,
)
from .besicovitch import (
    BesicovitchFamily,
    Certificate,
    CoverReport,
    FiniteMetricSpace,
    countable_space,
    countable_space_two_ball_audit,
    dilation_orbit_family,
    greedy_cover,
    search_family,
    segment_witness_nonbcp,
    verify_family,
)
from .certificates import (
    AdmissibilityError,
    RegionParams,
    SweepReport,
    a_form,
    admissible_epsilon,
    calibrate_delta,
    layer_angle,
    lemma_sweep,
    region_classify,
    sphere_packing_estimate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
