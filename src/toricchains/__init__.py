"""Exact toric orbifolds from Cartan matrices.

The package builds the stacky fans attached to Cartan matrices of types A,
B, C (and the permutohedral fan of the Losev-Manin space), realizes their
field-valued points as coordinate tuples with an explicit torus action, and
converts points to pointed chains of projective lines carrying a finite
subscheme.  Everything is exact: arbitrary-precision integers, rationals,
and prime fields.
"""

from .fields import GF, QQ, Field, PrimeField, RationalField, parse_field
from .exact_linalg import (
    FinDiagGroupDesc,
    IntMatrix,
    SmithForm,
    cokernel,
    hnf,
    kernel_basis,
    snf,
)
from .root_fans import (
    FanFamily,
    FanReport,
    StackyFan,
    build_sigma_A,
    build_upsilon,
    canonical_stack,
    cartan_matrix,
    check_fan,
    dg_group,
    fan_from_json,
    fan_morphism_check,
    standard_fan_map,
    upsilon_beta,
    weight_matrix,
)
from .orbit_points import (
    FanPoint,
    GroupElement,
    act,
    canonical_form,
    count_coarse_points,
    enumerate_orbits,
    is_nondegenerate,
    make_point,
    orbit_equal,
    stabilizer,
    stabilizer_order,
)
from .chains import (
    ChainModel,
    ExtendedPoint,
    FiberProfile,
    InvolutiveChainModel,
    b_point_embed,
    c_point_embed,
    chain_from_point,
    extended_from_standard,
    fiber_profile,
    fiber_profile_of_chain,
    involutive_chain_from_point,
    involutive_fiber_profile,
    minus_embed,
    orbit_equal_extended,
    parity_component,
    point_from_polynomial,
)
from .losev_manin import (
    LatticePolytope,
    SectionRelation,
    SigmaPoint,
    chart_section,
    delta_j,
    minkowski_sum,
    permutohedron,
    relations_generator,
    root_segment,
    sigma_forget,
    verify_a_data_cocycle,
    verify_cd_disjoint,
    verify_divisor_relation,
    verify_minkowski,
    verify_section_hyperplane,
)
from .symbolic import MultiPoly, RationalExpr, expr_is_zero, parse_poly

__version__ = "0.1.0"
