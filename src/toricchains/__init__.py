"""Exact toric orbifolds from Cartan matrices.

The package builds the stacky fans attached to Cartan matrices of types A,
B, C (and the permutohedral fan of the Losev-Manin space), realizes their
field-valued points as coordinate tuples with an explicit torus action, and
converts points to pointed chains of projective lines carrying a finite
subscheme.  Everything is exact: arbitrary-precision integers, rationals,
and prime fields.

Importing the package loads no submodule.  Each public name below is served
by the module-level ``__getattr__`` (PEP 562), which imports its submodule on
first use, so a program that uses only the fans never loads the orbit,
chain or polytope code.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "fields": ("GF", "QQ", "Field", "PrimeField", "RationalField", "parse_field"),
    "exact_linalg": (
        "FinDiagGroupDesc",
        "IntMatrix",
        "SmithForm",
        "cokernel",
        "hnf",
        "snf",
    ),
    "root_fans": (
        "FanFamily",
        "FanReport",
        "StackyFan",
        "build_sigma_A",
        "build_upsilon",
        "canonical_stack",
        "cartan_matrix",
        "check_fan",
        "dg_group",
        "fan_from_json",
        "fan_morphism_check",
        "standard_fan_map",
        "upsilon_beta",
        "weight_matrix",
    ),
    "orbit_points": (
        "FanPoint",
        "GroupElement",
        "act",
        "canonical_form",
        "count_coarse_points",
        "enumerate_orbits",
        "is_nondegenerate",
        "make_point",
        "orbit_equal",
        "stabilizer",
        "stabilizer_order",
    ),
    "chains": (
        "ChainModel",
        "ExtendedPoint",
        "FiberProfile",
        "InvolutiveChainModel",
        "b_point_embed",
        "c_point_embed",
        "chain_from_point",
        "extended_from_standard",
        "fiber_profile",
        "fiber_profile_of_chain",
        "involutive_chain_from_point",
        "involutive_fiber_profile",
        "minus_embed",
        "orbit_equal_extended",
        "parity_component",
        "point_from_polynomial",
        "sigma_forget",
    ),
    "losev_manin": (
        "LatticePolytope",
        "chart_section",
        "delta_j",
        "minkowski_sum",
        "permutohedron",
        "root_segment",
        "verify_a_data_cocycle",
        "verify_cd_disjoint",
        "verify_divisor_relation",
        "verify_minkowski",
        "verify_section_hyperplane",
    ),
    "symbolic": ("MultiPoly", "RationalExpr"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodule names too, so that a star import binds them
__all__ = [*_EXPORTS, *_MODULE_OF]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
