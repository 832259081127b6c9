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
import operator

__version__ = "0.1.0"


class _Frozen:
    """Base of the immutable value types (fans, matrices, points, chains).

    A subclass names its fields in ``__slots__``, in order, with
    ``"__dict__"`` added where a cached property needs one, and its
    ``__init__`` stores them with :data:`_set_field`.  Its instances are
    values: assigning or deleting any attribute raises ``AttributeError``;
    two instances are equal when they have the same type and equal fields,
    and hash as the tuple of their fields; the repr is ``Type(field=value,
    ...)``; and pickle and ``copy.deepcopy`` rebuild an instance by calling
    the type on its fields, so the ``__init__`` checks run again.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        get = operator.attrgetter(*cls._fields)
        # the getter of one name returns its value, not a 1-tuple
        cls._values = get if len(cls._fields) > 1 else staticmethod(lambda self: (get(self),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


# sets a field past the raising __setattr__, in a value type's __init__
_set_field = object.__setattr__

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
