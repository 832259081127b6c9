"""Value semantics shared by the library's immutable types: equality and hash
by fields, no assignment, the keyword repr, and pickling."""

import copy
import pickle

import pytest

from toricchains import losev_manin
from toricchains.chains import ChainModel, ExtendedPoint, FiberProfile, InvolutiveChainModel
from toricchains.cli import CommandResult
from toricchains.exact_linalg import FinDiagGroupDesc, IntMatrix, SmithForm
from toricchains.fields import GF
from toricchains.losev_manin import ChartData, LatticePolytope, permutohedron
from toricchains.orbit_points import FanPoint, GroupElement
from toricchains.root_fans import FanFamily, FanReport, StackyFan, build_upsilon

F7 = GF(7)
A1 = build_upsilon(FanFamily("A", 1))
I2 = IntMatrix.identity(2)
SEGMENT, HEXAGON = permutohedron(2).cuts, permutohedron(3).cuts
CHAIN = ChainModel(F7, 2, (2,), ((1, 3, 1),))

# (type, keyword arguments in field order, the fields a second, unequal value changes)
CASES = [
    (IntMatrix, {"rows": 2, "cols": 2, "entries": (1, 2, 3, 4)}, {"entries": (1, 2, 3, 5)}),
    (SmithForm, {"d": (1, 2), "U": I2, "V": I2}, {"d": (1, 4)}),
    (FinDiagGroupDesc, {"free_rank": 1, "torsion": (2, 4)}, {"free_rank": 0}),
    (FanFamily, {"tag": "A", "n": 2}, {"tag": "C"}),
    (
        StackyFan,
        {
            "rank": 1,
            "rays": ((-1,), (1,)),
            "ray_labels": ("a_0", "b_0"),
            "max_cones": ((0,), (1,)),
            "family": FanFamily("A", 1),
        },
        {"family": None},
    ),
    (FanReport, {"simplicial": True, "pure": True, "wall_condition": False, "complete": False},
     {"complete": True}),
    (FanPoint, {"fan": A1, "field": F7, "coords": (1, 2)}, {"coords": (2, 1)}),
    (GroupElement, {"units": (3,)}, {"units": (3, 1)}),
    (ChainModel, {"field": F7, "total_degree": 2, "component_degrees": (2,),
                  "component_polys": ((1, 3, 1),)}, {"component_polys": ((1, 4, 1),)}),
    (ExtendedPoint, {"n": 2, "field": F7, "c": (1, 3, 1), "b": (1,)}, {"b": (2,)}),
    (FiberProfile, {"rational_ordered_preimages": 2, "multiplicity_profile": ((1, 1),),
                    "is_ramified": False}, {"is_ramified": True}),
    (InvolutiveChainModel, {"base": CHAIN, "parity": "+"}, {"parity": None}),
    (LatticePolytope, {"ambient_dim": 1, "cuts": SEGMENT}, {"ambient_dim": 2, "cuts": HEXAGON}),
    (ChartData, {"denominators": ((0, 0), (1, 0), (1, 1)), "coordinates": ((-1, 1),),
                 "y": (((1, 0),),)}, {"y": ()}),
    (CommandResult, {"status": 0, "payload": "fan ok"}, {"status": 2}),
]


@pytest.mark.parametrize("cls, fields, changes", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, fields, changes):
    value = cls(**fields)
    positional = cls(*fields.values())
    other = cls(**{**fields, **changes})

    assert [getattr(value, name) for name in fields] == list(fields.values())
    assert value == positional and hash(value) == hash(positional)
    assert hash(value) == hash(tuple(fields.values()))
    assert value != other
    assert value != tuple(fields.values())
    assert value.__eq__(tuple(fields.values())) is NotImplemented
    assert value != type("Other", (cls,), {})(**fields)

    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) == fields[name]

    want = f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert repr(value) == want

    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value and repr(copied) == want


def test_stacky_fan_family_defaults_to_none():
    fan = StackyFan(1, ((-1,), (1,)), ("a_0", "b_0"), ((0,), (1,)))
    assert fan.family is None
    assert fan == StackyFan(1, ((-1,), (1,)), ("a_0", "b_0"), ((0,), (1,)), None)


def test_polytope_vertices_are_computed_once(monkeypatch):
    calls = []
    greedy = losev_manin._greedy_vectors
    monkeypatch.setattr(losev_manin, "_greedy_vectors", lambda *a: calls.append(a) or greedy(*a))
    polytope = LatticePolytope(2, HEXAGON)
    assert polytope.vertices is polytope.vertices
    assert polytope.num_vertices == 6 and len(calls) == 1
