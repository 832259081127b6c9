"""Negative controls for the benchmark's own oracles: each must accept the
library's right answer and reject a wrong one.

    python3 -m pytest bench/test_oracles.py
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles as orc  # noqa: E402
import toricchains as tc  # noqa: E402
import workloads  # noqa: E402
from toricchains import cli  # noqa: E402
from toricchains import losev_manin as lm  # noqa: E402


def _enumeration(tag, n, p):
    orbits = tc.enumerate_orbits(tc.build_upsilon(tc.FanFamily(tag, n)), p)
    return [pt.coords for pt, _ in orbits], [order for _, order in orbits]


def test_orbit_oracle_accepts_the_enumeration():
    assert orc.check_orbits("A", 2, 3, *_enumeration("A", 2, 3)) == []
    assert orc.check_orbits("C", 2, 5, *_enumeration("C", 2, 5)) == []


def test_orbit_oracle_rejects_a_missing_orbit():
    reps, orders = _enumeration("A", 2, 3)
    assert orc.check_orbits("A", 2, 3, reps[:3] + reps[4:], orders[:3] + orders[4:])


def test_orbit_oracle_rejects_a_repeated_orbit_and_a_wrong_representative():
    reps, orders = _enumeration("A", 1, 5)
    moved = tuple(2 * x % 5 for x in reps[-1][:1]) + reps[-1][1:]
    assert orc.check_orbits("A", 1, 5, reps + [reps[-1]], orders + [orders[-1]])
    assert orc.check_orbits("A", 1, 5, reps[:-1] + [moved], orders)


def test_orbit_oracle_rejects_a_wrong_stabilizer_order():
    reps, orders = _enumeration("A", 2, 3)
    assert orc.check_orbits("A", 2, 3, reps, [o + 1 for o in orders])


def test_acyclic_orientations_reject_a_graph_with_an_extra_edge():
    edges = [(1, 2), (2, 3), (3, 4), (1, 4), (2, 5)]
    zonotope = lm.root_segment(5, *edges[0])
    for i, j in edges[1:]:
        zonotope = lm.minkowski_sum(zonotope, lm.root_segment(5, i, j))
    assert zonotope.num_vertices == orc.acyclic_orientations(5, edges)
    assert zonotope.num_vertices != orc.acyclic_orientations(5, edges + [(1, 3)])


def test_acyclic_orientations_of_small_graphs():
    assert orc.acyclic_orientations(3, [(1, 2), (2, 3), (1, 3)]) == 6
    assert orc.acyclic_orientations(4, [(1, 2), (3, 4)]) == 4


def test_schema_rejects_a_payload_with_an_extra_key():
    result = cli.run(["point", "stab", "--family", "A", "--n", "2",
                      "--coords", "0,0,1,1", "--field", "F7", "--json"])
    assert result.status == 0
    assert workloads.schema_problems(result.payload, "point") == []
    assert workloads.schema_problems(dict(result.payload, extra=1), "point")


def test_cli_checkers_reject_a_payload_with_an_extra_key():
    inputs = workloads.cli_inputs(1)
    for args, _, checker in workloads._commands(inputs):
        if args[:2] == ["point", "count"]:
            q = inputs["count"][1]
            assert checker({"count": (q + 1) ** 3, "q": q}) == []
            assert checker({"count": (q + 1) ** 3, "q": q, "extra": 1})


def test_closed_forms():
    assert orc.coarse_points("SigmaA", 3, 2) == 13  # the hexagon's toric surface over F_2
    assert orc.fiber_count((2, 1, 1)) == 12
    assert orc.unit_roots(orc.poly_from_roots([3, 3, 5], 7), 7) == {3: 2, 5: 1}
    assert len(orc.permutohedron_vertices(4)) == 24
