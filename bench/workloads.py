"""The four workloads: seeded inputs and the operations of one round.

Every workload runs the same operations in every round; the seed only
chooses the data (cones to drop, field sizes, points, roots, graphs, CLI
arguments).  Library calls go through module attributes, never through
names imported here, so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import oracles as orc
import toricchains as tc
from toricchains import chains as ch
from toricchains import losev_manin as lm

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


class Workload:
    def __init__(self, build, run, traces_subprocesses=False):
        self.build = build
        self.run = run
        self.traces_subprocesses = traces_subprocesses


def _rank(tag: str, n: int) -> int:
    return n - 1 if tag in ("Cminus", "SigmaA") else n


def _rays(tag: str, n: int):
    return orc.sigma_rays(n) if tag == "SigmaA" else orc.upsilon_rays(tag, n)


def build_fan(tag: str, n: int):
    if tag == "SigmaA":
        return tc.build_sigma_A(n)
    return tc.build_upsilon(tc.FanFamily(tag, n))


def _units(rng: random.Random, p: int, k: int):
    return [rng.randrange(1, p) for _ in range(k)]


def _faces(tag: str, n: int):
    """Zero sets of nondegenerate points: the faces of the fan, as sorted
    ray-index tuples."""
    if tag == "SigmaA":
        subsets = [frozenset(s) for s in orc.sigma_subsets(n)]
        out = []
        for size in range(n):
            for chain in itertools.combinations(range(len(subsets)), size):
                if all(subsets[a] < subsets[b] or subsets[b] < subsets[a]
                       for a, b in itertools.combinations(chain, 2)):
                    out.append(chain)
        return out
    k = _rank(tag, n)
    return [
        tuple(sorted(i + k * (c - 1) for i, c in enumerate(choice) if c))
        for choice in itertools.product((0, 1, 2), repeat=k)
    ]


def _zero_set(coords):
    return tuple(r for r, x in enumerate(coords) if x == 0)


def _point(rng: random.Random, tag: str, n: int, p: int, face=None):
    face = rng.choice(_faces(tag, n)) if face is None else face
    coords = _units(rng, p, len(_rays(tag, n)))
    for r in face:
        coords[r] = 0
    return coords


# ---------------------------------------------------------------------------
# fans: build and certify the (-C | I) and permutohedral fans
# ---------------------------------------------------------------------------

FAN_FAMILIES = (
    [("A", n) for n in range(1, 9)]
    + [(tag, n) for tag in ("B", "Bcan", "C") for n in range(1, 8)]
    + [("Cminus", n) for n in range(2, 9)]
    + [("SigmaA", n) for n in range(3, 7)]
)
COUNTED_MAX_RANK = 4
DROPPED_CONE_FANS = (("A", 4), ("B", 4), ("C", 5), ("Cminus", 5), ("SigmaA", 4))
FAN_MAPS = (("C", 2), ("C", 3), ("B", 2), ("B", 3))


def fans_inputs(seed: int) -> dict:
    rng = random.Random(f"fans/{seed}")
    return {
        "counts": [
            (tag, n, q)
            for tag, n in FAN_FAMILIES
            if _rank(tag, n) <= COUNTED_MAX_RANK
            for q in sorted(rng.sample(PRIME_POWERS, 2))
        ],
        "drops": [
            (tag, n, rng.randrange(orc.fan_shape(tag, n)[1])) for tag, n in DROPPED_CONE_FANS
        ],
    }


def _double_cover():
    """Eight rays at 45 degrees, cones {i, i+2 mod 8}: every wall lies in
    two cones and every vector in some cone, yet the cones cover the plane
    twice, so this is not a fan."""
    rays = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
    cones = tuple(sorted(tuple(sorted((i, (i + 2) % 8))) for i in range(8)))
    return tc.StackyFan(2, rays, tuple(f"r{i}" for i in range(8)), cones)


def _fan_problems(fan, tag: str, n: int):
    rays, cones = orc.fan_shape(tag, n)
    problems = []
    if [tuple(v) for v in fan.rays] != _rays(tag, n):
        problems.append("rays differ from the block matrix")
    if fan.num_rays != rays or len(fan.max_cones) != cones:
        problems.append(f"{fan.num_rays} rays and {len(fan.max_cones)} cones")
    return problems


def fans_round(rnd, inp: dict, traced: bool) -> None:
    for tag, n in FAN_FAMILIES:
        with rnd.op(f"fan {tag}_{n}") as op:
            fan = op.time(build_fan, tag, n)
            op.add_problems(_fan_problems(fan, tag, n))
            op.expect(op.time(tc.check_fan, fan).all_ok, "check_fan rejects the fan")
            group = op.time(tc.dg_group, fan)
            op.expect(
                (group.free_rank, group.torsion) == orc.group_data(tag, n),
                f"group {group.free_rank}, {group.torsion}",
            )
            if tag == "Cminus":
                try:
                    op.time(tc.weight_matrix, fan)
                    op.expect(False, "weight_matrix accepts a group with torsion")
                except tc.root_fans.WeightTorsionError:
                    pass
                continue
            w = op.time(tc.weight_matrix, fan).to_rows()
            if tag != "SigmaA":
                op.expect(w == orc.upsilon_weights(tag, n), "weights are not (I | C^T)")
            op.expect(len(w) == orc.group_data(tag, n)[0], "weight rank")
            kills = orc.matmul(w, _rays(tag, n))
            op.expect(all(x == 0 for row in kills for x in row), "W beta^T != 0")

    for tag, n, q in inp["counts"]:
        with rnd.op(f"count {tag}_{n} q={q}") as op:
            fan = op.time(build_fan, tag, n)
            count = op.time(tc.count_coarse_points, fan, q)
            op.expect(count == orc.coarse_points(tag, n, q), f"count {count}")

    for tag, n in FAN_MAPS:
        with rnd.op(f"fan map {tag}_{n}") as op:
            L, src, dst = op.time(tc.standard_fan_map, tag, n)
            op.expect(op.time(tc.fan_morphism_check, src, dst, L), "standard map rejected")
            minus = tc.IntMatrix(L.rows, L.cols, tuple(-x for x in L.entries))
            op.expect(not op.time(tc.fan_morphism_check, src, dst, minus), "negated map accepted")

    # Negative controls: none of these is a complete simplicial fan.
    for tag, n, drop in inp["drops"]:
        with rnd.op(f"dropped cone {drop} of {tag}_{n}") as op:
            fan = op.time(build_fan, tag, n)
            cones = fan.max_cones[:drop] + fan.max_cones[drop + 1 :]
            broken = op.time(tc.StackyFan, fan.rank, fan.rays, fan.ray_labels, cones)
            op.expect(not op.time(tc.check_fan, broken).all_ok, "check_fan accepts it")
    with rnd.op("non-simplicial cone") as op:
        rays = ((1, 0), (0, 1), (-1, 0), (0, -1), (2, 0))
        cones = ((0, 1), (0, 3), (0, 4), (1, 2), (2, 3))
        broken = op.time(tc.StackyFan, 2, rays, tuple("abcde"), cones)
        op.expect(not op.time(tc.check_fan, broken).all_ok, "check_fan accepts it")
    with rnd.op("non-pure cone set") as op:
        fan = op.time(build_fan, "A", 2)
        broken = op.time(tc.StackyFan, 2, fan.rays, fan.ray_labels, fan.max_cones + ((0,),))
        op.expect(not op.time(tc.check_fan, broken).all_ok, "check_fan accepts it")
    with rnd.op("double cover of the plane", known_fault=True) as op:
        report = op.time(tc.check_fan, op.time(_double_cover))
        op.expect(not report.all_ok, "check_fan accepts a double cover")


# ---------------------------------------------------------------------------
# points: torus orbits over prime fields, chains and their fibers
# ---------------------------------------------------------------------------

ENUMERATIONS = (
    (("A", 1), 7), (("A", 2), 5), (("A", 2), 7), (("C", 2), 5), (("Bcan", 2), 5), (("A", 3), 3),
)
# (family, n, p, kind): "one" and "two" draw that many points on seeded
# random strata; "twins" draws a point with no zero coordinate and its twin
# with the b-coordinates negated.  canonical_form takes a scan of the whole
# torus on the first two cases and greedy congruences on the last two.  The greedy
# search tries values 1, 2, ... for each coordinate the torus cannot move, so
# its cost is the sum of those canonical values; for a twin pair over A_2
# they are x, y and p - x, p - y, and the pair costs the same for every
# seed.
POINT_CASES = (
    ("A", 2, 101, "one"),
    ("SigmaA", 3, 13, "one"),
    ("A", 3, 101, "two"),
    ("A", 2, 1009, "twins"),
)
CHAIN_FIELDS = (1009, 10007)
ROOT_PATTERNS = ((1, 1, 1, 1), (2, 1, 1), (3, 1))
INVOLUTIVE_FIELD = 1009
INVOLUTIVE_CASES = ((2, True), (3, True), (3, False))  # (n, splits over the field)


def _chain_coeffs(rng: random.Random, q: int, pattern):
    """Monic polynomial with the given root multiplicities at seeded units,
    redrawn until its constant term is an n-th power, so that it has a
    normalized representative and a point on the type-A fan."""
    n = sum(pattern)
    while True:
        roots = rng.sample(range(1, q), len(pattern))
        coeffs = orc.poly_from_roots([r for r, m in zip(roots, pattern) for _ in range(m)], q)
        if orc.is_nth_power(coeffs[0], n, q):
            return coeffs


def _involutive_coeffs(rng: random.Random, q: int, n: int, splits: bool):
    """Palindromic product of n factors t^2 - (s + 1/s) t + 1 with distinct
    pairs {s, 1/s} avoiding +-1; when it must not split, the last factor is
    t^2 - u t + 1 with u^2 - 4 a nonsquare."""
    poly, used = [1], set()
    for _ in range(n if splits else n - 1):
        while True:
            s = rng.randrange(2, q - 1)
            if s * s % q != 1 and s not in used:
                break
        used |= {s, pow(s, -1, q)}
        poly = orc.poly_mul(poly, [1, -(s + pow(s, -1, q)) % q, 1], q)
    if not splits:
        while True:
            u = rng.randrange(q)
            if pow((u * u - 4) % q, (q - 1) // 2, q) == q - 1:
                break
        poly = orc.poly_mul(poly, [1, -u % q, 1], q)
    return poly


def points_inputs(seed: int) -> dict:
    rng = random.Random(f"points/{seed}")
    cases = []
    for tag, n, p, kind in POINT_CASES:
        faces = _faces(tag, n)
        if kind == "twins":
            point = _point(rng, tag, n, p, face=())
            points = [point, point[:n] + [p - x for x in point[n:]]]
        else:
            count = 1 if kind == "one" else 2
            points = [_point(rng, tag, n, p, face) for face in rng.sample(faces, count)]
        cases.append({
            "family": (tag, n), "p": p, "points": points,
            "off_stratum": [_point(rng, tag, n, p, rng.choice(
                [f for f in faces if f != _zero_set(pt)])) for pt in points],
            "torus": [_units(rng, p, len(_rays(tag, n)) - _rank(tag, n)) for _ in points],
        })
    chains = [
        (q, pattern, _chain_coeffs(rng, q, pattern))
        for q in CHAIN_FIELDS for pattern in ROOT_PATTERNS
    ]
    involutive = [
        (n, splits, _involutive_coeffs(rng, INVOLUTIVE_FIELD, n, splits))
        for n, splits in INVOLUTIVE_CASES
    ]
    return {"cases": cases, "chains": chains, "involutive": involutive}


def points_round(rnd, inp: dict, traced: bool) -> None:
    for (tag, n), p in ENUMERATIONS:
        with rnd.op(f"enumerate {tag}_{n} F_{p}") as op:
            fan = op.time(build_fan, tag, n)
            orbits = op.time(tc.enumerate_orbits, fan, p)
            op.add_problems(orc.check_orbits(
                tag, n, p, [pt.coords for pt, _ in orbits], [order for _, order in orbits]
            ))

    for case in inp["cases"]:
        tag, n = case["family"]
        p, field = case["p"], tc.GF(case["p"])
        rays = _rays(tag, n)
        points, canons = [], []
        for coords, off_coords, torus in zip(case["points"], case["off_stratum"], case["torus"]):
            label = f"{tag}_{n} F_{p} {coords}"
            with rnd.op(f"canonical form {label}") as op:
                fan = op.time(build_fan, tag, n)
                pt = op.time(tc.make_point, fan, field, coords)
                canon = op.time(tc.canonical_form, pt)
                op.expect(canon.zero_set() == pt.zero_set(), "zero set changed")
                op.expect(canon.coord_ints() <= pt.coord_ints(), "not below the point itself")
                op.expect(op.time(tc.canonical_form, canon) == canon, "not idempotent")
                moved = op.time(tc.act, tc.GroupElement(tuple(torus)), pt)
                op.expect(op.time(tc.canonical_form, moved) == canon, "not torus invariant")
            with rnd.op(f"stabilizer {label}") as op:
                group = op.time(tc.stabilizer, pt)
                order = orc.cone_multiplicity([rays[r] for r in pt.zero_set()], _rank(tag, n))
                op.expect(group.free_rank == 0 and math.prod(group.torsion) == order,
                          f"stabilizer {group} for multiplicity {order}")
            with rnd.op(f"orbit equality {label}") as op:
                op.expect(op.time(tc.orbit_equal, pt, moved), "torus translate not equal")
                op.expect(op.time(tc.orbit_equal, canon, pt), "canonical form not equal")
                off = op.time(tc.make_point, fan, field, off_coords)
                op.expect(not op.time(tc.orbit_equal, pt, off), "other stratum equal")
            points.append(pt)
            canons.append(canon)
        if len(points) == 2:
            with rnd.op(f"orbit equality against canonical forms {tag}_{n} F_{p}") as op:
                same = canons[0] == canons[1]
                op.expect(op.time(tc.orbit_equal, points[0], points[1]) == same,
                          "orbit_equal disagrees with canonical forms")

    for q, pattern, coeffs in inp["chains"]:
        field, n = tc.GF(q), sum(pattern)
        with rnd.op(f"fiber F_{q} {pattern}") as op:
            ext = op.time(ch.point_from_polynomial, coeffs, field)
            op.expect(ext.is_normalized(), "not normalized")
            pt = op.time(ext.to_standard)
            chain = op.time(ch.chain_from_point, pt)
            op.expect(chain.component_degrees == (n,), f"components {chain.component_degrees}")
            profile = op.time(ch.fiber_profile, pt)
            op.expect(profile.rational_ordered_preimages == orc.fiber_count(pattern),
                      f"{profile.rational_ordered_preimages} ordered preimages")
            op.expect(profile.is_ramified == (max(pattern) > 1), "ramification")
            op.expect(profile.multiplicity_profile == (tuple(sorted(pattern)),),
                      f"profile {profile.multiplicity_profile}")
        with rnd.op(f"polynomial round trip F_{q} {pattern}") as op:
            back = op.time(ch.point_from_polynomial, list(chain.component_polys[0]), field)
            ext = op.time(ch.extended_from_standard, pt)
            op.expect(op.time(ch.orbit_equal_extended, back, ext),
                      "round trip leaves the orbit")
            op.expect(op.time(back.to_standard) == pt, "round trip moves the point")

    field = tc.GF(INVOLUTIVE_FIELD)
    for n, splits, coeffs in inp["involutive"]:
        with rnd.op(f"involutive fiber C_{n} {coeffs}") as op:
            fan = op.time(build_fan, "C", n)
            pt = op.time(tc.make_point, fan, field, coeffs[1 : n + 1] + [1] * n)
            count = op.time(ch.involutive_fiber_profile, pt)
            expected = 2**n * math.factorial(n) if splits else 0
            op.expect(count == expected, f"count {count}, expected {expected}")
            roots = orc.unit_roots(coeffs, INVOLUTIVE_FIELD)
            op.expect((sum(roots.values()) == 2 * n) == splits, "input does not split as built")


# ---------------------------------------------------------------------------
# identities: permutohedral polytopes and section identities
# ---------------------------------------------------------------------------

# Graph shapes (vertices, edges); each round sums the root segments of a
# seeded random labelling of each.  The labelling moves every coordinate but
# keeps the number of zonotope vertices, so the seed does not change how
# much work a round is.
GRAPHS = (
    (5, ((1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (2, 5), (1, 3))),
    (5, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5))),
    (6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4), (2, 5))),
    (6, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6))),
    (6, ((1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6), (5, 6))),
)


def identities_inputs(seed: int) -> dict:
    rng = random.Random(f"identities/{seed}")
    graphs = []
    for v, edges in GRAPHS:
        label = dict(zip(range(1, v + 1), rng.sample(range(1, v + 1), v)))
        graphs.append((v, sorted(tuple(sorted((label[i], label[j]))) for i, j in edges)))
    return {"graphs": graphs}


def identities_round(rnd, inp: dict, traced: bool) -> None:
    for n in range(2, 6):
        with rnd.op(f"permutohedron {n}") as op:
            perm = op.time(lm.permutohedron, n)
            op.expect(set(perm.vertices) == orc.permutohedron_vertices(n), "vertices")
            op.expect(perm.num_vertices == math.factorial(n), "n! vertices")
            for j in range(1, n):
                delta = op.time(lm.delta_j, n, j)
                op.expect(delta.num_vertices == math.comb(n, j), f"Delta_{j} vertices")
        with rnd.op(f"minkowski {n}") as op:
            op.expect(op.time(lm.verify_minkowski, n), "decompositions differ")

    for v, edges in inp["graphs"]:
        with rnd.op(f"graphic zonotope {v} {edges}") as op:
            zonotope = op.time(lm.root_segment, v, *edges[0])
            for i, j in edges[1:]:
                zonotope = op.time(lm.minkowski_sum, zonotope, op.time(lm.root_segment, v, i, j))
            expected = orc.acyclic_orientations(v, edges)
            op.expect(zonotope.num_vertices == expected,
                      f"{zonotope.num_vertices} vertices, {expected} acyclic orientations")

    checks = (
        ("verify_cd_disjoint", range(2, 7), {"negative_control": True}),
        ("verify_section_hyperplane", range(2, 6), {"flip_signs": True}),
        ("verify_divisor_relation", range(2, 7), {"negative_control": True}),
        ("verify_a_data_cocycle", range(3, 7), {"negative_control": True}),
    )
    for name, ns, control in checks:
        for n in ns:
            with rnd.op(f"{name} {n}") as op:
                op.expect(op.time(getattr(lm, name), n), "identity fails")
            with rnd.op(f"{name} {n} negative control") as op:
                op.expect(not op.time(getattr(lm, name), n, **control), "control passes")


# ---------------------------------------------------------------------------
# cli: cold subprocesses, one at a time
# ---------------------------------------------------------------------------


def _schema(name: str) -> dict:
    return json.loads((ROOT / "schemas" / f"{name}.schema.json").read_text())


def schema_problems(payload, name: str):
    import jsonschema  # here, so that set-up time stays the library's import

    try:
        jsonschema.validate(payload, _schema(name))
    except jsonschema.ValidationError as exc:
        return [f"{name} schema: {exc.message}"]
    return []


def _fmt(values):
    return [str(v) for v in values]


def cli_inputs(seed: int) -> dict:
    rng = random.Random(f"cli/{seed}")
    return {
        "stab": _point(rng, "A", 2, 7),
        "canon": _point(rng, "A", 2, 11),
        "count": (rng.choice(("A", "B", "C")), rng.choice(PRIME_POWERS)),
        "poly": orc.poly_from_roots(rng.sample(range(1, 1009), 4), 1009),
        "chain_point": _point(rng, "A", 3, 11),
        "embed": _point(rng, "C", 2, 7),
    }


def _commands(inp: dict):
    """(arguments, schema or None, checker) for each command of a round."""
    stab, canon, chain_point, embed = inp["stab"], inp["canon"], inp["chain_point"], inp["embed"]
    family, q = inp["count"]
    a2 = orc.upsilon_rays("A", 2)

    def coords(values):
        return ",".join(map(str, values))

    def fan_build(out):
        shape = (out["rank"], [tuple(v) for v in out["rays"]], len(out["max_cones"]))
        return [] if shape == (2, a2, 4) else ["fan differs from (-C(A_2) | I)"]

    def fan_check(out):
        flags = [v for v in out.values() if isinstance(v, bool)]
        ok = len(flags) >= 4 and all(flags) and (out["rays"], out["max_cones"]) == (16, 256)
        return [] if ok else [f"fan check {out}"]

    def verify_all(out):
        names = {c["check"] for c in out["cases"]}
        wanted = {"fans", "cd-disjoint", "hyperplane", "minkowski", "divisor", "cocycle",
                  "fan-map-C", "fan-map-B", "canonical-stack"}
        ok = out["ok"] is True and all(c["ok"] is True for c in out["cases"]) and wanted <= names
        return [] if ok else ["verify all reports a failure or misses a check"]

    def enumerate_(out):
        reps = [tuple(int(x) for x in o["coords"]) for o in out["orbits"]]
        return orc.check_orbits("A", 2, 3, reps, [o["stabilizer_order"] for o in out["orbits"]])

    def minkowski(out):
        return [] if out == {"n": 5, "decompositions_match": True, "vertices": 120} else [str(out)]

    def fiber(out):
        poly = [1, 4, 1, 1]
        roots = orc.unit_roots(poly, 7)
        ms = sorted(roots.values())
        expected = {
            "rational_ordered_preimages": orc.fiber_count(ms) if sum(ms) == 3 else 0,
            "multiplicity_profile": [ms],
            "is_ramified": any(m > 1 for m in ms),
        }
        return [] if out == expected else [f"fiber {out}, expected {expected}"]

    def stabilizer(out):
        zero = [a2[r] for r, x in enumerate(stab) if x == 0]
        order = orc.cone_multiplicity(zero, 2)
        ok = out["free_rank"] == 0 and math.prod(out["torsion"]) == order
        return [] if ok else [f"stabilizer {out}, multiplicity {order}"]

    def canonical(out):
        least = orc.least_in_orbit(orc.upsilon_weights("A", 2), 11, tuple(canon))
        return [] if out == {"coords": _fmt(least)} else [f"canon {out}, least {least}"]

    def count(out):
        return [] if out == {"count": (q + 1) ** 3, "q": q} else [f"count {out}"]

    def from_poly(out):
        ext = ch.point_from_polynomial(inp["poly"], tc.GF(1009))
        expected = {"n": ext.n, "coefficients": _fmt(ext.c), "twists": _fmt(ext.b),
                    "normalized": ext.is_normalized()}
        return [] if out == expected else [f"from-poly {out}"]

    def from_point(out):
        pt = tc.make_point(build_fan("A", 3), tc.GF(11), chain_point)
        expected = ch.chain_from_point(pt).to_dict()
        return [] if out == expected else [f"from-point {out}"]

    def embed_(out):
        a, b = embed[:2], embed[2:]
        expected = {"family": "A", "n": 3, "coords": _fmt(a + a[:1] + b + b[:1])}
        return [] if out == expected else [f"embed {out}, expected {expected}"]

    return [
        (["fan", "build", "--family", "A", "--n", "2"], "fan", fan_build),
        (["fan", "check", "--family", "A", "--n", "8"], None, fan_check),
        (["verify", "all", "--n", "8"], "verify_report", verify_all),
        (["point", "enumerate", "--family", "A", "--n", "2", "--p", "3"], "point", enumerate_),
        (["polytope", "minkowski", "--n", "5"], None, minkowski),
        (["chain", "fiber", "--poly", "1,4,1,1", "--q", "7"], "chain", fiber),
        (["point", "stab", "--family", "A", "--n", "2", "--coords", coords(stab),
          "--field", "F7"], "point", stabilizer),
        (["point", "canon", "--family", "A", "--n", "2", "--coords", coords(canon),
          "--field", "F11"], "point", canonical),
        (["point", "count", "--family", family, "--n", "3", "--q", str(q)], "point", count),
        (["chain", "from-poly", "--poly", coords(inp["poly"]), "--field", "F1009"], "chain",
         from_poly),
        (["chain", "from-point", "--family", "A", "--n", "3", "--coords", coords(chain_point),
          "--field", "F11"], "chain", from_point),
        (["chain", "embed", "--family", "C", "--n", "2", "--coords", coords(embed),
          "--field", "F7"], "chain", embed_),
    ]


TRACE_MARK = "BENCH-TRACE "


def cli_round(rnd, inp: dict, traced: bool) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if traced:
        prefix = [sys.executable, str(BENCH / "cli_shim.py")]
    else:
        prefix = [sys.executable, "-m", "toricchains.cli"]
    for i, (args, schema, checker) in enumerate(_commands(inp)):
        with rnd.op("toricchains " + " ".join(args)) as op:
            done = op.time(
                subprocess.run, prefix + args + ["--json"], env=env, cwd=ROOT,
                capture_output=True, timeout=150,
            )
            op.expect(done.returncode == 0, f"exit code {done.returncode}")
            if traced:
                lines = done.stderr.decode().splitlines()
                rnd.trace_parts.append(json.loads(lines[-1][len(TRACE_MARK):]))
            rnd.digests[str(i)] = hashlib.sha256(done.stdout).hexdigest()
            payload = json.loads(done.stdout)
            if schema is not None:
                op.add_problems(schema_problems(payload, schema))
            op.add_problems(checker(payload))


WORKLOADS = {
    "fans": Workload(fans_inputs, fans_round),
    "points": Workload(points_inputs, points_round),
    "identities": Workload(identities_inputs, identities_round),
    "cli": Workload(cli_inputs, cli_round, traces_subprocesses=True),
}
