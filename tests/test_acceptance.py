"""Acceptance suite: one test per exit criterion, all exact (tolerance zero).

Each test prints a single PASS/FAIL line so the suite doubles as a
machine-checkable report:  pytest -s tests/test_acceptance.py
"""

import itertools
import math
import random
import time

from toricchains.chains import (
    chain_from_point,
    extended_from_standard,
    fiber_profile,
    involutive_fiber_profile,
    orbit_equal_extended,
    point_from_polynomial,
    poly_from_roots,
)
from toricchains.fields import GF
from toricchains.losev_manin import (
    delta_j,
    permutohedron,
    verify_a_data_cocycle,
    verify_cd_disjoint,
    verify_divisor_relation,
    verify_minkowski,
    verify_section_hyperplane,
)
from toricchains.orbit_points import (
    FanPoint,
    canonical_form,
    count_coarse_points,
    enumerate_orbits,
    is_nondegenerate,
    make_point,
    orbit_equal,
    stabilizer,
)
from toricchains.root_fans import (
    FanFamily,
    build_upsilon,
    canonical_stack,
    check_fan,
    dg_group,
    fan_morphism_check,
    standard_fan_map,
    upsilon_beta,
)


def _report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_01_fan_construction():
    t0 = time.time()
    ok = True
    for n in range(1, 9):
        fan = build_upsilon(FanFamily("A", n))
        report = check_fan(fan)
        ok &= fan.num_rays == 2 * n
        ok &= len(fan.max_cones) == 2**n
        ok &= report.all_ok
    ok &= upsilon_beta(FanFamily("A", 1)).to_rows() == [[-2, 1]]
    ok &= upsilon_beta(FanFamily("A", 2)).to_rows() == [[-2, 1, 1, 0], [1, -2, 0, 1]]
    ok &= upsilon_beta(FanFamily("C", 2)).to_rows() == [[-2, 1, 1, 0], [2, -2, 0, 1]]
    ok &= upsilon_beta(FanFamily("Bcan", 2)).to_rows() == [[-2, 1, 1, 0], [1, -1, 0, 1]]
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report(f"1 fan construction (n<=8, matrices, {elapsed:.2f}s < 1s)", ok)


def test_criterion_02_group_data():
    ok = True
    for n in range(1, 9):
        desc = dg_group(build_upsilon(FanFamily("A", n)))
        ok &= desc.free_rank == n and desc.torsion == ()
    _report("2 acting group is a free rank-n torus for n<=8", ok)


def test_criterion_03_stabilizers():
    t0 = time.time()
    F7 = GF(7)
    ok = True
    for n in range(2, 9):
        fan = build_upsilon(FanFamily("A", n - 1))
        p = make_point(fan, F7, [0] * (n - 1) + [1] * (n - 1))
        ok &= stabilizer(p).torsion == (n,)
    fan = build_upsilon(FanFamily("A", 2))
    strata = {(0, 1, 1, 0): (2,), (0, 0, 1, 1): (3,), (1, 0, 0, 1): (2,)}
    for coords, torsion in strata.items():
        ok &= stabilizer(make_point(fan, F7, coords)).torsion == torsion
    fanC2 = build_upsilon(FanFamily("C", 2))
    labeled = [(0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 1)]
    for coords in labeled:
        ok &= stabilizer(make_point(fanC2, F7, coords)).torsion == (2,)
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report(f"3 stabilizers mu_n and boundary strata ({elapsed:.2f}s < 1s)", ok)


def test_criterion_04_coarse_point_counts():
    fanA1 = build_upsilon(FanFamily("A", 1))
    ok = True
    for q in (3, 5, 7, 11):
        count = count_coarse_points(fanA1, q)
        ok &= count == q + 1
        ok &= count == (q * q - 1) // (q - 1)  # independent oracle
    fanA2 = build_upsilon(FanFamily("A", 2))
    q = 3
    ok &= count_coarse_points(fanA2, q) == (q + 1) ** 2
    # cross-check on the free locus: orbits with trivial stabilizer against
    # the orbit-dimension formula restricted to the strata whose generic
    # stabilizer (from the fan combinatorics alone) is trivial
    orbits = enumerate_orbits(fanA2, q)
    free_orbits = sum(1 for _, order in orbits if order == 1)
    ok &= free_orbits == _free_coarse_count(fanA2, q)
    _report("4 coarse point counts with independent cross-checks", ok)


def _free_coarse_count(fan, q: int) -> int:
    from toricchains.exact_linalg import FinDiagGroupDesc, IntMatrix, cokernel
    from toricchains.root_fans import fan_faces, weight_matrix

    w = weight_matrix(fan)
    total = 0
    for face in fan_faces(fan):
        support = [r for r in range(fan.num_rays) if r not in face]
        cols = IntMatrix.from_rows(
            [[w[k, r] for r in support] for k in range(w.rows)]
        )
        if cokernel(cols) == FinDiagGroupDesc(0, ()):
            total += (q - 1) ** (fan.rank - len(face))
    return total


def test_criterion_05_covering_degree():
    t0 = time.time()
    F11 = GF(11)
    ok = True
    # split squarefree points: roots with product (-1)^n so both ends are 1
    cases = {3: (2, 5, 1), 4: (2, 6, 3, 4)}
    for n, roots in cases.items():
        coeffs = poly_from_roots([F11.of(r) for r in roots], F11)
        e = point_from_polynomial(coeffs, F11)
        ok &= e.is_normalized()
        prof = fiber_profile(e.to_standard())
        ok &= prof.rational_ordered_preimages == math.factorial(n)
        ok &= not prof.is_ramified
    # repeated point: ramified, fewer preimages
    rep = {3: (2, 2, 8), 4: (2, 2, 3, 1)}
    for n, roots in rep.items():
        coeffs = poly_from_roots([F11.of(r) for r in roots], F11)
        e = point_from_polynomial(coeffs, F11)
        prof = fiber_profile(e.to_standard())
        ok &= prof.is_ramified
        ok &= prof.rational_ordered_preimages == math.factorial(n) // 2
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    _report(f"5 covering degree n! and ramification ({elapsed:.2f}s < 5s)", ok)


def test_criterion_06_involutive_degree():
    F11 = GF(11)
    ok = True
    # n = 1: inverse pair (2, 6)
    fanC1 = build_upsilon(FanFamily("C", 1))
    coeffs = poly_from_roots([F11.of(2), F11.of(6)], F11)
    p1 = make_point(fanC1, F11, [coeffs[1], 1])
    ok &= involutive_fiber_profile(p1) == 2
    # n = 2: inverse pairs (2, 6) and (3, 4)
    fanC2 = build_upsilon(FanFamily("C", 2))
    coeffs = poly_from_roots([F11.of(r) for r in (2, 6, 3, 4)], F11)
    p2 = make_point(fanC2, F11, [coeffs[1], coeffs[2], 1, 1])
    ok &= involutive_fiber_profile(p2) == 8
    _report("6 involutive covering degree 2^n n!", ok)


def test_criterion_07_polytopes():
    t0 = time.time()
    ok = True
    for n in range(2, 6):
        ok &= verify_minkowski(n)
        ok &= permutohedron(n).num_vertices == math.factorial(n)
        for j in range(1, n):
            ok &= delta_j(n, j).num_vertices == math.comb(n, j)
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    _report(f"7 permutohedron decompositions n<=5 ({elapsed:.2f}s < 10s)", ok)


def test_criterion_08_symbolic_identities():
    t0 = time.time()
    ok = True
    for n in (2, 3, 4):
        ok &= verify_section_hyperplane(n)
    ok &= not verify_section_hyperplane(3, flip_signs=True)
    # n = 2 specialization: the quadratic map (s1+s2 : s1 s2)
    F11 = GF(11)
    fanA1 = build_upsilon(FanFamily("A", 1))
    for s1, s2 in ((2, 5), (3, 3), (7, 9)):
        coeffs = poly_from_roots([F11.of(s1), F11.of(s2)], F11)
        e = point_from_polynomial(coeffs, F11)
        target = make_point(fanA1, F11, [(s1 + s2) % 11, (s1 * s2) % 11])
        ok &= orbit_equal_extended(e, extended_from_standard(target))
    for n in range(2, 6):
        ok &= verify_cd_disjoint(n)
    ok &= not verify_cd_disjoint(3, negative_control=True)
    for n in range(2, 7):
        ok &= verify_divisor_relation(n)
    ok &= not verify_divisor_relation(3, negative_control=True)
    for n in range(3, 6):
        ok &= verify_a_data_cocycle(n)
    ok &= not verify_a_data_cocycle(3, negative_control=True)
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    _report(f"8 symbolic identities with negative controls ({elapsed:.1f}s < 60s)", ok)


def test_criterion_09_fan_morphism_and_canonical_stack():
    ok = True
    for n in (2, 3):
        L, src, dst = standard_fan_map("C", n)
        ok &= fan_morphism_check(src, dst, L)
    for n in (2, 3, 4):
        can = canonical_stack(build_upsilon(FanFamily("B", n)))
        ok &= can.rays == build_upsilon(FanFamily("Bcan", n)).rays
    _report("9 involutive-to-A fan maps and canonical stacks", ok)


def test_criterion_10_round_trip():
    rng = random.Random(20260809)
    F11 = GF(11)
    done = 0
    ok = True
    while done < 200:
        n = rng.randint(2, 5)
        fan = build_upsilon(FanFamily("A", n - 1))
        coords = [rng.randint(0, 10) for _ in range(n - 1)] + [
            rng.randint(1, 10) for _ in range(n - 1)
        ]
        if not is_nondegenerate(fan, coords, F11):
            continue
        p = make_point(fan, F11, coords)
        chain = chain_from_point(p)
        e = point_from_polynomial(list(chain.component_polys[0]), F11)
        ok &= orbit_equal_extended(e, extended_from_standard(p))
        done += 1
    _report("10 chain/polynomial round trip on 200 random points", ok)


def test_criterion_11_oracle_consistency():
    ok = True
    fanA1 = build_upsilon(FanFamily("A", 1))
    for prime in (3, 5):
        field = GF(prime)
        orbits = enumerate_orbits(fanA1, prime)
        reps = [pt for pt, _ in orbits]
        for a, b in itertools.combinations(reps, 2):
            ok &= not orbit_equal(a, b)
        for coords in itertools.product(range(prime), repeat=2):
            if not is_nondegenerate(fanA1, coords, field):
                continue
            p = FanPoint(fanA1, field, coords)
            canon = canonical_form(p)
            matches = [r for r in reps if orbit_equal(p, r)]
            ok &= len(matches) == 1
            ok &= matches[0].coords == canon.coords
    _report("11 canonical-form partition matches orbit equality", ok)
