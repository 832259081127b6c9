"""Fan constructions, validation, group data and morphisms."""

import json
import math

import pytest

from toricchains.exact_linalg import IntMatrix, hnf
from toricchains.root_fans import (
    FanFamily,
    StackyFan,
    WeightTorsionError,
    build_sigma_A,
    build_upsilon,
    canonical_stack,
    cartan_matrix,
    check_fan,
    cones_pairwise_faces,
    dg_group,
    fan_from_json,
    fan_morphism_check,
    standard_fan_map,
    upsilon_beta,
    weight_matrix,
)


class TestCartanMatrices:
    def test_rank_one(self):
        for tag in ("A", "B", "C"):
            assert cartan_matrix(tag, 1).to_rows() == [[2]]

    def test_a2(self):
        assert cartan_matrix("A", 2).to_rows() == [[2, -1], [-1, 2]]

    def test_c2(self):
        assert cartan_matrix("C", 2).to_rows() == [[2, -1], [-2, 2]]

    def test_b_is_transpose_of_c(self):
        for n in range(1, 6):
            assert cartan_matrix("B", n).to_rows() == cartan_matrix("C", n).T.to_rows()

    def test_determinants(self):
        # det C(A_n) = n+1; det C(B_n) = det C(C_n) = 2 for n >= 2
        for n in range(1, 7):
            assert cartan_matrix("A", n).det() == n + 1
        for n in range(2, 7):
            assert cartan_matrix("B", n).det() == 2
            assert cartan_matrix("C", n).det() == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            cartan_matrix("A", 0)
        with pytest.raises(ValueError):
            cartan_matrix("D", 3)


class TestBlockMatrices:
    def test_a1(self):
        assert upsilon_beta(FanFamily("A", 1)).to_rows() == [[-2, 1]]

    def test_a2(self):
        assert upsilon_beta(FanFamily("A", 2)).to_rows() == [[-2, 1, 1, 0], [1, -2, 0, 1]]

    def test_c2(self):
        assert upsilon_beta(FanFamily("C", 2)).to_rows() == [[-2, 1, 1, 0], [2, -2, 0, 1]]

    def test_bcan2(self):
        assert upsilon_beta(FanFamily("Bcan", 2)).to_rows() == [[-2, 1, 1, 0], [1, -1, 0, 1]]

    def test_bcan1_is_projective_line(self):
        fan = build_upsilon(FanFamily("Bcan", 1))
        assert fan.rays == ((-1,), (1,))

    def test_cminus2(self):
        assert upsilon_beta(FanFamily("Cminus", 2)).to_rows() == [[-2, 2]]

    def test_cminus_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            FanFamily("Cminus", 1)

    def test_sigma_has_no_block_matrix(self):
        with pytest.raises(ValueError):
            upsilon_beta(FanFamily("SigmaA", 3))


class TestBuildUpsilon:
    def test_a2_cones(self):
        fan = build_upsilon(FanFamily("A", 2))
        assert fan.num_rays == 4
        assert set(fan.max_cones) == {(0, 1), (0, 3), (1, 2), (2, 3)}
        assert fan.ray_labels == ("rho_1", "rho_2", "tau_1", "tau_2")

    def test_cone_counts(self):
        for n in range(1, 9):
            fan = build_upsilon(FanFamily("A", n))
            assert fan.num_rays == 2 * n
            assert len(fan.max_cones) == 2**n

    def test_beta_columns_are_rays(self):
        fan = build_upsilon(FanFamily("C", 3))
        beta = fan.beta
        for i, ray in enumerate(fan.rays):
            assert beta.col(i) == ray

    def test_no_forbidden_pairs(self):
        fan = build_upsilon(FanFamily("B", 3))
        for cone in fan.max_cones:
            for i in range(3):
                assert not ({i, i + 3} <= set(cone))

    def test_check_fan_all_families_up_to_six(self):
        for tag in ("A", "B", "Bcan", "C"):
            for n in range(1, 7):
                fan = build_upsilon(FanFamily(tag, n))
                assert fan.num_rays == 2 * n
                assert len(fan.max_cones) == 2**n
                assert check_fan(fan).all_ok, (tag, n)
        for n in range(2, 7):
            fan = build_upsilon(FanFamily("Cminus", n))
            assert fan.num_rays == 2 * (n - 1)
            assert len(fan.max_cones) == 2 ** (n - 1)
            assert check_fan(fan).all_ok, ("Cminus", n)

    def test_wall_condition_negative_control(self):
        fan = build_upsilon(FanFamily("A", 2))
        broken = StackyFan(fan.rank, fan.rays, fan.ray_labels, fan.max_cones[:-1])
        report = check_fan(broken)
        assert not report.wall_condition

    def test_every_one_cone_drop_is_incomplete(self):
        for fan in (
            build_upsilon(FanFamily("A", 6)),
            build_upsilon(FanFamily("C", 6)),
            build_sigma_A(5),
        ):
            for k in range(len(fan.max_cones)):
                cones = fan.max_cones[:k] + fan.max_cones[k + 1 :]
                report = check_fan(StackyFan(fan.rank, fan.rays, fan.ray_labels, cones))
                assert not report.complete and not report.all_ok, (fan.family, k)

    def test_double_cover_is_rejected(self):
        # Every wall lies in two cones, on opposite sides, yet every point
        # lies in two cones.
        report = check_fan(_double_cover())
        assert report.wall_condition
        assert not report.complete and not report.all_ok

    def test_fold_is_rejected(self):
        # The cones (0,-1)(-1,0) and (0,-1)(-1,-1) lie on the same side of
        # their common wall, while the point the certificate samples lies in
        # one cone only.
        report = check_fan(_fold())
        assert not report.wall_condition and not report.all_ok

    def test_pairwise_face_intersections(self):
        # check_fan agrees with the Fourier-Motzkin face oracle.
        for tag, n in (("A", 2), ("A", 3), ("B", 2), ("Bcan", 2), ("C", 2), ("C", 3)):
            fan = build_upsilon(FanFamily(tag, n))
            assert cones_pairwise_faces(fan) and check_fan(fan).all_ok, (tag, n)
        for fan in (_double_cover(), _fold()):
            assert not cones_pairwise_faces(fan) and not check_fan(fan).all_ok


def _double_cover():
    """Eight rays at 45 degrees, cones {i, i+2 mod 8}: the plane twice."""
    rays = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
    cones = tuple(sorted(tuple(sorted((i, (i + 2) % 8))) for i in range(8)))
    return StackyFan(2, rays, tuple(f"r{i}" for i in range(8)), cones)


def _fold():
    """A cycle of five 2-cones turning through 0, 90, 180, 270, 225 and 360
    degrees: every ray lies in two cones, and the wedge from 225 to 270
    degrees is covered three times."""
    rays = ((1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1))
    cones = ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    return StackyFan(2, rays, tuple("abcdf"), cones)


class TestSigmaFan:
    def test_counts(self):
        for n, rays, cones in ((2, 2, 2), (3, 6, 6), (4, 14, 24)):
            fan = build_sigma_A(n)
            assert fan.num_rays == rays == 2**n - 2
            assert len(fan.max_cones) == cones == math.factorial(n)

    def test_n2_is_projective_line(self):
        fan = build_sigma_A(2)
        assert sorted(fan.rays) == [(-1,), (1,)]

    def test_smooth(self):
        # every maximal cone is unimodular
        for n in (2, 3, 4):
            fan = build_sigma_A(n)
            for cone in fan.max_cones:
                rows = [[fan.rays[j][i] for j in cone] for i in range(fan.rank)]
                assert abs(IntMatrix.from_rows(rows).det()) == 1

    def test_check_and_faces(self):
        for n in (2, 3, 4):
            assert check_fan(build_sigma_A(n)).all_ok
        assert cones_pairwise_faces(build_sigma_A(4))

    def test_check_fan_n5_and_n6(self):
        assert check_fan(build_sigma_A(5)).all_ok
        assert check_fan(build_sigma_A(6)).all_ok


class TestGroupData:
    def test_dg_free_for_a(self):
        for n in range(1, 9):
            desc = dg_group(build_upsilon(FanFamily("A", n)))
            assert desc.free_rank == n and desc.torsion == ()

    def test_dg_free_for_c(self):
        for n in range(1, 6):
            desc = dg_group(build_upsilon(FanFamily("C", n)))
            assert desc.free_rank == n and desc.torsion == ()

    def test_dg_torsion_on_minus_fan(self):
        # The doubled generator makes the ray matrix non-surjective: a mu_2
        # factor appears in the acting group.
        for n in (2, 3, 4):
            desc = dg_group(build_upsilon(FanFamily("Cminus", n)))
            assert desc.free_rank == n - 1 and desc.torsion == (2,)

    def test_dg_b_family_stays_free(self):
        # The non-primitive type-B ray does not produce torsion: the block
        # matrix still surjects thanks to its identity block.  Stackiness
        # shows up in stabilizers, not in the acting group.
        desc = dg_group(build_upsilon(FanFamily("B", 2)))
        assert desc.free_rank == 2 and desc.torsion == ()

    def test_weight_matrix_examples(self):
        assert weight_matrix(build_upsilon(FanFamily("A", 1))).to_rows() == [[1, 2]]
        assert weight_matrix(build_upsilon(FanFamily("A", 2))).to_rows() == [
            [1, 0, 2, -1],
            [0, 1, -1, 2],
        ]
        w = weight_matrix(build_upsilon(FanFamily("C", 2)))
        assert w.to_rows() == [[1, 0, 2, -2], [0, 1, -1, 2]]

    def test_weights_kill_beta(self):
        for tag in ("A", "B", "Bcan", "C"):
            fan = build_upsilon(FanFamily(tag, 3))
            prod = weight_matrix(fan) * fan.beta.T
            assert all(x == 0 for x in prod.entries)

    def test_weights_fast_path_matches_general(self):
        # The (I | C^T) block presents the same character lattice as the
        # unimodular-transform construction: identical row lattices.
        fan = build_upsilon(FanFamily("C", 3))
        w_fast = weight_matrix(fan)
        general = StackyFan(fan.rank, fan.rays, fan.ray_labels, fan.max_cones)
        w_gen = weight_matrix(general)
        assert hnf(w_fast)[0].to_rows() == hnf(w_gen)[0].to_rows()

    def test_weight_torsion_error(self):
        with pytest.raises(WeightTorsionError):
            weight_matrix(build_upsilon(FanFamily("Cminus", 2)))

    def test_sigma_fan_weights(self):
        fan = build_sigma_A(3)
        desc = dg_group(fan)
        assert desc.torsion == ()
        w = weight_matrix(fan)
        assert w.rows == fan.num_rays - fan.rank
        prod = w * fan.beta.T
        assert all(x == 0 for x in prod.entries)


class TestMorphismsAndCanonicalStack:
    def test_identity_map(self):
        fan = build_upsilon(FanFamily("A", 2))
        assert fan_morphism_check(fan, fan, IntMatrix.identity(2))

    def test_negated_identity_fails(self):
        fan = build_upsilon(FanFamily("A", 2))
        neg = IntMatrix.from_rows([[-1, 0], [0, -1]])
        assert not fan_morphism_check(fan, fan, neg)

    def test_c_to_a_map(self):
        for n in (2, 3):
            L, src, dst = standard_fan_map("C", n)
            assert fan_morphism_check(src, dst, L)

    def test_b_to_a_map(self):
        for n in (1, 2, 3):
            L, src, dst = standard_fan_map("B", n)
            assert fan_morphism_check(src, dst, L)

    def test_c_map_ray_images(self):
        # tau generators map to sums of tau generators; the middle one to e_n
        L, src, dst = standard_fan_map("C", 2)
        assert L.mul_vector([1, 0]) == [1, 0, 1]
        assert L.mul_vector([0, 1]) == [0, 1, 0]

    def test_canonical_stack_b(self):
        for n in (2, 3, 4):
            can = canonical_stack(build_upsilon(FanFamily("B", n)))
            assert can.rays == build_upsilon(FanFamily("Bcan", n)).rays

    def test_canonical_stack_fixes_a(self):
        fan = build_upsilon(FanFamily("A", 3))
        assert canonical_stack(fan).rays == fan.rays

    def test_canonical_stack_idempotent(self):
        fan = build_upsilon(FanFamily("B", 3))
        once = canonical_stack(fan)
        assert canonical_stack(once).rays == once.rays

    def test_dimension_mismatch(self):
        fan2 = build_upsilon(FanFamily("A", 2))
        fan3 = build_upsilon(FanFamily("A", 3))
        with pytest.raises(ValueError):
            fan_morphism_check(fan2, fan3, IntMatrix.identity(2))


class TestJson:
    def test_round_trip(self):
        fan = build_upsilon(FanFamily("C", 2))
        data = json.loads(fan.to_json())
        assert set(data) == {"rank", "ray_labels", "rays", "max_cones"}
        back = fan_from_json(fan.to_json())
        assert back.rays == fan.rays
        assert back.max_cones == fan.max_cones
        assert back.family == FanFamily("C", 2)

    def test_sigma_round_trip(self):
        fan = build_sigma_A(3)
        back = fan_from_json(fan.to_json())
        assert back.family == FanFamily("SigmaA", 3)

    def test_deterministic(self):
        a = build_upsilon(FanFamily("A", 3)).to_json()
        b = build_upsilon(FanFamily("A", 3)).to_json()
        assert a == b
