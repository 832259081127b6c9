"""Command-line surface: outputs, determinism, exit codes."""

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from toricchains import root_fans
from toricchains.chains import poly_from_roots
from toricchains.cli import build_parser, main
from toricchains.fields import GF
from toricchains.root_fans import FanFamily, build_upsilon

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_subprocess(argv, hash_seed, timeout=60):
    """The CLI in a fresh interpreter, with the given string-hash seed."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(
        [sys.executable, "-m", "toricchains.cli", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
    )


def _fan_file_edit(key, value):
    """The A_2 fan file with ``key`` set to ``value``, or dropped for None."""
    data = json.loads(build_upsilon(FanFamily("A", 2)).to_json())
    if value is None:
        del data[key]
    else:
        data[key] = value
    return json.dumps(data)


def _rayless_fan_file(rank):
    """A fan with no rays: it loads at every positive rank, so only the rank
    can make it fail."""
    return json.dumps({"rank": rank, "ray_labels": [], "rays": [], "max_cones": []})


class TestFanCommands:
    def test_build_and_check(self, tmp_path, capsys):
        path = tmp_path / "fan.json"
        code, _ = run(capsys, "fan", "build", "--family", "A", "--n", "3", "--out", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["rank"] == 3 and len(data["rays"]) == 6
        assert root_fans.fan_from_json(path.read_text()) == build_upsilon(FanFamily("A", 3))
        code, out = run(capsys, "fan", "check", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["simplicial"] and payload["complete"]

    def test_check_takes_the_shared_fan_source(self, tmp_path, capsys):
        path = tmp_path / "fan.json"
        run(capsys, "fan", "build", "--family", "C", "--n", "3", "--out", str(path))
        for tail in ([], ["--json"]):
            _, positional = run(capsys, "fan", "check", str(path), *tail)
            code, option = run(capsys, "fan", "check", "--fan", str(path), *tail)
            assert code == 0 and option == positional

    def test_export(self, capsys):
        code, out = run(capsys, "fan", "export", "--family", "C", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert data["rays"] == [[-2, 2], [1, -2], [1, 0], [0, 1]]

    def test_check_failure_exit_code(self, tmp_path, capsys):
        # drop one maximal cone: the wall condition fails, exit code 1
        code, out = run(capsys, "fan", "export", "--family", "A", "--n", "2")
        data = json.loads(out)
        data["max_cones"] = data["max_cones"][:-1]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code, _ = run(capsys, "fan", "check", str(path), "--json")
        assert code == 1
        # faces, counts and orbits need a complete fan
        for argv in (["count", "--q", "3"], ["enumerate", "--p", "3"]):
            code = main(["point", *argv, "--fan", str(path)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == "error: faces and point counts require a verified complete fan\n"

    @pytest.mark.parametrize(
        "key, value",
        [("max_cones", None), ("rays", 5), ("ray_labels", [1, 2, 3, 4]), ("extra", 1)],
        ids=["missing-key", "not-a-list", "int-labels", "unknown-key"],
    )
    def test_malformed_fan_file_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        path = tmp_path / "fan.json"
        path.write_text(_fan_file_edit(key, value))
        code = main(["fan", "check", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: fan file:") and repr(key) in captured.err

    @pytest.mark.parametrize("rank", [-1, 0])
    def test_fan_file_of_rank_below_one_exits_2(self, tmp_path, capsys, rank):
        path = tmp_path / "fan.json"
        path.write_text(_rayless_fan_file(rank))
        for argv in (["fan", "check", str(path)], ["point", "count", "--fan", str(path), "--q", "3"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == "error: fan file: key 'rank' must be a positive integer\n"

    def test_an_assertion_in_a_handler_exits_3(self, monkeypatch, capsys):
        def broken(fan):
            raise AssertionError("walls disagree")

        monkeypatch.setattr(root_fans, "check_fan", broken)
        code = main("fan check --family A --n 2".split())
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "internal invariant violation: walls disagree\n"

    @pytest.mark.parametrize(
        "family, n, message",
        [("A", 15, "A_15 has 2^15 = 32768"), ("SigmaA", 8, "SigmaA_8 has 8! = 40320")],
        ids=["A15", "SigmaA8"],
    )
    def test_cone_count_guard_trips_before_building(self, family, n, message):
        proc = run_subprocess(["fan", "build", "--family", family, "--n", str(n)], 0, timeout=5)
        assert proc.returncode == 2 and proc.stdout == ""
        assert f"cone-count guard: {message} maximal cones" in proc.stderr
        assert "above the bound _CONE_GUARD = 16384" in proc.stderr

    def test_largest_admitted_fan_builds(self):
        proc = run_subprocess("fan build --family A --n 14".split(), 0, timeout=5)
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["max_cones"]) == 2**14

    def test_largest_admitted_fan_check(self):
        proc = run_subprocess("fan check --family A --n 14 --json".split(), 0, timeout=10)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["max_cones"] == 2**14
        assert all(payload[k] for k in ("simplicial", "pure", "wall_condition", "complete"))


def _cminus_orbit_minima(n, p):
    """Brute force: the least point of the orbit of every nondegenerate F_p
    point of Cminus_n under ker(beta) mod (p-1), torsion included."""
    fan = build_upsilon(FanFamily("Cminus", n))
    g = next(g for g in range(1, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
    group = [
        tuple(pow(g, e, p) for e in x)
        for x in itertools.product(range(p - 1), repeat=fan.num_rays)
        if all(sum(b * e for b, e in zip(row, x)) % (p - 1) == 0 for row in fan.beta.to_rows())
    ]
    least = {}
    for coords in itertools.product(range(p), repeat=fan.num_rays):
        zero = {r for r, c in enumerate(coords) if c == 0}
        if coords not in least and any(zero <= set(cone) for cone in fan.max_cones):
            for x in group:  # coords comes first in its orbit, so it is least
                least[tuple(c * u % p for c, u in zip(coords, x))] = coords
    return least


class TestPointCommands:
    def test_stab(self, capsys):
        code, out = run(
            capsys,
            *"point stab --family A --n 2 --coords 0,0,1,1 --field F7 --json".split(),
        )
        assert code == 0
        assert json.loads(out) == {"free_rank": 0, "torsion": [3]}

    def test_stab_with_torsion_in_the_acting_group(self, capsys):
        # Cminus has no split weight matrix; the stabilizer needs none.
        argv = "point stab --family Cminus --n 3 --coords 0,1,1,1 --field F7 --json"
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert json.loads(out) == {"free_rank": 0, "torsion": [2]}

    def test_orbit_commands_with_torsion_in_the_acting_group(self, capsys):
        # Cminus has no split weight matrix; canon, enumerate and orbit-eq
        # give the brute-force answer under ker(beta) mod (p-1).
        least = _cminus_orbit_minima(3, 5)
        code, out = run(capsys, *"point enumerate --family Cminus --n 3 --p 5 --json".split())
        assert code == 0
        reps = [tuple(int(c) for c in o["coords"]) for o in json.loads(out)["orbits"]]
        assert reps == sorted(set(least.values())) and len(reps) == 25
        # the identity component of ker(beta) alone does not carry (2, 2, 2, 4) to (1, 1, 1, 1)
        for coords, same in (((2, 2, 2, 4), True), ((1, 1, 1, 2), False)):
            assert (least[coords] == least[(1, 1, 1, 1)]) is same
            text = ",".join(map(str, coords))
            argv = f"point canon --family Cminus --n 3 --coords {text} --field F5 --json"
            code, out = run(capsys, *argv.split())
            assert code == 0
            assert json.loads(out)["coords"] == [str(c) for c in least[coords]]
            argv = f"point orbit-eq --family Cminus --n 3 --coords {text} --coords2 1,1,1,1"
            code, out = run(capsys, *argv.split(), "--field", "F5", "--json")
            assert code == 0
            assert json.loads(out)["orbit_equal"] is same

    def test_count(self, capsys):
        code, out = run(capsys, *"point count --family A --n 1 --q 5 --json".split())
        assert code == 0
        assert json.loads(out)["count"] == 6

    def test_orbit_eq(self, capsys):
        code, out = run(
            capsys,
            *"point orbit-eq --family A --n 1 --coords 1,1 --coords2 2,4 --field F7 --json".split(),
        )
        assert json.loads(out)["orbit_equal"] is True

    def test_orbit_eq_extended(self, capsys):
        code, out = run(
            capsys,
            *"point orbit-eq --extended --coords 1,4,1,1,1,1 --coords2 1,4,1,1,1,1 --field F7 --json".split(),
        )
        assert json.loads(out)["orbit_equal"] is True

    def test_enumerate(self, capsys):
        code, out = run(capsys, *"point enumerate --family A --n 1 --p 3 --json".split())
        payload = json.loads(out)
        assert len(payload["orbits"]) == 5

    def test_canon(self, capsys):
        code, out = run(
            capsys, *"point canon --family A --n 1 --coords 2,3 --field F5 --json".split()
        )
        assert code == 0
        assert json.loads(out)["coords"] == ["1", "2"]

    def test_bad_coords_usage_error(self, capsys):
        code, _ = run(
            capsys, *"point stab --family A --n 1 --coords 0,0 --field F7".split()
        )
        assert code == 2

    def test_orbit_count_guard_trips_before_the_first_hnf(self):
        # A_11 has 3^11 = 177147 faces, each a stratum with at least one orbit
        proc = run_subprocess("point enumerate --family A --n 11 --p 2".split(), 0, timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "orbit-count guard" in proc.stderr
        assert "177147" in proc.stderr and "the bound 100000" in proc.stderr

    def test_largest_admitted_fan_count(self):
        # The face partition counts A_14 without listing its 3^14 faces.
        proc = run_subprocess("point count --family A --n 14 --q 3".split(), 0, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{4**14}\n"

    @pytest.mark.parametrize(
        "argv",
        ["canon --family A --n 1 --coords 1,2", "orbit-eq --family A --n 1 --coords 1,2 "
         "--coords2 2,1", "enumerate --family A --n 1 --p 1000003"],
        ids=["canon", "orbit-eq", "enumerate"],
    )
    def test_discrete_log_guard_names_p_and_its_bound(self, capsys, argv):
        field = [] if "--p" in argv else ["--field", "F1000003"]
        code = main(["point", *argv.split(), *field])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "discrete-log guard: p = 1000003" in captured.err
        assert "the bound _DLOG_TABLE_BOUND = 200003" in captured.err

    def test_enumerate_orbit_count_guard(self, capsys):
        # (A_5, F_11) has 253186 orbits, above the guard's bound of 10^5
        code = main("point enumerate --family A --n 5 --p 11".split())
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "orbit-count guard" in captured.err
        assert "253186" in captured.err and "100000" in captured.err


class TestLargeIntegerGuards:
    """A single 19-digit integer stops at a guard instead of trial division."""

    BIG = "1000000000000000003"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (f"chain fiber --poly 1,4,1,1 --q {BIG}", f"prime field guard: p = {BIG} exceeds "
             "the bound 2^31"),
            (f"point count --family A --n 1 --q {BIG}", f"trial-division guard: n = {BIG}"),
            (f"point orbit-eq --family A --n 1 --coords {BIG},1 --coords2 1,1 --field Q",
             f"trial-division guard: n = {BIG}"),
        ],
        ids=["chain-fiber", "point-count", "point-orbit-eq"],
    )
    def test_exits_2_naming_the_guard(self, argv, message):
        proc = run_subprocess(argv.split(), 0, timeout=5)
        assert proc.returncode == 2 and proc.stdout == ""
        assert message in proc.stderr

    def test_trial_division_guard_names_its_bound(self, capsys):
        code = main(f"point count --family A --n 1 --q {self.BIG}".split())
        assert code == 2
        assert "up to the bound 1000000" in capsys.readouterr().err

    def test_smooth_large_integers_still_factor(self, capsys):
        # 2^70 has only small prime factors: no guard
        code, out = run(capsys, *f"point count --family A --n 1 --q {2**70} --json".split())
        assert code == 0 and json.loads(out)["count"] == 2**70 + 1


JSON_COMMANDS = (
    ("point stab --family A --n 2 --coords 0,0,1,1 --field F7 --json", "point"),
    ("point orbit-eq --family A --n 2 --coords 1,2,3,4 --coords2 0,2,3,4 --field F7 --json",
     "point"),
    ("point count --family C --n 2 --q 5 --json", "point"),
    ("point canon --family A --n 2 --coords 3,5,2,6 --field F7 --json", "point"),
    ("point enumerate --family C --n 2 --p 5 --json", "point"),
    ("fan build --family A --n 3 --json", "fan"),
    ("fan export --family C --n 2", "fan"),
    ("chain from-poly --poly 1,4,1,1 --field F7 --json", "chain"),
    ("chain from-point --family A --n 2 --coords 0,0,1,1 --field F7 --json", "chain"),
    ("chain fiber --poly 1,4,1,1 --q 7 --json", "chain"),
    ("chain parity --coeffs 1,3,1 --json", "chain"),
    ("chain embed --family C --n 2 --coords 2,3,4,5 --field F7 --json", "chain"),
    ("verify all --n 4 --json", "verify_report"),
    ("verify fan-map --family C --n 3 --json", "verify_report"),
    ("verify fan-map --n 3 --json", "verify_report"),
    ("fan check --family A --n 3 --json", "fan_check"),
    ("polytope permutohedron --n 4 --json", "polytope"),
    ("polytope delta --n 4 --j 2 --json", "polytope"),
    ("polytope minkowski --n 4 --json", "polytope"),
    ("polytope permutohedron --n 7 --json", "polytope"),
    ("verify all --n 8 --json", "verify_report"),
)

# The sha256 of each command's stdout.  A change that alters an output
# updates its digest and says why.
CLI_DIGESTS = json.loads((ROOT / "tests" / "cli_digests.json").read_text())

# Ids are the subcommand; a repeated subcommand at its largest size is
# named by that size.
JSON_IDS = {
    "polytope permutohedron --n 7 --json": "permutohedron-n7",
    "verify all --n 8 --json": "all-n8",
}


def test_every_command_has_a_json_schema_case():
    """Walk the parser: each (group, command) appears in JSON_COMMANDS."""
    parser = build_parser()
    listed = {tuple(c.split()[:2]) for c, _ in JSON_COMMANDS}
    missing = []
    for group, group_parser in _subparsers(parser).items():
        commands = _subparsers(group_parser)
        if not commands:  # the group takes its arguments itself (verify)
            if not any(g == group for g, _ in listed):
                missing.append(group)
        missing += [f"{group} {cmd}" for cmd in commands if (group, cmd) not in listed]
    assert missing == []


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


@pytest.mark.parametrize(
    "command, schema_name", JSON_COMMANDS,
    ids=[JSON_IDS.get(c, c.split()[1]) for c, _ in JSON_COMMANDS],
)
def test_point_json_matches_schema_and_reruns_byte_identical(command, schema_name):
    """Every listed --json command (point, fan, chain, polytope and verify) in
    two fresh interpreters: stdout byte-identical, with the digest recorded in
    cli_digests.json, and valid against its schema."""
    schema = json.loads((ROOT / "schemas" / f"{schema_name}.schema.json").read_text())
    outs = []
    for hash_seed in (0, 1):
        proc = run_subprocess(command.split(), hash_seed)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0].encode()).hexdigest() == CLI_DIGESTS[command]
    jsonschema.validate(json.loads(outs[0]), schema)


SCHEMA_REJECTED_FAN_FILES = {
    **{f"missing-{key}": _fan_file_edit(key, None)
       for key in ("rank", "ray_labels", "rays", "max_cones")},
    "unknown-key": _fan_file_edit("extra", 1),
    **{f"rank-{rank}": _rayless_fan_file(rank) for rank in (-1, 0, True, 1.5)},
    "string-ray-entry": _fan_file_edit("rays", [[-2, 1], [1, -2], [1, 0], [0, "1"]]),
    "string-cone-entry": _fan_file_edit("max_cones", [[0, "1"], [1, 2], [2, 3], [0, 3]]),
    "flat-rays": _fan_file_edit("rays", [-2, 1, 1, -2, 1, 0, 0, 1]),
    "dict-cones": _fan_file_edit("max_cones", {"0": [0, 1]}),
    "int-labels": _fan_file_edit("ray_labels", [1, 2, 3, 4]),
    "top-level-list": "[]",
}


class TestFanFileSchema:
    """The loader and ``schemas/fan.schema.json`` agree on fan files."""

    SCHEMA = json.loads((ROOT / "schemas" / "fan.schema.json").read_text())

    @pytest.mark.parametrize("text", SCHEMA_REJECTED_FAN_FILES.values(),
                             ids=SCHEMA_REJECTED_FAN_FILES.keys())
    def test_a_file_the_schema_rejects_does_not_load(self, text):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(json.loads(text), self.SCHEMA)
        with pytest.raises(ValueError):
            root_fans.fan_from_json(text)

    def test_an_integral_float_validates_but_does_not_load(self):
        # The one known disagreement: JSON Schema counts 2.0 as an integer,
        # and the loader refuses it, as the schema's descriptions say.
        text = json.dumps({"rank": 2.0, "ray_labels": [], "rays": [[1.0, 0]], "max_cones": []})
        jsonschema.validate(json.loads(text), self.SCHEMA)
        with pytest.raises(ValueError, match="'rank'"):
            root_fans.fan_from_json(text)

    @pytest.mark.parametrize("family", root_fans.FAMILY_TAGS)
    def test_a_built_file_validates_and_loads(self, tmp_path, capsys, family):
        path = tmp_path / "fan.json"
        code, _ = run(capsys, "fan", "build", "--family", family, "--n", "3", "--out", str(path))
        assert code == 0
        jsonschema.validate(json.loads(path.read_text()), self.SCHEMA)
        assert root_fans.fan_from_json(path.read_text()).family == FanFamily(family, 3)


class TestChainCommands:
    def test_from_point(self, capsys):
        code, out = run(
            capsys,
            *"chain from-point --family A --n 2 --coords 0,0,1,1 --field F7 --json".split(),
        )
        payload = json.loads(out)
        assert payload["components"] == [{"degree": 3, "poly": ["1", "0", "0", "1"]}]

    def test_from_poly_and_fiber(self, capsys):
        code, out = run(capsys, *"chain from-poly --poly 1,4,1,1 --field F7 --json".split())
        payload = json.loads(out)
        assert payload["normalized"] is True
        code, out = run(capsys, *"chain fiber --poly 1,4,1,1 --q 7 --json".split())
        payload = json.loads(out)
        assert payload["rational_ordered_preimages"] == 6
        assert payload["is_ramified"] is False

    def test_from_poly_normalizes_with_huge_exact_roots(self, capsys):
        # Both constant terms have exact square roots; the first is too large
        # for a float, the second has a root a float does not hold exactly.
        for c0 in (10**400, (10**30 + 12345) ** 2):
            code, out = run(capsys, "chain", "from-poly", "--poly", f"{c0},0,1",
                            "--field", "Q", "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["normalized"] is True
            assert payload["coefficients"] == ["1", "0", "1"]

    def test_fraction_without_image_in_prime_field(self, capsys):
        # 1/5 has no image in F_5: a usage error that names the value and p
        code = main("chain from-poly --poly 1/5,1,1 --field F5".split())
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "1/5" in captured.err and "F_5" in captured.err

    def test_from_poly_at_p_100003(self, capsys):
        # 3 is a nonsquare mod 100003 (Euler's criterion), so the
        # representative stays unnormalized
        assert pow(3, 100002 // 2, 100003) == 100002
        code, out = run(capsys, *"chain from-poly --poly 3,1,1 --field F100003 --json".split())
        assert code == 0
        assert json.loads(out) == {
            "coefficients": ["3", "1", "1"], "n": 2, "normalized": False, "twists": ["1"],
        }

    @pytest.mark.parametrize(
        "roots, count, profile",
        [((2, 3, 10**9 + 7, 2**30), 24, [1, 1, 1, 1]), ((5, 5, 5, 2**31 - 2), 4, [1, 3])],
        ids=["distinct", "triple"],
    )
    def test_fiber_at_the_largest_prime(self, capsys, roots, count, profile):
        p = 2**31 - 1
        coeffs = poly_from_roots([GF(p).of(r) for r in roots], GF(p))
        code, out = run(capsys, "chain", "fiber", "--poly", ",".join(map(str, coeffs)),
                        "--q", str(p), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rational_ordered_preimages"] == count
        assert payload["multiplicity_profile"] == [profile]

    def test_parity(self, capsys):
        code, out = run(capsys, *"chain parity --coeffs 1,3,1 --json".split())
        assert json.loads(out)["parity"] == "+"

    def test_embed(self, capsys):
        code, out = run(
            capsys,
            *"chain embed --family C --n 2 --coords 2,3,4,5 --field F7 --json".split(),
        )
        payload = json.loads(out)
        assert payload["coords"] == ["2", "3", "2", "4", "5", "4"]


class TestPolytopeAndVerify:
    def test_permutohedron(self, capsys):
        code, out = run(capsys, *"polytope permutohedron --n 3 --json".split())
        assert len(json.loads(out)["vertices"]) == 6

    def test_delta(self, capsys):
        code, out = run(capsys, *"polytope delta --n 4 --j 2 --json".split())
        assert len(json.loads(out)["vertices"]) == 6

    def test_dimension_guard_trips_before_enumeration(self):
        # the guard trips before any of the 11! = 39916800 points is built
        proc = run_subprocess("polytope permutohedron --n 11".split(), 0, timeout=5)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "dimension guard" in proc.stderr
        assert "dimension 10" in proc.stderr and "bound 6" in proc.stderr

    def test_largest_admitted_permutohedron(self):
        # n = 7, the largest the dimension guard admits: 5040 greedy leaves
        proc = run_subprocess("polytope permutohedron --n 7 --json".split(), 0, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["vertices"]) == 5040

    def test_minkowski(self, capsys):
        code, out = run(capsys, *"polytope minkowski --n 3 --json".split())
        assert code == 0
        assert json.loads(out)["decompositions_match"] is True

    def test_verify_single(self, capsys):
        code, out = run(capsys, *"verify divisor --n 4 --json".split())
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_verify_minkowski_up_to_the_dimension_guard(self, capsys):
        code, out = run(capsys, *"verify minkowski --n 7 --json".split())
        assert code == 0
        cases = json.loads(out)["cases"]
        assert [c["n"] for c in cases] == list(range(2, 8))
        assert all(c["ok"] for c in cases)

    def test_verify_identities_past_the_old_caps(self, capsys):
        for what in ("cd-disjoint", "hyperplane"):
            code, out = run(capsys, "verify", what, "--n", "8", "--json")
            assert code == 0
            assert [c["n"] for c in json.loads(out)["cases"]] == list(range(2, 9))

    @pytest.mark.parametrize("what, least", [("divisor", 2), ("cocycle", 3)])
    def test_verify_certificates_list_every_n(self, capsys, what, least):
        code, out = run(capsys, "verify", what, "--n", "40", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True
        assert [c["n"] for c in payload["cases"]] == list(range(least, 41))

    @pytest.mark.parametrize("what", ["divisor", "all"])
    def test_verify_divisor_guard_trips_before_any_case(self, what):
        proc = run_subprocess(["verify", what, "--n", "101"], 0, timeout=5)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "divisor guard" in proc.stderr
        assert "N = 101" in proc.stderr and "bound 100" in proc.stderr

    def test_verify_divisor_at_the_guard_bound(self, capsys):
        code, out = run(capsys, *"verify divisor --n 100 --json".split())
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True
        assert [c["n"] for c in payload["cases"]] == list(range(2, 101))

    def test_verify_chart_size_guard(self, capsys):
        for what in ("cd-disjoint", "hyperplane"):
            code = main(["verify", what, "--n", "15"])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert "chart-size guard" in captured.err
            assert "n = 15" in captured.err and "16384" in captured.err

    def test_verify_fan_map_family(self, capsys):
        code, out = run(capsys, *"verify fan-map --n 2 --family C --json".split())
        assert code == 0

    @pytest.mark.parametrize("what", ["fans", "all"])
    def test_verify_family_outside_fan_map_exits_2(self, capsys, what):
        code = main(["verify", what, "--n", "2", "--family", "B", "--json"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "error: --family applies to verify fan-map only" in captured.err

    @pytest.mark.parametrize(
        "what, least",
        [("all", 1), ("fans", 1), ("cd-disjoint", 2), ("hyperplane", 2), ("minkowski", 2),
         ("divisor", 2), ("cocycle", 3), ("fan-map", 2), ("canonical-stack", 2),
         ("fan-map --family B", 2), ("fan-map --family C", 2)],
    )
    def test_verify_without_cases_exits_2(self, capsys, what, least):
        name, *family = what.split()
        code = main(["verify", name, "--n", str(least - 1), *family, "--json"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"verify {name} checks no case at n = {least - 1}" in captured.err
        assert f"the least n it covers is {least}" in captured.err
        code, out = run(capsys, "verify", name, "--n", str(least), *family, "--json")
        assert code == 0 and json.loads(out)["cases"]

    def test_verify_all(self, capsys):
        code, out = run(capsys, *"verify all --n 3 --json".split())
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert all(case["ok"] for case in payload["cases"])


class TestRunEntryPoint:
    def test_run_returns_payload(self):
        from toricchains.cli import run

        result = run("point count --family A --n 1 --q 5 --json".split())
        assert result.status == 0
        assert result.payload == {"count": 6, "q": 5}

    def test_run_deterministic(self):
        from toricchains.cli import run

        a = run("verify divisor --n 3 --json".split())
        b = run("verify divisor --n 3 --json".split())
        assert a == b


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        args = "verify all --n 2 --json".split()
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2


def run_python(script, *argv):
    """``python -c script argv...`` in a fresh interpreter; its stdout lines."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


LIBRARY_MODULES = {
    f"toricchains.{p.stem}" for p in (ROOT / "src" / "toricchains").glob("*.py")
} - {"toricchains.__init__"}


def test_cli_imports_only_the_standard_library():
    """The CLI and every public name, imported in a fresh interpreter, add
    only standard-library modules and toricchains itself: the runtime has no
    third-party dependency.  The star import loads every library module."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import toricchains.cli\n"
        "from toricchains import *\n"
        "added = set(sys.modules) - before\n"
        "print(' '.join(sorted({m.split('.')[0] for m in added})))\n"
        "print(' '.join(sorted(m for m in added if m.startswith('toricchains.'))))\n"
    )
    top, library = run_python(script)
    added = top.split()
    assert "toricchains" in added
    outside = [m for m in added if m != "toricchains" and m not in sys.stdlib_module_names]
    assert outside == []
    assert set(library.split()) == LIBRARY_MODULES


FAN_MODULES = {"exact_linalg", "root_fans"}
POINT_MODULES = FAN_MODULES | {"fields", "orbit_points"}
POLYTOPE_MODULES = FAN_MODULES | {"losev_manin"}

_LOADED = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import contextlib, io\n"
    "import toricchains.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    status = toricchains.cli.main(sys.argv[1:])\n"
    "print(status)\n"
    "print(' '.join(sorted(m for m in sys.modules if m.startswith('toricchains.'))))\n"
    "print(' '.join(sorted(set(sys.modules) - before)))\n"
)


@pytest.mark.parametrize(
    "command, modules",
    [
        ("fan check --family A --n 3", FAN_MODULES),
        ("point stab --family A --n 2 --coords 0,0,1,1 --field F7", POINT_MODULES),
        ("chain from-point --family A --n 2 --coords 4,1,1,1 --field F11",
         POINT_MODULES | {"chains"}),
        ("polytope permutohedron --n 4", POLYTOPE_MODULES),
        ("verify all --n 2", POLYTOPE_MODULES),
    ],
    ids=["fan", "point", "chain", "polytope", "verify"],
)
def test_a_cold_command_loads_only_the_modules_it_runs(command, modules):
    status, loaded, added = run_python(_LOADED, *command.split())
    assert status == "0"
    assert set(loaded.split()) == {"toricchains.cli"} | {f"toricchains.{m}" for m in modules}
    # the value types are slotted classes: no cold command pays for dataclasses
    assert "dataclasses" not in added.split()


def test_importing_the_package_loads_no_submodule():
    (loaded,) = run_python(
        "import sys, toricchains\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('toricchains'))))\n"
    )
    assert loaded == "toricchains"
