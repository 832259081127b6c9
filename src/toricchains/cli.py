"""Command-line interface with deterministic JSON output.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 internal invariant violation.  Every subcommand accepts ``--json``; the
default output is a short human-readable rendering of the same data.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from dataclasses import dataclass
from typing import List, Optional

from . import chains as chains_mod
from . import losev_manin as lm
from .fields import parse_field
from .orbit_points import (
    FanPoint,
    canonical_form,
    count_coarse_points,
    enumerate_orbits,
    make_point,
    orbit_equal,
    stabilizer,
)
from .root_fans import (
    FanFamily,
    StackyFan,
    build_sigma_A,
    build_upsilon,
    canonical_stack,
    check_fan,
    dg_group,
    fan_from_json,
    fan_morphism_check,
    standard_fan_map,
)

USAGE_ERROR = 2
VERIFY_FAILURE = 1
INTERNAL_ERROR = 3


def _dump(payload, as_json: bool, human: Optional[str] = None) -> None:
    if as_json or human is None:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _load_fan(args) -> StackyFan:
    if getattr(args, "fan", None):
        with open(args.fan, "r", encoding="utf-8") as fh:
            return fan_from_json(fh.read())
    if getattr(args, "family", None) is None or getattr(args, "n", None) is None:
        raise ValueError("provide either --fan FILE or --family and --n")
    fam = FanFamily(args.family, args.n)
    if fam.tag == "SigmaA":
        return build_sigma_A(fam.n)
    return build_upsilon(fam)


def _parse_coords(text: str, field) -> List:
    return [field.parse(tok) for tok in text.split(",") if tok.strip() != ""]


def _point(args) -> FanPoint:
    fan = _load_fan(args)
    field = parse_field(args.field)
    return make_point(fan, field, _parse_coords(args.coords, field))


# ---------------------------------------------------------------------------
# fan subcommands
# ---------------------------------------------------------------------------


def _cmd_fan_build(args) -> int:
    fan = _load_fan(args)
    text = fan.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _dump(
            {"written": args.out, "rays": fan.num_rays, "max_cones": len(fan.max_cones)},
            args.json,
            f"wrote {args.out}: {fan.num_rays} rays, {len(fan.max_cones)} maximal cones",
        )
    else:
        print(text)
    return 0


def _cmd_fan_export(args) -> int:
    print(_load_fan(args).to_json())
    return 0


def _cmd_fan_check(args) -> int:
    if getattr(args, "fanfile", None):
        args.fan = args.fanfile
    fan = _load_fan(args)
    report = check_fan(fan)
    payload = report.to_dict()
    payload["rays"] = fan.num_rays
    payload["max_cones"] = len(fan.max_cones)
    _dump(
        payload,
        args.json,
        "  ".join(f"{k}={v}" for k, v in sorted(payload.items())),
    )
    return 0 if report.all_ok else VERIFY_FAILURE


# ---------------------------------------------------------------------------
# point subcommands
# ---------------------------------------------------------------------------


def _cmd_point_stab(args) -> int:
    p = _point(args)
    desc = stabilizer(p)
    _dump(
        desc.to_dict(),
        args.json,
        f"stabilizer: free_rank={desc.free_rank} torsion={list(desc.torsion)}"
        + (f" order={desc.order}" if desc.is_finite else " (infinite)"),
    )
    return 0


def _cmd_point_canon(args) -> int:
    p = _point(args)
    q = canonical_form(p)
    coords = [p.field.format(c) for c in q.coords]
    _dump({"coords": coords}, args.json, "canonical: " + ",".join(coords))
    return 0


def _cmd_point_orbit_eq(args) -> int:
    field = parse_field(args.field)
    if args.extended:
        c1 = _parse_coords(args.coords, field)
        c2 = _parse_coords(args.coords2, field)
        if len(c1) % 2 != 0 or len(c1) != len(c2):
            raise ValueError("extended coordinates come as 2n values (n+1 coefficients, n-1 twists)")
        n = len(c1) // 2
        e1 = chains_mod.ExtendedPoint(n, field, tuple(c1[: n + 1]), tuple(c1[n + 1 :]))
        e2 = chains_mod.ExtendedPoint(n, field, tuple(c2[: n + 1]), tuple(c2[n + 1 :]))
        eq = chains_mod.orbit_equal_extended(e1, e2)
    else:
        fan = _load_fan(args)
        p = make_point(fan, field, _parse_coords(args.coords, field))
        q = make_point(fan, field, _parse_coords(args.coords2, field))
        eq = orbit_equal(p, q)
    _dump({"orbit_equal": eq}, args.json, f"orbit_equal: {eq}")
    return 0


def _cmd_point_count(args) -> int:
    fan = _load_fan(args)
    count = count_coarse_points(fan, args.q)
    _dump({"count": count, "q": args.q}, args.json, str(count))
    return 0


def _cmd_point_enumerate(args) -> int:
    fan = _load_fan(args)
    orbits = enumerate_orbits(fan, args.p)
    payload = {
        "orbits": [
            {"coords": [pt.field.format(c) for c in pt.coords], "stabilizer_order": order}
            for pt, order in orbits
        ]
    }
    human = "\n".join(
        ",".join(o["coords"]) + f"  |stab|={o['stabilizer_order']}" for o in payload["orbits"]
    )
    _dump(payload, args.json, human)
    return 0


# ---------------------------------------------------------------------------
# chain subcommands
# ---------------------------------------------------------------------------


def _cmd_chain_from_point(args) -> int:
    p = _point(args)
    chain = chains_mod.chain_from_point(p)
    _dump(
        chain.to_dict(),
        args.json,
        f"{chain.num_components} component(s), degrees {list(chain.component_degrees)}",
    )
    return 0


def _cmd_chain_from_poly(args) -> int:
    field = parse_field(args.field)
    coeffs = _parse_coords(args.poly, field)
    e = chains_mod.point_from_polynomial(coeffs, field)
    payload = {
        "n": e.n,
        "coefficients": [field.format(c) for c in e.c],
        "twists": [field.format(b) for b in e.b],
        "normalized": e.is_normalized(),
    }
    _dump(payload, args.json, json.dumps(payload, sort_keys=True))
    return 0


def _cmd_chain_fiber(args) -> int:
    field = parse_field(f"F{args.q}")
    coeffs = _parse_coords(args.poly, field)
    e = chains_mod.point_from_polynomial(coeffs, field)
    chain = chains_mod.ChainModel(field, e.n, (e.n,), (e.c,))
    profile = chains_mod.fiber_profile_of_chain(chain)
    _dump(
        profile.to_dict(),
        args.json,
        f"ordered_preimages={profile.rational_ordered_preimages} "
        f"ramified={profile.is_ramified} profile={[list(m) for m in profile.multiplicity_profile]}",
    )
    return 0


def _cmd_chain_parity(args) -> int:
    field = parse_field(args.field)
    coeffs = _parse_coords(args.coeffs, field)
    tag = chains_mod.parity_component(coeffs, field)
    _dump({"parity": tag}, args.json, tag)
    return 0


def _cmd_chain_embed(args) -> int:
    p = _point(args)
    fam = p.fan.family
    if fam is None:
        raise ValueError("embedding requires a named fan family")
    if fam.tag == "C":
        image = chains_mod.c_point_embed(p)
    elif fam.tag == "Bcan":
        image = chains_mod.b_point_embed(p)
    elif fam.tag == "Cminus":
        image = chains_mod.minus_embed(p)
    else:
        raise ValueError("embedding is defined for families C, Bcan, Cminus")
    payload = {
        "family": image.fan.family.tag,
        "n": image.fan.family.n,
        "coords": [image.field.format(c) for c in image.coords],
    }
    _dump(payload, args.json, ",".join(payload["coords"]))
    return 0


# ---------------------------------------------------------------------------
# polytope subcommands
# ---------------------------------------------------------------------------


def _cmd_polytope_permutohedron(args) -> int:
    P = lm.permutohedron(args.n)
    _dump(P.to_dict(), args.json, f"{P.num_vertices} vertices in dim {P.ambient_dim}")
    return 0


def _cmd_polytope_delta(args) -> int:
    P = lm.delta_j(args.n, args.j)
    _dump(P.to_dict(), args.json, f"{P.num_vertices} vertices in dim {P.ambient_dim}")
    return 0


def _cmd_polytope_minkowski(args) -> int:
    perm, ok = lm.permutohedron_decompositions(args.n)
    payload = {"n": args.n, "decompositions_match": ok, "vertices": perm.num_vertices}
    _dump(payload, args.json, f"decompositions_match={ok} ({perm.num_vertices} vertices)")
    return 0 if ok else VERIFY_FAILURE


# ---------------------------------------------------------------------------
# verify subcommands
# ---------------------------------------------------------------------------


def _fan_map_ok(tag: str, n: int) -> bool:
    L, src, dst = standard_fan_map(tag, n)
    return fan_morphism_check(src, dst, L)


def _canonical_stack_ok(n: int) -> bool:
    return canonical_stack(build_upsilon(FanFamily("B", n))).rays == build_upsilon(
        FanFamily("Bcan", n)
    ).rays


def _fans_ok(k: int) -> bool:
    fan = build_upsilon(FanFamily("A", k))
    report, desc = check_fan(fan), dg_group(fan)
    return (
        report.all_ok
        and fan.num_rays == 2 * k
        and len(fan.max_cones) == 2**k
        and desc.free_rank == k
        and not desc.torsion
    )


# name: (least n, largest n or None for no cap, the check at one n)
_VERIFY_CHECKS = {
    "fans": (1, 8, _fans_ok),
    "cd-disjoint": (2, None, lm.verify_cd_disjoint),
    "hyperplane": (2, None, lm.verify_section_hyperplane),
    "minkowski": (2, 7, lm.verify_minkowski),
    "divisor": (2, 6, lm.verify_divisor_relation),
    "cocycle": (3, 5, lm.verify_a_data_cocycle),
    "fan-map": (2, 3, None),
    "canonical-stack": (2, 4, _canonical_stack_ok),
}
_VERIFY_NAMES = tuple(_VERIFY_CHECKS)


def _verify_cases(name: str, n: int) -> List[dict]:
    lo, hi, check = _VERIFY_CHECKS[name]
    cases = []
    for k in range(lo, (n if hi is None else min(n, hi)) + 1):
        if name == "fan-map":
            cases += [{"check": f"fan-map-{t}", "n": k, "ok": _fan_map_ok(t, k)} for t in "CB"]
        else:
            cases.append({"check": name, "n": k, "ok": check(k)})
    return cases


def _cmd_verify(args) -> int:
    if args.family is not None and args.what == "fan-map":
        cases = [
            {
                "check": f"fan-map-{args.family}",
                "n": args.n,
                "ok": _fan_map_ok(args.family, args.n),
            }
        ]
    else:
        names = _VERIFY_NAMES if args.what == "all" else (args.what,)
        cases = [case for name in names for case in _verify_cases(name, args.n)]
        if not cases:
            least = min(_VERIFY_CHECKS[name][0] for name in names)
            raise ValueError(
                f"verify {args.what} checks no case at n = {args.n}; "
                f"the least n it covers is {least}"
            )
    ok = all(c["ok"] for c in cases)
    payload = {"cases": cases, "ok": ok}
    human = "\n".join(
        f"{c['check']} n={c['n']}: {'ok' if c['ok'] else 'FAIL'}" for c in cases
    )
    _dump(payload, args.json, human + f"\noverall: {'ok' if ok else 'FAIL'}")
    return 0 if ok else VERIFY_FAILURE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_fan_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fan", help="fan JSON file")
    p.add_argument("--family", choices=["A", "B", "Bcan", "C", "Cminus", "SigmaA"])
    p.add_argument("--n", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="toricchains", description=__doc__)
    sub = parser.add_subparsers(dest="group", required=True)

    fan = sub.add_parser("fan").add_subparsers(dest="cmd", required=True)
    p = fan.add_parser("build")
    _add_fan_source(p)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fan_build)
    p = fan.add_parser("check")
    p.add_argument("fanfile", nargs="?", help="fan JSON file")
    p.add_argument("--family", choices=["A", "B", "Bcan", "C", "Cminus", "SigmaA"])
    p.add_argument("--n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fan_check)
    p = fan.add_parser("export")
    _add_fan_source(p)
    p.set_defaults(func=_cmd_fan_export)

    point = sub.add_parser("point").add_subparsers(dest="cmd", required=True)
    for name, func, extra in (
        ("stab", _cmd_point_stab, ("coords", "field")),
        ("canon", _cmd_point_canon, ("coords", "field")),
        ("orbit-eq", _cmd_point_orbit_eq, ("coords", "coords2", "field", "extended")),
        ("count", _cmd_point_count, ("q",)),
        ("enumerate", _cmd_point_enumerate, ("p",)),
    ):
        p = point.add_parser(name)
        _add_fan_source(p)
        if "coords" in extra:
            p.add_argument("--coords", required=True)
        if "coords2" in extra:
            p.add_argument("--coords2", required=True)
        if "field" in extra:
            p.add_argument("--field", required=True)
        if "extended" in extra:
            p.add_argument("--extended", action="store_true")
        if "q" in extra:
            p.add_argument("--q", type=int, required=True)
        if "p" in extra:
            p.add_argument("--p", type=int, required=True)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)

    chain = sub.add_parser("chain").add_subparsers(dest="cmd", required=True)
    p = chain.add_parser("from-point")
    _add_fan_source(p)
    p.add_argument("--coords", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_chain_from_point)
    p = chain.add_parser("from-poly")
    p.add_argument("--poly", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_chain_from_poly)
    p = chain.add_parser("fiber")
    p.add_argument("--poly", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_chain_fiber)
    p = chain.add_parser("parity")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--field", default="Q")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_chain_parity)
    p = chain.add_parser("embed")
    _add_fan_source(p)
    p.add_argument("--coords", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_chain_embed)

    polytope = sub.add_parser("polytope").add_subparsers(dest="cmd", required=True)
    p = polytope.add_parser("permutohedron")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_polytope_permutohedron)
    p = polytope.add_parser("delta")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_polytope_delta)
    p = polytope.add_parser("minkowski")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_polytope_minkowski)

    verify = sub.add_parser("verify")
    verify.add_argument("what", choices=("all",) + _VERIFY_NAMES)
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--family", choices=["B", "C"], help="for fan-map")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (AssertionError, RuntimeError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


@dataclass(frozen=True)
class CommandResult:
    """Exit status plus the parsed JSON payload of one invocation."""

    status: int
    payload: object


def run(argv: List[str]) -> CommandResult:
    """Programmatic entry point: dispatch argv, capture the JSON output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(list(argv))
    text = buf.getvalue().strip()
    try:
        payload = json.loads(text) if text else None
    except json.JSONDecodeError:
        payload = text
    return CommandResult(status, payload)


if __name__ == "__main__":
    sys.exit(main())
