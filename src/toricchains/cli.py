"""Command-line interface with deterministic JSON output.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 internal invariant violation.  Every subcommand accepts ``--json``; the
default output is a short human-readable rendering of the same data.

Every command is one row of ``COMMANDS`` (group -> command -> handler and
option names); ``build_parser`` adds each option from ``_OPTIONS`` and
``--json`` to every command.  A handler returns ``(payload, human, ok)``:
``main`` prints ``json.dumps(payload, sort_keys=True)`` under ``--json`` or
when ``human`` is None, ``human`` otherwise, and exits 0 when ``ok`` holds
and 1 otherwise.  Handlers call library functions by their module-global
names, so a wrapper bound over those names after import sees every call.
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
    FAMILY_TAGS,
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


def _load_fan(args) -> StackyFan:
    path = getattr(args, "fanfile", None) or args.fan
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return fan_from_json(fh.read())
    if args.family is None or args.n is None:
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


def _cmd_fan_build(args):
    fan = _load_fan(args)
    out = getattr(args, "out", None)
    if not out:
        return fan.to_dict(), None, True
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(fan.to_json() + "\n")
    payload = {"written": out, "rays": fan.num_rays, "max_cones": len(fan.max_cones)}
    return payload, f"wrote {out}: {fan.num_rays} rays, {len(fan.max_cones)} maximal cones", True


def _cmd_fan_check(args):
    fan = _load_fan(args)
    report = check_fan(fan)
    payload = report.to_dict()
    payload["rays"] = fan.num_rays
    payload["max_cones"] = len(fan.max_cones)
    return payload, "  ".join(f"{k}={v}" for k, v in sorted(payload.items())), report.all_ok


def _cmd_point_stab(args):
    desc = stabilizer(_point(args))
    human = f"stabilizer: free_rank={desc.free_rank} torsion={list(desc.torsion)}" + (
        f" order={desc.order}" if desc.is_finite else " (infinite)"
    )
    return desc.to_dict(), human, True


def _cmd_point_canon(args):
    p = _point(args)
    coords = [p.field.format(c) for c in canonical_form(p).coords]
    return {"coords": coords}, "canonical: " + ",".join(coords), True


def _cmd_point_orbit_eq(args):
    field = parse_field(args.field)
    if args.extended:
        c1 = _parse_coords(args.coords, field)
        c2 = _parse_coords(args.coords2, field)
        if len(c1) % 2 != 0 or len(c1) != len(c2):
            raise ValueError("extended coordinates come as 2n values (n+1 coefficients, n-1 twists)")
        n = len(c1) // 2
        e1, e2 = (chains_mod.ExtendedPoint(n, field, tuple(c[: n + 1]), tuple(c[n + 1 :]))
                  for c in (c1, c2))
        eq = chains_mod.orbit_equal_extended(e1, e2)
    else:
        fan = _load_fan(args)
        p = make_point(fan, field, _parse_coords(args.coords, field))
        q = make_point(fan, field, _parse_coords(args.coords2, field))
        eq = orbit_equal(p, q)
    return {"orbit_equal": eq}, f"orbit_equal: {eq}", True


def _cmd_point_count(args):
    count = count_coarse_points(_load_fan(args), args.q)
    return {"count": count, "q": args.q}, str(count), True


def _cmd_point_enumerate(args):
    orbits = [
        {"coords": [pt.field.format(c) for c in pt.coords], "stabilizer_order": order}
        for pt, order in enumerate_orbits(_load_fan(args), args.p)
    ]
    human = "\n".join(",".join(o["coords"]) + f"  |stab|={o['stabilizer_order']}" for o in orbits)
    return {"orbits": orbits}, human, True


def _cmd_chain_from_point(args):
    chain = chains_mod.chain_from_point(_point(args))
    human = f"{chain.num_components} component(s), degrees {list(chain.component_degrees)}"
    return chain.to_dict(), human, True


def _cmd_chain_from_poly(args):
    field = parse_field(args.field)
    e = chains_mod.point_from_polynomial(_parse_coords(args.poly, field), field)
    payload = {
        "n": e.n,
        "coefficients": [field.format(c) for c in e.c],
        "twists": [field.format(b) for b in e.b],
        "normalized": e.is_normalized(),
    }
    return payload, None, True


def _cmd_chain_fiber(args):
    field = parse_field(f"F{args.q}")
    e = chains_mod.point_from_polynomial(_parse_coords(args.poly, field), field)
    profile = chains_mod.fiber_profile_of_chain(chains_mod.ChainModel(field, e.n, (e.n,), (e.c,)))
    human = (
        f"ordered_preimages={profile.rational_ordered_preimages} "
        f"ramified={profile.is_ramified} profile={[list(m) for m in profile.multiplicity_profile]}"
    )
    return profile.to_dict(), human, True


def _cmd_chain_parity(args):
    field = parse_field(args.field)
    tag = chains_mod.parity_component(_parse_coords(args.coeffs, field), field)
    return {"parity": tag}, tag, True


def _cmd_chain_embed(args):
    p = _point(args)
    if p.fan.family is None:
        raise ValueError("embedding requires a named fan family")
    embed = {
        "C": chains_mod.c_point_embed,
        "Bcan": chains_mod.b_point_embed,
        "Cminus": chains_mod.minus_embed,
    }.get(p.fan.family.tag)
    if embed is None:
        raise ValueError("embedding is defined for families C, Bcan, Cminus")
    image = embed(p)
    coords = [image.field.format(c) for c in image.coords]
    payload = {"family": image.fan.family.tag, "n": image.fan.family.n, "coords": coords}
    return payload, ",".join(coords), True


def _cmd_polytope_permutohedron(args):
    P = lm.permutohedron(args.n)
    return P.to_dict(), f"{P.num_vertices} vertices in dim {P.ambient_dim}", True


def _cmd_polytope_delta(args):
    P = lm.delta_j(args.n, args.j)
    return P.to_dict(), f"{P.num_vertices} vertices in dim {P.ambient_dim}", True


def _cmd_polytope_minkowski(args):
    perm, ok = lm.permutohedron_decompositions(args.n)
    payload = {"n": args.n, "decompositions_match": ok, "vertices": perm.num_vertices}
    return payload, f"decompositions_match={ok} ({perm.num_vertices} vertices)", ok


def _fan_map_ok(tag: str, n: int) -> bool:
    L, src, dst = standard_fan_map(tag, n)
    return fan_morphism_check(src, dst, L)


def _canonical_stack_ok(n: int) -> bool:
    stack = canonical_stack(build_upsilon(FanFamily("B", n)))
    return stack.rays == build_upsilon(FanFamily("Bcan", n)).rays


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


def _cmd_verify(args):
    """Every check at each n from its least up to ``--n`` (or its cap).
    ``--family`` narrows ``fan-map`` to one tag at ``--n`` alone, past the cap."""
    if args.family is not None and args.what != "fan-map":
        raise ValueError("--family applies to verify fan-map only")
    names = _VERIFY_NAMES if args.what == "all" else (args.what,)
    cases = []
    for name in names:
        lo, hi, check = _VERIFY_CHECKS[name]
        first, last = lo, (args.n if hi is None else min(args.n, hi))
        if args.family:  # one tag at --n alone, past the cap
            first, last = max(lo, args.n), args.n
        for k in range(first, last + 1):
            if name == "fan-map":
                cases += [
                    {"check": f"fan-map-{t}", "n": k, "ok": _fan_map_ok(t, k)}
                    for t in args.family or "CB"
                ]
            else:
                cases.append({"check": name, "n": k, "ok": check(k)})
    if not cases:
        least = min(_VERIFY_CHECKS[name][0] for name in names)
        raise ValueError(
            f"verify {args.what} checks no case at n = {args.n}; "
            f"the least n it covers is {least}"
        )
    ok = all(c["ok"] for c in cases)
    human = "\n".join(f"{c['check']} n={c['n']}: {'ok' if c['ok'] else 'FAIL'}" for c in cases)
    return {"cases": cases, "ok": ok}, human + f"\noverall: {'ok' if ok else 'FAIL'}", ok


# ---------------------------------------------------------------------------
# command table and parser
# ---------------------------------------------------------------------------

# option name: (argparse name, argparse keywords)
_OPTIONS = {
    "fanfile": ("fanfile", {"nargs": "?", "help": "fan JSON file"}),
    "fan": ("--fan", {"help": "fan JSON file"}),
    "family": ("--family", {"choices": FAMILY_TAGS}),
    "rank": ("--n", {"type": int}),
    "out": ("--out", {}),
    "coords": ("--coords", {"required": True}),
    "coords2": ("--coords2", {"required": True}),
    "field": ("--field", {"required": True}),
    "field-Q": ("--field", {"default": "Q"}),
    "extended": ("--extended", {"action": "store_true"}),
    "q": ("--q", {"type": int, "required": True}),
    "p": ("--p", {"type": int, "required": True}),
    "poly": ("--poly", {"required": True}),
    "coeffs": ("--coeffs", {"required": True}),
    "n": ("--n", {"type": int, "required": True}),
    "j": ("--j", {"type": int, "required": True}),
    "what": ("what", {"choices": ("all",) + _VERIFY_NAMES}),
    "fan-map-family": ("--family", {"choices": ["B", "C"], "help": "for fan-map"}),
}

# The fan source every command that takes a fan accepts.
_FAN = "fan family rank"

# group -> command -> (handler, option names); the command None gives the
# group's own parser.
COMMANDS = {
    "fan": {
        "build": (_cmd_fan_build, f"{_FAN} out"),
        "check": (_cmd_fan_check, f"fanfile {_FAN}"),
        "export": (_cmd_fan_build, _FAN),
    },
    "point": {
        "stab": (_cmd_point_stab, f"{_FAN} coords field"),
        "canon": (_cmd_point_canon, f"{_FAN} coords field"),
        "orbit-eq": (_cmd_point_orbit_eq, f"{_FAN} coords coords2 field extended"),
        "count": (_cmd_point_count, f"{_FAN} q"),
        "enumerate": (_cmd_point_enumerate, f"{_FAN} p"),
    },
    "chain": {
        "from-point": (_cmd_chain_from_point, f"{_FAN} coords field"),
        "from-poly": (_cmd_chain_from_poly, "poly field"),
        "fiber": (_cmd_chain_fiber, "poly q"),
        "parity": (_cmd_chain_parity, "coeffs field-Q"),
        "embed": (_cmd_chain_embed, f"{_FAN} coords field"),
    },
    "polytope": {
        "permutohedron": (_cmd_polytope_permutohedron, "n"),
        "delta": (_cmd_polytope_delta, "n j"),
        "minkowski": (_cmd_polytope_minkowski, "n"),
    },
    "verify": {None: (_cmd_verify, "what n fan-map-family")},
}


def build_parser() -> argparse.ArgumentParser:
    # the help text is the user-facing part of the module docstring
    doc = "\n\n".join((__doc__ or "").split("\n\n")[:2])
    parser = argparse.ArgumentParser(prog="toricchains", description=doc)
    groups = parser.add_subparsers(dest="group", required=True)
    for group, commands in COMMANDS.items():
        group_parser = groups.add_parser(group)
        if None not in commands:
            sub = group_parser.add_subparsers(dest="cmd", required=True)
        for cmd, (handler, names) in commands.items():
            p = group_parser if cmd is None else sub.add_parser(cmd)
            for name in names.split():
                flag, spec = _OPTIONS[name]
                p.add_argument(flag, **spec)
            p.add_argument("--json", action="store_true")
            p.set_defaults(func=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, human, ok = args.func(args)
    except (ValueError, ZeroDivisionError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (AssertionError, RuntimeError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    print(json.dumps(payload, sort_keys=True) if args.json or human is None else human)
    return 0 if ok else VERIFY_FAILURE


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
