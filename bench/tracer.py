"""Per-layer spans, recorded from outside the library.

``Tracer.install`` wraps each function listed in ``LAYERS`` at every module
binding of it in ``toricchains`` (so ``root_fans``' own imported
``solve_rational`` is wrapped too, and calls between layers are caught) and
each listed method on its class.  A span's self time is its duration minus
the durations of the spans it contains, so the self times of one round add
up to the time spent inside the library and never count a second twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = {
    "exact_linalg": (
        "invert_rational",
        "solve_rational",
        "IntMatrix.det",
        "snf",
        "hnf",
        "solve_mod",
        "cokernel",
    ),
    "root_fans": (
        "check_fan",
        "cone_contains",
        "fan_morphism_check",
        "build_upsilon",
        "build_sigma_A",
        "weight_matrix",
    ),
    "orbit_points": (
        "enumerate_orbits",
        "canonical_form",
        "act",
        "is_nondegenerate",
        "stabilizer",
        "orbit_equal",
        "solve_units",
    ),
    "fields": ("Field.pow",),
    "chains": (
        "chain_from_point",
        "fiber_profile_of_chain",
        "unit_root_multiplicities",
        "point_from_polynomial",
        "orbit_equal_extended",
        "involutive_fiber_profile",
    ),
    "losev_manin": (
        "extreme_points",
        "minkowski_sum",
        "verify_minkowski",
        "chart_section",
        "verify_cd_disjoint",
        "verify_section_hyperplane",
        "verify_divisor_relation",
        "verify_a_data_cocycle",
    ),
    "symbolic": (
        "MultiPoly.mul",
        "MultiPoly.add",
        "RationalExpr.mul",
        "RationalExpr.add",
        "RationalExpr.is_zero",
    ),
}

_OPERATORS = {"mul": "__mul__", "add": "__add__"}

# Useful outcomes per attempt, for the layers that can waste work:
# metric name -> (numerator tally, denominator tally).
RATIOS = {
    "orbit_points.enumerate_orbits.orbits_per_canonical": ("orbits", "enumeration_canonical_forms"),
    "chains.unit_root_multiplicities.roots_per_candidate": ("roots", "root_candidates"),
    "losev_manin.extreme_points.vertex_yield": ("vertices", "hull_points"),
}

FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)


class Tracer:
    """Call counts, self times and ratio tallies of the wrapped functions."""

    def __init__(self):
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.tallies = {t: 0 for pair in RATIOS.values() for t in pair}
        self._stack = [0.0]

    def install(self) -> "Tracer":
        import toricchains
        import toricchains.cli  # noqa: F401  (the package does not import it)

        modules = [
            m for name, m in list(sys.modules.items())
            if name == "toricchains" or name.startswith("toricchains.")
        ]
        hooks = {
            "orbit_points.enumerate_orbits": self._count_orbits,
            "chains.unit_root_multiplicities": self._count_roots,
            "losev_manin.extreme_points": self._count_vertices,
        }
        for layer, names in LAYERS.items():
            module = getattr(toricchains, layer)
            for name in names:
                key = f"{layer}.{name}"
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(module, cls_name)
                    attr = _OPERATORS.get(method, method)
                    setattr(cls, attr, self._span(key, cls.__dict__[attr]))
                    continue
                original = getattr(module, name)
                traced = self._span(key, hooks[key](original) if key in hooks else original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)
        return self

    def _span(self, key, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - child

        return traced

    def _count_orbits(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = self.calls["orbit_points.canonical_form"]
            orbits = fn(*args, **kwargs)
            self.tallies["orbits"] += len(orbits)
            self.tallies["enumeration_canonical_forms"] += (
                self.calls["orbit_points.canonical_form"] - before
            )
            return orbits

        return counted

    def _count_roots(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            roots = fn(*args, **kwargs)
            field = signature.bind(*args, **kwargs).arguments["field"]
            self.tallies["roots"] += len(roots)
            self.tallies["root_candidates"] += field.p - 1
            return roots

        return counted

    def _count_vertices(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            points = bound.arguments["points"] = list(bound.arguments["points"])
            vertices = fn(*bound.args, **bound.kwargs)
            self.tallies["vertices"] += len(vertices)
            self.tallies["hull_points"] += len(points)
            return vertices

        return counted

    def report(self, main_s: float = 0.0) -> dict:
        """``main_s`` is the time spent in ``toricchains.cli.main``, when
        the traced process ran a CLI command."""
        return {"calls": self.calls, "self_s": self.self_s, "tallies": self.tallies,
                "main_s": main_s}


def merge(reports) -> dict:
    """Sum the reports of several processes (the cli workload's commands)."""
    out = Tracer().report()
    for rep in reports:
        for part in ("calls", "self_s", "tallies"):
            for key, value in rep[part].items():
                out[part][key] += value
        out["main_s"] += rep["main_s"]
    return out
