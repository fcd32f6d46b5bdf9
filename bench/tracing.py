"""Spans around linnikgeo's layer functions, installed from outside the program.

install() wraps each function named in SPANS and puts the wrapper under
every name that holds the function in any linnikgeo module (modules import
these functions by name, so _run_scan lives in both linnik and
geodesic_enum).  Each call records a span (name, start, end, parent, op)
in memory; layer_metrics() turns the spans of a pass into self times and
counts.  A function that a later version removes is skipped, and the
metrics that need it are reported absent.
"""

from __future__ import annotations

import functools
import sys
import time

# function name -> layer metric its self time adds to (None: a library call
# that is timed only so that it is not charged to a CLI command)
SPANS = {
    "_check_interval": "linnik.check_s",
    "_min_on_closure": "linnik.check_s",
    "mu_integral": "linnik.check_s",
    "case_tag": "linnik.check_s",
    "_run_scan": "linnik.scan_s",
    "_enumerate_with_ties": "linnik.build_sort_s",
    "equid_report": "linnik.histogram_s",
    "_enum_pairs": "geodesic_enum.sort_s",
    "enum_cm_on_geodesic": "geodesic_enum.records_s",
    "enum_rm_perp_geodesic": "geodesic_enum.records_s",
    "enum_rm_through_point": "geodesic_enum.records_s",
    "enum_cm_in_ball": "geodesic_enum.ball_s",
    "cm_on_fundamental_arc": "cycles.arc_s",
    "j_invariant": "cycles.j_s",
    "cycle_quadrature": "cycles.quad_s",
    "pell_fundamental": "numtheory.pell_s",
    "sl2z_reduce": "numtheory.reduce_s",
    "phi_sieve": "numtheory.sieve_s",
    "cmd_wset": "cli.format_s",
    "cmd_verify": "cli.format_s",
    "cmd_render": "cli.format_s",
    "cmd_cycle": "cli.format_s",
    "enumerate_W": None,
    "cycle_value": None,
    "closed_geodesic": None,
    "cm_count_closed": None,
}

RECORDS = ("enum_cm_on_geodesic", "enum_rm_perp_geodesic", "enum_rm_through_point")
ENUMERATIONS = ("_enumerate_with_ties", "_enum_pairs")

# count metric -> the functions it needs
COUNTS = {
    "linnik.scan_n": ("_run_scan",),
    "linnik.scan_pairs": ("_run_scan",),
    "geodesic_enum.records": RECORDS,
    "geodesic_enum.ball_points": ("enum_cm_in_ball",),
    "cycles.j_calls": ("j_invariant",),
    "numtheory.pell_calls": ("pell_fundamental",),
    "cli.enum_calls": ("cmd_wset", "cmd_verify", "cmd_render", "cmd_cycle"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, op, count]
        self.stack: list[int] = []
        self.op = -1
        self.installed: set[str] = set()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            try:  # a changed return shape loses the count, not the call
                if name == "_run_scan":
                    span[5] = (kwargs.get("n_max", args[4] if len(args) > 4 else 0), len(out[0]))
                elif name in RECORDS or name == "enum_cm_in_ball":
                    span[5] = len(out)
            except (TypeError, IndexError):
                pass
            return out

        return traced

    def install(self) -> None:
        """Replace every linnikgeo-module name bound to a function in SPANS."""
        from linnikgeo.cycles import ModularFunction

        mods = [m for k, m in sys.modules.items() if k == "linnikgeo" or k.startswith("linnikgeo.")]
        originals = {}
        for mod in mods:
            for name in SPANS:
                fn = getattr(mod, name, None)
                if callable(fn) and getattr(fn, "__module__", "").startswith("linnikgeo"):
                    originals.setdefault(name, fn)
        wrappers = {name: self.wrap(name, fn) for name, fn in originals.items()}
        by_id = {id(fn): wrappers[name] for name, fn in originals.items()}
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in by_id:
                    setattr(mod, attr, by_id[id(val)])
                elif isinstance(val, ModularFunction) and id(val.evaluator) in by_id:
                    setattr(mod, attr, ModularFunction(val.name, by_id[id(val.evaluator)]))
        self.installed = set(originals)

    def begin_op(self, index: int, label: str) -> None:
        self.op = index
        self.spans.append([f"op:{label}", time.perf_counter(), 0.0, -1, index, 0])
        self.stack.append(len(self.spans) - 1)

    def end_op(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()
        self.op = -1

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for metric in {m for f, m in SPANS.items() if m and f in self.installed}:
            out[metric] = 0.0
        for metric, needs in COUNTS.items():
            if any(f in self.installed for f in needs):
                out[metric] = 0
        in_cli = [False] * len(spans)
        for i, (name, t0, t1, parent, _, count) in enumerate(spans):
            metric = SPANS.get(name)
            if metric:
                out[metric] += (t1 - t0) - child[i]
            in_cli[i] = name.startswith("cmd_") or (parent >= 0 and in_cli[parent])
            if name == "_run_scan" and count:
                out["linnik.scan_n"] += count[0]
                out["linnik.scan_pairs"] += count[1]
            elif name in RECORDS:
                out["geodesic_enum.records"] += count
            elif name == "enum_cm_in_ball":
                out["geodesic_enum.ball_points"] += count
            elif name == "j_invariant":
                out["cycles.j_calls"] += 1
            elif name == "pell_fundamental":
                out["numtheory.pell_calls"] += 1
            elif name in ENUMERATIONS and in_cli[i] and "cli.enum_calls" in out:
                out["cli.enum_calls"] += 1
        return out
