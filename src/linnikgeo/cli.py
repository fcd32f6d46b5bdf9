"""Command-line surface: wset, verify, render, cycle.

Exit codes: 0 success, 1 internal error, 2 bad input, 3 guard exceeded,
4 tolerance failure.  Infinite interval endpoints are spelled inf / -inf;
an interval that wraps through infinity has lo > hi and needs an explicit
--wrap.  CSV output is UTF-8 with LF endings and a fixed header
m,n,t,value,extra; JSON output carries a top-level "schema": 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import GuardExceeded, LimitTooLarge, LinnikError
from .forms import HalfLine, IntForm, RealForm, Semicircle, geodesic_of_form, normalize
from .geodesic_enum import (
    enum_cm_on_geodesic,
    enum_rm_perp_geodesic,
    enum_rm_through_point,
)
from .linnik import ProjInterval, case_tag, count_residual, equid_report, form_values
from .linnik import ladder_counts, mu_integral
from .cycles import CONSTANT_ONE, J_FUNCTION, closed_geodesic, cycle_value

OK, INTERNAL, BAD_INPUT, GUARD, TOLERANCE = 0, 1, 2, 3, 4

CSV_HEADER = "m,n,t,value,extra"

# one W-set record: a CSV line (t as _fmt writes it, extra empty) and the
# list json.dumps(..., indent=1) writes at depth 2
_CSV_ROW = "{},{},{:.9g},{},".format
_JSON_ROW = "  [\n   {},\n   {},\n   {!r},\n   {!r}\n  ]".format


class ToleranceFailure(Exception):
    pass


def _fmt(x: float) -> str:
    """Fixed-width float formatting so outputs are byte-reproducible."""
    return f"{x:.9g}"


def _interval(args) -> ProjInterval:
    if args.wrap:
        if not args.lo > args.hi:
            raise ValueError("--wrap expects lo > hi")
        return ProjInterval(args.lo, args.hi, True)
    return ProjInterval(args.lo, args.hi)


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# wset


def cmd_wset(args) -> int:
    F = RealForm(args.A, args.B, args.C)
    I = _interval(args)
    report = equid_report(F, args.delta, I, args.buckets)
    cols = (report.ms.tolist(), report.ns.tolist(), report.t.tolist(),
            form_values(F, report.ms, report.ns).tolist())
    config = {
        "command": "wset",
        "A": args.A, "B": args.B, "C": args.C,
        "delta": args.delta,
        "lo": args.lo, "hi": args.hi, "wrap": args.wrap,
        "buckets": args.buckets,
    }
    if args.format == "csv":
        _write(args.out, "\n".join([CSV_HEADER, *map(_CSV_ROW, *cols)]) + "\n")
        print(
            f"count={report.empirical} predicted={_fmt(report.predicted)} "
            f"residual={_fmt(report.residual)} ties={report.boundary_ties}",
            file=sys.stderr,
        )
    else:
        doc = {
            "schema": 1,
            "config": config,
            "records": [],
            "report": {
                "empirical": report.empirical,
                "predicted": report.predicted,
                "residual": report.residual,
                "normalized_residual": report.normalized_residual,
                "histogram": report.histogram,
                "max_ratio_dev": report.max_ratio_dev,
                "boundary_ties": report.boundary_ties,
            },
        }
        if cols[0] and all(map(math.isfinite, cols[3])):
            block = ",\n".join(map(_JSON_ROW, *cols))
            text = json.dumps(doc, indent=1).replace('"records": []', f'"records": [\n{block}\n ]', 1)
        else:  # no records, or values json spells as NaN or Infinity
            doc["records"] = list(map(list, zip(*cols)))
            text = json.dumps(doc, indent=1)
        _write(args.out, text + "\n")
    return OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    F = RealForm(args.A, args.B, args.C)
    tag = case_tag(F)
    if args.case != tag:
        raise ValueError(f"form {F} is case {tag!r}, not {args.case!r}")
    if min(args.delta_ladder) <= 1:
        raise ValueError("--delta-ladder values must exceed 1")
    if math.isnan(args.tol):
        raise ValueError("--tol must be a number, got nan")
    I = _interval(args)
    mu = mu_integral(F, I)
    failures = 0
    for delta, empirical in zip(args.delta_ladder, ladder_counts(F, args.delta_ladder, I)):
        predicted, _, norm = count_residual(empirical, delta, mu)
        ok = abs(norm) <= args.tol
        print(
            f"case={tag} delta={_fmt(delta)} empirical={empirical} "
            f"predicted={_fmt(predicted)} residual/(sqrt(delta)log^2)="
            f"{_fmt(abs(norm))} {'ok' if ok else 'FAIL'}"
        )
        failures += not ok
    print(f"mu(I)={_fmt(mu)} tol={_fmt(args.tol)} failures={failures}")
    if failures:
        raise ToleranceFailure(f"{failures} ladder step(s) above tolerance")
    return OK


# ---------------------------------------------------------------------------
# render


def _svg_path_semicircle(q: float, r: float, sx, sy) -> str:
    return (
        f'<path d="M {_fmt(sx(q - r))} {_fmt(sy(0))} '
        f"A {_fmt(r * sx.scale)} {_fmt(r * sx.scale)} 0 0 1 "
        f'{_fmt(sx(q + r))} {_fmt(sy(0))}" class="geo"/>'
    )


class _Axis:
    """Affine world-to-pixel map, kept explicit for deterministic output."""

    def __init__(self, w0: float, w1: float, p0: float, p1: float):
        self.scale = (p1 - p0) / (w1 - w0)
        self.off = p0 - w0 * self.scale

    def __call__(self, w: float) -> float:
        return w * self.scale + self.off


def _render_records(base_form: IntForm, mode: str, records, delta: float, fd: bool) -> str:
    pts = []  # (x, y, |D|)
    curves = []  # (q, r)
    for rec in records:
        if mode == "cm":
            z = rec.point.z
            pts.append((z.real, z.imag, abs(rec.point.form.discriminant())))
        elif mode == "rm-perp":
            pts.append((rec.foot.x, rec.foot.y, rec.curve.form.discriminant()))
            g = rec.curve.geodesic
            curves.append((g.q, g.r))
        else:  # rm-point
            g = rec.curve.geodesic
            pts.append((g.q, g.r, rec.curve.form.discriminant()))
            curves.append((g.q, g.r))
    xs = [p[0] for p in pts] or [0.0]
    ys = [p[1] for p in pts] or [1.0]
    base = geodesic_of_form(base_form) if base_form.discriminant() > 0 else None
    if isinstance(base, HalfLine):
        xs += [base.x - 1, base.x + 1]
    for q, r in curves + ([(base.q, base.r)] if isinstance(base, Semicircle) else []):
        xs += [q - r, q + r]
        ys.append(r)
    pad = 0.1 * max(max(xs) - min(xs), max(ys), 1.0)
    wx0, wx1 = min(xs) - pad, max(xs) + pad
    wy1 = max(ys) + pad
    W, H = 800, 400
    sx = _Axis(wx0, wx1, 0, W)
    # same scale on both axes; y flipped, real axis near the bottom
    sy = _Axis(0, wy1, H - 10, H - 10 - wy1 * sx.scale)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        "<style>.geo{fill:none;stroke:#444;stroke-width:1}"
        ".axis{stroke:#000;stroke-width:1}</style>",
        f'<line class="axis" x1="0" y1="{_fmt(sy(0))}" x2="{W}" y2="{_fmt(sy(0))}"/>',
    ]
    if isinstance(base, HalfLine):
        out.append(
            f'<line class="geo" x1="{_fmt(sx(base.x))}" y1="{_fmt(sy(0))}" '
            f'x2="{_fmt(sx(base.x))}" y2="0"/>'
        )
    elif base:
        out.append(_svg_path_semicircle(base.q, base.r, sx, sy))
    for q, r in sorted(set(curves)):
        out.append(_svg_path_semicircle(q, r, sx, sy))
    if fd:
        for x in (-0.5, 0.5):
            out.append(
                f'<line class="geo" x1="{_fmt(sx(x))}" y1="0" '
                f'x2="{_fmt(sx(x))}" y2="{_fmt(sy(math.sqrt(3) / 2))}"/>'
            )
        out.append(_svg_path_semicircle(0.0, 1.0, sx, sy))
    dmax = max(delta, 1.0)
    for x, y, ad in pts:
        hue = int(240 * (1 - min(ad / dmax, 1.0)))
        out.append(
            f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" '
            f'fill="hsl({hue},70%,50%)"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _run_render(A: int, B: int, C: int, delta: float, mode: str, arc, fd: bool):
    G = normalize(int(A), int(B), int(C))
    if mode == "cm":
        records = enum_cm_on_geodesic(G, delta, arc=arc)
    elif mode == "rm-perp":
        records = enum_rm_perp_geodesic(G, delta, arc=arc)
    elif mode == "rm-point":
        records = enum_rm_through_point(G, delta)
    else:
        raise ValueError(f"unknown render mode {mode!r}")
    return _render_records(G, mode, records, delta, fd)


def cmd_render(args) -> int:
    if args.from_json:
        with open(args.from_json, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("schema") != 1:
            raise ValueError("unsupported schema")
        cfg = doc["config"]
        svg = _run_render(
            cfg["A"], cfg["B"], cfg["C"], cfg["delta"], cfg["mode"],
            tuple(cfg["arc"]) if cfg.get("arc") else None, cfg.get("fd", False),
        )
    else:
        if args.A is None or args.B is None or args.C is None or args.delta is None:
            raise ValueError("render needs -A -B -C --delta (or --from-json)")
        svg = _run_render(
            args.A, args.B, args.C, args.delta, args.mode,
            tuple(args.arc) if args.arc else None, args.fd,
        )
        if args.dump_json:
            doc = {
                "schema": 1,
                "config": {
                    "command": "render",
                    "A": int(args.A), "B": int(args.B), "C": int(args.C),
                    "delta": args.delta, "mode": args.mode,
                    "arc": list(args.arc) if args.arc else None,
                    "fd": args.fd,
                },
            }
            with open(args.dump_json, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(json.dumps(doc, indent=1) + "\n")
    _write(args.out, svg)
    return OK


# ---------------------------------------------------------------------------
# cycle


def cmd_cycle(args) -> int:
    G = normalize(int(args.A), int(args.B), int(args.C))
    f = {"one": CONSTANT_ONE, "j": J_FUNCTION}[args.f]
    estimates, quadv = cycle_value(f, G, args.delta_ladder)
    cg = closed_geodesic(G)
    if args.format == "json":
        doc = {
            "schema": 1,
            "config": {
                "command": "cycle",
                "A": G.a, "B": G.b, "C": G.c,
                "f": args.f,
                "delta_ladder": args.delta_ladder,
            },
            "estimates": [[d, v.real, v.imag] for d, v in estimates],
            "quadrature": [quadv.real, quadv.imag],
            "pell": {
                "D": cg.pell.D, "t0": cg.pell.t0, "u0": cg.pell.u0,
                "length": cg.length,
            },
        }
        _write(args.out, json.dumps(doc, indent=1) + "\n")
    else:
        print(f"D={cg.pell.D} t0={cg.pell.t0} u0={cg.pell.u0} length={_fmt(cg.length)}")
        for d, v in estimates:
            print(f"delta={_fmt(d)} estimate={_fmt(v.real)}{v.imag:+.9g}i")
        print(f"quadrature={_fmt(quadv.real)}{quadv.imag:+.9g}i")
    return OK


# ---------------------------------------------------------------------------
# argument parsing


def _ladder(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _arc(text: str) -> list[float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("arc needs two comma-separated numbers")
    return parts


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="linnikgeo",
        description="Enumerate and verify aggregate-Linnik sets of binary "
        "quadratic forms.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, delta=True):
        p.add_argument("-A", type=float, required=True)
        p.add_argument("-B", type=float, required=True)
        p.add_argument("-C", type=float, required=True)
        if delta:
            p.add_argument("--delta", type=float, required=True)
        p.add_argument("--out", default=None)

    w = sub.add_parser("wset", help="enumerate W_delta on an interval")
    common(w)
    w.add_argument("--lo", type=float, required=True)
    w.add_argument("--hi", type=float, required=True)
    w.add_argument("--wrap", action="store_true")
    w.add_argument("--buckets", type=int, default=8)
    w.add_argument("--format", choices=("csv", "json"), default="csv")
    w.set_defaults(run=cmd_wset)

    v = sub.add_parser("verify", help="empirical vs predicted along a ladder")
    common(v, delta=False)
    v.add_argument("--case", required=True,
                   choices=("linear", "indefinite", "definite", "parabolic",
                            "cap"))
    v.add_argument("--lo", type=float, required=True)
    v.add_argument("--hi", type=float, required=True)
    v.add_argument("--wrap", action="store_true")
    v.add_argument("--delta-ladder", type=_ladder, default=[1e4, 1e5, 1e6])
    v.add_argument("--tol", type=float, default=10.0)
    v.set_defaults(run=cmd_verify)

    r = sub.add_parser("render", help="SVG picture of an enumeration")
    r.add_argument("-A", type=float)
    r.add_argument("-B", type=float)
    r.add_argument("-C", type=float)
    r.add_argument("--delta", type=float)
    r.add_argument("--mode", choices=("cm", "rm-perp", "rm-point"), default="cm")
    r.add_argument("--arc", type=_arc, default=None)
    r.add_argument("--fd", action="store_true", help="draw the fundamental domain")
    r.add_argument("--from-json", default=None)
    r.add_argument("--dump-json", default=None, help="write the config as JSON")
    r.add_argument("--out", default=None)
    r.set_defaults(run=cmd_render)

    c = sub.add_parser("cycle", help="cycle values by CM averaging")
    common(c, delta=False)
    c.add_argument("--f", choices=("one", "j"), default="one")
    c.add_argument("--delta-ladder", type=_ladder, default=[1e4, 1e5, 1e6])
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.set_defaults(run=cmd_cycle)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ToleranceFailure as e:
        print(f"tolerance failure: {e}", file=sys.stderr)
        return TOLERANCE
    except (GuardExceeded, LimitTooLarge) as e:
        print(f"guard exceeded: {e}", file=sys.stderr)
        return GUARD
    except (LinnikError, ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"bad input: {e}", file=sys.stderr)
        return BAD_INPUT
    except Exception as e:  # anything else is our bug, not the user's
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
