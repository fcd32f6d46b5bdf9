"""Output checks, run outside the timed region on one pass of a workload.

Each check compares an operation's output with a computation from
oracles.py or with a property the mathematics guarantees; none compares
with a stored copy of an earlier output.  A check returns a Verdict:
`faults` are wrong outputs (the run is then not correct), `failed` are the
indices of operations that hit a known program fault listed in the
benchmark README (they are counted as failed operations instead).
"""

from __future__ import annotations

import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

import oracles as O
from workloads import BALL_RADIUS, Op


@dataclass
class Verdict:
    faults: list[str] = field(default_factory=list)
    failed: set[int] = field(default_factory=set)
    info: dict = field(default_factory=dict)

    def need(self, ok: bool, msg: str) -> bool:
        if not ok:
            self.faults.append(msg)
        return ok


def rel(x: complex, ref: complex) -> float:
    return abs(x - ref) / abs(ref)


def forms_of(records) -> list[tuple[int, int, int]]:
    """The (a, b, c) of each record of a geodesic or ball enumeration."""
    out = []
    for r in records:
        obj = r.point if hasattr(r, "point") else r.curve
        out.append(obj.form.triple())
    return out


def incidence_faults(forms, base: tuple[int, int, int], sign: int, delta: float) -> list[str]:
    """Primitive, a >= 1, 0 < sign * D <= delta, 2aC0 + 2cA0 = bB0, no repeats."""
    A0, B0, C0 = base
    bad = []
    for a, b, c in forms:
        D = b * b - 4 * a * c
        if a < 1 or math.gcd(math.gcd(a, b), c) != 1 or not 0 < sign * D <= delta:
            bad.append((a, b, c))
        elif 2 * a * C0 + 2 * c * A0 != b * B0:
            bad.append((a, b, c))
    out = [f"{len(bad)} forms off the incidence lattice, e.g. {bad[:3]}"] if bad else []
    if len(set(forms)) != len(forms):
        out.append(f"{len(forms) - len(set(forms))} repeated forms")
    return out


# ---------------------------------------------------------------------------
# wset-sweep


def _csv_rows(text: str) -> tuple[np.ndarray, np.ndarray]:
    lines = text.splitlines()
    if not lines or lines[0] != "m,n,t,value,extra":
        raise ValueError("bad CSV header")
    mn = [line.split(",", 2)[:2] for line in lines[1:]]
    m = np.array([int(p[0]) for p in mn], dtype=np.int64)
    n = np.array([int(p[1]) for p in mn], dtype=np.int64)
    return m, n


def check_wset_sweep(ops: list[Op], results: list, v: Verdict) -> None:
    by_case: dict[str, dict] = {}
    for op, res in zip(ops, results):
        if "case" in op.args:
            key = "verify" if op.label.startswith("verify") else op.args["fmt"]
            got = by_case.setdefault(op.args["case"], {"args": op.args})
            got[key] = res
            if key == "verify":
                got["ladder"] = op.args["ladder"]
    ties_total = 0
    for case, got in by_case.items():
        (A, B, C), (lo, hi, wrap), delta = got["args"]["F"], got["args"]["I"], got["args"]["delta"]
        a, b, c, Delta = O.scaled_form(A, B, C, delta)
        rc, out, _ = got["csv"]
        if not v.need(rc == 0, f"{case}: wset csv exit {rc}"):
            continue
        m, n = _csv_rows(out)
        exempt = None
        if not all(float(x).is_integer() for x in (A, B, C)):
            fv = A * (m * m).astype(float) + B * (m * n).astype(float) + C * (n * n).astype(float)
            exempt = np.abs(fv - delta) < 1e-9 * delta
            ties_total += int(exempt.sum())
        for f in O.w_row_faults(m, n, a, b, c, Delta, lo, hi, wrap, exempt):
            v.faults.append(f"{case}: {f}")
        exact = O.w_count(a, b, c, Delta, lo, hi, wrap)
        v.need(len(m) == exact, f"{case}: {len(m)} rows, exact count {exact}")
        mu = O.mu_quad(A, B, C, lo, hi, wrap)
        main = 3 * delta / math.pi**2 * mu
        v.need(abs(len(m) - main) <= math.sqrt(delta) * math.log(delta) ** 2,
               f"{case}: count {len(m)} far from main term {main:.1f}")
        rc, out, _ = got["json"]
        if v.need(rc == 0, f"{case}: wset json exit {rc}"):
            doc = json.loads(out)
            rec = doc["records"]
            v.need(doc["schema"] == 1, f"{case}: json schema {doc['schema']}")
            v.need([r[0] for r in rec] == m.tolist() and [r[1] for r in rec] == n.tolist(),
                   f"{case}: json records differ from csv rows")
            v.need(doc["report"]["empirical"] == len(m), f"{case}: json report count")
        rc, out, _ = got["verify"]
        if v.need(rc == 0, f"{case}: verify exit {rc}"):
            emp = [int(w.split("=")[1]) for w in out.split() if w.startswith("empirical=")]
            ladder = got["ladder"]
            v.need(emp[-1] == len(m), f"{case}: verify counts {emp[-1]}, wset {len(m)}")
            small = O.w_count(*O.scaled_form(A, B, C, ladder[0]), lo, hi, wrap)
            v.need(emp[0] == small, f"{case}: verify at {ladder[0]} counts {emp[0]}, exact {small}")
    v.info["tie_band_rows"] = ties_total

    res = {op.label: (op, r) for op, r in zip(ops, results)}
    if "phi_sieve" not in res:
        return
    op, table = res["phi_sieve"]
    T = op.args["T"]
    phi = O.totients(T)
    v.need(table.limit == T and np.array_equal(np.asarray(table.values[: T + 1]), phi),
           "phi_sieve table differs from the independent sieve")
    exact, main = res["sum_phi"][1]
    v.need(exact == O.phi_sum(T), f"sum_phi {exact} differs from the Phi recursion")
    v.need(rel(main, 3 * T * T / math.pi**2) < 1e-12, "sum_phi main term")
    op, (wexact, _) = res["weighted_sqrt_sum"]
    w = op.args
    n = np.arange(1, T + 1, dtype=np.float64)
    ref = float((phi[1:] * np.sqrt(w["D"] + 4 * w["A"] * w["delta"] / (n * n))).sum())
    v.need(rel(wexact, ref) < 1e-9, f"weighted_sqrt_sum {wexact} vs {ref}")


# ---------------------------------------------------------------------------
# geodesic-arcs


def _u(theta: float) -> float:
    return math.log(math.tan(theta / 2))


def check_geodesic_arcs(ops: list[Op], results: list, v: Verdict, seed: int) -> None:
    import linnikgeo

    pells = {}

    def pell(D):
        if D not in pells:
            t, u = O.pell4(D)
            pells[D] = (t, u, 2 * O.log_eps(D, t, u))
        return pells[D]

    quads = {}

    def jquad(form):
        if form not in quads:
            a, b, c = form
            t, u, _ = pell(b * b - 4 * a * c)
            quads[form] = O.cycle_integral_j(form, t, u)
        return quads[form]

    for op, res in zip(ops, results):
        lab, args = op.label, op.args
        if lab.startswith("cm_count_closed"):
            cg, (count, predicted) = res
            a, b, c = args["form"]
            D = b * b - 4 * a * c
            t, u, L = pell(D)
            v.need((cg.pell.t0, cg.pell.u0) == (t, u), f"{lab}: Pell {cg.pell} vs ({t}, {u})")
            v.faults += [f"{lab}: {f}" for f in O.stabilizer_faults(args["form"], cg.gamma, t, u)]
            main = O.closed_count_main(D, L, args["delta"])
            v.need(rel(count, main) <= 0.05, f"{lab}: count {count} vs main term {main:.1f}")
            v.need(rel(predicted, main) < 1e-9, f"{lab}: predicted {predicted} vs {main}")
        elif lab.startswith("cycle_value"):
            (est,), quad = res
            a, b, c = args["form"]
            t, u, L = pell(b * b - 4 * a * c)
            ref = jquad(args["form"]) if args["f"] == "j" else L
            v.need(est[0] == args["delta"], f"{lab}: estimate at delta {est[0]}")
            v.need(rel(est[1], ref) <= (0.05 if args["f"] == "j" else 0.03),
                   f"{lab}: CM average {est[1]} vs cycle integral {ref}")
            v.need(rel(quad, ref) < 1e-6, f"{lab}: quadrature {quad} vs {ref}")
        elif lab == "enum_cm_on_geodesic-arc":
            arc, delta = args["arc"], args["delta"]
            forms = forms_of(res)
            v.faults += [f"{lab}: {f}" for f in incidence_faults(forms, (1, 0, -1), -1, delta)]
            v.need(set(forms) == O.cm_on_unit_circle(delta, arc),
                   f"{lab}: set differs from the (a, b, a) lattice")
            th = np.array([r.coord for r in res])
            x = np.array([-f[1] / (2 * f[0]) for f in forms])
            v.need(bool((np.abs(np.cos(th) - x) < 1e-9).all()), f"{lab}: coordinates off the forms")
            spread = O.bucket_spread(np.log(np.tan(th / 2)), _u(arc[0]), _u(arc[1]))
            v.info["unit_arc_bucket_spread"] = spread
            v.need(spread <= 0.03, f"{lab}: 8 equal-measure buckets spread {spread:.4f}")
            rng = random.Random(seed)
            worst = 0.0
            for r in rng.sample(list(res), 64):
                # relative to max(|j|, 1728): j vanishes at the images of rho
                z, ref = r.point.z, O.j_mp(r.point.z)
                err = abs(complex(linnikgeo.j_invariant(z)) - ref) / max(abs(ref), 1728.0)
                worst = max(worst, err)
            v.info["j_max_rel_err"] = worst
            v.need(worst < 1e-9, f"j_invariant off mpmath by {worst:.2e}")
        elif lab == "enum_cm_on_geodesic-halfline":
            forms = forms_of(res)
            v.faults += [f"{lab}: {f}" for f in incidence_faults(forms, (0, 1, 0), -1, args["delta"])]
            v.need(set(forms) == O.cm_on_imaginary_axis(args["delta"]),
                   f"{lab}: set differs from the (a, 0, c) lattice")
            y = np.array([r.coord for r in res])
            spread = O.bucket_spread(np.log(y), math.log(0.25), math.log(4.0))
            v.info["halfline_bucket_spread"] = spread
            v.need(spread <= 0.03, f"{lab}: 8 equal-measure buckets spread {spread:.4f}")
        elif lab == "enum_rm_perp_geodesic-arc":
            arc = args["arc"]
            forms = forms_of(res)
            v.faults += [f"{lab}: {f}" for f in incidence_faults(forms, (1, 0, -1), 1, args["delta"])]
            v.need(set(forms) == O.rm_perp_unit_circle(args["delta"], arc),
                   f"{lab}: set differs from the (a, b, a) lattice")
            th = np.array([r.coord for r in res])
            spread = O.bucket_spread(np.log(np.tan(th / 2)), _u(arc[0]), _u(arc[1]))
            v.info["perp_arc_bucket_spread"] = spread
            v.need(spread <= 0.03, f"{lab}: 8 equal-measure buckets spread {spread:.4f}")
        elif lab == "cli-cycle":
            rc, out, _ = res
            if v.need(rc == 0, f"{lab}: exit {rc}"):
                doc = json.loads(out)
                a, b, c = args["form"]
                D = b * b - 4 * a * c
                t, u, L = pell(D)
                p = doc["pell"]
                v.need((p["D"], p["t0"], p["u0"]) == (D, t, u), f"{lab}: Pell {p}")
                v.need(rel(p["length"], L) < 1e-9, f"{lab}: length {p['length']} vs {L}")
                ref = jquad(args["form"])
                d, re, im = doc["estimates"][0]
                v.need(d == args["delta"] and rel(complex(re, im), ref) <= 0.05,
                       f"{lab}: estimate {re}{im:+}i vs {ref}")
                v.need(rel(complex(*doc["quadrature"]), ref) < 1e-6, f"{lab}: quadrature")
        elif lab == "cli-render":
            rc, out, _ = res
            if v.need(rc == 0, f"{lab}: exit {rc}"):
                root = ET.fromstring(out)
                dots = [e for e in root.iter() if e.tag.endswith("circle")]
                want = len(O.cm_on_unit_circle(args["delta"], args["arc"]))
                v.need(len(dots) == want, f"{lab}: {len(dots)} points drawn, lattice has {want}")


# ---------------------------------------------------------------------------
# point-ball


def check_point_ball(ops: list[Op], results: list, v: Verdict) -> None:
    for op, res in zip(ops, results):
        lab, args = op.label, op.args
        if lab.startswith("enum_rm_through_point"):
            forms = forms_of(res)
            v.faults += [f"{lab}: {f}" for f in incidence_faults(forms, args["form"], 1, args["delta"])]
            want = O.rm_through_count(args["point"], args["delta"])
            v.need(len(forms) == want, f"{lab}: {len(forms)} curves, lattice count {want}")
            spread = O.mean_spread(np.array([r.angle for r in res]), 0.0, math.pi)
            v.info[f"angle_spread_{args['point']}"] = spread
            v.need(spread <= 0.03, f"{lab}: angle histogram off uniform by {spread:.4f}")
            continue
        forms = forms_of(res)
        x0, y0 = args["center"]
        disk = O.ball_disk(x0, y0, BALL_RADIUS)
        if "D" in args:
            D = args["D"]
            v.need(set(forms) == O.cm_in_disk_single(D, disk),
                   f"{lab} D={D}: set differs from the (a, b) loop")
            v.need(all(b * b - 4 * a * c == D for a, b, c in forms), f"{lab}: wrong D")
            v.need(len(set(forms)) == len(forms), f"{lab}: repeated forms")
            continue
        delta = args["delta"]
        bad = 0
        xc, yc, rc = disk
        for a, b, c in forms:
            D = b * b - 4 * a * c
            x, y = -b / (2 * a), math.sqrt(-D) / (2 * a) if D < 0 else 0.0
            if (a < 1 or math.gcd(math.gcd(a, b), c) != 1 or not -delta <= D < 0
                    or (x - xc) ** 2 + (y - yc) ** 2 > rc * rc * (1 + 1e-12)):
                bad += 1
        v.need(bad == 0, f"{lab}: {bad} points not primitive, of wrong D or outside the disk")
        v.need(len(set(forms)) == len(forms), f"{lab}: repeated forms")
        want = O.cm_in_disk_count(delta, disk)
        v.need(len(forms) == want, f"{lab}: {len(forms)} points, lattice count {want}")
        main = O.ball_main(BALL_RADIUS, delta)
        v.info[f"ball_rel_dev_{args['point']}"] = rel(len(forms), main)
        v.need(rel(len(forms), main) <= 0.01, f"{lab}: {len(forms)} points vs main term {main:.1f}")


# ---------------------------------------------------------------------------
# many-small


def _unit_power(D: int, t: int, u: int, t0: int, u0: int) -> int:
    """k > 1 with (t0 + u0 sqrt D)/2 = ((t + u sqrt D)/2)^k, or 0."""
    pt, pu, k = t, u, 1
    while pt < t0:
        pt, pu, k = (pt * t + D * pu * u) // 2, (pt * u + pu * t) // 2, k + 1
    return k if (pt, pu) == (t0, u0) and k > 1 else 0


def check_many_small(ops: list[Op], results: list, v: Verdict) -> None:
    squared = []
    for i, (op, res) in enumerate(zip(ops, results)):
        args = op.args
        if op.label == "enumerate_W":
            lo, hi, wrap = args["I"]
            got = [(f.m, f.n) for f in res]
            want = O.w_brute(*args["F"], args["delta"], lo, hi, wrap)
            if got != want:
                v.faults.append(f"enumerate_W{args['F']} delta={args['delta']} I={args['I']}: "
                                f"{len(got)} fractions, double loop finds {len(want)}")
            elif any(f.t != f.m / f.n for f in res):
                v.faults.append(f"enumerate_W{args['F']}: t differs from m/n")
            continue
        D, cg = args["D"], res
        t, u = O.pell4(D)
        t0, u0 = cg.pell.t0, cg.pell.u0
        if (t0, u0) != (t, u):
            k = _unit_power(D, t, u, t0, u0)
            if k:
                # known fault (README): a power of the fundamental unit
                v.failed.add(i)
                squared.append(D)
            else:
                v.faults.append(f"closed_geodesic D={D}: Pell ({t0}, {u0}) vs ({t}, {u})")
            t, u = t0, u0
        v.faults += [f"closed_geodesic D={D}: {f}" for f in O.stabilizer_faults(args["form"], cg.gamma, t, u)]
    v.info["pell_not_fundamental"] = squared


CHECKS = {
    "wset-sweep": lambda ops, res, v, seed: check_wset_sweep(ops, res, v),
    "many-small": lambda ops, res, v, seed: check_many_small(ops, res, v),
    "geodesic-arcs": check_geodesic_arcs,
    "point-ball": lambda ops, res, v, seed: check_point_ball(ops, res, v),
}


def check(ops: list[Op], results: list, seed: int) -> Verdict:
    """Run each part's checks on its own operations."""
    v = Verdict()
    for part, run in CHECKS.items():
        idx = [i for i, op in enumerate(ops) if op.part == part]
        sub = Verdict(v.faults, set(), v.info)
        run([ops[i] for i in idx], [results[i] for i in idx], sub, seed)
        v.failed |= {idx[i] for i in sub.failed}
    return v
