"""Tests of the benchmark's own oracles and checks.

    python3 -m pytest bench -q

The oracles are tested against naive loops written here; each check is
shown to pass on linnikgeo's real output and to fail when that output is
corrupted by one dropped record, one duplicated record, or one record
moved outside the interval, arc, disk or incidence set it belongs to.
"""

import math
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import linnikgeo as L  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracles as O  # noqa: E402
from checks import Verdict, check_geodesic_arcs, check_many_small, check_point_ball, check_wset_sweep  # noqa: E402
from workloads import Op, WSET_CASES, cli_call, point_xy, small_instance  # noqa: E402


# ---------------------------------------------------------------------------
# oracles against naive loops


def naive_W(F, delta, I):
    (a, b, c), (lo, hi, wraps) = F, I
    lo, hi = Fraction(lo), Fraction(hi)
    out = []
    for n in range(1, 120):
        for m in range(-400, 401):
            if not 0 < a * m * m + b * m * n + c * n * n <= delta or math.gcd(m, n) != 1:
                continue
            t = Fraction(m, n)
            if (t >= lo or t <= hi) if wraps else lo <= t <= hi:
                out.append((m, n))
    return out


def test_w_brute_and_w_count_against_naive_loop():
    rng = random.Random(7)
    for _ in range(30):
        F, delta, I = small_instance(rng)
        delta = min(delta, 150)
        brute = O.w_brute(*F, delta, *I)
        assert sorted(brute) == sorted(naive_W(F, delta, I))
        assert O.w_count(*F, delta, *I) == len(brute)


def test_w_count_on_real_forms_and_unbounded_intervals():
    for case, A, B, C, lo, hi, wrap in WSET_CASES:
        a, b, c, D = O.scaled_form(A, B, C, 20_000)
        if math.isinf(hi):
            assert O.w_count(a, b, c, D, lo, hi, wrap) == O.w_count(a, b, c, D, lo, 10**6, wrap)
        else:
            assert O.w_count(a, b, c, D, lo, hi, wrap) == len(O.w_brute(a, b, c, D, lo, hi, wrap))


def test_pell4_is_the_least_solution():
    for D in range(5, 300):
        if D % 4 not in (0, 1) or math.isqrt(D) ** 2 == D:
            continue
        t, u = O.pell4(D)
        assert t * t - D * u * u == 4
        for v in range(1, min(u, 10**4)):
            assert math.isqrt(D * v * v + 4) ** 2 != D * v * v + 4


def test_totients_and_phi_sum():
    phi = O.totients(5000)
    assert all(phi[n] == O.totient(n) for n in range(1, 5001))
    assert O.phi_sum(5000) == int(phi.sum())


def _forms(pred, delta):
    """Primitive (a, b, c) with a >= 1 meeting pred, from a box that holds
    every form of |D| <= delta the incidence relations below allow."""
    return {(a, b, c) for a in range(1, 33) for b in range(-64, 65) for c in range(-32, 33)
            if math.gcd(math.gcd(a, b), c) == 1 and pred(a, b, c, b * b - 4 * a * c, delta)}


def test_incidence_lattices_against_triple_loops():
    delta = 120
    arc = (0.4, 2.5)
    cm = _forms(lambda a, b, c, D, d: c == a and -d <= D < 0
                and math.cos(arc[1]) < -b / (2 * a) < math.cos(arc[0]), delta)
    assert O.cm_on_unit_circle(delta, arc) == cm
    rm = _forms(lambda a, b, c, D, d: c == a and 0 < D <= d
                and math.cos(1.2) < -2 * a / b < math.cos(0.3), delta)
    assert O.rm_perp_unit_circle(delta, (0.3, 1.2)) == rm
    axis = _forms(lambda a, b, c, D, d: b == 0 and -d <= D < 0, delta)
    assert O.cm_on_imaginary_axis(delta) == axis
    for name, (A0, B0, C0) in (("i", (1, 0, 1)), ("rho", (1, 1, 1)), ("i*sqrt2", (1, 0, 2))):
        through = _forms(lambda a, b, c, D, d: 0 < D <= d and 2 * a * C0 + 2 * c * A0 == b * B0,
                         delta)
        assert O.rm_through_count(name, delta) == len(through)


def test_disk_loop_against_triple_loop():
    x, y = point_xy((1, 1, 1))
    disk = O.ball_disk(x, y, 1.0)
    xc, yc, rc = disk
    for D in (-163, -427, -1023):
        want = set()
        for a in range(1, 100):
            for b in range(-300, 301):
                if (b * b - D) % (4 * a) == 0:
                    c = (b * b - D) // (4 * a)
                    px, py = -b / (2 * a), math.sqrt(-D) / (2 * a)
                    if math.gcd(math.gcd(a, b), c) == 1 and (px - xc) ** 2 + (py - yc) ** 2 <= rc * rc:
                        want.add((a, b, c))
        assert O.cm_in_disk_single(D, disk) == want


# ---------------------------------------------------------------------------
# checks pass on real output and fail on corrupted output


def faults(check, ops, results, *extra):
    v = Verdict()
    check(ops, results, v, *extra)
    return v.faults


def corruptions(records, outsider):
    """The three corruptions: one record dropped, one duplicated, one replaced
    by a record from outside the set it should come from."""
    k = len(records) // 2
    return {
        "dropped": records[:k] + records[k + 1:],
        "duplicated": records[:k] + [records[k]] + records[k:],
        "moved": records[:k] + [outsider] + records[k + 1:],
    }


def test_many_small_check():
    rng = random.Random(3)
    ops, results = [], []
    for _ in range(20):
        F, delta, I = small_instance(rng)
        ops.append(Op("enumerate_W", None, dict(F=F, delta=delta, I=I)))
        results.append(L.enumerate_W(L.RealForm(*F), delta, L.ProjInterval(*I)))
    assert faults(check_many_small, ops, results) == []
    i = max(range(len(results)), key=lambda j: len(results[j]))
    fr = results[i]
    for name, bad in corruptions(fr, L.Frac.make(fr[0].m + 1000 * fr[0].n, fr[0].n)).items():
        assert faults(check_many_small, [ops[i]], [bad]), name


def test_many_small_pell_check():
    ops = [Op("closed_geodesic", None, dict(D=D, form=O.principal_form(D))) for D in (5, 13, 508)]
    v = Verdict()
    check_many_small(ops, [L.closed_geodesic(L.IntForm(*op.args["form"])) for op in ops], v)
    assert v.faults == [] and v.failed == {2}  # D = 508: the unit is squared
    cg = L.closed_geodesic(L.IntForm(1, 1, -3))
    bad = type(cg)(cg.form, cg.pell, ((1, 1), (0, 1)), cg.length)
    assert faults(check_many_small, ops[1:2], [bad])


def _csv_corruptions(text, outside_row):
    head, *rows = text.splitlines()
    k = len(rows) // 2
    return {
        "dropped": rows[:k] + rows[k + 1:],
        "duplicated": rows[:k] + [rows[k]] + rows[k:],
        "moved": rows[:k] + [outside_row] + rows[k + 1:],
    }


@pytest.mark.parametrize("case", [c[0] for c in WSET_CASES])
def test_wset_check(case):
    _, A, B, C, lo, hi, wrap = next(c for c in WSET_CASES if c[0] == case)
    delta = 20_000
    form = ["-A", repr(A), "-B", repr(B), "-C", repr(C), "--lo", repr(lo), "--hi", repr(hi)]
    form += ["--wrap"] if wrap else []
    args = dict(case=case, F=(A, B, C), I=(lo, hi, wrap), delta=delta)
    ops = [Op("wset-csv", None, dict(args, fmt="csv")), Op("wset-json", None, dict(args, fmt="json")),
           Op("verify", None, dict(args, ladder=[2000, delta]))]
    results = [cli_call(["wset", *form, "--delta", str(delta)]),
               cli_call(["wset", *form, "--delta", str(delta), "--format", "json"]),
               cli_call(["verify", *form, "--case", case, "--delta-ladder", f"2000,{delta}"])]
    assert faults(check_wset_sweep, ops, results) == []
    rc, text, err = results[0]
    m, n = map(int, text.splitlines()[1].split(",")[:2])
    outside = f"{m + 10**6 * n},{n},0,0,"
    for name, rows in _csv_corruptions(text, outside).items():
        bad = (rc, "\n".join(["m,n,t,value,extra", *rows]) + "\n", err)
        assert faults(check_wset_sweep, ops, [bad, *results[1:]]), name


def test_geodesic_arc_checks():
    arc = (0.3, 2.8)
    ops = [Op("enum_cm_on_geodesic-arc", None, dict(delta=3000, arc=arc)),
           Op("enum_cm_on_geodesic-halfline", None, dict(delta=3000)),
           Op("enum_rm_perp_geodesic-arc", None, dict(delta=20000, arc=(0.3, 1.2)))]
    results = [L.enum_cm_on_geodesic(L.IntForm(1, 0, -1), 3000, arc=arc),
               L.enum_cm_on_geodesic(L.IntForm(0, 1, 0), 3000),
               L.enum_rm_perp_geodesic(L.IntForm(1, 0, -1), 20000, arc=(0.3, 1.2))]
    # at these small deltas the 8 buckets are not yet within 3 %
    real = [f for f in faults(check_geodesic_arcs, ops, results, 1) if "bucket" not in f]
    assert real == []
    outsiders = [L.enum_cm_on_geodesic(L.IntForm(1, 0, -1), 3000, arc=(0.05, 0.29))[0],
                 L.enum_cm_on_geodesic(L.IntForm(0, 1, 0), 6000)[-1],
                 L.enum_rm_perp_geodesic(L.IntForm(1, 0, -1), 20000, arc=(1.25, 1.5))[0]]
    for op, res, out in zip(ops, results, outsiders):
        for name, bad in corruptions(res, out).items():
            got = [f for f in faults(check_geodesic_arcs, [op], [bad], 1) if "bucket" not in f]
            assert got, (op.label, name)


def test_closed_geodesic_checks():
    cg = L.closed_geodesic(L.IntForm(1, 0, -2))
    op = Op("cm_count_closed-(1, 0, -2)", None, dict(form=(1, 0, -2), delta=20000))
    count = L.cm_count_closed(cg, 20000)
    assert faults(check_geodesic_arcs, [op], [(cg, count)], 1) == []
    assert faults(check_geodesic_arcs, [op], [(cg, (int(count[0] * 0.9), count[1]))], 1)


def test_point_and_ball_checks():
    x, y = point_xy((1, 0, 2))
    ops = [Op("enum_rm_through_point-i*sqrt2", None, dict(point="i*sqrt2", form=(1, 0, 2), delta=50000)),
           Op("enum_cm_in_ball-delta-i*sqrt2", None, dict(point="i*sqrt2", center=(x, y), delta=800)),
           Op("enum_cm_in_ball-D-i*sqrt2", None, dict(point="i*sqrt2", center=(x, y), D=-20003))]
    results = [L.enum_rm_through_point(L.IntForm(1, 0, 2), 50000),
               L.enum_cm_in_ball(L.PointH(x, y), 1.0, delta=800),
               L.enum_cm_in_ball(L.PointH(x, y), 1.0, D=-20003)]
    assert faults(check_point_ball, ops, results) == []
    outsiders = [L.enum_rm_through_point(L.IntForm(1, 0, 1), 100)[0],
                 L.enum_cm_in_ball(L.PointH(x, y), 1.5, delta=800)[-1],
                 next(r for r in L.enum_cm_in_ball(L.PointH(x, y), 1.5, D=-20003)
                      if r not in results[2])]
    for op, res, out in zip(ops, results, outsiders):
        for name, bad in corruptions(res, out).items():
            assert faults(check_point_ball, [op], [bad]), (op.label, name)


def test_bucket_spread_sees_a_gap():
    u = np.linspace(0, 1, 8000, endpoint=False)
    assert O.bucket_spread(u, 0, 1) == 0
    assert O.bucket_spread(u[u > 0.05], 0, 1) > 0.03
