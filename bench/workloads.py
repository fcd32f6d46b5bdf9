"""The two workloads: seeded inputs and the operations one pass runs.

An operation is a call into the public API (a name exported by linnikgeo,
or linnikgeo.cli.main called in-process with its output captured).  The
seed moves the inputs only a little (delta by up to 1 %, which instances
many-small draws), so the work of a pass is nearly the same on every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

INF = math.inf



@dataclass
class Op:
    label: str
    run: Callable[[dict], Any]  # takes the pass's shared state, returns the output
    args: dict = field(default_factory=dict)  # the inputs, for the checks
    count: Callable[[Any], int] = len  # objects the output returns or counts
    part: str = ""  # the group of operations (and of checks) it belongs to


def csv_rows(res) -> int:
    return res[1].count("\n") - 1


def json_records(res) -> int:
    return len(json.loads(res[1])["records"])


def verify_counted(res) -> int:
    return sum(int(w.split("=")[1]) for w in res[1].split() if w.startswith("empirical="))


def one(res) -> int:
    return 1


def nothing(res) -> int:
    return 0


def cli_call(argv: list[str]):
    """linnikgeo.cli.main in-process: (exit code, stdout, stderr)."""
    from linnikgeo import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _num(x: float) -> str:
    return "inf" if x == INF else ("-inf" if x == -INF else repr(x))


def _jitter(rng: random.Random, base: int, step: int) -> int:
    """base plus up to 10 steps: delta moves by at most 1 % between seeds."""
    return base + step * rng.randrange(11)


# ---------------------------------------------------------------------------
# wset-sweep

# the five reachable sign cases; linear and parabolic have non-integral
# (dyadic) coefficients and so take the float path of the scan
WSET_CASES = [
    ("linear", 0, 1.5, 0.25, 1.0, 1.0625, False),
    ("indefinite", 1, 0, -2, 24.0, INF, False),
    ("definite", 1, 0, 1, 48.0, -48.0, True),
    ("parabolic", 0.25, -1, 1, 6.0, 6.1875, False),
    ("cap", -1, 1, 1, 0.5, 0.546875, False),
]


def wset_sweep(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for case, A, B, C, lo, hi, wrap in WSET_CASES:
        delta = _jitter(rng, 1_000_000, 1000)
        form = ["-A", _num(A), "-B", _num(B), "-C", _num(C), "--lo", _num(lo), "--hi", _num(hi)]
        form += ["--wrap"] if wrap else []
        args = dict(case=case, F=(A, B, C), I=(lo, hi, wrap), delta=delta)
        for fmt in ("csv", "json"):
            argv = ["wset", *form, "--delta", str(delta), "--format", fmt]
            ops.append(Op(f"wset-{fmt}-{case}", lambda s, a=argv: cli_call(a), dict(args, fmt=fmt),
                          csv_rows if fmt == "csv" else json_records))
        ladder = [delta // 10, delta]
        argv = ["verify", *form, "--case", case, "--delta-ladder", ",".join(map(str, ladder))]
        ops.append(Op(f"verify-{case}", lambda s, a=argv: cli_call(a), dict(args, ladder=ladder),
                      verify_counted))

    T = _jitter(rng, 2_000_000, 2000)
    wdelta = T * T // 4  # the weighted sum then runs over 1 <= n <= T

    def sieve(s):
        import linnikgeo

        s["table"] = linnikgeo.phi_sieve(T)
        return s["table"]

    def sphi(s):
        import linnikgeo

        return linnikgeo.sum_phi(T, s["table"])

    def wsum(s):
        import linnikgeo

        return linnikgeo.weighted_sqrt_sum(1, 5, 0, 4, wdelta, s["table"])

    # totients and sums count as no outputs: outputs_per_s follows W-set rows
    ops.append(Op("phi_sieve", sieve, dict(T=T), nothing))
    ops.append(Op("sum_phi", sphi, dict(T=T), nothing))
    ops.append(Op("weighted_sqrt_sum", wsum, dict(T=T, A=1, D=5, s1=0, s2=4, delta=wdelta),
                  nothing))
    return ops


# ---------------------------------------------------------------------------
# geodesic-arcs

# D = 5, 8, 12, 13, 17; D = 17 has a long scan with few points per n
CLOSED = [((1, 1, -1), 50_000), ((1, 0, -2), 25_000), ((1, 0, -3), 50_000),
          ((1, 1, -3), 50_000), ((1, 1, -4), 5_000)]
UNIT_ARC = (0.3, 2.8)
PERP_ARC = (0.3, 1.2)


def geodesic_arcs(seed: int) -> list[Op]:
    import linnikgeo as L

    rng = random.Random(seed)
    ops = []
    for form, base in CLOSED:
        delta = _jitter(rng, base, base // 1000)

        def closed(s, f=form, d=delta):
            cg = L.closed_geodesic(L.IntForm(*f))
            return cg, L.cm_count_closed(cg, d)

        ops.append(Op(f"cm_count_closed-{form}", closed, dict(form=form, delta=delta),
                      lambda r: r[1][0] + 1))

    dj = _jitter(rng, 25_000, 25)
    ops.append(Op("cycle_value-j-D5", lambda s: L.cycle_value(
        L.ModularFunction("j", L.j_invariant), L.IntForm(1, 1, -1), [dj]),
        dict(form=(1, 1, -1), delta=dj, f="j"), one))
    d1 = _jitter(rng, 25_000, 25)
    ops.append(Op("cycle_value-one-D8", lambda s: L.cycle_value(
        L.ModularFunction("one", lambda z: 1 + 0j), L.IntForm(1, 0, -2), [d1]),
        dict(form=(1, 0, -2), delta=d1, f="one"), one))

    da = _jitter(rng, 50_000, 50)
    ops.append(Op("enum_cm_on_geodesic-arc", lambda s: L.enum_cm_on_geodesic(
        L.IntForm(1, 0, -1), da, arc=UNIT_ARC), dict(delta=da, arc=UNIT_ARC)))
    dh = _jitter(rng, 5_000, 5)
    ops.append(Op("enum_cm_on_geodesic-halfline", lambda s: L.enum_cm_on_geodesic(
        L.IntForm(0, 1, 0), dh), dict(delta=dh)))
    dp = _jitter(rng, 50_000, 50)
    ops.append(Op("enum_rm_perp_geodesic-arc", lambda s: L.enum_rm_perp_geodesic(
        L.IntForm(1, 0, -1), dp, arc=PERP_ARC), dict(delta=dp, arc=PERP_ARC)))

    dc = _jitter(rng, 5_000, 5)
    argv = ["cycle", "-A", "1", "-B", "1", "-C", "-1", "--f", "j",
            "--delta-ladder", str(dc), "--format", "json"]
    ops.append(Op("cli-cycle", lambda s: cli_call(argv), dict(form=(1, 1, -1), delta=dc), one))
    dr = _jitter(rng, 2_000, 2)
    argv_r = ["render", "-A", "1", "-B", "0", "-C", "-1", "--delta", str(dr),
              "--mode", "cm", "--arc", f"{UNIT_ARC[0]},{UNIT_ARC[1]}", "--fd"]
    ops.append(Op("cli-render", lambda s: cli_call(argv_r), dict(delta=dr, arc=UNIT_ARC),
                  lambda r: r[1].count("<circle")))
    return ops


# ---------------------------------------------------------------------------
# point-ball

# the CM points i, rho and i*sqrt2 (stabilisers of order 2, 3 and 1)
POINTS = [("i", (1, 0, 1)), ("rho", (1, 1, 1)), ("i*sqrt2", (1, 0, 2))]
BALL_RADIUS = 1.0


def point_xy(form: tuple[int, int, int]) -> tuple[float, float]:
    a, b, c = form
    return -b / (2 * a), math.sqrt(4 * a * c - b * b) / (2 * a)


def ball_discriminants(k: int = 1) -> list[int]:
    """The k fundamental discriminants just below -40000.  They are the same
    on every seed, because the cost of a single-D ball follows the
    arithmetic of D."""
    from oracles import fundamental_negative

    out, D = [], -40_000
    while len(out) < k:
        D -= 1
        if fundamental_negative(D):
            out.append(D)
    return out


def point_ball(seed: int) -> list[Op]:
    import linnikgeo as L

    rng = random.Random(seed)
    ops = []
    for name, form in POINTS:
        delta = _jitter(rng, 100_000, 100)
        ops.append(Op(f"enum_rm_through_point-{name}", lambda s, f=form, d=delta:
                      L.enum_rm_through_point(L.IntForm(*f), d),
                      dict(point=name, form=form, delta=delta)))
    for name, form in POINTS:
        x, y = point_xy(form)
        delta = _jitter(rng, 1_500, 1)
        ops.append(Op(f"enum_cm_in_ball-delta-{name}", lambda s, x=x, y=y, d=delta:
                      L.enum_cm_in_ball(L.PointH(x, y), BALL_RADIUS, delta=d),
                      dict(point=name, center=(x, y), delta=delta)))
        for D in ball_discriminants():
            ops.append(Op(f"enum_cm_in_ball-D-{name}", lambda s, x=x, y=y, D=D:
                          L.enum_cm_in_ball(L.PointH(x, y), BALL_RADIUS, D=D),
                          dict(point=name, center=(x, y), D=D)))
    return ops


# ---------------------------------------------------------------------------
# many-small

N_SMALL = 2000


def _up8(x: float) -> float:
    return math.ceil(x * 8) / 8


def _down8(x: float) -> float:
    return math.floor(x * 8) / 8


def small_instance(rng: random.Random):
    """A random (A, B, C), delta <= 2000 and interval on which W is well
    defined: the interval stays at least 1/16 away from every root of F."""
    case = rng.choice(("linear", "indefinite", "definite", "parabolic", "cap"))
    delta = rng.randint(200, 2000)
    off = rng.randint(2, 8) / 8
    width = rng.randint(1, 16) / 8
    if case == "linear":
        B = rng.choice((-3, -2, -1, 1, 2, 3))
        C = rng.randint(-4, 4)
        root = -C / B
        if B > 0:
            lo = _up8(root) + off
            return (0, B, C), delta, (lo, lo + width, False)
        hi = _down8(root) - off
        return (0, B, C), delta, (hi - width, hi, False)
    if case == "parabolic":
        k, l = rng.randint(1, 2), rng.randint(-3, 3)
        A, B, C = k * k, 2 * k * l, l * l
        r1 = r2 = -l / k
    else:
        while True:
            A = rng.randint(1, 3) * (-1 if case == "cap" else 1)
            B, C = rng.randint(-5, 5), rng.randint(-5, 5)
            D = B * B - 4 * A * C
            if case == "definite" and D < 0:
                break
            if case == "indefinite" and D > 0:
                break
            if case == "cap" and D > 0 and math.sqrt(D) / -A >= 1:
                break
        if case == "definite":
            if rng.random() < 0.3:
                lo = rng.randint(1, 32) / 8
                return (A, B, C), delta, (lo, -rng.randint(1, 32) / 8, True)
            lo = rng.randint(-32, 31) / 8
            return (A, B, C), delta, (lo, lo + width, False)
        sd = math.sqrt(D)
        r1, r2 = sorted(((-B - sd) / (2 * A), (-B + sd) / (2 * A)))
        if case == "cap":
            lo = _up8(r1 + 1 / 16)
            hi = _down8(r2 - 1 / 16)
            lo2 = min(hi - 1 / 8, lo + rng.randint(0, 8) / 8)
            return (A, B, C), delta, (lo2, min(hi, lo2 + width), False)
    side = rng.choice(("right", "left", "wrap"))
    if side == "right":
        lo = _up8(r2) + off
        return (A, B, C), delta, (lo, lo + width, False)
    if side == "left":
        hi = _down8(r1) - off
        return (A, B, C), delta, (hi - width, hi, False)
    return (A, B, C), delta, (_up8(r2) + off, _down8(r1) - off, True)


def valid_discriminants(limit: int = 1000) -> list[int]:
    return [D for D in range(5, limit + 1)
            if D % 4 in (0, 1) and math.isqrt(D) ** 2 != D]


def many_small(seed: int) -> list[Op]:
    import linnikgeo as L
    from oracles import principal_form

    rng = random.Random(seed)
    ops = []
    for _ in range(N_SMALL):
        F, delta, I = small_instance(rng)
        ops.append(Op("enumerate_W", lambda s, F=F, d=delta, I=I:
                      L.enumerate_W(L.RealForm(*F), d, L.ProjInterval(*I)),
                      dict(F=F, delta=delta, I=I)))
    for D in valid_discriminants():
        f = principal_form(D)
        ops.append(Op("closed_geodesic", lambda s, f=f: L.closed_geodesic(L.IntForm(*f)),
                      dict(D=D, form=f), one))
    return ops


PARTS = {
    "wset-sweep": wset_sweep,
    "many-small": many_small,
    "geodesic-arcs": geodesic_arcs,
    "point-ball": point_ball,
}

# linnik-sets: W-set enumeration end to end, from the CLI at delta ~1e6 down
# to thousands of small calls, plus the totient sieve and Pell; geodesics:
# both theorems, on arcs and closed geodesics and around points.  Two long
# workloads rather than four short ones: the host's speed drifts, and only
# longer runs average that out.
WORKLOADS = {
    "linnik-sets": ("wset-sweep", "many-small"),
    "geodesics": ("geodesic-arcs", "point-ball"),
}


def make_ops(workload: str, seed: int) -> list[Op]:
    ops = []
    for part in WORKLOADS[workload]:
        for op in PARTS[part](seed):
            op.part = part
            ops.append(op)
    return ops
