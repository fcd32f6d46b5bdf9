"""Enumeration of CM points and RM curves attached to a rational geodesic.

A normalized form G = (A0, B0, C0) with D0 > 0 fixes a geodesic; a form with
D0 < 0 fixes a CM point.  The incident objects (CM points on the geodesic,
RM curves hitting it perpendicularly, RM curves through the point) are the
integer solutions of 2aC0 + 2cA0 = bB0, which are parametrized by coprime
pairs (m, n) through a Bezout choice.  The derived real form (A, B, C) below
turns each family into an aggregate-Linnik set in t = m/n, so the linnik
engine does the heavy lifting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    GridTouchesSingularity,
    IntervalTouchesRoot,
    UnboundedDivergence,
    WrongDiscriminantSign,
)
from .forms import CMPoint, IntForm, RMCurve, is_normalized, RealForm
from .hyperbolic import BallE, PointH, ang_p, ball, perp_foot
from .linnik import (
    Frac,
    ProjInterval,
    QuadCase,
    _min_on_closure,
    _run_scan,
    _sort_along,
)
from .numtheory import ext_gcd

CM_ON_G = "cm-on-geodesic"
RM_PERP_G = "rm-perp-geodesic"
RM_THROUGH_P = "rm-through-point"


@dataclass(frozen=True)
class GeodesicParam:
    """Bezout parametrization of the forms incident to a base form."""

    base: IntForm
    mode: str
    pqr: tuple[int, ...]  # (P, Q, R), or (P, Q) for a half-line base
    S: int
    bezout: tuple[int, int]
    derived: tuple[int, int, int]

    @property
    def half_line(self) -> bool:
        return len(self.pqr) == 2

    @property
    def derivedD(self) -> int:
        A, B, C = self.derived
        return B * B - 4 * A * C

    @property
    def derived_form(self) -> RealForm:
        return RealForm(*self.derived)


def build_param(G: IntForm, mode: str) -> GeodesicParam:
    """Set up (P, Q, R), the Bezout pair, and the derived (A, B, C)."""
    if mode not in (CM_ON_G, RM_PERP_G, RM_THROUGH_P):
        raise ValueError(f"unknown mode {mode!r}")
    if not is_normalized(*G.triple()):
        raise ValueError(f"{G} is not normalized")
    D0 = G.discriminant()
    if mode == RM_THROUGH_P:
        if D0 >= 0:
            raise WrongDiscriminantSign(f"point mode needs D0 < 0, got {D0}")
    elif D0 <= 0:
        raise WrongDiscriminantSign(f"geodesic mode needs D0 > 0, got {D0}")
    A0, B0, C0 = G.triple()
    if A0 == 0:
        # half-line x = -C0/B0
        g = math.gcd(B0, 2)
        sg = 1 if B0 > 0 else -1
        P, Q = sg * 2 * C0 // g, sg * B0 // g
        derived = (0, 4 * Q, P * P)
        return GeodesicParam(G, mode, (P, Q), 1, (0, 0), derived)
    g = math.gcd(D0, 2)
    # all three entries are divisible by g: D0 even forces B0 even
    P, Q, R = -2 * C0 // g, -B0 // g, 2 * A0 // g
    S, b0, c0 = ext_gcd(Q, R)
    A = (R // S) ** 2
    B = 2 * P * b0 * (R // S) + 4 * Q
    C = P * P * b0 * b0 - 4 * S * P * c0
    assert B * B - 4 * A * C == 16 * D0 // (g * g)
    return GeodesicParam(G, mode, (P, Q, R), S, (b0, c0), (A, B, C))


def mn_to_form(param: GeodesicParam, m: int, n: int) -> IntForm:
    """The incident form for the pair (m, n); its discriminant is F(m, n)
    with F the derived form."""
    if param.half_line:
        P, Q = param.pqr
        return IntForm(n * Q, n * P, -m)
    P, Q, R = param.pqr
    S = param.S
    b0, c0 = param.bezout
    return IntForm(n * S, n * P * b0 + m * (R // S), n * P * c0 - m * (Q // S))


# ---------------------------------------------------------------------------
# coordinate maps along the base geodesic


def coord_of_t(param: GeodesicParam, t: float) -> float:
    """theta along a semicircle base (y along a half-line base) at t = m/n."""
    A, B, C = param.derived
    if param.half_line:
        if param.mode == CM_ON_G:
            return math.sqrt(-4 / B * t - 4 * C / (B * B))
        return math.sqrt(4 / B * t + 4 * C / (B * B))
    D = param.derivedD
    if param.mode == CM_ON_G:
        return math.acos((-B - 2 * A * t) / math.sqrt(D))
    if param.mode == RM_PERP_G:
        return math.acos(-math.sqrt(D) / (2 * A * t + B))
    F = (A * t + B) * t + C
    return math.acos((B + 2 * A * t) / (2 * math.sqrt(A) * math.sqrt(F)))


def t_of_coord(param: GeodesicParam, coord: float) -> float:
    """Inverse of coord_of_t on the admissible range."""
    A, B, C = param.derived
    if param.half_line:
        if param.mode == CM_ON_G:
            return -B * coord * coord / 4 - C / B
        return B * coord * coord / 4 - C / B
    D = param.derivedD
    if param.mode == CM_ON_G:
        return (-B - math.sqrt(D) * math.cos(coord)) / (2 * A)
    if param.mode == RM_PERP_G:
        c = math.cos(coord)
        if c == 0:
            raise DomainError("theta = pi/2 maps to t = infinity")
        return (-B - math.sqrt(D) / c) / (2 * A)
    return (-B + math.sqrt(-D) / math.tan(coord)) / (2 * A)


def _arc_interval(param: GeodesicParam, arc: tuple[float, float]) -> ProjInterval:
    """Translate a coordinate window into a t-interval for the scan."""
    c1, c2 = arc
    if not c1 < c2:
        raise DomainError(f"arc needs c1 < c2, got {arc}")
    if param.half_line:
        if not c1 > 0:
            raise DomainError("half-line arc needs y > 0")
    elif not (0 < c1 and c2 < math.pi):
        raise DomainError("semicircle arc needs 0 < theta1 < theta2 < pi")
    if param.mode == RM_PERP_G and not param.half_line:
        # theta = pi/2 is the point at infinity of the t-line
        if c1 == math.pi / 2 or c2 == math.pi / 2:
            raise DomainError("arc endpoint at theta = pi/2 maps to infinity")
        if c1 < math.pi / 2 < c2:
            return ProjInterval(t_of_coord(param, c2), t_of_coord(param, c1), True)
    t1, t2 = t_of_coord(param, c1), t_of_coord(param, c2)
    return ProjInterval(min(t1, t2), max(t1, t2))


# ---------------------------------------------------------------------------
# enumeration


class CMOnGeodesic(NamedTuple):
    point: CMPoint
    frac: Frac
    coord: float


class RMPerpGeodesic(NamedTuple):
    curve: RMCurve
    frac: Frac
    foot: PointH
    coord: float


class RMThroughPoint(NamedTuple):
    curve: RMCurve
    frac: Frac
    angle: float


class CMInBall(NamedTuple):
    point: CMPoint
    angle: float


def _scan_form(param: GeodesicParam) -> RealForm:
    """Form whose values must land in (0, delta]: the derived form for RM
    families, its negation for CM families (discriminants are negative)."""
    A, B, C = param.derived
    if param.mode == CM_ON_G:
        return RealForm(-A, -B, -C)
    return RealForm(A, B, C)


def _full_interval(param: GeodesicParam) -> ProjInterval:
    """Positivity region of the scan form, closure touching its roots."""
    A, B, C = param.derived
    if param.half_line:
        root = -C / (4 * (param.pqr[1]))  # -C/B with B = 4Q
        return ProjInterval(-math.inf, root) if param.mode == CM_ON_G else ProjInterval(root, math.inf)
    D = param.derivedD
    if param.mode == RM_THROUGH_P:
        return ProjInterval(-math.inf, math.inf)
    sd = math.sqrt(D)
    lo, hi = (-B - sd) / (2 * A), (-B + sd) / (2 * A)
    if param.mode == CM_ON_G:
        return ProjInterval(lo, hi)
    return ProjInterval(hi, lo, True)


def _full_n_max(param: GeodesicParam, delta: float) -> int:
    """n-bound for a root-touching scan: needs |derived value| >= 1 to close.

    Half-line values factor as n * (integer); semicircle values need the
    derived discriminant to be a perfect square (rational endpoints), else
    the solution set is infinite and an arc is mandatory.
    """
    if param.half_line:
        return math.floor(delta)
    D = param.derivedD
    if param.mode == RM_THROUGH_P:
        A = param.derived[0]
        return math.isqrt(math.floor(4 * A * delta / -D))
    s = math.isqrt(D)
    if s * s != D:
        raise UnboundedDivergence(
            f"derived discriminant {D} is not a square: infinitely many "
            "solutions; restrict to an arc"
        )
    A = param.derived[0]
    # 4*A*value = u*v with 2*sqrt(D)*n = v - u and 1 <= |u*v| <= 4*A*delta
    m4ad = 4 * A * delta
    return math.floor((m4ad + math.sqrt(m4ad)) / (2 * s)) + 1


_NO_PAIRS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))


def _enum_pairs(
    param: GeodesicParam,
    delta: float,
    arc: tuple[float, float] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (ms, ns, t = ms / ns) of the incident pairs, sorted along t."""
    if not math.isfinite(delta):
        raise DomainError(f"delta must be finite, got {delta}")
    if delta < 1:
        return _NO_PAIRS
    F = _scan_form(param)
    if arc is not None:
        I = _arc_interval(param, arc)
        minF = _min_on_closure(F, I)
        if minF <= 0:
            raise IntervalTouchesRoot(f"arc {arc} reaches the base endpoints")
        n_max = math.isqrt(math.floor(delta / minF))
    else:
        I = _full_interval(param)
        n_max = _full_n_max(param, delta)
    if n_max < 1:
        return _NO_PAIRS
    ms, ns, _ = _run_scan(QuadCase.of(F), True, delta, I, n_max)
    return _sort_along(I, ms, ns)


def enum_cm_on_geodesic(
    G: IntForm,
    delta: float,
    arc: tuple[float, float] | None = None,
) -> list[CMOnGeodesic]:
    """CM points on the geodesic of G with |discriminant| <= delta.

    arc restricts to a coordinate window (theta for a semicircle base, y for
    a half-line base).  Without an arc the full set must be finite, which
    requires rational endpoints (square derived discriminant) or a half-line.
    """
    param = build_param(G, CM_ON_G)
    ms, ns, ts = _enum_pairs(param, delta, arc)
    out = []
    for m, n, t in zip(ms.tolist(), ns.tolist(), ts.tolist()):
        f = mn_to_form(param, m, n)
        out.append(CMOnGeodesic(CMPoint(f), Frac(m, n, t), coord_of_t(param, t)))
    return out


def enum_rm_perp_geodesic(
    G: IntForm,
    delta: float,
    arc: tuple[float, float] | None = None,
) -> list[RMPerpGeodesic]:
    """RM curves of discriminant <= delta meeting the geodesic of G
    perpendicularly, with their intersection feet."""
    param = build_param(G, RM_PERP_G)
    ms, ns, ts = _enum_pairs(param, delta, arc)
    out = []
    for m, n, t in zip(ms.tolist(), ns.tolist(), ts.tolist()):
        f = mn_to_form(param, m, n)
        out.append(
            RMPerpGeodesic(RMCurve(f), Frac(m, n, t), perp_foot(f, G), coord_of_t(param, t))
        )
    return out


def enum_rm_through_point(p: IntForm, delta: float) -> list[RMThroughPoint]:
    """RM curves of discriminant <= delta through the CM point of p."""
    param = build_param(p, RM_THROUGH_P)
    ms, ns, ts = _enum_pairs(param, delta, None)
    out = []
    for m, n, t in zip(ms.tolist(), ns.tolist(), ts.tolist()):
        f = mn_to_form(param, m, n)
        out.append(RMThroughPoint(RMCurve(f), Frac(m, n, t), coord_of_t(param, t)))
    return out


def enum_cm_in_ball(
    z0: PointH,
    s0: float,
    D: int | None = None,
    delta: float | None = None,
) -> list[CMInBall]:
    """CM points inside the closed hyperbolic ball around z0.

    Either a single discriminant D < 0 or a bound delta on |D|.  Exhaustive:
    a <= sqrt(|D|) / (2 y_min) with y_min the lowest point of the ball.
    """
    if not s0 > 0:
        raise ValueError("need s0 > 0")
    if (D is None) == (delta is None):
        raise ValueError("give exactly one of D, delta")
    if D is not None and D >= 0:
        raise WrongDiscriminantSign("need D < 0")
    be: BallE = ball(z0, s0)
    x0, y0 = be.center.x, be.center.y
    re = be.radius_euclid
    y_min = y0 - re
    d_max = -D if D is not None else math.floor(delta)
    a_max = math.isqrt(math.floor(d_max / (4 * y_min * y_min))) + 1
    out = []
    for a in range(1, a_max + 1):
        b_lo = math.ceil(-2 * a * (x0 + re))
        b_hi = math.floor(-2 * a * (x0 - re))
        if b_hi < b_lo:
            continue
        bs = np.arange(b_lo, b_hi + 1, dtype=np.int64)
        if D is not None:
            sel = bs[(bs * bs - D) % (4 * a) == 0]
            cand = [(int(b), (int(b) * int(b) - D) // (4 * a)) for b in sel]
        else:
            cand = []
            for b in bs.tolist():
                # y = sqrt(4ac - b^2) / 2a must lie on the disk's vertical
                # chord at x = -b/2a, so c = (b^2 + (2ay)^2) / 4a is bounded
                # by the chord's ends (padded by 1; be.contains decides)
                h = math.sqrt(max(re * re - (b / (2 * a) + x0) ** 2, 0.0))
                c_chord_lo = math.floor((b * b + (2 * a * (y0 - h)) ** 2) / (4 * a)) - 1
                c_chord_hi = math.ceil((b * b + (2 * a * (y0 + h)) ** 2) / (4 * a)) + 1
                # smallest c with D <= -1, largest with |D| <= d_max
                c_lo = max((b * b + 1 + 4 * a - 1) // (4 * a), c_chord_lo)
                c_hi = min((b * b + d_max) // (4 * a), c_chord_hi)
                cand.extend((b, c) for c in range(c_lo, c_hi + 1))
        for b, c in cand:
            if math.gcd(math.gcd(a, abs(b)), abs(c)) != 1:
                continue
            d = b * b - 4 * a * c
            if d >= 0:
                continue
            z = PointH(-b / (2 * a), math.sqrt(-d) / (2 * a))
            if be.contains(z):
                # the center itself has no angle; report 0 by convention
                ang = 0.0 if z == z0 else ang_p(z0, z)
                out.append(CMInBall(CMPoint(IntForm(a, b, c)), ang))
    out.sort(key=lambda r: (r.point.form.a, r.point.form.b, r.point.form.c))
    return out


def enum_cm_on_im1(delta: float, x_lo: float, x_hi: float) -> list[CMPoint]:
    """CM points on the horizontal line Im z = 1 with |D| <= delta, x in window.

    These are exactly the points m/n + i from primitive forms
    (n^2, -2mn, n^2 + m^2), discriminant -4 n^4.
    """
    out = []
    a_max = math.isqrt(math.floor(delta)) // 2 + 1
    for a in range(1, a_max + 1):
        if 4 * a * a > delta:
            continue
        # y = 1 forces D = -4a^2, so c = (b^2 + 4a^2) / (4a)
        b_lo, b_hi = math.ceil(-2 * a * x_hi), math.floor(-2 * a * x_lo)
        for b in range(b_lo, b_hi + 1):
            if (b * b + 4 * a * a) % (4 * a) != 0:
                continue
            c = (b * b + 4 * a * a) // (4 * a)
            if math.gcd(math.gcd(a, abs(b)), abs(c)) != 1:
                continue
            out.append(CMPoint(IntForm(a, b, c)))
    out.sort(key=lambda p: p.z.real)
    return out


# ---------------------------------------------------------------------------
# measure transport check


def pushforward_check(
    param: GeodesicParam,
    grid: np.ndarray | None = None,
    gridsize: int = 201,
) -> float:
    """Max relative deviation between the transported measure and its target.

    Along the coordinate u (theta or y), d_mu = dt / |F(t)| should become
    (2/sqrt(|D|)) du / sin(u) for CM points on a semicircle, the constant
    (2/sqrt(-D)) du for RM curves through a point, and (2/B) du / u in the
    half-line cases.  The derivative du/dt is taken by central differences.
    """
    A, B, C = param.derived
    D = param.derivedD
    if grid is None:
        if param.half_line:
            grid = np.linspace(0.2, 5.0, gridsize)
        else:
            grid = np.linspace(0.1, math.pi - 0.1, gridsize)
            if param.mode == RM_PERP_G:
                # keep away from the t = infinity seam at pi/2
                grid = grid[np.abs(grid - math.pi / 2) > 0.05]
    worst = 0.0
    for u in np.asarray(grid, dtype=float).tolist():
        if not param.half_line and min(abs(math.sin(u)), abs(math.cos(u) if param.mode == RM_PERP_G else 1.0)) < 1e-9:
            raise GridTouchesSingularity(f"grid point {u} is singular")
        t = t_of_coord(param, u)
        ft = (A * t + B) * t + C
        if abs(ft) < 1e-12:
            raise GridTouchesSingularity(f"grid point {u} hits a root")
        h = 1e-6 * max(1.0, abs(t))
        du_dt = (coord_of_t(param, t + h) - coord_of_t(param, t - h)) / (2 * h)
        got = 1.0 / (abs(ft) * abs(du_dt))
        if param.half_line:
            target = 2.0 / (4 * param.pqr[1]) / u  # 2/B with B = 4Q
        elif param.mode == RM_THROUGH_P:
            target = 2.0 / math.sqrt(-D)
        else:
            target = 2.0 / math.sqrt(D) / math.sin(u)
        worst = max(worst, abs(got - target) / target)
    return worst
