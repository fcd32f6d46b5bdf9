"""Enumeration of CM points and RM curves attached to a rational geodesic.

A normalized form G = (A0, B0, C0) with D0 > 0 fixes a geodesic; a form with
D0 < 0 fixes a CM point.  The incident objects (CM points on the geodesic,
RM curves hitting it perpendicularly, RM curves through the point) are the
integer solutions of 2aC0 + 2cA0 = bB0, which are parametrized by coprime
pairs (m, n) through a Bezout choice.  The derived real form (A, B, C) below
turns each family into an aggregate-Linnik set in t = m/n, so the linnik
engine does the heavy lifting.  Records are built from columns (forms,
coordinates, feet and ball points as numpy arrays), in blocks of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DomainError,
    GridTouchesSingularity,
    IntervalTouchesRoot,
    NotPerpendicularPair,
    UnboundedDivergence,
    WrongDiscriminantSign,
)
from .forms import CMPoint, IntForm, RMCurve, is_normalized, RealForm
from .hyperbolic import BallE, PointH, ball
from .linnik import (
    Frac,
    ProjInterval,
    QuadCase,
    _absmax,
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


# ---------------------------------------------------------------------------
# records from columns

# rows per block of records: the .tolist() copies of one block stay small
_ROWS = 4096


def _int_dtype(bound: int) -> type:
    """int64 when bound, a bound on every integer a computation makes, is
    below 2^53; else object, for exact Python ints.

    Below 2^53 no int64 product overflows and int64 -> float64 is exact,
    so a true division rounds as Python's int / int does.
    """
    return np.int64 if bound < 2**53 else object


def _ints(bound: int, *cols: np.ndarray) -> list[np.ndarray]:
    return [c.astype(_int_dtype(bound)) for c in cols]


def _floor_ints(x: np.ndarray, dt: type) -> np.ndarray:
    """Integer column of the integral floats x, exact for either dtype."""
    return np.frompyfunc(int, 1, 1)(x).astype(dt)


def _each(fn: Callable[..., float], *cols: np.ndarray) -> np.ndarray:
    """fn applied per element to Python floats.  math.acos, math.hypot and
    float ** 2 call libm; numpy's vectorised versions may round differently."""
    return np.fromiter(map(fn, *(c.tolist() for c in cols)), float, len(cols[0]))


def _sq(v: float) -> float:
    return v**2


def _form_cols(param: GeodesicParam, ms: np.ndarray, ns: np.ndarray) -> list[np.ndarray]:
    """Columns (a, b, c) of mn_to_form(param, m, n), exact."""
    big = _absmax(ms, ns)
    if param.half_line:
        P, Q = param.pqr
        m, n = _ints((abs(P) + abs(Q) + 1) * big, ms, ns)
        return [n * Q, n * P, -m]
    P, Q, R = param.pqr
    S = param.S
    b0, c0 = param.bezout
    kb, kc, lb, lc = P * b0, P * c0, R // S, Q // S
    m, n = _ints((S + abs(kb) + abs(kc) + abs(lb) + abs(lc)) * big, ms, ns)
    return [n * S, n * kb + m * lb, n * kc - m * lc]


def _coord_col(param: GeodesicParam, t: np.ndarray) -> np.ndarray:
    """coord_of_t(param, t) for a column of t, in the same float operations.

    Where those leave the domain of sqrt or acos (or divide by 0),
    coord_of_t at the first such t raises its own error.
    """
    A, B, C = param.derived
    with np.errstate(divide="ignore", invalid="ignore"):
        if param.half_line and param.mode == CM_ON_G:
            x = -4 / B * t - 4 * C / (B * B)
        elif param.half_line:
            x = 4 / B * t + 4 * C / (B * B)
        elif param.mode == CM_ON_G:
            x = (float(-B) - float(2 * A) * t) / math.sqrt(param.derivedD)
        elif param.mode == RM_PERP_G:
            x = -math.sqrt(param.derivedD) / (float(2 * A) * t + float(B))
        else:
            F = (float(A) * t + float(B)) * t + float(C)
            x = (float(B) + float(2 * A) * t) / (2 * math.sqrt(A) * np.sqrt(F))
    bad = np.flatnonzero(~(x >= 0) if param.half_line else ~(np.abs(x) <= 1))
    if len(bad):
        coord_of_t(param, float(t[bad[0]]))
    return np.sqrt(x) if param.half_line else _each(math.acos, x)


def _foot_cols(
    G: IntForm, a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Columns (x, y) of perp_foot(IntForm(a, b, c), G), with its checks and
    its float operations."""
    A0, B0, C0 = G.triple()
    big = max(_absmax(a, b, c), abs(A0), abs(B0), abs(C0))
    a, b, c = _ints(8 * big * big, a, b, c)
    off = np.flatnonzero(2 * a * C0 + 2 * c * A0 != b * B0)
    if len(off):
        rm = IntForm(*(int(v[off[0]]) for v in (a, b, c)))
        raise NotPerpendicularPair(f"{rm} is not perpendicular to {G}")
    if A0 == 0:
        x = np.full(len(a), -C0 / B0)
    else:
        x = np.asarray((A0 * c - C0 * a) / (B0 * a - A0 * b), dtype=float)
    q = np.asarray(-b / (2 * a), dtype=float)
    r2 = np.asarray((b * b - 4 * a * c) / (4 * a * a), dtype=float)
    y2 = r2 - _each(_sq, x - q)
    if (y2 <= 0).any():
        raise NotPerpendicularPair("curves do not intersect in the half-plane")
    return x, np.sqrt(y2)


def _build(make: Callable, cols: list[np.ndarray]) -> list:
    """make(*row) for every row of the columns, a block of rows at a time."""
    out = []
    for r0 in range(0, len(cols[0]), _ROWS):
        out += map(make, *(col[r0 : r0 + _ROWS].tolist() for col in cols))
    return out


def _records(param: GeodesicParam, ms: np.ndarray, ns: np.ndarray, ts: np.ndarray) -> list:
    """The records of the pairs (ms, ns, ts = ms / ns) in param's mode."""
    a, b, c = _form_cols(param, ms, ns)
    cols = [a, b, c, ms, ns, ts]
    if param.mode == CM_ON_G:
        make = lambda a, b, c, m, n, t, u: CMOnGeodesic(
            CMPoint(IntForm(a, b, c)), Frac(m, n, t), u
        )
    elif param.mode == RM_PERP_G:
        cols += _foot_cols(param.base, a, b, c)
        make = lambda a, b, c, m, n, t, x, y, u: RMPerpGeodesic(
            RMCurve(IntForm(a, b, c)), Frac(m, n, t), PointH(x, y), u
        )
    else:
        make = lambda a, b, c, m, n, t, u: RMThroughPoint(
            RMCurve(IntForm(a, b, c)), Frac(m, n, t), u
        )
    return _build(make, cols + [_coord_col(param, ts)])


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
    return _records(param, *_enum_pairs(param, delta, arc))


def enum_rm_perp_geodesic(
    G: IntForm,
    delta: float,
    arc: tuple[float, float] | None = None,
) -> list[RMPerpGeodesic]:
    """RM curves of discriminant <= delta meeting the geodesic of G
    perpendicularly, with their intersection feet."""
    param = build_param(G, RM_PERP_G)
    return _records(param, *_enum_pairs(param, delta, arc))


def enum_rm_through_point(p: IntForm, delta: float) -> list[RMThroughPoint]:
    """RM curves of discriminant <= delta through the CM point of p."""
    param = build_param(p, RM_THROUGH_P)
    return _records(param, *_enum_pairs(param, delta, None))


def enum_cm_in_ball(
    z0: PointH,
    s0: float,
    D: int | None = None,
    delta: float | None = None,
) -> list[CMInBall]:
    """CM points inside the closed hyperbolic ball around z0.

    Either a single discriminant D < 0 or a bound delta on |D|.  Exhaustive:
    a <= sqrt(|D|) / (2 y_min) with y_min the lowest point of the ball.
    The candidates (a, b, c) of each a are generated as columns; gcd, sign,
    membership (the float operations of BallE.contains) and the angle (those
    of ang_p) are then decided on the columns of all of them.
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
    # |b| <= b_abs and 4ac <= b^2 + d_max bound every integer below
    b_abs = max(abs(math.ceil(-2 * a_max * (x0 + re))), abs(math.floor(-2 * a_max * (x0 - re))))
    dt = _int_dtype(4 * (b_abs * b_abs + d_max))
    cols: list[list[np.ndarray]] = [[np.zeros(0, dtype=dt)] for _ in range(3)]
    for a in range(1, a_max + 1):
        b_lo = math.ceil(-2 * a * (x0 + re))
        b_hi = math.floor(-2 * a * (x0 - re))
        if b_hi < b_lo:
            continue
        bs = np.arange(b_lo, b_hi + 1, dtype=dt)
        if D is not None:
            bs = bs[(bs * bs - D) % (4 * a) == 0]
            cs = (bs * bs - D) // (4 * a)
        else:
            # y = sqrt(4ac - b^2) / 2a must lie on the disk's vertical
            # chord at x = -b/2a, so c = (b^2 + (2ay)^2) / 4a is bounded
            # by the chord's ends (padded by 1; membership decides)
            bf = bs.astype(float)
            h = np.sqrt(np.maximum(re * re - (bf / (2 * a) + x0) ** 2, 0.0))
            b2 = bs * bs
            b2f = b2.astype(float)
            chord_lo = _floor_ints(np.floor((b2f + (2 * a * (y0 - h)) ** 2) / (4 * a)), dt) - 1
            chord_hi = _floor_ints(np.ceil((b2f + (2 * a * (y0 + h)) ** 2) / (4 * a)), dt) + 1
            # smallest c with D <= -1, largest with |D| <= d_max
            c_lo = np.maximum((b2 + 4 * a) // (4 * a), chord_lo)
            c_hi = np.minimum((b2 + d_max) // (4 * a), chord_hi)
            # expand each range [c_lo, c_hi] into its candidates
            count = np.maximum(c_hi - c_lo + 1, 0).astype(np.int64)
            first = np.cumsum(count) - count
            bs = np.repeat(bs, count)
            cs = np.repeat(c_lo - first, count) + np.arange(len(bs), dtype=dt)
        cols[0].append(np.full(len(bs), a, dtype=dt))
        cols[1].append(bs)
        cols[2].append(cs)
    a, b, c = (np.concatenate(col) for col in cols)
    d = b * b - 4 * a * c
    keep = (np.gcd(np.gcd(a, b), c) == 1) & (d < 0)
    a, b, c, d = a[keep], b[keep], c[keep], d[keep]
    zx = np.asarray(-b / (2 * a), dtype=float)
    zy = np.sqrt(np.asarray(-d, dtype=float)) / np.asarray(2 * a, dtype=float)
    keep = _each(math.hypot, zx - x0, zy - y0) <= re
    a, b, c, zx, zy = a[keep], b[keep], c[keep], zx[keep], zy[keep]
    order = np.lexsort((c, b, a))
    a, b, c = a[order], b[order], c[order]
    ang = _ball_angles(z0, zx[order], zy[order])
    make = lambda a, b, c, u: CMInBall(CMPoint(IntForm(a, b, c)), u)
    return _build(make, [a, b, c, ang])


def _ball_angles(p: PointH, zx: np.ndarray, zy: np.ndarray) -> np.ndarray:
    """ang_p(p, z) for columns of points z, in its float operations; the
    center itself gets 0 by convention."""
    px, py = p.x, p.y
    # z straight below p (or p itself) gets 0, straight above it pi
    ang = np.where(zy <= py, 0.0, math.pi)
    off = np.flatnonzero(zx != px)
    x, y = zx[off], zy[off]
    # geodesic_through(p, z), then acos of the clipped cosine
    q = (x + px) / 2 + (_each(_sq, y) - py**2) / (2 * (x - px))
    r = _each(math.hypot, px - q, np.full(len(q), py))
    base = _each(math.acos, np.maximum(-1.0, np.minimum(1.0, (q - px) / r)))
    ang[off] = np.where(x > px, base, base + math.pi)
    return ang


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
