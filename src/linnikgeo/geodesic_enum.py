"""Enumeration of CM points and RM curves attached to a rational geodesic.

A normalized form G = (A0, B0, C0) with D0 > 0 fixes a geodesic; a form with
D0 < 0 fixes a CM point.  The incident objects (CM points on the geodesic,
RM curves hitting it perpendicularly, RM curves through the point) are the
integer solutions of 2aC0 + 2cA0 = bB0: through a Bezout choice, the forms
n u + m v of coprime pairs (m, n), for two integer rows u, v.  Their
discriminant, the derived form (A, B, C) in t = m/n, turns each family into
an aggregate-Linnik set, so the linnik engine does the heavy lifting.
Records are built from columns (forms, coordinates, feet and ball points as numpy arrays), in blocks of rows, by
one builder that checks the columns and then fills the slots of the value
objects directly.
"""

from __future__ import annotations

import gc
import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DomainError, IntervalTouchesRoot, WrongDiscriminantSign
from .forms import CMPoint, IntForm, RMCurve, is_normalized, RealForm
from .hyperbolic import BallE, PointH, _ball_angles, _foot_cols, ball
from .linnik import (
    Frac,
    ProjInterval,
    QuadCase,
    _absmax,
    _check_delta,
    _expand,
    _guard,
    _int_dtype,
    _ints,
    _min_on_closure,
    _scan_window,
    _tuples,
    _upto,
)
from .numtheory import ext_gcd

CM_ON_G = "cm-on-geodesic"
RM_PERP_G = "rm-perp-geodesic"
RM_THROUGH_P = "rm-through-point"


@dataclass(frozen=True)
class GeodesicParam:
    """The incident forms n u + m v, u = (S, P b0, P c0), v = (0, R/S, -Q/S),
    of coprime (m, n), from build_param's Bezout map.  case is the sign case
    of the scan form, whose values must land in (0, delta]: the derived form
    for RM families, its negation for CM families (their D are negative)."""

    base: IntForm
    mode: str
    u: tuple[int, int, int]
    v: tuple[int, int, int]
    case: QuadCase = field(repr=False, compare=False)

    @property
    def half_line(self) -> bool:
        return self.base.a == 0


def build_param(G: IntForm, mode: str) -> GeodesicParam:
    """Set up the rows u, v of the Bezout map and the scan form's case."""
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
    g = math.gcd(D0, 2)
    # g divides all three (D0 even forces B0 even); a half-line (A0 = 0, B0 > 0)
    # flips the sign so Q > 0: the map is (nQ, nP, -m), the derived form (0, 4Q, P^2)
    sign = -1 if A0 else 1
    P, Q, R = sign * 2 * C0 // g, sign * B0 // g, 2 * A0 // g
    S, b0, c0 = ext_gcd(Q, R)
    u, v = (S, P * b0, P * c0), (0, R // S, -Q // S)
    # the derived form: b^2 - 4ac of n u + m v, in t = m / n
    A, B, C = v[1] ** 2, 2 * u[1] * v[1] - 4 * u[0] * v[2], u[1] ** 2 - 4 * u[0] * u[2]
    assert B * B - 4 * A * C == 16 * D0 // (g * g)
    scan = RealForm(-A, -B, -C) if mode == CM_ON_G else RealForm(A, B, C)
    return GeodesicParam(G, mode, u, v, QuadCase.of(scan))


def mn_to_form(param: GeodesicParam, m: int, n: int) -> IntForm:
    """The incident form n u + m v of the pair (m, n); its discriminant is
    F(m, n) with F the derived form.  Exact for any ints m, n."""
    row = (np.array([v], dtype=object) for v in (m, n))
    return IntForm(*(int(col[0]) for col in _form_cols(param, *row)))


def _t_of_x(param: GeodesicParam, x: Fraction) -> Fraction:
    """The exact t of the incident form with -b / 2a = -(u1 + t v1) / (2 u0) = x."""
    return -(2 * param.u[0] * x + param.u[1]) / param.v[1]


# ---------------------------------------------------------------------------
# coordinate maps along the base geodesic


def coord_of_t(param: GeodesicParam, t: float) -> float:
    """theta along a semicircle base (y along a half-line base) at t = m/n;
    a one-row _coord_col, so loops should call that on a column of t."""
    return float(_coord_col(param, np.array([t], dtype=float))[0])


def _coord_col(param: GeodesicParam, t: np.ndarray) -> np.ndarray:
    """coord_of_t for a column of t; the first t that is not NaN but gives NaN
    raises ZeroDivisionError (zero denominator) or ValueError, as floats do.
    In the scan form's (A, B, C) and D: y^2 = 4/B t + 4C/B^2 on a half-line,
    a law in s = 2At + B on a semicircle (through a point, 4A F(t) = s^2 - D
    with D < 0: no cancelling F(t))."""
    F, D = param.case.F, param.case.D
    with np.errstate(divide="ignore", invalid="ignore"):
        if param.half_line:
            num, den = 4 / F.B * t + 4 * F.C / (F.B * F.B), 1.0
        else:
            s = float(2 * F.A) * t + float(F.B)
            if param.mode == CM_ON_G:
                num, den = s, math.sqrt(D)
            elif param.mode == RM_PERP_G:
                num, den = -math.sqrt(D), s
            else:
                num, den = s, np.sqrt(s * s - float(D))
        out = np.sqrt(num) if param.half_line else np.arccos(num / den)
    bad = np.flatnonzero(np.isnan(out) & ~np.isnan(t))
    if len(bad):
        zero = np.ndim(den) and den[bad[0]] == 0
        raise ZeroDivisionError("float division by zero") if zero else ValueError("math domain error")
    return out


def t_of_coord(param: GeodesicParam, coord: float) -> float:
    """Inverse of coord_of_t on the admissible range: t = B y^2/4 - C/B on a
    half-line, t = (s - B) / 2A on a semicircle."""
    F, D = param.case.F, param.case.D
    if param.half_line:
        return F.B * coord * coord / 4 - F.C / F.B
    if param.mode == CM_ON_G:
        s = math.sqrt(D) * math.cos(coord)
    elif param.mode == RM_PERP_G:
        s = -math.sqrt(D) / math.cos(coord)  # cos of a double is never 0
    else:
        s = math.sqrt(-D) / math.tan(coord)
    return (s - F.B) / (2 * F.A)


def _arc_interval(param: GeodesicParam, arc: tuple[float, float] | None) -> ProjInterval | None:
    """Translate a coordinate window into a t-interval for the scan (None
    for no window).  Its closure must stay off the base's endpoints."""
    if arc is None:
        return None
    c1, c2 = arc
    if not c1 < c2:
        raise DomainError(f"arc needs c1 < c2, got {arc}")
    if param.half_line:
        if not c1 > 0:
            raise DomainError("half-line arc needs y > 0")
    elif not (0 < c1 and c2 < math.pi):
        raise DomainError("semicircle arc needs 0 < theta1 < theta2 < pi")
    wraps = False
    if param.mode == RM_PERP_G and not param.half_line:
        # theta = pi/2 is the point at infinity of the t-line
        if c1 == math.pi / 2 or c2 == math.pi / 2:
            raise DomainError("arc endpoint at theta = pi/2 maps to infinity")
        wraps = c1 < math.pi / 2 < c2
    t1, t2 = t_of_coord(param, c1), t_of_coord(param, c2)
    I = ProjInterval(t2, t1, True) if wraps else ProjInterval(min(t1, t2), max(t1, t2))
    if _min_on_closure(param.case.F, I) <= 0:
        raise IntervalTouchesRoot(f"arc {arc} reaches the base endpoints")
    return I


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


def _enum_pairs(param: GeodesicParam, delta: float, I: ProjInterval | None) -> tuple:
    """_scan_window's columns (ms, ns, t = ms / ns, |D|) of the incident pairs
    with t in the window I (all of them when I is None), sorted along t,
    and its tie count, 0 as the scan form is integral."""
    return _scan_window(param.case, delta, I)


# ---------------------------------------------------------------------------
# records from columns

# rows per block of records: the .tolist() copies of one block stay small
_ROWS = 4096


def _floor_ints(x: np.ndarray, dt: type) -> np.ndarray:
    """Integer column of the integral floats x, exact for either dtype."""
    return np.frompyfunc(int, 1, 1)(x) if dt == object else x.astype(dt)


def _form_cols(param: GeodesicParam, ms: np.ndarray, ns: np.ndarray) -> list[np.ndarray]:
    """Columns (a, b, c) = n u + m v of mn_to_form(param, m, n), exact."""
    u, v = param.u, param.v
    m, n = _ints(sum(map(abs, u + v)) * _absmax(ms, ns), ms, ns)
    return [n * x + m * y for x, y in zip(u, v)]


def _cm_z_cols(a: np.ndarray, b: np.ndarray, absd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns (x, y) of CMPoint.z, in its float operations, for the forms
    (a, b, c) of discriminant -absd; for RM forms with a > 0 (as _form_cols
    makes them) of discriminant absd, the (q, r) of RMCurve.geodesic."""
    y = np.sqrt(np.asarray(absd, dtype=float)) / np.asarray(2 * a, dtype=float)
    return np.asarray(-b / (2 * a), dtype=float), y


def _objs(cls: type, *cols: list) -> list:
    """cls objects whose slots, in order, hold the columns: made by
    object.__new__ and the slot descriptors, with no __init__ and no
    __post_init__ (_build checks the columns instead)."""
    objs = list(map(object.__new__, repeat(cls, len(cols[0]))))
    for name, col in zip(cls.__slots__, cols):
        deque(map(getattr(cls, name).__set__, objs, col), 0)
    return objs


# the records (and bare points) whose value object is a CMPoint
_CM = (CMPoint, CMOnGeodesic, CMInBall)


def _block(record: type, a: list, b: list, c: list, *rest: list) -> list:
    """The records of one block of rows: the CMPoint or RMCurve of the
    forms (a, b, c), then the Frac (m, n, t) and the foot (x, y) where the
    record has them, then its last float.  record = CMPoint: the points."""
    fields = [_objs(CMPoint if record in _CM else RMCurve, _objs(IntForm, a, b, c))]
    if record is CMPoint:
        return fields[0]
    if record is not CMInBall:
        m, n, t, *rest = rest
        fields.append(_tuples(Frac, m, n, t))
    if record is RMPerpGeodesic:
        x, y, *rest = rest
        fields.append(_objs(PointH, x, y))
    return _tuples(record, *fields, *rest)


def _check_cols(record: type, cols: list[np.ndarray]) -> np.ndarray:
    """The checks of CMPoint, RMCurve and PointH on the columns [a, b, c, ...]
    (in _block's order) of record; where a row fails one, the public
    constructors of that row raise their own error.  Returns the column of
    discriminants b^2 - 4ac, exact."""
    cm = record in _CM
    a, b, c = _ints(5 * _absmax(*cols[:3]) ** 2, *cols[:3], floats=False)
    d = b * b - 4 * a * c
    bad = ((a < 1) | (d >= 0)) if cm else ((a == 0) | (d <= 0))
    if record is RMPerpGeodesic:
        bad |= ~(np.isfinite(cols[6]) & np.isfinite(cols[7]) & (cols[7] > 0))
    rows = np.flatnonzero(bad)
    if len(rows):
        # the first failing row's constructors raise their own error
        i = rows[0]
        (CMPoint if cm else RMCurve)(IntForm(*(int(col[i]) for col in cols[:3])))
        PointH(float(cols[6][i]), float(cols[7][i]))
    return d


def _build(record: type, cols: list[np.ndarray]) -> list:
    """The records of the columns [a, b, c, ...] (in _block's order), once
    _check_cols passes them, a block of rows at a time.  The cyclic garbage
    collector is paused while the list fills (records hold no reference
    cycles), and left as it was found."""
    _check_cols(record, cols)
    out: list = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for r0 in range(0, len(cols[0]), _ROWS):
            out += _block(record, *(col[r0 : r0 + _ROWS].tolist() for col in cols))
    finally:
        if enabled:
            gc.enable()
    return out


def _record_cols(
    param: GeodesicParam, ms: np.ndarray, ns: np.ndarray, ts: np.ndarray
) -> tuple[type, list[np.ndarray]]:
    """The record type of param's mode and the columns, in _block's order,
    of the records of the pairs (ms, ns, ts = ms / ns)."""
    a, b, c = _form_cols(param, ms, ns)
    cols = [a, b, c, ms, ns, ts]
    if param.mode == RM_PERP_G:
        cols += _foot_cols(param.base, a, b, c)
    record = {CM_ON_G: CMOnGeodesic, RM_PERP_G: RMPerpGeodesic, RM_THROUGH_P: RMThroughPoint}[param.mode]
    return record, cols + [_coord_col(param, ts)]


def _incident_cols(
    G: IntForm, mode: str, delta: float, arc: tuple[float, float] | None
) -> tuple[type, list[np.ndarray]]:
    """_record_cols of the forms incident to G in mode with |D| <= delta
    (in the coordinate window arc, if one is given), sorted along t."""
    param = build_param(G, mode)
    ms, ns, ts, _, _ = _enum_pairs(param, delta, _arc_interval(param, arc))
    return _record_cols(param, ms, ns, ts)


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
    return _build(*_incident_cols(G, CM_ON_G, delta, arc))


def enum_rm_perp_geodesic(
    G: IntForm,
    delta: float,
    arc: tuple[float, float] | None = None,
) -> list[RMPerpGeodesic]:
    """RM curves of discriminant <= delta meeting the geodesic of G
    perpendicularly, with their intersection feet."""
    return _build(*_incident_cols(G, RM_PERP_G, delta, arc))


def enum_rm_through_point(p: IntForm, delta: float) -> list[RMThroughPoint]:
    """RM curves of discriminant <= delta through the CM point of p."""
    return _build(*_incident_cols(p, RM_THROUGH_P, delta, None))


def _b_ranges(a: np.ndarray, lo: float, hi: float, d_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns [b_lo, b_hi], one per entry of the column a, of the b with
    -b / 2a in [lo, hi], found in float operations.  Their dtype bounds
    4 (b^2 + d_max) >= 4ac for |D| <= d_max."""
    af = a.astype(float)
    b_lo, b_hi = np.ceil(-2 * af * hi), np.floor(-2 * af * lo)
    b_abs = int(max(np.abs(b_lo).max(initial=0), np.abs(b_hi).max(initial=0)))
    dt = _int_dtype(4 * (b_abs * b_abs + d_max))
    return _floor_ints(b_lo, dt), _floor_ints(b_hi, dt)


def _pairs(a_max: int, lo: float, hi: float, d_max: int, what: str) -> Iterator:
    """_expand's chunks ([a], b) of the pairs 1 <= a <= a_max with -b / 2a in
    [lo, hi], by a, then b, once a_max and then a_max (a_max + 1) (hi - lo)
    + a_max, which bounds their count, pass _guard (what: the search).  The
    b-ranges are made for a block of values of a at a time, so memory does
    not grow with a_max."""
    _guard(a_max, "{} has a_max = {}", what, a_max)
    bound = a_max * (a_max + 1) * (hi - lo) + a_max
    _guard(bound, "{} has up to {:.0f} (a, b) pairs", what, bound)
    blocks = (([a], *_b_ranges(a, lo, hi, d_max)) for a in _upto(a_max))
    return _expand(blocks, 0, "{} has {:.0f} (a, b) pairs", what)


def enum_cm_in_ball(
    z0: PointH,
    s0: float,
    D: int | None = None,
    delta: float | None = None,
) -> list[CMInBall]:
    """CM points inside the closed hyperbolic ball around z0.

    Either a single integer discriminant D < 0 or a bound delta on |D|
    (delta < 1 gives no points).  Exhaustive:
    a <= sqrt(|D|) / (2 y_min) with y_min the lowest point of the ball.
    One column pass in blocks (_pairs, _ball_points), then the angles
    (ang_p's) of the points, sorted by (a, b, c).
    """
    if (D is None) == (delta is None):
        raise ValueError("give exactly one of D, delta")
    if D is not None:
        if not isinstance(D, numbers.Integral) and not float(D).is_integer():
            raise DomainError(f"D must be an integer, got {D}")
        D = int(D)
        if D >= 0:
            raise WrongDiscriminantSign("need D < 0")
    if delta is not None:
        _check_delta(delta)
    be: BallE = ball(z0, s0)
    x0, y0, re = be.center.x, be.center.y, be.radius_euclid
    d_max = -D if D is not None else math.floor(delta)
    if d_max < 1:
        return []
    a_max = math.isqrt(math.floor(d_max / (4 * (y0 - re) ** 2))) + 1
    what = f"the ball of radius {s0} about {z0} at |D| <= {d_max}"
    a, b, c, zx, zy = _ball_points(be, _pairs(a_max, x0 - re, x0 + re, d_max, what), D, d_max, what)
    return _build(CMInBall, [a, b, c, _ball_angles(z0, zx, zy)])


def _ball_points(be: BallE, pairs: Iterator, D: int | None, d_max: int, what: str) -> list[np.ndarray]:
    """Columns (a, b, c, x, y), by pair, then c, of the primitive forms of
    discriminant D (or in [-d_max, -1]) whose CM point (x, y) lies in the disk
    be; the candidates so far pass _guard before each block of them is tested.

    For a single D, c = (b^2 - D) / 4a where 4a divides b^2 - D.  Else
    y = sqrt(4ac - b^2) / 2a lies on the disk's vertical chord at x = -b/2a,
    so c = (b^2 + (2ay)^2) / 4a lies between the chord's ends, padded by 1;
    b^2 // 4a stays in integers, as a float it loses more than the pad."""
    x0, y0, re = be.center.x, be.center.y, be.radius_euclid

    def c_ranges():
        for (a,), b in pairs:
            b2, a4, af = b * b, 4 * a, a.astype(float)
            if D is not None:
                c = (b2 - D) // a4
                keep = c * a4 == b2 - D
                yield [a[keep], b[keep]], c[keep], c[keep]
                continue
            h = np.sqrt(np.maximum(re * re - (b.astype(float) / (2 * af) + x0) ** 2, 0.0))
            q, r = b2 // a4, (b2 % a4).astype(float)
            chord_lo = q + _floor_ints(np.floor((r + (2 * af * (y0 - h)) ** 2) / (4 * af)), b.dtype) - 1
            chord_hi = q + _floor_ints(np.ceil((r + (2 * af * (y0 + h)) ** 2) / (4 * af)), b.dtype) + 1
            # smallest c with D <= -1, largest with |D| <= d_max
            yield [a, b], np.maximum(q + 1, chord_lo), np.minimum((b2 + d_max) // a4, chord_hi)

    out = []  # _expand yields at least one chunk, so out is not empty
    for (a, b), c in _expand(c_ranges(), 0, "{} has {:.0f} (a, b, c) candidates", what):
        d = b * b - 4 * a * c
        keep = (np.gcd(np.gcd(a, b), c) == 1) & (d < 0)
        a, b, c, d = a[keep], b[keep], c[keep], d[keep]
        x, y = _cm_z_cols(a, b, -d)
        keep = be.contains_cols(x, y)
        out.append([a[keep], b[keep], c[keep], x[keep], y[keep]])
    return [np.concatenate(col) for col in zip(*out)]


def enum_cm_on_im1(delta: float, x_lo: float, x_hi: float) -> list[CMPoint]:
    """CM points on the horizontal line Im z = 1 with |D| <= delta, x in window.

    These are exactly the points m/n + i with gcd(m, n) = 1: the primitive
    forms (a, b, c) = (n^2, -2mn, n^2 + m^2) of discriminant -4 n^4, so
    n <= isqrt(isqrt(delta) // 2).  n_max, then a bound on the count of
    (m, n), pass _guard before any column is made; the pairs are scanned
    in blocks of n (_im1_points) and sorted by Re z = -b / 2a, ties in
    (a, b) order.
    """
    _check_delta(delta)
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise DomainError(f"the window [{x_lo}, {x_hi}] is not a pair of numbers with finite ends")
    if delta < 4:  # |D| = 4 n^4 >= 4
        return []
    d_max = math.floor(delta)
    n_max = math.isqrt(math.isqrt(d_max) // 2)
    what = f"Im z = 1 on [{x_lo}, {x_hi}] at |D| <= {d_max}"
    _guard(n_max, "{} has n_max = {}", what, n_max)
    # each n has at most n (x_hi - x_lo) + 1 values of m
    bound = n_max * (n_max + 1) / 2 * (x_hi - x_lo) + n_max
    _guard(bound, "{} has up to {:.0f} (m, n) pairs", what, bound)
    a, b, c = _im1_points(n_max, x_lo, x_hi, what)
    order = np.lexsort((b, a, np.asarray(-b / (2 * a), dtype=float)))
    return _build(CMPoint, [a[order], b[order], c[order]])


def _im1_points(n_max: int, lo: float, hi: float, what: str) -> list[np.ndarray]:
    """Columns (a, b, c) = (n^2, -2mn, n^2 + m^2) of the coprime (m, n),
    1 <= n <= n_max, with lo <= m/n <= hi exactly, a block of values of n
    at a time: m runs from ceil(n lo) to floor(n hi) (_floor_times).  The
    pairs so far pass _guard before each block of them is tested."""
    top = n_max * (1 + max(abs(lo), abs(hi))) + 1
    dt = _int_dtype(top * top)  # bounds n^2, 2 |m| n and n^2 + m^2
    m_ranges = (([n.astype(dt)], -_floor_times(n, -lo, dt), _floor_times(n, hi, dt)) for n in _upto(n_max))
    out = []
    for (n,), m in _expand(m_ranges, 0, "{} has {:.0f} (m, n) candidates", what):
        keep = np.gcd(m, n) == 1
        m, n = m[keep], n[keep]
        out.append([n * n, -2 * m * n, n * n + m * m])
    return [np.concatenate(col) for col in zip(*out)]


def _floor_times(n: np.ndarray, x: float, dt: type) -> np.ndarray:
    """floor(n x) in exact integers, x taken as the rational it is, as a dt column."""
    num, den = x.as_integer_ratio()
    return (n.astype(object) * num // den).astype(dt)


# ---------------------------------------------------------------------------
# measure transport check


def pushforward_check(param: GeodesicParam) -> float:
    """Max relative deviation between the transported measure and its target.

    Along the coordinate u (theta or y), d_mu = dt / |F(t)| should become
    |dG(u)| with G = (2/sqrt(D)) log tan(u/2) on a semicircle, (2/sqrt(-D)) u
    for RM curves through a point, and (2/B) log u on a half-line.  With H the
    scan form's antiderivative of 1/F, |H(t(u1)) - H(t(u0))| = |G(u1) - G(u0)|
    is checked on the cells of a grid of 201 points: u in [0.2, 5] (y) or
    [0.1, pi - 0.1] (theta).
    """
    case = param.case
    if param.half_line:
        us = np.linspace(0.2, 5.0, 201)
        g = 2 / case.F.B * np.log(us)
    else:
        us = np.linspace(0.1, math.pi - 0.1, 201)
        if param.mode == RM_THROUGH_P:
            g = 2 / math.sqrt(-case.D) * us
        else:
            g = 2 / math.sqrt(case.D) * np.log(np.tan(us / 2))
    h = np.array([case.H(t_of_coord(param, u)) for u in us.tolist()])
    dg = np.abs(np.diff(g))
    return float(np.max(np.abs(np.abs(np.diff(h)) - dg) / dg))
