import dataclasses
import gc
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from linnikgeo.errors import (
    DomainError,
    IntervalTouchesRoot,
    NotPerpendicularPair,
    UnboundedDivergence,
    WrongDiscriminantSign,
)
from linnikgeo import geodesic_enum
from linnikgeo.forms import CMPoint, IntForm, RMCurve, cm_on_geodesic, normalize, rm_perp_geodesic
from linnikgeo.geodesic_enum import (
    _arc_interval,
    _ball_angles,
    _build,
    _coord_col,
    _enum_pairs,
    _foot_cols,
    _form_cols,
    _record_cols,
    CM_ON_G,
    RM_PERP_G,
    RM_THROUGH_P,
    CMInBall,
    CMOnGeodesic,
    RMPerpGeodesic,
    RMThroughPoint,
    build_param,
    coord_of_t,
    enum_cm_in_ball,
    enum_cm_on_geodesic,
    enum_cm_on_im1,
    enum_rm_perp_geodesic,
    enum_rm_through_point,
    mn_to_form,
    pushforward_check,
    t_of_coord,
)
from linnikgeo.hyperbolic import PointH, ang_p, ball, perp_foot
from linnikgeo.linnik import Frac
from linnikgeo.numtheory import sum_phi
from reference import dist


def _derived(param):
    """The derived form (A, B, C), whose value at (m, n) is the discriminant
    of mn_to_form(param, m, n): the scan form, negated back for CM points."""
    F, sign = param.case.F, -1 if param.mode == CM_ON_G else 1
    return sign * F.A, sign * F.B, sign * F.C


def test_build_param_examples():
    p = build_param(IntForm(1, 0, -1), CM_ON_G)
    assert p.u == (1, 0, 1) and p.v == (0, 1, 0)
    assert _derived(p) == (1, 0, -4) and p.case.D == 16

    q = build_param(IntForm(1, 0, 1), RM_THROUGH_P)
    assert q.u == (1, 0, -1) and q.v == (0, 1, 0) and _derived(q) == (1, 0, 4) and q.case.D == -16

    r = build_param(IntForm(1, 1, -1), CM_ON_G)
    assert r.u == (1, 2, 2) and r.v == (0, 2, 1)
    assert _derived(r) == (4, 4, -4) and r.case.D == 80

    # on a half-line (R = 0) the rows are u = (Q, P, 0) and v = (0, 0, -1),
    # and the derived form is (0, 4Q, P^2)
    h = build_param(IntForm(0, 1, -2), CM_ON_G)
    assert h.u == (1, -4, 0) and h.v == (0, 0, -1) and h.half_line
    assert _derived(h) == (0, 4, 16)
    v = build_param(IntForm(0, 3, -7), RM_PERP_G)
    assert v.u == (3, -14, 0) and v.v == (0, 0, -1) and _derived(v) == (0, 12, 196)
    assert not r.half_line and not q.half_line

    with pytest.raises(WrongDiscriminantSign):
        build_param(IntForm(1, 0, 1), CM_ON_G)
    with pytest.raises(WrongDiscriminantSign):
        build_param(IntForm(1, 0, -1), RM_THROUGH_P)


def test_derived_discriminant_identity():
    rng = random.Random(7)
    count = 0
    while count < 100:
        a = rng.randint(-6, 6)
        b = rng.randint(-6, 6)
        c = rng.randint(-6, 6)
        if a == 0 and b == 0 and c == 0:
            continue
        G = normalize(a, b, c)
        D0 = G.discriminant()
        if D0 == 0:
            continue
        mode = CM_ON_G if D0 > 0 else RM_THROUGH_P
        p = build_param(G, mode)
        g = math.gcd(D0, 2)
        assert p.case.D == 16 * D0 // (g * g)
        count += 1


def test_mn_to_form():
    p = build_param(IntForm(1, 0, -1), CM_ON_G)
    assert mn_to_form(p, 0, 1).triple() == (1, 0, 1)
    assert mn_to_form(p, -3, 2).triple() == (2, -3, 2)
    q = build_param(IntForm(1, 0, 1), RM_THROUGH_P)
    assert mn_to_form(q, 1, 1).triple() == (1, 1, -1)
    # the Diophantine incidence relation holds for arbitrary (m, n)
    rng = random.Random(2)
    for G in (IntForm(1, 1, -1), IntForm(2, 1, -3), IntForm(0, 3, 1)):
        par = build_param(G, CM_ON_G)
        A0, B0, C0 = G.triple()
        for _ in range(50):
            m, n = rng.randint(-30, 30), rng.randint(1, 30)
            f = mn_to_form(par, m, n)
            assert 2 * f.a * C0 + 2 * f.c * A0 == f.b * B0
            A, B, C = _derived(par)
            assert f.discriminant() == A * m * m + B * m * n + C * n * n
    # exact past int64, as a one-row call of the form columns
    for G, m, n in [(IntForm(1, 1, -1), 2**70, 3), (IntForm(0, 3, 1), -(2**70), 2**65 + 1)]:
        par = build_param(G, CM_ON_G)
        assert mn_to_form(par, m, n) == _scalar_form(par, m, n)


def test_enum_cm_examples():
    got = enum_cm_on_geodesic(IntForm(1, 0, -1), 7)
    assert [r.point.form.triple() for r in got] == [
        (2, -3, 2), (1, -1, 1), (1, 0, 1), (1, 1, 1), (2, 3, 2)
    ]
    assert [r.point.form.discriminant() for r in got] == [-7, -3, -4, -3, -7]
    axis = enum_cm_on_geodesic(IntForm(0, 1, 0), 4)
    assert [r.point.form.triple() for r in axis] == [(1, 0, 1)]
    assert enum_cm_on_geodesic(IntForm(1, 0, -1), 2) == []


def test_enum_cm_needs_arc_for_nonsquare():
    with pytest.raises(UnboundedDivergence):
        enum_cm_on_geodesic(IntForm(1, 1, -1), 100)
    # with an arc it is fine
    got = enum_cm_on_geodesic(IntForm(1, 1, -1), 100, arc=(0.5, math.pi - 0.5))
    assert got and all(cm_on_geodesic(r.point.form, IntForm(1, 1, -1)) for r in got)


def test_enum_rm_perp_examples():
    got = enum_rm_perp_geodesic(IntForm(0, 1, 0), 4)
    assert [r.curve.form.triple() for r in got] == [(1, 0, -1)]
    assert got[0].foot.x == 0 and math.isclose(got[0].foot.y, 1)
    got = enum_rm_perp_geodesic(IntForm(1, 0, -1), 16)
    trips = {r.curve.form.triple() for r in got}
    assert (1, 0, -4) not in trips  # fails the incidence relation
    assert (2, -3, -2) not in trips  # D = 25 exceeds 16
    for r in got:
        assert rm_perp_geodesic(r.curve.form, IntForm(1, 0, -1))
        assert 0 < r.curve.form.discriminant() <= 16
    assert enum_rm_perp_geodesic(IntForm(1, 0, -1), 0) == []


def test_enum_rm_through_point_examples():
    got = enum_rm_through_point(IntForm(1, 0, 1), 16)
    assert [r.curve.form.triple() for r in got] == [
        (1, m, -1) for m in range(-3, 4)
    ]
    for r, m in zip(got, range(-3, 4)):
        assert math.isclose(r.angle, math.acos(m / math.sqrt(m * m + 4)))
    assert enum_rm_through_point(IntForm(1, 0, 1), 3) == []


def test_completeness_square_case():
    """Box scan finds no incident CM point missing from the enumeration."""
    G = IntForm(1, 0, -1)
    delta = 500
    got = {r.point.form.triple() for r in enum_cm_on_geodesic(G, delta)}
    # incidence with (1, 0, -1) forces c = a, so D = b^2 - 4a^2
    brute = set()
    for a in range(1, delta):
        for b in range(-2 * a + 1, 2 * a):
            D = b * b - 4 * a * a
            if -delta <= D < 0 and math.gcd(math.gcd(a, abs(b)), a) == 1:
                brute.add((a, b, a))
    assert got == brute


def test_completeness_rm_through_point():
    p = IntForm(1, 0, 1)
    delta = 500
    got = {r.curve.form.triple() for r in enum_rm_through_point(p, delta)}
    # incidence forces c = -a for curves through i
    brute = set()
    for a in range(1, delta):
        for b in range(-delta, delta + 1):
            D = b * b + 4 * a * a
            if 0 < D <= delta and math.gcd(math.gcd(a, abs(b)), a) == 1:
                brute.add((a, b, -a))
    assert got == brute


def test_coordinate_monotone():
    got = enum_cm_on_geodesic(IntForm(1, 0, -1), 200)
    coords = [r.coord for r in got]
    assert coords == sorted(coords)
    rt = enum_rm_through_point(IntForm(1, 0, 1), 200)
    angles = [r.angle for r in rt]
    assert angles == sorted(angles, reverse=True)


def test_coord_roundtrip():
    for G, mode in [
        (IntForm(1, 0, -1), CM_ON_G),
        (IntForm(1, 0, -1), RM_PERP_G),
        (IntForm(1, 0, 1), RM_THROUGH_P),
        (IntForm(0, 1, 0), CM_ON_G),
    ]:
        par = build_param(G, mode)
        for u in (0.3, 1.0, 2.2):
            if mode == RM_PERP_G and abs(u - math.pi / 2) < 0.2:
                continue
            assert math.isclose(coord_of_t(par, t_of_coord(par, u)), u, rel_tol=1e-12)


def test_halfline_transport():
    """CM points on x = 0 map to CM points on x = n under z -> n - 1/z."""
    n = 3
    delta = 300
    src = enum_cm_on_geodesic(IntForm(0, 1, 0), delta)
    dst = enum_cm_on_geodesic(IntForm(0, 1, -n), delta)
    moved = sorted((n - 1 / r.point.z for r in src), key=lambda z: (z.real, z.imag))
    target = sorted((r.point.z for r in dst), key=lambda z: (z.real, z.imag))
    assert len(moved) == len(target)
    for a, b in zip(moved, target):
        assert abs(a - b) < 1e-9


def test_pushforward():
    """dt/|F(t)| along t(u) is the closed-form measure in u, up to rounding,
    on semicircles and half-lines in both geodesic modes and about points."""
    bases = [(IntForm(*G), mode) for G in [(1, 0, -1), (0, 1, 0), (0, 3, -7), (2, 1, -3)]
             for mode in (CM_ON_G, RM_PERP_G)]
    bases += [(IntForm(1, 1, -1), CM_ON_G), (IntForm(1, 0, 1), RM_THROUGH_P), (IntForm(2, 1, 3), RM_THROUGH_P)]
    for G, mode in bases:
        assert pushforward_check(build_param(G, mode)) < 1e-10, (G, mode)


def test_pushforward_sees_a_wrong_half_line_map(monkeypatch):
    """A half-line map t(y) that drops a factor y transports dt/|F| to
    (1/B) dy/y, half the target (2/B) dy/y."""

    def wrong(param, y):
        F = param.case.F
        return F.B * y / 4 - F.C / F.B if param.half_line else t_of_coord(param, y)

    monkeypatch.setattr(geodesic_enum, "t_of_coord", wrong)
    for mode in (CM_ON_G, RM_PERP_G):
        assert pushforward_check(build_param(IntForm(0, 3, -7), mode)) > 0.1


def test_enum_cm_in_ball():
    got = enum_cm_in_ball(PointH(0, 1), math.log(2), D=-4)
    assert [r.point.form.triple() for r in got] == [(1, 0, 1)]
    assert enum_cm_in_ball(PointH(0, 1), 0.1, D=-3) == []
    # the nearest D=-3 points are (+-1 + sqrt(3) i) / 2
    s = dist(PointH(0, 1), PointH(-0.5, math.sqrt(3) / 2))
    assert enum_cm_in_ball(PointH(0, 1), s + 1e-9, D=-3) != []
    assert enum_cm_in_ball(PointH(0, 1), s - 1e-9, D=-3) == []
    assert enum_cm_in_ball(PointH(0, 1), 1.0, delta=2) == []
    with pytest.raises(ValueError):
        enum_cm_in_ball(PointH(0, 1), 1.0)


def test_enum_cm_in_ball_membership():
    z0 = PointH(0.25, 1.5)
    for r in enum_cm_in_ball(z0, 0.9, delta=400):
        z = r.point.z
        assert dist(z0, PointH(z.real, z.imag)) <= 0.9 + 1e-9


def _ball_full_c_loop(z0, s0, delta=None, D=None):
    """enum_cm_in_ball(z0, s0, delta=delta) testing every c of D <= -1 and
    |D| <= delta, or enum_cm_in_ball(z0, s0, D=D) testing every (a, b),
    sorted the same way."""
    be = ball(z0, s0)
    x0, y0, re = be.center.x, be.center.y, be.radius_euclid
    d_max = math.floor(delta) if D is None else -D
    a_max = math.isqrt(math.floor(d_max / (4 * (y0 - re) ** 2))) + 1
    out = []
    for a in range(1, a_max + 1):
        for b in range(math.ceil(-2 * a * (x0 + re)), math.floor(-2 * a * (x0 - re)) + 1):
            if D is None:
                cs = range((b * b + 4 * a) // (4 * a), (b * b + d_max) // (4 * a) + 1)
            else:
                cs = [(b * b - D) // (4 * a)] if (b * b - D) % (4 * a) == 0 else []
            for c in cs:
                d = b * b - 4 * a * c
                if d >= 0 or math.gcd(math.gcd(a, abs(b)), abs(c)) != 1:
                    continue
                z = PointH(-b / (2 * a), math.sqrt(-d) / (2 * a))
                if be.contains(z):
                    out.append(((a, b, c), 0.0 if z == z0 else ang_p(z0, z)))
    return sorted(out)


def test_enum_cm_in_ball_chord_matches_full_loop():
    rho = PointH(-0.5, math.sqrt(3) / 2)
    for z0, s0, kw in [
        (PointH(0, 1), 1.0, dict(delta=600)),
        (rho, 1.0, dict(delta=600)),
        (PointH(0, math.sqrt(2)), 0.7, dict(delta=600)),
        (PointH(0.1, 0.5), 1.2, dict(delta=300)),  # reaches down to y = 0.15
        # b^2 beyond 2^53: the chord's float c-bounds lost points here
        (PointH(2**26 + 0.25, 1.5), 0.9, dict(delta=400)),
        # single-D mode
        (PointH(0, 1), 1.0, dict(D=-40003)),
        (rho, 1.0, dict(D=-40003)),
        (PointH(0, math.sqrt(2)), 1.0, dict(D=-40003)),
    ]:
        got = [(r.point.form.triple(), r.angle) for r in enum_cm_in_ball(z0, s0, **kw)]
        assert got and got == _ball_full_c_loop(z0, s0, **kw)


# the geodesic of (1, 1, -1) moved by z -> z - k, k = 2^20 + 3: its forms'
# coefficients are near 2^41
_K = 2**20 + 3
SHIFTED = IntForm(1, 2 * _K + 1, _K * _K + _K - 1)


def _random_pairs(rng, param, count, sign, center=0):
    """count random coprime (m, n), n <= 2^10 and |m - center * n| <= 2^10,
    with sign * F(m, n) > 0 for F the derived form, as int64 columns."""
    A, B, C = _derived(param)
    pairs = []
    while len(pairs) < count:
        n = rng.randint(1, 2**10)
        m = math.floor(center * n) + rng.randint(-(2**10), 2**10)
        if math.gcd(m, n) == 1 and sign * (A * m * m + B * m * n + C * n * n) > 0:
            pairs.append((m, n))
    return [np.array(col, dtype=np.int64) for col in zip(*pairs)]


def _bits(xs):
    return np.asarray(xs, dtype=float).tobytes()


def _scalar_form(param, m, n):
    """The incident form n u + m v of (m, n) in Python ints: the reference
    that _form_cols and mn_to_form, its one-row call, are pinned to."""
    return IntForm(*(n * x + m * y for x, y in zip(param.u, param.v)))


def _scalar_foot(rm, G):
    """The foot of rm on G as a scalar formula: the reference that _foot_cols
    and perp_foot, its one-row call, are pinned to."""
    a, b, c = rm.triple()
    A0, B0, C0 = G.triple()
    if A0 == 0:
        x = -C0 / B0
        num, den = rm.discriminant(), 4 * a * a
    else:
        u = B0 * a - A0 * b
        x = (A0 * c - C0 * a) / u
        D0 = G.discriminant()
        num, den = D0 * (u * u - a * a * D0), 4 * A0 * A0 * (u * u)
    return PointH(x, math.sqrt(num / den))


def _check_columns(param, ms, ns, ts):
    """The column builders and their one-row calls (mn_to_form, coord_of_t,
    perp_foot) against the scalar references."""
    pairs = list(zip(ms.tolist(), ns.tolist()))
    forms = [_scalar_form(param, m, n) for m, n in pairs]
    cols = _form_cols(param, ms, ns)
    assert [IntForm(*abc) for abc in zip(*(c.tolist() for c in cols))] == forms
    assert [mn_to_form(param, m, n) for m, n in pairs] == forms
    assert _bits(_coord_col(param, ts)) == _bits([coord_of_t(param, t) for t in ts.tolist()])
    if param.mode == RM_PERP_G:
        feet = [_scalar_foot(f, param.base) for f in forms]
        x, y = _foot_cols(param.base, *cols)
        assert _bits(x) == _bits([p.x for p in feet])
        assert _bits(y) == _bits([p.y for p in feet])
        assert [perp_foot(f, param.base) for f in forms] == feet


def test_column_builders_match_scalar_reference():
    # a point base is never a half-line (D0 < 0 forces A0 != 0)
    for G, mode, delta, arc in [
        (IntForm(1, 0, -1), CM_ON_G, 2000, None),
        (IntForm(1, 1, -1), CM_ON_G, 2000, (0.3, 2.8)),
        (IntForm(0, 1, -2), CM_ON_G, 2000, None),
        (IntForm(1, 0, -1), RM_PERP_G, 2000, (0.3, 1.2)),
        (IntForm(2, 1, -3), RM_PERP_G, 2000, (1.9, 2.9)),
        (IntForm(0, 1, 0), RM_PERP_G, 2000, None),
        (IntForm(0, 3, 1), RM_PERP_G, 2000, (0.2, 3.0)),
        # half-lines through the one Bezout map and the one foot formula
        (IntForm(0, 3, -7), CM_ON_G, 2000, None),
        (IntForm(0, 3, -7), RM_PERP_G, 2000, (0.05, 0.4)),
        (IntForm(0, 2, 1), CM_ON_G, 2000, (0.2, 3.0)),
        (IntForm(0, 2, 1), RM_PERP_G, 2000, None),
        (IntForm(1, 0, 1), RM_THROUGH_P, 2000, None),
        (IntForm(2, 1, 3), RM_THROUGH_P, 2000, None),
    ]:
        param = build_param(G, mode)
        ms, ns, ts, _, _ = _enum_pairs(param, delta, _arc_interval(param, arc))
        assert len(ms) > 20
        _check_columns(param, ms, ns, ts)
    # coefficients near 2^41 overflow int64 in the form columns, which then
    # hold Python ints
    rng = random.Random(5)
    param = build_param(SHIFTED, RM_PERP_G)
    ms, ns = _random_pairs(rng, param, 200, 1)
    assert _form_cols(param, ms, ns)[2].dtype == object
    _check_columns(param, ms, ns, ms / ns)
    # the ball's angle column against ang_p, with points straight below,
    # above and at the center among them
    p = PointH(0.25, 1.5)
    zs = [PointH(rng.uniform(-3, 3), rng.uniform(0.1, 4)) for _ in range(20000)]
    zs += [PointH(0.25, 0.5), PointH(0.25, 2.0), p]
    got = _ball_angles(p, *(np.array(col) for col in zip(*((z.x, z.y) for z in zs))))
    assert _bits(got) == _bits([0.0 if z == p else ang_p(p, z) for z in zs])
    # outside the coordinate's domain the column raises coord_of_t's error
    for G, mode, t in [
        (IntForm(1, 0, -1), CM_ON_G, 1e9),  # acos of a value below -1
        (IntForm(1, 0, -1), RM_PERP_G, 0.0),  # division by 0
        (IntForm(0, 1, -2), CM_ON_G, 1e9),  # sqrt of a negative value
    ]:
        param = build_param(G, mode)
        with pytest.raises(Exception) as scalar:
            coord_of_t(param, t)
        with pytest.raises(scalar.type):
            _coord_col(param, np.array([t]))


def test_non_finite_delta_rejected():
    for delta in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            enum_cm_on_geodesic(IntForm(1, 1, -1), delta, arc=(0.5, 2.0))
        with pytest.raises(DomainError):
            enum_rm_through_point(IntForm(1, 0, 1), delta)
        # the ball and Im z = 1 refuse through the scan's own _check_delta
        with pytest.raises(DomainError, match=f"^delta must be finite, got {delta}$"):
            enum_cm_in_ball(PointH(0.0, 1.0), 0.5, delta=delta)
        with pytest.raises(DomainError, match=f"^delta must be finite, got {delta}$"):
            enum_cm_on_im1(delta, -1, 1)


def test_root_touching_arc_names_the_arc():
    # cos(1e-10) rounds to 1, so the arc's t-end is a root of the scan form
    with pytest.raises(IntervalTouchesRoot, match=r"arc \(1e-10, 1.0\)"):
        enum_cm_on_geodesic(IntForm(1, 0, -1), 100, arc=(1e-10, 1.0))


def test_arc_windows_are_refused_by_their_shape():
    """An arc needs c1 < c2, y > 0 on a half-line base, 0 < theta1 <
    theta2 < pi on a semicircle, and for RM curves no end at theta = pi/2,
    the point at infinity of the t-line."""
    half, semi = build_param(IntForm(0, 1, 0), CM_ON_G), build_param(IntForm(1, 0, -1), CM_ON_G)
    for param, arc, message in [(semi, (1.0, 0.5), "c1 < c2"), (half, (0.0, 2.0), "y > 0"),
                                (semi, (0.0, 1.0), "0 < theta1 < theta2 < pi"),
                                (semi, (1.0, 3.5), "0 < theta1 < theta2 < pi")]:
        with pytest.raises(DomainError, match=message):
            _arc_interval(param, arc)
    with pytest.raises(DomainError, match="maps to infinity"):
        enum_rm_perp_geodesic(IntForm(1, 0, -1), 100, arc=(0.5, math.pi / 2))


def test_enum_cm_on_im1():
    got = enum_cm_on_im1(10**4, -1, 1)
    for p in got:
        assert abs(p.z.imag - 1) < 1e-12
        n2 = p.form.a
        assert p.form.discriminant() == -4 * n2 * n2


def test_perp_foot_exact_on_shifted_base():
    # float r^2 - (x - q)^2 cancelled to <= 0 here for most of these pairs;
    # y^2 is now exact: y is the square root of its correctly rounded value
    param = build_param(SHIFTED, RM_PERP_G)
    ms, ns = _random_pairs(random.Random(11), param, 1239, 1)
    forms = [_scalar_form(param, m, n) for m, n in zip(ms.tolist(), ns.tolist())]
    for f in forms:
        foot = perp_foot(f, SHIFTED)  # raises nothing
        assert foot == _scalar_foot(f, SHIFTED)
        a, b, c = f.triple()
        x = Fraction(SHIFTED.a * c - SHIFTED.c * a, SHIFTED.b * a - SHIFTED.a * b)
        y2 = Fraction(f.discriminant(), 4 * a * a) - (x + Fraction(b, 2 * a)) ** 2
        assert foot.y == math.sqrt(y2)
    _, y = _foot_cols(SHIFTED, *_form_cols(param, ms, ns))
    assert _bits(y) == _bits([_scalar_foot(f, SHIFTED).y for f in forms])


def _leaves(obj):
    """The int and float fields of a record, through its value objects."""
    if isinstance(obj, (int, float)):
        return [obj]
    fields = obj if isinstance(obj, tuple) else [getattr(obj, n) for n in obj.__slots__]
    return [v for f in fields for v in _leaves(f)]


def _assert_same_records(got, ref):
    assert len(got) == len(ref) > 0
    for g, r in zip(got, ref):
        assert type(g) is type(r) and g == r and hash(g) == hash(r) and repr(g) == repr(r)
        assert all(type(v) in (int, float) for v in _leaves(g))


def test_builder_matches_public_constructors():
    # every record kind on int64 columns and, on the shifted bases, on
    # columns of Python ints, against the same records made by the public
    # constructors
    rng = random.Random(3)
    k = 2**23 + 1
    point = IntForm(1, 2 * k, k * k + 1)  # i - k
    for G, mode, record, big in [
        (IntForm(1, 1, -1), CM_ON_G, CMOnGeodesic, False),
        (SHIFTED, CM_ON_G, CMOnGeodesic, True),
        (IntForm(0, 1, -2), CM_ON_G, CMOnGeodesic, False),
        (IntForm(2, 1, -3), RM_PERP_G, RMPerpGeodesic, False),
        (SHIFTED, RM_PERP_G, RMPerpGeodesic, True),
        (IntForm(0, 3, 1), RM_PERP_G, RMPerpGeodesic, False),
        (IntForm(2, 1, 3), RM_THROUGH_P, RMThroughPoint, False),
        (point, RM_THROUGH_P, RMThroughPoint, True),
    ]:
        param = build_param(G, mode)
        A, B, _ = _derived(param)
        # CM pairs lie between the roots of F, around t = -B / 2A
        center = Fraction(-B, 2 * A) if mode == CM_ON_G and A else 0
        ms, ns = _random_pairs(rng, param, 300, -1 if mode == CM_ON_G else 1, center)
        assert (_form_cols(param, ms, ns)[0].dtype == object) == big
        got = _build(*_record_cols(param, ms, ns, ms / ns))
        ref = []
        for m, n in zip(ms.tolist(), ns.tolist()):
            f, frac, u = mn_to_form(param, m, n), Frac.make(m, n), coord_of_t(param, m / n)
            if record is CMOnGeodesic:
                ref.append(CMOnGeodesic(CMPoint(f), frac, u))
            elif record is RMPerpGeodesic:
                ref.append(RMPerpGeodesic(RMCurve(f), frac, perp_foot(f, G), u))
            else:
                ref.append(RMThroughPoint(RMCurve(f), frac, u))
        _assert_same_records(got, ref)
    # balls: far out on the real line b^2 overflows int64
    for z0, big in [(PointH(0.25, 1.5), False), (PointH(2**30 + 0.25, 1.5), True)]:
        got = enum_cm_in_ball(z0, 0.9, delta=400)
        ref = [CMInBall(CMPoint(IntForm(*abc)), u) for abc, u in _ball_full_c_loop(z0, 0.9, delta=400)]
        _assert_same_records(got, ref)
        assert all(type(r.point.form.b) is int for r in got)


def test_builder_rejects_rows_as_the_constructors_do():
    def cols(*rows, dtype=np.int64):
        return [np.array(col, dtype=dtype if type(col[0]) is int else float) for col in zip(*rows)]

    ok_cm, ok_rm = (1, 0, 1), (1, 0, -1)
    frac, foot = (0, 1, 0.0), (0.0, 1.0)
    for record, good, bad_row, ctor in [
        (CMOnGeodesic, ok_cm + frac + (1.0,), (1, 3, 1) + frac + (1.0,), lambda: CMPoint(IntForm(1, 3, 1))),
        (CMOnGeodesic, ok_cm + frac + (1.0,), (0, 0, -1) + frac + (1.0,), lambda: CMPoint(IntForm(0, 0, -1))),
        (CMInBall, ok_cm + (1.0,), (2, 1, 0) + (1.0,), lambda: CMPoint(IntForm(2, 1, 0))),
        (RMThroughPoint, ok_rm + frac + (1.0,), (1, 0, 1) + frac + (1.0,), lambda: RMCurve(IntForm(1, 0, 1))),
        (RMThroughPoint, ok_rm + frac + (1.0,), (0, 1, 1) + frac + (1.0,), lambda: RMCurve(IntForm(0, 1, 1))),
        (RMPerpGeodesic, ok_rm + frac + foot + (1.0,), ok_rm + frac + (0.0, 0.0, 1.0), lambda: PointH(0.0, 0.0)),
        (RMPerpGeodesic, ok_rm + frac + foot + (1.0,), ok_rm + frac + (0.0, math.nan, 1.0), lambda: PointH(0.0, math.nan)),
        (RMPerpGeodesic, ok_rm + frac + foot + (1.0,), ok_rm + frac + (math.inf, 1.0, 1.0), lambda: PointH(math.inf, 1.0)),
        (RMPerpGeodesic, ok_rm + frac + foot + (1.0,), ok_rm + frac + (0.0, math.inf, 1.0), lambda: PointH(0.0, math.inf)),
    ]:
        with pytest.raises(Exception) as ref:
            ctor()
        for dtype in (np.int64, object):
            assert len(_build(record, cols(good, good, dtype=dtype))) == 2
            with pytest.raises(ref.type, match=re.escape(str(ref.value))):
                _build(record, cols(good, bad_row, good, dtype=dtype))


def test_build_restores_gc_state(monkeypatch):
    param = build_param(IntForm(1, 0, 1), RM_THROUGH_P)
    ms, ns, ts, _, _ = _enum_pairs(param, 2000, None)
    monkeypatch.setattr(geodesic_enum, "_ROWS", 16)
    seen = []
    block = geodesic_enum._block

    def spy(*args):
        seen.append(gc.isenabled())
        if fail and len(seen) == 3:
            raise RuntimeError("part-way")
        return block(*args)

    monkeypatch.setattr(geodesic_enum, "_block", spy)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            for fail in (False, True):
                (gc.enable if enabled else gc.disable)()
                seen.clear()
                if fail:
                    with pytest.raises(RuntimeError, match="part-way"):
                        _build(*_record_cols(param, ms, ns, ts))
                else:
                    assert len(_build(*_record_cols(param, ms, ns, ts))) > 3 * 16
                assert seen and not any(seen)  # paused while the list fills
                assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_value_classes_are_slotted_and_frozen():
    rec = enum_rm_perp_geodesic(IntForm(1, 0, -1), 100, arc=(0.3, 1.2))[0]
    point = enum_cm_in_ball(PointH(0, 1), 1.0, delta=20)[0].point
    for obj in (rec.curve, rec.curve.form, rec.foot, point, point.form,
                IntForm(1, 0, 1), CMPoint(IntForm(1, 0, 1)), PointH(0.0, 1.0)):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, type(obj).__slots__[0], 0)


def test_records_retain_under_400_bytes_each():
    # 441 B per record with dict-backed frozen dataclasses, about 360 slotted
    enum_rm_through_point(IntForm(1, 0, 1), 10**5)  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        recs = enum_rm_through_point(IntForm(1, 0, 1), 10**5)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(recs) == 47741
    assert retained / len(recs) < 400


def _cm_on_im1_loop(delta, x_lo, x_hi):
    """enum_cm_on_im1 as a loop over (a, b) with the validating constructors,
    the window ends taken as the rationals they are."""
    out = []
    x_lo, x_hi = Fraction(x_lo), Fraction(x_hi)
    a_max = math.isqrt(math.floor(delta)) // 2 + 1
    for a in range(1, a_max + 1):
        if 4 * a * a > delta:
            continue
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


def test_enum_cm_on_im1_matches_loop():
    for delta, x_lo, x_hi in [
        (10**4, -1, 1),
        (10**5, -0.3, 2.7),
        (4, -1, 1),  # only i
        (3.9, -1, 1),  # nothing
        (0, -1, 1),
        (5000, 0.5, 0.5),  # a single x
        (5000, 1.0, -1.0),  # an empty window
        (400, 2**40 + 0.25, 2**40 + 2.5),  # b^2 beyond int64
    ]:
        got = enum_cm_on_im1(delta, x_lo, x_hi)
        ref = _cm_on_im1_loop(delta, x_lo, x_hi)
        assert got == ref and [type(p) for p in got] == [type(p) for p in ref]
        assert all(type(v) is int for p in got for v in p.form.triple())
    assert len(enum_cm_on_im1(10**5, -0.3, 2.7)) > 100


def test_im1_window_is_exact():
    """m/n + i is kept when x_lo <= m/n <= x_hi, the float ends taken as the
    rationals they are.  The floats 284.4, 251.33333333333331 and 0.1 lie
    below 1422/5, 754/3 and 1/10, and -0.3 above -3/10, so none of these
    points is kept.  The float products n x decided them wrongly (all but
    -3/10 from 2n^2 x); at 1e30 (n_max = 2.2e7) the call took 15 s on a
    2-core host, all of its columns Python ints."""
    cases = [(1e5, 282.9, 284.4, (1422, 5)), (1e6, 248.16666666666666, 251.33333333333331, (754, 3)),
             (10**5, -0.3, 2.7, (-3, 10))]
    for delta, x_lo, x_hi, (m, n) in cases:
        got = enum_cm_on_im1(delta, x_lo, x_hi)
        assert got == _cm_on_im1_loop(delta, x_lo, x_hi)
        assert CMPoint(IntForm(n * n, -2 * m * n, n * n + m * m)) not in got
        assert CMPoint(IntForm(n * n, -2 * m * n, n * n + m * m)) in enum_cm_on_im1(delta, x_lo - 1, x_hi + 1)
    assert len(enum_cm_on_im1(10**5, -0.3, 2.7)) == 138
    # any m/n other than 1/10 with n <= 2.2e7 is 4.5e-9 or more from 0.1
    assert enum_cm_on_im1(1e30, 0.1, 0.1 + 1e-9) == []


def test_im1_narrow_windows_match_the_exact_reference():
    """Windows from an ulp to 1e-3 wide whose ends lie within two ulps of a
    rational of small denominator, so that n x is within an ulp of an
    integer for some n <= n_max, where the float products cannot decide."""
    rng = random.Random(17)
    for _ in range(300):
        q = rng.randint(1, 40)
        x_lo = float(Fraction(rng.randint(-5 * q, 5 * q), q))
        for _ in range(rng.randint(0, 2)):
            x_lo = math.nextafter(x_lo, rng.choice((-math.inf, math.inf)))
        x_hi = x_lo + rng.choice((0.0, math.ulp(x_lo), 1e-12, 1e-6, 1e-3))
        if rng.random() < 0.5:  # the upper end near a rational instead
            q = rng.randint(1, 40)
            x_hi = max(x_lo, float(Fraction(math.floor(x_lo * q) + rng.randint(0, 2), q)))
            x_hi = math.nextafter(x_hi, rng.choice((-math.inf, x_hi, math.inf)))
        delta = rng.choice((4, 10**4, 10**6, 10**7))
        assert enum_cm_on_im1(delta, x_lo, x_hi) == _cm_on_im1_loop(delta, x_lo, x_hi), (delta, x_lo, x_hi)


def test_im1_scans_coprime_pairs_by_n():
    """The points m/n + i of [0, 1] with n <= 707: 1 + sum of phi(n).  As
    (a, b) pairs this window had 2.5e11 candidates and was refused."""
    import time

    t = time.perf_counter()
    got = enum_cm_on_im1(1e12, 0, 1)
    assert time.perf_counter() - t < 5.0
    assert len(got) == 1 + sum_phi(707)[0]


def test_ball_pairs_are_made_in_blocks_of_a():
    """a_max is about 10^7 and the ball holds no point.  Built for every a at
    once, the columns of (a, b) ranges peaked at 561 MB."""
    tracemalloc.start()
    try:
        assert enum_cm_in_ball(PointH(0, 1e-6), 1e-3, delta=400) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_huge_bases_with_no_pairs():
    """Integer bounds made from empty columns must still cover the
    coefficients of the base, or the int64 form columns overflow."""
    assert enum_cm_on_geodesic(IntForm(1, 0, -(2**70)), 0.5) == []
    assert enum_rm_perp_geodesic(IntForm(1, 0, -(2**70)), 0.5) == []
    assert enum_rm_through_point(IntForm(1, 0, 2**70), 2**69) == []


def test_scan_guard_counts_candidates_not_only_n_max():
    """n_max is 1, but that one n has about 1.4e11 candidates: refused
    before any is tested."""
    import time

    from linnikgeo.errors import GuardExceeded

    t = time.perf_counter()
    with pytest.raises(GuardExceeded, match="has n_max = 1 and [0-9]{12} candidates"):
        enum_rm_through_point(IntForm(1, 0, 2**70), 2**73)
    assert time.perf_counter() - t < 1.0


def test_delta_below_one_is_empty():
    for delta in (-5, 0, 0.5):
        assert enum_cm_in_ball(PointH(0, 1), 1.0, delta=delta) == []
        assert enum_cm_on_im1(delta, 0, 1) == []
        assert enum_rm_through_point(IntForm(1, 0, 1), delta) == []


def test_enum_cm_in_ball_takes_integral_float_D():
    want = enum_cm_in_ball(PointH(0, 1), 1.0, D=-4)
    assert len(want) == 5
    assert enum_cm_in_ball(PointH(0, 1), 1.0, D=-4.0) == want
    for D in (-4.5, -math.inf, math.nan):
        with pytest.raises(DomainError, match=f"D must be an integer, got {D}"):
            enum_cm_in_ball(PointH(0, 1), 1.0, D=D)


def test_ball_and_im1_refuse_unbounded_work_at_once():
    """a_max (n_max on Im z = 1) and a bound on the count of (a, b) (or
    (m, n)) pairs are checked before their columns are made.  The wide
    window on Im z = 1 has n_max = 707 and up to 2.5e11 pairs; the next call
    has n_max = 1.8e8.  The first ball ran past a 6 s timeout as a loop over
    a; the second would have filled memory.  The third has an a_max of
    9.6e7, under the guard, and up to 1.9e9 pairs."""
    import time

    from linnikgeo.errors import GuardExceeded

    for call, match in [
        (lambda: enum_cm_on_im1(1e12, 0, 1e6), r"has up to [0-9]{12} \(m, n\) pairs"),
        (lambda: enum_cm_on_im1(4e33, 0, 1), "has n_max = [0-9]{9},"),
        (lambda: enum_cm_in_ball(PointH(0, 1), 1.0, delta=1e12), r"has up to [0-9]{13} \(a, b\) pairs"),
        (lambda: enum_cm_in_ball(PointH(0, 1e-6), 0.1, delta=3e4), r"has up to [0-9]{10} \(a, b\) pairs"),
        (lambda: enum_cm_in_ball(PointH(0, 1e-6), 0.1, delta=1e6), "has a_max = [0-9]{9},"),
    ]:
        t = time.perf_counter()
        with pytest.raises(GuardExceeded, match=match):
            call()
        assert time.perf_counter() - t < 1.0


def test_ball_guard_checks_a_max_then_pairs_then_candidates(monkeypatch):
    """At delta = 1500 the radius-1 ball about i has a_max = 53, about 6,600
    (a, b) pairs and about 40,000 candidates (a, b, c)."""
    from linnikgeo import linnik
    from linnikgeo.errors import GuardExceeded

    for guard, match in [(52, "has a_max = 53,"), (1000, r"\(a, b\) pairs"), (10**4, r"\(a, b, c\) candidates")]:
        monkeypatch.setattr(linnik, "SCAN_GUARD", guard)
        with pytest.raises(GuardExceeded, match=match):
            enum_cm_in_ball(PointH(0, 1), 1.0, delta=1500)
    monkeypatch.setattr(linnik, "SCAN_GUARD", 10**5)
    assert len(enum_cm_in_ball(PointH(0, 1), 1.0, delta=1500)) > 20000


# the cases of test_column_builders_match_scalar_reference
_COLUMN_CASES = [
    (IntForm(1, 0, -1), CM_ON_G, 2000, None),
    (IntForm(1, 1, -1), CM_ON_G, 2000, (0.3, 2.8)),
    (IntForm(0, 1, -2), CM_ON_G, 2000, None),
    (IntForm(1, 0, -1), RM_PERP_G, 2000, (0.3, 1.2)),
    (IntForm(2, 1, -3), RM_PERP_G, 2000, (1.9, 2.9)),
    (IntForm(0, 1, 0), RM_PERP_G, 2000, None),
    (IntForm(0, 3, 1), RM_PERP_G, 2000, (0.2, 3.0)),
    (IntForm(1, 0, 1), RM_THROUGH_P, 2000, None),
    (IntForm(2, 1, 3), RM_THROUGH_P, 2000, None),
]


def _libm_coord(param, t):
    """coord_of_t as per-element libm calls (math.sqrt, math.acos): the
    reference the coordinate ufuncs are pinned to."""
    A, B, C = _derived(param)
    if param.half_line:
        if param.mode == CM_ON_G:
            return math.sqrt(-4 / B * t - 4 * C / (B * B))
        return math.sqrt(4 / B * t + 4 * C / (B * B))
    D = param.case.D
    if param.mode == CM_ON_G:
        return math.acos((-B - 2 * A * t) / math.sqrt(D))
    if param.mode == RM_PERP_G:
        return math.acos(-math.sqrt(D) / (2 * A * t + B))
    s = B + 2 * A * t  # 4 A F(t) = s^2 - D
    return math.acos(s / math.sqrt(s * s - D))


def _libm_angle(p, z):
    """ang_p (0 at p itself) as per-element operations (v**2, math.hypot,
    math.acos): the reference the angle ufuncs are pinned to."""
    if z.x == p.x:
        return 0.0 if z.y <= p.y else math.pi
    q = (z.x + p.x) / 2 + (z.y**2 - p.y**2) / (2 * (z.x - p.x))
    base = math.acos(max(-1.0, min(1.0, (q - p.x) / math.hypot(p.x - q, p.y))))
    return base if z.x > p.x else base + math.pi


def _libm_ball_forms(z0, s0, delta):
    """The forms of enum_cm_in_ball(z0, s0, delta=delta), every c tested and
    membership decided by math.hypot per point."""
    be = ball(z0, s0)
    x0, y0, re = be.center.x, be.center.y, be.radius_euclid
    out = []
    for a in range(1, math.isqrt(math.floor(delta / (4 * (y0 - re) ** 2))) + 2):
        for b in range(math.ceil(-2 * a * (x0 + re)), math.floor(-2 * a * (x0 - re)) + 1):
            for c in range((b * b + 4 * a) // (4 * a), (b * b + delta) // (4 * a) + 1):
                if math.gcd(math.gcd(a, b), c) == 1:
                    y = math.sqrt(4 * a * c - b * b) / (2 * a)
                    if math.hypot(-b / (2 * a) - x0, y - y0) <= re:
                        out.append((a, b, c))
    return out


def test_ufunc_columns_stay_near_per_element_libm():
    """The coordinate and angle columns use numpy ufuncs (np.arccos,
    np.hypot, y * y), which may round differently from libm: coordinates
    stay within 2 ulp, angles within 1e-14, and ball membership is
    unchanged on the benchmark's balls."""
    for G, mode, delta, arc in _COLUMN_CASES:
        param = build_param(G, mode)
        _, _, ts, _, _ = _enum_pairs(param, delta, _arc_interval(param, arc))
        ref = np.array([_libm_coord(param, t) for t in ts.tolist()])
        assert np.all(np.abs(_coord_col(param, ts) - ref) <= 2 * np.spacing(ref))
    rng = random.Random(5)
    param = build_param(SHIFTED, RM_PERP_G)
    ms, ns = _random_pairs(rng, param, 200, 1)
    ref = np.array([_libm_coord(param, t) for t in (ms / ns).tolist()])
    assert np.all(np.abs(_coord_col(param, ms / ns) - ref) <= 2 * np.spacing(ref))
    # the random points of test_column_builders_match_scalar_reference
    p = PointH(0.25, 1.5)
    zs = [PointH(rng.uniform(-3, 3), rng.uniform(0.1, 4)) for _ in range(20000)]
    zs += [PointH(0.25, 0.5), PointH(0.25, 2.0), p]
    got = _ball_angles(p, np.array([z.x for z in zs]), np.array([z.y for z in zs]))
    assert np.max(np.abs(got - [_libm_angle(p, z) for z in zs])) <= 1e-14
    # the benchmark's balls: radius 1 about i, rho and i*sqrt(2), delta = 1500
    for z0 in (PointH(0, 1), PointH(-0.5, math.sqrt(3) / 2), PointH(0, math.sqrt(2))):
        recs = enum_cm_in_ball(z0, 1.0, delta=1500)
        assert [r.point.form.triple() for r in recs] == _libm_ball_forms(z0, 1.0, 1500)
        ref = [_libm_angle(z0, PointH(r.point.z.real, r.point.z.imag)) for r in recs]
        assert np.max(np.abs(np.array([r.angle for r in recs]) - ref)) <= 1e-14


def test_rm_through_point_angles_stay_close_to_mpmath():
    """The angle is arccos(s / sqrt(s^2 - D)), s = 2At + B, from 4 A F(t) =
    s^2 - D.  Against arccos(s / 2 sqrt(A F(t))) at 40 digits and the exact
    t = m/n, the error on i, rho, i*sqrt(2) and (2, 1, 3) stays <= 1e-14."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for form in (IntForm(1, 0, 1), IntForm(1, 1, 1), IntForm(1, 0, 2), IntForm(2, 1, 3)):
        A, B, C = _derived(build_param(form, RM_THROUGH_P))
        for r in enum_rm_through_point(form, 20000):
            t = mpmath.mpf(r.frac.m) / r.frac.n
            ref = mpmath.acos((B + 2 * A * t) / (2 * mpmath.sqrt(A * ((A * t + B) * t + C))))
            assert abs(r.angle - ref) <= 1e-14, r


@pytest.mark.parametrize("k", [2**20 + 1, 2**26 + 1, 2**29 + 1, 2**31 + 1])
def test_rm_through_translated_point_keeps_its_curves_and_angles(k):
    """The point -k + i of (1, 2k, k^2 + 1) is i moved by z -> z - k.  Its
    RM curves moved back are those of i, at the same angles: F(t) at t near
    -k cancelled, and gave angles off by 0.48 rad (k = 2^26 + 1) or raised
    (k = 2^29 + 1, 2^31 + 1)."""
    ref = {r.curve.form.triple(): r.angle for r in enum_rm_through_point(IntForm(1, 0, 1), 2000)}
    got = {}
    for r in enum_rm_through_point(IntForm(1, 2 * k, k * k + 1), 2000):
        a, b, c = r.curve.form.triple()
        got[(a, b - 2 * a * k, c - b * k + a * k * k)] = r.angle
    assert len(ref) == 957 and got.keys() == ref.keys()
    assert max(abs(got[f] - ref[f]) for f in ref) <= 1e-6


def test_im1_filters_its_pairs_block_by_block():
    """At delta = 4e6 (a_max = 1000) the window [0, 1] has about 10^6
    (a, b) pairs, whose int64 columns took 48 MB built at once.  The points
    are m/n + i with a = n^2 <= 1000 and gcd(m, n) = 1, and only those
    (m, n) are scanned."""
    tracemalloc.start()
    try:
        recs = enum_cm_on_im1(4e6, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert len(recs) == sum(math.gcd(m, n) == 1 for n in range(1, 32) for m in range(n + 1))
    assert [r.z.real for r in recs] == sorted(r.z.real for r in recs)
    with pytest.raises(DomainError, match="not a pair of numbers"):
        enum_cm_on_im1(10, math.nan, 1)
    # an infinite end: the b-window's int cast raised OverflowError on
    # (inf, inf), and (0, inf) was refused only as work over the guard
    for lo, hi in [(math.inf, math.inf), (-math.inf, -math.inf), (0, math.inf), (-math.inf, 0)]:
        with pytest.raises(DomainError, match="not a pair of numbers with finite ends"):
            enum_cm_on_im1(100, lo, hi)


def test_ball_im1_and_geodesic_scans_cross_block_cuts(monkeypatch):
    """With blocks and chunks of 3 entries, the ball's a-, b- and c-ranges,
    the (m, n) of Im z = 1 and the scans of a half-line base and of a point
    are cut many times, inside one range too; the records and their order
    stay those of the default blocks."""
    from linnikgeo import linnik

    rho = PointH(-0.5, math.sqrt(3) / 2)
    calls = [
        lambda: enum_cm_in_ball(PointH(0, 1), 1.0, delta=300),
        lambda: enum_cm_in_ball(PointH(0, 1), 1.0, D=-84),
        lambda: enum_cm_in_ball(rho, 1.0, delta=300),
        lambda: enum_cm_in_ball(rho, 1.0, D=-84),
        lambda: enum_cm_on_im1(10**6, -1.5, 2.5),
        lambda: enum_cm_on_geodesic(IntForm(0, 1, 0), 300),
        lambda: enum_rm_through_point(IntForm(1, 1, 1), 300),
    ]
    want = [call() for call in calls]
    assert [len(w) for w in want] == [2479, 16, 2482, 15, 601, 257, 83]
    monkeypatch.setattr(linnik, "_BLOCK", 3)
    assert [call() for call in calls] == want


def test_level_set_roots_from_the_exact_discriminant():
    """The scan form's level-set roots came from B^2 - 4A(C - K) in floats,
    which cancels for large k: 877 curves at k = 2^26 + 1."""
    for k in (0, 2**20 + 1, 2**26 + 1):
        assert len(enum_rm_through_point(IntForm(1, 2 * k, k * k + 1), 2000)) == 957


def test_ball_enumerator_refuses_through_point_and_ball():
    """enum_cm_in_ball keeps no check of its own on s0: a nan centre (it
    reported "up to nan (a, b) pairs"), a radius whose cosh overflows (a
    bare OverflowError) and a non-positive one are refused by PointH and ball."""
    with pytest.raises(ValueError, match="point must have a finite x"):
        enum_cm_in_ball(PointH(math.nan, 1), 1.0, delta=100)
    for s0 in (800, -1, 0, math.nan):
        with pytest.raises(ValueError, match="ball radius must be in"):
            enum_cm_in_ball(PointH(0, 1), s0, delta=10)
