import math
import random

import numpy as np
import pytest

from linnikgeo.errors import (
    DomainError,
    IntervalTouchesRoot,
    NotPerpendicularPair,
    UnboundedDivergence,
    WrongDiscriminantSign,
)
from linnikgeo.forms import IntForm, cm_on_geodesic, normalize, rm_perp_geodesic
from linnikgeo.geodesic_enum import (
    _arc_interval,
    _ball_angles,
    _coord_col,
    _enum_pairs,
    _foot_cols,
    _form_cols,
    CM_ON_G,
    RM_PERP_G,
    RM_THROUGH_P,
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


def test_build_param_examples():
    p = build_param(IntForm(1, 0, -1), CM_ON_G)
    assert p.pqr == (1, 0, 1) and p.S == 1 and p.bezout == (0, 1)
    assert p.derived == (1, 0, -4) and p.derivedD == 16

    q = build_param(IntForm(1, 0, 1), RM_THROUGH_P)
    assert q.pqr == (-1, 0, 1) and q.derived == (1, 0, 4) and q.derivedD == -16

    r = build_param(IntForm(1, 1, -1), CM_ON_G)
    assert r.pqr == (2, -1, 2) and r.S == 1 and r.bezout == (1, 1)
    assert r.derived == (4, 4, -4) and r.derivedD == 80

    h = build_param(IntForm(0, 1, -2), CM_ON_G)
    assert h.pqr == (-4, 1) and h.half_line

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
        assert p.derivedD == 16 * D0 // (g * g)
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
            A, B, C = par.derived
            assert f.discriminant() == A * m * m + B * m * n + C * n * n


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
    assert pushforward_check(build_param(IntForm(1, 0, -1), CM_ON_G)) < 1e-8
    assert pushforward_check(build_param(IntForm(1, 0, 1), RM_THROUGH_P)) < 1e-8
    assert pushforward_check(build_param(IntForm(0, 1, 0), CM_ON_G)) < 1e-8
    assert pushforward_check(build_param(IntForm(1, 0, -1), RM_PERP_G)) < 1e-8


def test_enum_cm_in_ball():
    got = enum_cm_in_ball(PointH(0, 1), math.log(2), D=-4)
    assert [r.point.form.triple() for r in got] == [(1, 0, 1)]
    assert enum_cm_in_ball(PointH(0, 1), 0.1, D=-3) == []
    # the nearest D=-3 points are (+-1 + sqrt(3) i) / 2
    from linnikgeo.hyperbolic import dist

    s = dist(PointH(0, 1), PointH(-0.5, math.sqrt(3) / 2))
    assert enum_cm_in_ball(PointH(0, 1), s + 1e-9, D=-3) != []
    assert enum_cm_in_ball(PointH(0, 1), s - 1e-9, D=-3) == []
    assert enum_cm_in_ball(PointH(0, 1), 1.0, delta=2) == []
    with pytest.raises(ValueError):
        enum_cm_in_ball(PointH(0, 1), 1.0)


def test_enum_cm_in_ball_membership():
    from linnikgeo.hyperbolic import dist

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
        # single-D mode
        (PointH(0, 1), 1.0, dict(D=-40003)),
        (rho, 1.0, dict(D=-40003)),
        (PointH(0, math.sqrt(2)), 1.0, dict(D=-40003)),
    ]:
        got = [(r.point.form.triple(), r.angle) for r in enum_cm_in_ball(z0, s0, **kw)]
        assert got and got == _ball_full_c_loop(z0, s0, **kw)


def _bits(xs):
    return np.asarray(xs, dtype=float).tobytes()


def _check_columns(param, ms, ns, ts):
    """The column builders against mn_to_form, coord_of_t and perp_foot."""
    forms = [mn_to_form(param, m, n) for m, n in zip(ms.tolist(), ns.tolist())]
    cols = _form_cols(param, ms, ns)
    assert [IntForm(*abc) for abc in zip(*(c.tolist() for c in cols))] == forms
    assert _bits(_coord_col(param, ts)) == _bits([coord_of_t(param, t) for t in ts.tolist()])
    if param.mode == RM_PERP_G:
        feet = [perp_foot(f, param.base) for f in forms]
        x, y = _foot_cols(param.base, *cols)
        assert _bits(x) == _bits([p.x for p in feet])
        assert _bits(y) == _bits([p.y for p in feet])


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
        (IntForm(1, 0, 1), RM_THROUGH_P, 2000, None),
        (IntForm(2, 1, 3), RM_THROUGH_P, 2000, None),
    ]:
        param = build_param(G, mode)
        ms, ns, ts = _enum_pairs(param, delta, _arc_interval(param, arc))
        assert len(ms) > 20
        _check_columns(param, ms, ns, ts)
    # coefficients near 2^41 overflow int64 in the form columns, which then
    # hold Python ints; pairs with F(m, n) > 0 are drawn at random
    rng = random.Random(5)
    k = 2**20 + 3
    G = IntForm(1, 2 * k + 1, k * k + k - 1)  # (1, 1, -1) moved by z -> z - k
    param = build_param(G, RM_PERP_G)
    A, B, C = param.derived
    pairs = []
    while len(pairs) < 200:
        m, n = rng.randint(-(2**10), 2**10), rng.randint(1, 2**10)
        if math.gcd(m, n) != 1 or A * m * m + B * m * n + C * n * n <= 0:
            continue
        try:  # at this size the foot's float y^2 can cancel to <= 0
            perp_foot(mn_to_form(param, m, n), G)
        except NotPerpendicularPair:
            continue
        pairs.append((m, n))
    ms, ns = (np.array(col, dtype=np.int64) for col in zip(*pairs))
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
    for delta in (math.inf, math.nan):
        with pytest.raises(DomainError):
            enum_cm_on_geodesic(IntForm(1, 1, -1), delta, arc=(0.5, 2.0))
        with pytest.raises(DomainError):
            enum_rm_through_point(IntForm(1, 0, 1), delta)
        with pytest.raises(DomainError):
            enum_cm_in_ball(PointH(0.0, 1.0), 0.5, delta=delta)
        with pytest.raises(DomainError):
            enum_cm_on_im1(delta, -1, 1)


def test_root_touching_arc_names_the_arc():
    # cos(1e-10) rounds to 1, so the arc's t-end is a root of the scan form
    with pytest.raises(IntervalTouchesRoot, match=r"arc \(1e-10, 1.0\)"):
        enum_cm_on_geodesic(IntForm(1, 0, -1), 100, arc=(1e-10, 1.0))


def test_enum_cm_on_im1():
    got = enum_cm_on_im1(10**4, -1, 1)
    for p in got:
        assert abs(p.z.imag - 1) < 1e-12
        n2 = p.form.a
        assert p.form.discriminant() == -4 * n2 * n2
