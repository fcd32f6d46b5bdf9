import math

import pytest

from linnikgeo.errors import BadAngleOrder, CoincidentPoints, NotPerpendicularPair
from linnikgeo.forms import HalfLine, IntForm, Semicircle
from linnikgeo.hyperbolic import PointH, ang_p, ball, perp_foot, sector_area
from reference import dist, geodesic_through


def test_dist():
    assert math.isclose(dist(PointH(0, 1), PointH(0, 2)), math.log(2))
    assert dist(PointH(0.3, 0.7), PointH(0.3, 0.7)) == 0.0
    # symmetry and triangle inequality on a few points
    a, b, c = PointH(0, 1), PointH(1, 1), PointH(0.5, 2)
    assert math.isclose(dist(a, b), dist(b, a))
    assert dist(a, c) <= dist(a, b) + dist(b, c)


def test_geodesic_through():
    g = geodesic_through(PointH(-1 + 1e-12, 1e-6), PointH(1, 1e-6))
    assert isinstance(g, Semicircle)
    v = geodesic_through(PointH(2, 1), PointH(2, 5))
    assert isinstance(v, HalfLine) and v.x == 2
    g = geodesic_through(PointH(0, 1), PointH(1, math.sqrt(2)))
    # both points satisfy |z - q| = r
    assert math.isclose(math.hypot(0 - g.q, 1), g.r)
    assert math.isclose(math.hypot(1 - g.q, math.sqrt(2)), g.r)
    with pytest.raises(CoincidentPoints):
        geodesic_through(PointH(0, 1), PointH(0, 1))


def test_ang_p():
    p = PointH(0, 1)
    assert ang_p(p, PointH(0, 0.5)) == 0.0
    assert ang_p(p, PointH(0, 2)) == math.pi
    # horizontal direction is the limit, not the value at distance 1
    assert math.isclose(ang_p(p, PointH(1e-9, 1)), math.pi / 2)
    assert math.isclose(ang_p(p, PointH(1, 1)), math.acos(0.5 / math.sqrt(1.25)))
    # opposite rays of the same geodesic through p differ by pi
    th = ang_p(p, PointH(0.4, 1.8))
    g = geodesic_through(p, PointH(0.4, 1.8))
    # a point on the arc below p, reached going the other way
    x_op = -0.1
    th_op = ang_p(p, PointH(x_op, math.sqrt(g.r**2 - (x_op - g.q) ** 2)))
    assert math.isclose((th_op - th) % (2 * math.pi), math.pi, abs_tol=1e-9)


def test_ball():
    b = ball(PointH(0, 1), math.log(2))
    assert math.isclose(b.center.y, 1.25)  # cosh(log 2) = 5/4
    assert math.isclose(b.radius_euclid, 0.75)  # sinh(log 2) = 3/4
    # boundary points are at hyperbolic distance s0
    for t in (0.0, 1.0, 2.5, 4.0):
        z = PointH(
            b.center.x + b.radius_euclid * math.cos(t),
            b.center.y + b.radius_euclid * math.sin(t),
        )
        assert math.isclose(dist(PointH(0, 1), z), math.log(2), rel_tol=1e-9)


def test_sector_area():
    assert math.isclose(
        sector_area(PointH(0, 1), 1.0, 0, 2 * math.pi),
        2 * math.pi * (math.cosh(1) - 1),
    )
    with pytest.raises(BadAngleOrder):
        sector_area(PointH(0, 1), 1.0, 2.0, 1.0)


def test_full_ball_area_quadrature():
    """Whole-ball area cross-checked by integrating dx dy / y^2 directly."""
    from scipy.integrate import quad

    s0 = 0.8
    b = ball(PointH(0.3, 1.2), s0)
    yc, R = b.center.y, b.radius_euclid

    def strip(y):
        return 2 * math.sqrt(max(R * R - (y - yc) ** 2, 0.0)) / (y * y)

    area, _ = quad(strip, yc - R, yc + R, limit=200)
    assert math.isclose(area, 2 * math.pi * (math.cosh(s0) - 1), rel_tol=1e-8)


def test_perp_foot():
    foot = perp_foot(IntForm(1, 0, -1), IntForm(0, 1, 0))
    assert foot.x == 0 and math.isclose(foot.y, 1)
    with pytest.raises(NotPerpendicularPair):
        perp_foot(IntForm(1, 1, -1), IntForm(0, 1, 0))
    # foot lies on both circles for a nontrivial pair
    G = IntForm(1, 0, -1)
    rm = IntForm(1, 4, 1)  # 2*1*(-1) + 2*1*1 = 0 = 4*0
    f = perp_foot(rm, G)
    assert math.isclose(f.x**2 + f.y**2, 1, rel_tol=1e-12)
    q, r = -2.0, math.sqrt(12) / 2
    assert math.isclose((f.x - q) ** 2 + f.y**2, r * r, rel_tol=1e-12)


def test_point_refuses_non_finite_coordinates():
    for x, y in ((math.nan, 1), (math.inf, 1), (-math.inf, 1), (0, math.inf), (0, math.nan), (0, 0), (0, -1)):
        with pytest.raises(ValueError, match="point must have a finite x and a finite y > 0"):
            PointH(x, y)


def test_ball_and_sector_refuse_the_same_radii():
    """ball checks 0 < tanh s0 < 1 before cosh, which overflowed past 710;
    sector_area goes through that check (it returned 0.543 at s0 = -1)."""
    for s0 in (-1, 0, 800, 19.1, math.inf, math.nan):
        for call in (lambda: ball(PointH(0, 1), s0), lambda: sector_area(PointH(0, 1), s0, 0, 1)):
            with pytest.raises(ValueError, match="ball radius must be in"):
                call()
    # at y0 = 1 sinh and cosh round equal from s0 = 18.7: BallE refuses
    with pytest.raises(ValueError, match="euclidean radius"):
        ball(PointH(0, 1), 18.8)
    assert sector_area(PointH(0, 1), 18.6, 0, 1) == math.cosh(18.6) - 1
