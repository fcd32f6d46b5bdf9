"""Upper half-plane geometry: distance, angles, balls, sector areas.

Everything here is 64-bit floating point; exact arithmetic lives in the form
layer.  The angle convention: ang_p(z) = 0 points straight down at the real
axis, angles grow counterclockwise through the half-plane to the right of p
(values in [0, pi]), and points strictly to the left of p get the antipodal
value in (pi, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    BadAngleOrder,
    CoincidentPoints,
    NotPerpendicularPair,
)
from .forms import Geodesic, HalfLine, IntForm, Semicircle, rm_perp_geodesic


@dataclass(frozen=True)
class PointH:
    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"point must have y > 0, got y={self.y}")

    def as_complex(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class BallE:
    """Euclidean description of a hyperbolic ball (disk inside the half-plane)."""

    center: PointH
    radius_euclid: float

    def __post_init__(self):
        if not 0 < self.radius_euclid < self.center.y:
            raise ValueError("euclidean radius must be in (0, center.y)")

    def contains(self, z: PointH, tol: float = 0.0) -> bool:
        return math.hypot(z.x - self.center.x, z.y - self.center.y) <= (
            self.radius_euclid + tol
        )


def dist(z1: PointH, z2: PointH) -> float:
    """Hyperbolic distance arccosh(((x-x0)^2 + y^2 + y0^2) / (2 y y0))."""
    arg = ((z1.x - z2.x) ** 2 + z1.y**2 + z2.y**2) / (2 * z1.y * z2.y)
    # rounding can push the argument a hair below 1 for equal points
    return math.acosh(max(arg, 1.0))


def geodesic_through(p: PointH, z: PointH) -> Geodesic:
    """Unique geodesic through two distinct points."""
    if p == z:
        raise CoincidentPoints("geodesic through coincident points")
    if p.x == z.x:
        return HalfLine(x=p.x)
    q = (z.x + p.x) / 2 + (z.y**2 - p.y**2) / (2 * (z.x - p.x))
    r = math.hypot(p.x - q, p.y)
    return Semicircle(q=q, r=r)


def ang_p(p: PointH, z: PointH) -> float:
    """Angle of z as seen from p, in [0, 2*pi)."""
    if p == z:
        raise CoincidentPoints("angle to the point itself is undefined")
    if z.x == p.x:
        return 0.0 if z.y < p.y else math.pi
    g = geodesic_through(p, z)
    assert isinstance(g, Semicircle)
    base = math.acos(max(-1.0, min(1.0, (g.q - p.x) / g.r)))
    if z.x > p.x:
        return base
    return base + math.pi


def ball(z0: PointH, s0: float) -> BallE:
    """Hyperbolic ball of radius s0 about z0, as a Euclidean disk."""
    if not s0 > 0:
        raise ValueError("ball radius must be positive")
    return BallE(
        center=PointH(z0.x, z0.y * math.cosh(s0)),
        radius_euclid=z0.y * math.sinh(s0),
    )


def sector_area(z0: PointH, s0: float, theta1: float, theta2: float) -> float:
    """Hyperbolic area of the angular sector of a ball: (th2-th1)(cosh s0 - 1).

    Independent of the center z0 (kept in the signature for symmetry with the
    sector definition).
    """
    if not (0 <= theta1 <= theta2 <= 2 * math.pi + 1e-12):
        raise BadAngleOrder(f"need 0 <= {theta1} <= {theta2} <= 2*pi")
    return (theta2 - theta1) * (math.cosh(s0) - 1.0)


def perp_foot(rm: IntForm, G: IntForm) -> PointH:
    """Perpendicular intersection point of an RM curve with a geodesic.

    Closed form: on a semicircle geodesic the foot has
    Re(z) = (A0*c - C0*a) / (B0*a - A0*b); on a half-line geodesic
    Re(z) = -C0/B0.  Im(z) comes from the RM circle equation.
    """
    if not rm_perp_geodesic(rm, G):
        raise NotPerpendicularPair(f"{rm} is not perpendicular to {G}")
    a, b, c = rm.triple()
    A0, B0, C0 = G.triple()
    if A0 == 0:
        x = -C0 / B0
    else:
        x = (A0 * c - C0 * a) / (B0 * a - A0 * b)
    q = -b / (2 * a)
    r2 = (b * b - 4 * a * c) / (4 * a * a)
    y2 = r2 - (x - q) ** 2
    if y2 <= 0:
        raise NotPerpendicularPair("curves do not intersect in the half-plane")
    return PointH(x, math.sqrt(y2))
