"""Upper half-plane geometry: angles, balls, sector areas, and the feet of
RM curves perpendicular to a geodesic.

Everything here is 64-bit floating point except the foot (perp_foot, and
_foot_cols for columns): that is exact integer arithmetic on the forms up to
two correctly rounded quotients.  The angle convention: ang_p(p, z) is the
direction at p of the geodesic from p to z, in [0, 2*pi): 0 points straight
up, angles grow clockwise through pi/2 to the right of p and pi straight down
at the real axis, and points strictly to the left of p get (pi, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadAngleOrder,
    CoincidentPoints,
    NotPerpendicularPair,
)
from .forms import IntForm, rm_perp_geodesic
from .linnik import _absmax, _ints


@dataclass(frozen=True, slots=True)
class PointH:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and 0 < self.y < math.inf):
            raise ValueError(f"point must have a finite x and a finite y > 0, got ({self.x}, {self.y})")

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

    def contains(self, z: PointH) -> bool:
        """z in the disk; a one-row contains_cols, which loops should call instead."""
        return bool(self.contains_cols(np.array([z.x]), np.array([z.y]))[0])

    def contains_cols(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """contains for columns of points (x, y)."""
        return np.hypot(x - self.center.x, y - self.center.y) <= self.radius_euclid


def ang_p(p: PointH, z: PointH) -> float:
    """Angle of z as seen from p, in [0, 2*pi); a one-row _ball_angles, so
    loops should call that on columns of points."""
    if p == z:
        raise CoincidentPoints("angle to the point itself is undefined")
    return float(_ball_angles(p, np.array([z.x]), np.array([z.y]))[0])


def _ball_angles(p: PointH, zx: np.ndarray, zy: np.ndarray) -> np.ndarray:
    """ang_p(p, z) for columns of points z (p itself gets 0): minus the arg of
    the Cayley image (z - p) / (z - conj p), which sends geodesics through p to
    diameters (so one formula holds on p's vertical line), clamped below 2 pi."""
    z = zx + 1j * zy
    w = p.as_complex()
    return np.minimum(-np.angle((z - w) / (z - w.conjugate())) % (2 * math.pi), math.nextafter(2 * math.pi, 0))


def ball(z0: PointH, s0: float) -> BallE:
    """Hyperbolic ball of radius s0 about z0, as a Euclidean disk.  The radius
    needs 0 < tanh s0 < 1 in floats (s0 < 19.06), checked before cosh, which
    overflows past s0 = 710; BallE refuses s0 from 18.7 at z0.y = 1."""
    if not 0 < math.tanh(s0) < 1:
        raise ValueError(f"ball radius must be in (0, 19.06), where tanh rounds below 1, got {s0}")
    return BallE(
        center=PointH(z0.x, z0.y * math.cosh(s0)),
        radius_euclid=z0.y * math.sinh(s0),
    )


def sector_area(z0: PointH, s0: float, theta1: float, theta2: float) -> float:
    """Hyperbolic area of the angular sector of a ball: (th2-th1)(cosh s0 - 1).

    Independent of the center z0, which with s0 must make a ball that ball()
    accepts: its check refuses the radius.
    """
    if not (0 <= theta1 <= theta2 <= 2 * math.pi + 1e-12):
        raise BadAngleOrder(f"need 0 <= {theta1} <= {theta2} <= 2*pi")
    ball(z0, s0)
    return (theta2 - theta1) * (math.cosh(s0) - 1.0)


def perp_foot(rm: IntForm, G: IntForm) -> PointH:
    """Perpendicular intersection point of an RM curve with a geodesic.

    Closed form on either kind of base: with u = B0*a - A0*b the foot has
    Re(z) = (A0*c - C0*a) / u (-C0/B0 on a half-line base, where A0 = 0)
    and Im(z)^2 = D0 * D / (4*u^2), D = b^2 - 4*a*c: by the incidence
    relation 2*a*C0 + 2*c*A0 = b*B0, u^2 - a^2*D0 = A0^2*D, so this is the
    height of the base's circle above Re(z), and the RM curve's top
    D / (4*a^2) on a half-line base.  Im(z) is the square root of the
    correctly rounded quotient.
    """
    rm_perp_geodesic(rm, G)  # its sign checks; _foot_cols tests the incidence
    x, y = _foot_cols(G, *(np.array([v], dtype=object) for v in rm.triple()))
    return PointH(float(x[0]), float(y[0]))


def _foot_cols(
    G: IntForm, a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Columns (x, y) of the feet of perp_foot for columns (a, b, c) of RM
    forms, in exact integers up to the two rounded quotients; the first row
    off G's perpendiculars raises NotPerpendicularPair.  D0 > 0 and D > 0
    make y^2 > 0, and u != 0 (u^2 = a^2 D0 + A0^2 D with a != 0)."""
    A0, B0, C0 = G.triple()
    s = max(abs(A0), abs(B0), abs(C0))
    # D0 * D is below 25 s^2 m^2 and 4 u^2 below 16 s^2 m^2
    a, b, c = _ints(64 * s**4 * _absmax(a, b, c) ** 2, a, b, c)
    off = np.flatnonzero(2 * a * C0 + 2 * c * A0 != b * B0)
    if len(off):
        rm = IntForm(*(int(v[off[0]]) for v in (a, b, c)))
        raise NotPerpendicularPair(f"{rm} is not perpendicular to {G}")
    u = B0 * a - A0 * b
    x = np.asarray((A0 * c - C0 * a) / u, dtype=float)
    y2 = G.discriminant() * (b * b - 4 * a * c) / (4 * u * u)
    return x, np.sqrt(np.asarray(y2, dtype=float))
