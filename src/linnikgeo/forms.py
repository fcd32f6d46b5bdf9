"""Integer binary quadratic forms, their geodesics, and incidence predicates.

A triple (a, b, c) stands for the quadratic a*x^2 + b*x*y + c*y^2.  CM points
come from negative-discriminant triples, RM curves and rational geodesics from
positive-discriminant ones.  All three incidence relations (CM point on a
geodesic, RM curve perpendicular to a geodesic, RM curve through a CM point)
reduce to the single integer equation 2*a*C + 2*c*A == b*B, which we test
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotPositiveDiscriminant, WrongDiscriminantSign, ZeroForm


@dataclass(frozen=True, slots=True)
class IntForm:
    """Normalized integer triple: gcd 1, first nonzero entry positive."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, m: int, n: int) -> int:
        """Evaluate a*m^2 + b*m*n + c*n^2 exactly."""
        return self.a * m * m + self.b * m * n + self.c * n * n

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


@dataclass(frozen=True)
class RealForm:
    """Real triple (A, B, C) with (A, B) != (0, 0)."""

    A: float
    B: float
    C: float

    def __post_init__(self):
        if self.A == 0 and self.B == 0:
            raise ZeroForm("(A, B) must not be (0, 0)")

    def discriminant(self) -> float:
        return self.B * self.B - 4 * self.A * self.C

    def value(self, t: float) -> float:
        """A*t^2 + B*t + C, with the conventional limit at t = +-inf."""
        if math.isinf(t):
            if self.A != 0:
                return math.inf if self.A > 0 else -math.inf
            return math.inf if self.B * t > 0 else -math.inf
        return (self.A * t + self.B) * t + self.C

    def is_integral(self) -> bool:
        return all(float(x).is_integer() for x in (self.A, self.B, self.C))


class Geodesic:
    """Tagged union base: HalfLine or Semicircle."""


@dataclass(frozen=True)
class HalfLine(Geodesic):
    x: float


@dataclass(frozen=True)
class Semicircle(Geodesic):
    q: float
    r: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("semicircle radius must be positive")


def normalize(a: int, b: int, c: int) -> IntForm:
    """Divide out the gcd and flip signs so the first nonzero entry is > 0.

    Roots of the associated quadratic are unchanged.  Raises ZeroForm on
    (0, 0, 0).
    """
    if a == 0 and b == 0 and c == 0:
        raise ZeroForm("cannot normalize (0,0,0)")
    g = math.gcd(math.gcd(abs(a), abs(b)), abs(c))
    a, b, c = a // g, b // g, c // g
    lead = a if a != 0 else (b if b != 0 else c)
    if lead < 0:
        a, b, c = -a, -b, -c
    return IntForm(a, b, c)


def is_normalized(a: int, b: int, c: int) -> bool:
    try:
        return normalize(a, b, c).triple() == (a, b, c)
    except ZeroForm:
        return False


@dataclass(frozen=True, slots=True)
class CMPoint:
    """Upper half-plane root of a negative-discriminant form with a >= 1."""

    form: IntForm

    def __post_init__(self):
        if self.form.a < 1:
            raise WrongDiscriminantSign("CM point needs a >= 1")
        if self.form.discriminant() >= 0:
            raise WrongDiscriminantSign("CM point needs discriminant < 0")

    @property
    def z(self) -> complex:
        a, b, c = self.form.triple()
        d = b * b - 4 * a * c
        return complex(-b / (2 * a), math.sqrt(-d) / (2 * a))


@dataclass(frozen=True, slots=True)
class RMCurve:
    """Semicircle joining the two real roots of an indefinite form, a != 0."""

    form: IntForm

    def __post_init__(self):
        if self.form.a == 0:
            raise WrongDiscriminantSign("RM curve needs a != 0")
        if self.form.discriminant() <= 0:
            raise WrongDiscriminantSign("RM curve needs discriminant > 0")

    @property
    def geodesic(self) -> Semicircle:
        a, b, c = self.form.triple()
        d = b * b - 4 * a * c
        return Semicircle(q=-b / (2 * a), r=math.sqrt(d) / (2 * abs(a)))


def geodesic_of_form(f: IntForm) -> Geodesic:
    """Geodesic with endpoints the real roots of the (normalized) form.

    A = 0 gives the half-line x = -C/B; A > 0 the semicircle of center
    -B/(2A) and radius sqrt(D)/(2A).
    """
    d = f.discriminant()
    if d <= 0:
        raise NotPositiveDiscriminant(f"form {f} has discriminant {d} <= 0")
    if f.a == 0:
        return HalfLine(x=-f.c / f.b)
    return Semicircle(q=-f.b / (2 * f.a), r=math.sqrt(d) / (2 * f.a))


def _incidence(small: IntForm, big: IntForm) -> bool:
    a, b, c = small.triple()
    A, B, C = big.triple()
    return 2 * a * C + 2 * c * A == b * B


def cm_on_geodesic(cm: IntForm, G: IntForm) -> bool:
    """Does the CM point of `cm` (D < 0) lie on the geodesic of `G` (D > 0)?"""
    if cm.discriminant() >= 0:
        raise WrongDiscriminantSign("cm must have negative discriminant")
    if G.discriminant() <= 0:
        raise WrongDiscriminantSign("G must have positive discriminant")
    return _incidence(cm, G)


def rm_perp_geodesic(rm: IntForm, G: IntForm) -> bool:
    """Does the RM curve of `rm` meet the geodesic of `G` perpendicularly?"""
    if rm.a == 0 or rm.discriminant() <= 0:
        raise WrongDiscriminantSign("rm must be indefinite with a != 0")
    if G.discriminant() <= 0:
        raise WrongDiscriminantSign("G must have positive discriminant")
    return _incidence(rm, G)

