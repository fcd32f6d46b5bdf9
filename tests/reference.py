"""Reference computations that the tests check the library against.

Plain scalar arithmetic, written independently of the library's column
code: continued fractions for x^2 - D y^2 = 1, trial division, a Mobius
count of the integers coprime to n, hyperbolic distance, the geodesic
through two points and the incidence of an RM curve with a CM point.
"""

import math

from linnikgeo.errors import CoincidentPoints, NumericalInstability, WrongDiscriminantSign
from linnikgeo.forms import HalfLine, IntForm, Semicircle
from linnikgeo.hyperbolic import PointH


def _pell_one(D: int) -> tuple[int, int]:
    """Fundamental solution of x^2 - D y^2 = 1 via the continued fraction of sqrt(D)."""
    a0 = math.isqrt(D)
    m, d, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    for _ in range(10**7):
        if p * p - D * q * q == 1:
            return p, q
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    raise NumericalInstability("continued fraction failed to close")


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_squarefree(n: int) -> bool:
    return all(n % (p * p) != 0 for p in _prime_factors(n))


def is_fundamental_discriminant(D: int) -> bool:
    """Is D < 0 a fundamental discriminant?"""
    if D >= 0:
        return False
    if D % 4 == 1:
        return _is_squarefree(-D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _is_squarefree(-m)
    return False


def count_coprime_upto(T: float, n: int) -> int:
    """#{1 <= m <= T : gcd(m, n) = 1} via Mobius over the divisors of n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    limit = math.floor(T)
    if limit < 1:
        return 0
    divs = [(1, 1)]  # (divisor, mobius sign)
    for p in _prime_factors(n):
        divs += [(d * p, -s) for d, s in divs]
    return sum(s * (limit // d) for d, s in divs)


def apply_mobius(gamma, z: complex) -> complex:
    (a, b), (c, d) = gamma
    return (a * z + b) / (c * z + d)


def dist(z1: PointH, z2: PointH) -> float:
    """Hyperbolic distance arccosh(((x-x0)^2 + y^2 + y0^2) / (2 y y0))."""
    arg = ((z1.x - z2.x) ** 2 + z1.y**2 + z2.y**2) / (2 * z1.y * z2.y)
    # rounding can push the argument a hair below 1 for equal points
    return math.acosh(max(arg, 1.0))


def geodesic_through(p: PointH, z: PointH):
    """Unique geodesic through two distinct points."""
    if p == z:
        raise CoincidentPoints("geodesic through coincident points")
    if p.x == z.x:
        return HalfLine(x=p.x)
    q = (z.x + p.x) / 2 + (z.y**2 - p.y**2) / (2 * (z.x - p.x))
    r = math.hypot(p.x - q, p.y)
    return Semicircle(q=q, r=r)


def rm_through_cm(rm: IntForm, p: IntForm) -> bool:
    """Does the RM curve of rm pass through the CM point of p?  The
    incidence 2aC + 2cA = bB, tested exactly."""
    if rm.a == 0 or rm.discriminant() <= 0:
        raise WrongDiscriminantSign("rm must be indefinite with a != 0")
    if p.discriminant() >= 0:
        raise WrongDiscriminantSign("p must have negative discriminant")
    (a, b, c), (A, B, C) = rm.triple(), p.triple()
    return 2 * a * C + 2 * c * A == b * B
