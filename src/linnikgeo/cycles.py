"""Closed geodesics, CM counts along them, and cycle values by CM averaging.

An indefinite primitive form with non-square D > 0 descends to a closed
geodesic of length 2 log eps_D on the modular surface, where eps_D comes
from t^2 - D u^2 = 4.  Averaging a modular function over the CM points of
|discriminant| <= delta on one fundamental arc recovers, after scaling by
2 pi^2 sqrt(D) / (3 gcd(D,2) delta), the classical cycle integral.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import DomainError, ImprimitiveForm, PointNotOnGeodesic
from .forms import IntForm, Semicircle, geodesic_of_form, is_normalized
from .geodesic_enum import (
    CM_ON_G,
    CMOnGeodesic,
    GeodesicParam,
    _absmax,
    _enum_pairs,
    _ints,
    _records,
    build_param,
)
from .hyperbolic import PointH
from .numtheory import PellSolution, pell_fundamental, sl2z_reduce


@dataclass(frozen=True)
class ClosedGeodesic:
    form: IntForm
    pell: PellSolution
    gamma: tuple[tuple[int, int], tuple[int, int]]
    length: float

    @property
    def semicircle(self) -> Semicircle:
        g = geodesic_of_form(self.form)
        assert isinstance(g, Semicircle)  # a = 0 would make D a square
        return g


def closed_geodesic(f: IntForm) -> ClosedGeodesic:
    """Stabilizer generator and length for a primitive non-square D > 0 form."""
    a, b, c = f.triple()
    if math.gcd(math.gcd(a, abs(b)), abs(c)) != 1:
        raise ImprimitiveForm(f"{f} has a common factor")
    D = f.discriminant()
    pell = pell_fundamental(D)  # rejects D <= 0, squares, bad residues
    t0, u0 = pell.t0, pell.u0
    # t0 = B u0 mod 2 since t0^2 = D u0^2 = B^2 u0^2 mod 4
    gamma = (
        ((t0 - b * u0) // 2, -c * u0),
        (a * u0, (t0 + b * u0) // 2),
    )
    det = gamma[0][0] * gamma[1][1] - gamma[0][1] * gamma[1][0]
    assert det == 1
    return ClosedGeodesic(f, pell, gamma, 2 * pell.log_eps)


def apply_mobius(gamma, z: complex) -> complex:
    (a, b), (c, d) = gamma
    return (a * z + b) / (c * z + d)


def _arg_on(sc: Semicircle, z: complex, tol: float = 1e-9) -> float:
    if abs(abs(z - sc.q) - sc.r) > tol * max(1.0, sc.r):
        raise PointNotOnGeodesic(f"{z} is not on {sc}")
    return math.atan2(z.imag, z.real - sc.q)


def topmost(cg: ClosedGeodesic) -> PointH:
    sc = cg.semicircle
    return PointH(sc.q, sc.r)


def fundamental_arc(
    cg: ClosedGeodesic, z_start: PointH | None = None
) -> tuple[float, float]:
    """Angle interval (arg at z_start, arg at gamma z_start), along the flow.

    The hyperbolic length of the returned arc equals cg.length; traversing
    it once covers the closed geodesic exactly once.
    """
    if z_start is None:
        z_start = topmost(cg)
    sc = cg.semicircle
    z0 = z_start.as_complex()
    t0 = _arg_on(sc, z0)
    t1 = _arg_on(sc, apply_mobius(cg.gamma, z0))
    return t0, t1


def _arc_length(theta0: float, theta1: float) -> float:
    """Hyperbolic length of the semicircle arc between two angles."""
    u = lambda t: math.log(math.tan(t / 2))
    return abs(u(theta1) - u(theta0))


# relative padding of the scan window around the fundamental arc's angles
_ARC_PAD = 1e-9


def _arc_ends(cg: ClosedGeodesic, param: GeodesicParam) -> tuple[Fraction, Fraction]:
    """t = m/n of the arc's start (the topmost point) and of its gamma-image.

    Both are rational: along the geodesic the incident CM point of t has
    real part x = -(P b0 + t R/S) / (2S), and the gamma-image of the top
    point q + i r has a rational real part since r^2 is rational.
    """
    a, b, c = cg.form.triple()
    (al, be), (ga, de) = cg.gamma
    q, r2 = Fraction(-b, 2 * a), Fraction(b * b - 4 * a * c, 4 * a * a)
    x_end = ((al * q + be) * (ga * q + de) + al * ga * r2) / ((ga * q + de) ** 2 + ga * ga * r2)
    P, _, R = param.pqr
    S, b0 = param.S, param.bezout[0]
    return tuple(-(2 * S * x + P * b0) * S / R for x in (q, x_end))


def _arc_pairs(
    cg: ClosedGeodesic, delta: float
) -> tuple[GeodesicParam, np.ndarray, np.ndarray, np.ndarray]:
    """Columns (ms, ns, ts) of the CM points of |D| <= delta on the
    fundamental arc, sorted along the geodesic.

    The scan window pads the arc's angles a little, staying inside (0, pi);
    then a pair is kept when m/n equals the start t0 or lies strictly
    between t0 and the end t1, both compared exactly.
    """
    param = build_param(cg.form, CM_ON_G)
    th0, th1 = fundamental_arc(cg)
    lo, hi = min(th0, th1), max(th0, th1)
    window = (lo * (1 - _ARC_PAD), hi + (math.pi - hi) * _ARC_PAD)
    ms, ns, ts = _enum_pairs(param, delta, window)
    t0, t1 = _arc_ends(cg, param)
    k = max(abs(t.numerator) + t.denominator for t in (t0, t1))
    m, n = _ints(k * _absmax(ms, ns), ms, ns)
    # the sign of m/n - t, by cross-multiplication (n > 0)
    s0, s1 = (m * t.denominator - n * t.numerator for t in (t0, t1))
    keep = (s0 == 0) | ((s0 < 0) & (s1 > 0)) | ((s0 > 0) & (s1 < 0))
    return param, ms[keep], ns[keep], ts[keep]


def cm_on_fundamental_arc(cg: ClosedGeodesic, delta: float) -> list[CMOnGeodesic]:
    """CM points of |D| <= delta on the fundamental arc, seam counted once.

    The arc is half-open: the start (the topmost point) is included, its
    image under gamma is not.
    """
    if delta < 1:
        return []
    return _records(*_arc_pairs(cg, delta))


def cm_count_closed(cg: ClosedGeodesic, delta: float) -> tuple[int, float]:
    """(empirical CM count on the fundamental arc, main-term prediction)."""
    if delta < 1:
        return 0, 0.0
    D = cg.form.discriminant()
    predicted = 3 * math.gcd(D, 2) * cg.length * delta / (2 * math.pi**2 * math.sqrt(D))
    return len(_arc_pairs(cg, delta)[1]), predicted


# ---------------------------------------------------------------------------
# modular functions


@dataclass(frozen=True)
class ModularFunction:
    name: str
    evaluator: Callable[[complex], complex]

    def __call__(self, z: complex) -> complex:
        return self.evaluator(z)


_SIGMA_CACHE: dict[int, tuple[list[int], list[int]]] = {}


def _sigma_tables(N: int) -> tuple[list[int], list[int]]:
    """sigma_3 and sigma_5 divisor sums for 1..N."""
    if N in _SIGMA_CACHE:
        return _SIGMA_CACHE[N]
    s3 = [0] * (N + 1)
    s5 = [0] * (N + 1)
    for d in range(1, N + 1):
        d3, d5 = d**3, d**5
        for k in range(d, N + 1, d):
            s3[k] += d3
            s5[k] += d5
    _SIGMA_CACHE[N] = (s3, s5)
    return s3, s5


def j_invariant(z: complex | PointH) -> complex:
    """Klein j, via fundamental-domain reduction and the E4/E6 q-expansions."""
    w = z.as_complex() if isinstance(z, PointH) else complex(z)
    w, _ = sl2z_reduce(w)
    w = w.as_complex()
    q = cmath.exp(2j * math.pi * w)
    aq = abs(q)
    # truncate once |q|^N is below the noise floor
    N = max(4, math.ceil(math.log(1e-16) / math.log(aq))) if aq > 0 else 4
    s3, s5 = _sigma_tables(N)
    e4 = 1 + 0j
    e6 = 1 + 0j
    qn = 1 + 0j
    for n in range(1, N + 1):
        qn *= q
        e4 += 240 * s3[n] * qn
        e6 -= 504 * s5[n] * qn
    e43 = e4**3
    return 1728 * e43 / (e43 - e6**2)


CONSTANT_ONE = ModularFunction("one", lambda z: 1 + 0j)
J_FUNCTION = ModularFunction("j", j_invariant)


def cycle_quadrature(cg: ClosedGeodesic, f: ModularFunction) -> complex:
    """Direct cycle integral of f over the closed geodesic.

    Substituting u = log tan(theta/2) turns ds_hyp into du, so the integrand
    has no endpoint singularity even for arcs reaching toward the real axis.
    scipy is imported here, so that importing the library does not load it.
    """
    from scipy.integrate import quad

    sc = cg.semicircle
    th0, th1 = fundamental_arc(cg)
    u0, u1 = math.log(math.tan(th0 / 2)), math.log(math.tan(th1 / 2))
    lo, hi = min(u0, u1), max(u0, u1)

    def at(u: float) -> complex:
        theta = 2 * math.atan(math.exp(u))
        return f(complex(sc.q + sc.r * math.cos(theta), sc.r * math.sin(theta)))

    re, _ = quad(lambda u: at(u).real, lo, hi, limit=200)
    im, _ = quad(lambda u: at(u).imag, lo, hi, limit=200)
    return complex(re, im)


def cycle_value(
    f: ModularFunction,
    w_form: IntForm,
    deltas: list[float],
) -> tuple[list[tuple[float, complex]], complex]:
    """CM-average estimates of the cycle integral along a delta ladder,
    plus the adaptive-quadrature comparator."""
    if not is_normalized(*w_form.triple()):
        raise ValueError(f"{w_form} is not normalized")
    for delta in deltas:
        if not (math.isfinite(delta) and delta > 0):
            raise DomainError(f"ladder delta must be positive and finite, got {delta}")
    cg = closed_geodesic(w_form)
    D = w_form.discriminant()
    scale_base = 2 * math.pi**2 * math.sqrt(D) / (3 * math.gcd(D, 2))
    estimates = []
    for delta in deltas:
        pts = cm_on_fundamental_arc(cg, delta)
        total = sum((f(r.point.z) for r in pts), 0 + 0j)
        estimates.append((delta, scale_base / delta * total))
    return estimates, cycle_quadrature(cg, f)
