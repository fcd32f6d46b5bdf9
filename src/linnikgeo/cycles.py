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

from .errors import DomainError, ImprimitiveForm, NumericalInstability, PointNotOnGeodesic
from .forms import IntForm, Semicircle, geodesic_of_form, is_normalized
from .geodesic_enum import (
    CM_ON_G,
    CMOnGeodesic,
    GeodesicParam,
    _enum_pairs,
    _form_cols,
    _ints,
    _records,
    build_param,
)
from .linnik import _absmax, _int_values
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


def fundamental_arc(cg: ClosedGeodesic) -> tuple[float, float]:
    """Angle interval (arg at the top, arg at its gamma-image), along the flow.

    The hyperbolic length of the returned arc equals cg.length; traversing
    it once covers the closed geodesic exactly once.
    """
    sc, z0 = cg.semicircle, topmost(cg).as_complex()
    return _arg_on(sc, z0), _arg_on(sc, apply_mobius(cg.gamma, z0))


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


# sigma_3(n) and Ramanujan's tau(n), n = 1..12: E4 = 1 + 240 sum sigma_3(n) q^n
# and Delta = sum tau(n) q^n.  In the fundamental domain |q| <= e^(-pi sqrt 3)
# < 0.0044, so the 13th terms are below 1e-20 of the sums.
_SIGMA3 = (1, 9, 28, 73, 126, 252, 344, 585, 757, 1134, 1332, 2044)
_TAU = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920, 534612, -370944)


def j_invariant(z: complex | PointH) -> complex:
    """Klein j = E4^3 / Delta, after fundamental-domain reduction.  Delta ~ q
    does not cancel, so j keeps its relative precision toward the cusp."""
    q = cmath.exp(2j * math.pi * sl2z_reduce(z)[0].as_complex())
    e4 = dq = 0j  # the two sums by Horner's rule, highest power first
    for s3, tau in zip(_SIGMA3[::-1], _TAU[::-1]):
        e4, dq = (e4 + s3) * q, (dq + tau) * q
    return (1 + 240 * e4) ** 3 / dq


CONSTANT_ONE = ModularFunction("one", lambda z: 1 + 0j)
J_FUNCTION = ModularFunction("j", j_invariant)

# Gauss-Legendre orders of cycle_quadrature: doubled from the first until two
# agree within _QUAD_TOL * (u-length) * max |f|, refused past the last
_GL_FIRST, _GL_LAST, _QUAD_TOL = 32, 1024, 1e-9


def cycle_quadrature(cg: ClosedGeodesic, f: ModularFunction) -> complex:
    """Direct cycle integral of f over the closed geodesic, by Gauss-Legendre
    rules of doubling order until two agree.

    In u = log tan(theta/2), the hyperbolic arc length, the point is
    q - r tanh(u) + i r / cosh(u), and gamma moves the top (u = 0) by exactly
    cg.length.  Refuses (NumericalInstability) an arc that dips below the
    float grid of its semicircle, where points are noise, and rules that
    never agree.
    """
    sc, L = cg.semicircle, cg.length
    y_min, grid = sc.r / math.cosh(L), math.ulp(abs(sc.q) + sc.r)
    if grid > _QUAD_TOL * y_min:
        raise NumericalInstability(
            f"the arc of {cg.form} reaches y = {y_min:.3g}, below the float grid {grid:.3g}"
        )
    th0, th1 = fundamental_arc(cg)
    mid = -L / 2 if th1 < th0 else L / 2
    prev, fmax, n = None, 0.0, _GL_FIRST
    while True:
        x, w = np.polynomial.legendre.leggauss(n)
        u = mid + L / 2 * x
        z = map(complex, (sc.q - sc.r * np.tanh(u)).tolist(), (sc.r / np.cosh(u)).tolist())
        vals = np.array(list(map(f, z)), dtype=complex)
        val, fmax = complex(L / 2 * (w @ vals)), max(fmax, float(np.abs(vals).max()))
        if prev is not None and abs(val - prev) <= _QUAD_TOL * L * fmax:
            return val
        if n >= _GL_LAST:
            raise NumericalInstability(
                f"cycle quadrature of {f.name} on {cg.form} does not settle: "
                f"{n // 2} nodes give {prev}, {n} give {val}"
            )
        prev, n = val, 2 * n


def cycle_value(
    f: ModularFunction, w_form: IntForm, deltas: list[float]
) -> tuple[list[tuple[float, complex]], complex]:
    """CM-average estimates of the cycle integral along a delta ladder, plus
    the quadrature comparator.  The arc is enumerated once, at the largest
    delta, and f is evaluated once per CM point; a rung sums, in arc order,
    the points of |D| <= delta."""
    if not is_normalized(*w_form.triple()):
        raise ValueError(f"{w_form} is not normalized")
    for delta in deltas:
        if not (math.isfinite(delta) and delta > 0):
            raise DomainError(f"ladder delta must be positive and finite, got {delta}")
    cg = closed_geodesic(w_form)
    D = w_form.discriminant()
    scale_base = 2 * math.pi**2 * math.sqrt(D) / (3 * math.gcd(D, 2))
    param, ms, ns, _ = _arc_pairs(cg, max(deltas, default=0))
    a, b, _ = _form_cols(param, ms, ns)
    # |D| exactly (the derived form's value is the discriminant), and z in
    # the float operations of CMPoint.z
    absd = -_int_values(*param.derived, ms, ns, _absmax(ms, ns))
    y = np.sqrt(absd.astype(float)) / (2 * a).astype(float)
    vals = list(map(f, map(complex, np.asarray(-b / (2 * a), dtype=float).tolist(), y.tolist())))
    pts = list(zip(vals, absd.tolist()))
    estimates = []
    for delta in deltas:  # int <= float compares exactly
        total = sum((v for v, d in pts if d <= delta), 0 + 0j)
        estimates.append((delta, scale_base / delta * total))
    return estimates, cycle_quadrature(cg, f)
