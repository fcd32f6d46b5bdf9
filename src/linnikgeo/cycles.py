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
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Callable

import numpy as np

from .errors import DomainError, ImprimitiveForm, NumericalInstability
from .forms import IntForm, Semicircle, geodesic_of_form, is_normalized
from .geodesic_enum import (
    CM_ON_G,
    CMOnGeodesic,
    GeodesicParam,
    _build,
    _cm_z_cols,
    _enum_pairs,
    _form_cols,
    _record_cols,
    _t_of_x,
    build_param,
)
from .linnik import ProjInterval, _absmax, _at_most, _ints
from .hyperbolic import PointH
from .numtheory import PellSolution, _reduce, pell_fundamental


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


def _arc_ends(cg: ClosedGeodesic, param: GeodesicParam) -> tuple[Fraction, Fraction]:
    """t = m/n of the ends of the fundamental arc (of length L = cg.length,
    centred on the top q + i r), the one of smaller real part first.  They
    lie at x = q -+ r tanh(L/2), rational since tanh(L/2) = u0 sqrt(D) / t0
    (a > 0, since the form is normalized), and _t_of_x inverts x exactly."""
    a, b, _ = cg.form.triple()
    q, h = Fraction(-b, 2 * a), Fraction(cg.pell.D * cg.pell.u0, 2 * a * cg.pell.t0)
    return _t_of_x(param, q - h), _t_of_x(param, q + h)


def _arc_pairs(
    cg: ClosedGeodesic, delta: float
) -> tuple[GeodesicParam, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns (ms, ns, ts, |D|) of the CM points of |D| <= delta on the
    fundamental arc, sorted along the geodesic.

    The scan covers the t-window between the ends rounded to floats; correct
    rounding is monotone, so no pair between the ends is lost.  A pair is
    then kept when m/n equals the included end e0 or lies strictly between
    e0 and the other end e1, both compared exactly.
    """
    param = build_param(cg.form, CM_ON_G)
    e0, e1 = _arc_ends(cg, param)
    lo, hi = sorted((e0, e1))
    ms, ns, ts, absd, _ = _enum_pairs(param, delta, ProjInterval(float(lo), float(hi)))
    k = max(abs(e.numerator) + e.denominator for e in (e0, e1))
    m, n = _ints(k * _absmax(ms, ns), ms, ns, floats=False)
    # the sign of m/n - e, by cross-multiplication (n > 0)
    s0, s1 = (m * e.denominator - n * e.numerator for e in (e0, e1))
    keep = (s0 == 0) | ((s0 < 0) & (s1 > 0)) | ((s0 > 0) & (s1 < 0))
    return param, ms[keep], ns[keep], ts[keep], absd[keep]


def cm_on_fundamental_arc(cg: ClosedGeodesic, delta: float) -> list[CMOnGeodesic]:
    """CM points of |D| <= delta on the fundamental arc, seam counted once.

    The arc is half-open: of its two ends, which gamma maps to one another,
    the one of smaller real part is included and the other is not.
    """
    if delta < 1:
        return []
    param, ms, ns, ts, _ = _arc_pairs(cg, delta)
    return _build(*_record_cols(param, ms, ns, ts))


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
_HORNER = tuple(zip(_SIGMA3[::-1], _TAU[::-1]))  # highest power first
# |j| ~ e^(2 pi y) at the reduced point leaves the float range above this y
_J_Y_MAX = math.log(sys.float_info.max) / (2 * math.pi)


def j_invariant(z: complex | PointH) -> complex:
    """Klein j = E4^3 / Delta, after fundamental-domain reduction.  Delta ~ q
    does not cancel, so j keeps its relative precision toward the cusp.
    Refused (DomainError) where the reduced point lies above y = _J_Y_MAX."""
    w = _reduce(z)[0]
    if w.imag > _J_Y_MAX:
        raise DomainError(
            f"j({z}) is past the float range: its reduced point has y = {w.imag:.6g} > {_J_Y_MAX:.6g}"
        )
    q = cmath.exp(2j * math.pi * w)
    e4 = dq = 0j  # the two sums by Horner's rule
    for s3, tau in _HORNER:
        e4, dq = (e4 + s3) * q, (dq + tau) * q
    return (1 + 240 * e4) ** 3 / dq


CONSTANT_ONE = ModularFunction("one", lambda z: 1 + 0j)
J_FUNCTION = ModularFunction("j", j_invariant)

# cycle_quadrature doubles its trapezoidal rule from _NODES_FIRST nodes until
# two agree within _QUAD_TOL * max(|value|, L).  It refuses past _NODES_LAST,
# when the float noise 2^-52 L max|f| exceeds that bound, and when the float
# grid exceeds _QUAD_TOL y_min^2, since reduction scales errors by (y'/y)^2.
_NODES_FIRST, _NODES_LAST, _QUAD_TOL = 16, 1024, 1e-5


def cycle_quadrature(cg: ClosedGeodesic, f: ModularFunction) -> complex:
    """Direct cycle integral of f over the closed geodesic by the periodic
    trapezoidal rule, each doubling evaluating f at the new midpoints only.
    The point at arc length u from the top is q - r tanh(u) + i r / cosh(u);
    the fundamental arc is u in [-L/2, L/2), L = cg.length, and f has period L
    in u, so the rule converges geometrically (Trefethen & Weideman, SIAM
    Review 56, 2014).  Refusals (NumericalInstability) are named at _QUAD_TOL.
    """
    sc, L = cg.semicircle, cg.length
    y_min, grid = sc.r / math.cosh(L / 2), math.ulp(abs(sc.q) + sc.r)
    if grid > _QUAD_TOL * y_min**2:
        raise NumericalInstability(
            f"the arc of {cg.form} reaches y = {y_min:.3g}, below the float grid {grid:.3g}"
        )
    total, fmax, n, u = 0j, 0.0, 0, np.array([-L / 2])
    while True:
        z = map(complex, (sc.q - sc.r * np.tanh(u)).tolist(), (sc.r / np.cosh(u)).tolist())
        vals = np.array(list(map(f.evaluator, z)), dtype=complex)
        total, fmax, n = total + vals.sum(), max(fmax, float(np.abs(vals).max())), n + len(u)
        val = complex(L / n * total)
        if n > _NODES_FIRST:
            bound, noise = _QUAD_TOL * max(abs(val), L), 2**-52 * L * fmax
            if noise <= bound and abs(val - prev) <= bound:
                return val
            if noise > bound or n >= _NODES_LAST:
                raise NumericalInstability(
                    f"cycle quadrature of {f.name} on {cg.form} does not settle above the float noise "
                    f"2^-52 L max|f| = {noise:.3g}: {n // 2} nodes give {prev}, {n} give {val}"
                )
        prev, u = val, -L / 2 + L / n * (np.arange(n) + 0.5)


def cycle_value(
    f: ModularFunction, w_form: IntForm, deltas: list[float]
) -> tuple[list[tuple[float, complex]], complex]:
    """CM-average estimates of the cycle integral along a delta ladder, plus
    the quadrature comparator, run first so a refusal costs no arc scan.  The
    arc is enumerated once, at the largest delta, and f is evaluated once per
    CM point; a rung sums, in arc order, the points of |D| <= delta."""
    if not is_normalized(*w_form.triple()):
        raise ValueError(f"{w_form} is not normalized")
    return _cycle_value(f, closed_geodesic(w_form), deltas)


def _cycle_value(
    f: ModularFunction, cg: ClosedGeodesic, deltas: list[float]
) -> tuple[list[tuple[float, complex]], complex]:
    """cycle_value on the closed geodesic of a normalized form."""
    for delta in deltas:
        if not (math.isfinite(delta) and delta > 0):
            raise DomainError(f"ladder delta must be positive and finite, got {delta}")
    quadrature = cycle_quadrature(cg, f)
    D = cg.pell.D
    scale_base = 2 * math.pi**2 * math.sqrt(D) / (3 * math.gcd(D, 2))
    param, ms, ns, _, absd = _arc_pairs(cg, max(deltas, default=0))
    a, b, _ = _form_cols(param, ms, ns)
    x, y = _cm_z_cols(a, b, absd)
    vals = list(map(f.evaluator, map(complex, x.tolist(), y.tolist())))
    estimates = []
    for delta in deltas:
        total = sum(compress(vals, _at_most(absd, delta).tolist()), 0j)
        estimates.append((delta, scale_base / delta * total))
    return estimates, quadrature
