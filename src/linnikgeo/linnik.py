"""Enumeration of the sets W_delta^(A,B,C) and their limit measure.

W consists of the reduced fractions m/n (n >= 1) in an interval I with
0 < A m^2 + B m n + C n^2 <= delta.  As delta grows these equidistribute
with respect to d_mu = dt / (A t^2 + B t + C) on I, with count
(3 delta / pi^2) mu(I) + lower order.  Everything here is case analysis on
the signs of A and D = B^2 - 4AC: those decide the shape of the positivity
region, the antiderivative of 1/F, and whether I may wrap through infinity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DomainError,
    GuardExceeded,
    IntervalOutsidePositivityRegion,
    IntervalTouchesRoot,
    UnboundedDivergence,
)
from .forms import RealForm

INF = math.inf

BRUTE_GUARD = 10**6

# most histogram buckets equid_report will allocate
BUCKET_GUARD = 10**6

# candidate values this close to the cutoff delta are reported as boundary
# ties when the coefficients are not exact integers
TIE_REL = 1e-9

# values of n per vectorised block of the scan, and candidates per chunk
# (int64 and float64 temporaries of _CHUNK entries stay under 1 MB)
_BLOCK = 4096
_CHUNK = 2**16
_NO_INTS = np.zeros(0, dtype=np.int64)
_NO_FLOATS = np.zeros(0)


@dataclass(frozen=True)
class ProjInterval:
    """Subinterval of the projectively extended real line.

    wraps=True means the interval runs lo -> +inf, then continues from
    -inf -> hi.  Endpoints may be +-inf only in the non-wrapping case.
    """

    lo: float
    hi: float
    wraps: bool = False

    def __post_init__(self):
        if self.wraps:
            if math.isinf(self.lo) or math.isinf(self.hi):
                raise ValueError("wrapping interval needs finite endpoints")
        elif self.lo > self.hi:
            raise ValueError("need lo <= hi (pass wraps=True to go through inf)")

    def contains(self, t: float) -> bool:
        if self.wraps:
            return t >= self.lo or t <= self.hi
        return self.lo <= t <= self.hi

    def pieces(self) -> list[tuple[float, float]]:
        """The interval as one or two ordinary real intervals."""
        if self.wraps:
            return [(self.lo, INF), (-INF, self.hi)]
        return [(self.lo, self.hi)]


class Frac(NamedTuple):
    """Reduced fraction m/n with its float value cached."""

    m: int
    n: int
    t: float

    @classmethod
    def make(cls, m: int, n: int) -> "Frac":
        return cls(m, n, m / n)


def _fracs(ms: np.ndarray, ns: np.ndarray, t: np.ndarray) -> list[Frac]:
    """Frac records of the columns, made by tuple's C-level constructor
    rather than the namedtuple's Python-level __new__."""
    return list(map(partial(tuple.__new__, Frac), zip(ms.tolist(), ns.tolist(), t.tolist())))


@dataclass(eq=False)
class EnumReport:
    """Empirical against predicted count of W_delta on I.

    normalized_residual is residual / (sqrt(delta) log^2 delta), nan at
    delta = 1.  The enumerated fractions, sorted along I, are kept as the
    columns ms, ns (int64) and t = ms / ns; fracs builds their records.
    """

    empirical: int
    predicted: float
    residual: float
    normalized_residual: float
    histogram: list[tuple[int, float]]
    max_ratio_dev: float
    boundary_ties: int
    ms: np.ndarray
    ns: np.ndarray
    t: np.ndarray

    @property
    def fracs(self) -> list[Frac]:
        return _fracs(self.ms, self.ns, self.t)


# ---------------------------------------------------------------------------
# sign cases and antiderivatives


@dataclass(frozen=True)
class QuadCase:
    """The sign case of F(t) = A t^2 + B t + C, worked out once.

    roots are the real roots of F, sorted; pos are the open intervals where
    F > 0; H is an antiderivative of 1/F there, and h_pinf, h_minf are its
    limits at +-inf (nan where the integral diverges).
    """

    F: RealForm
    tag: str
    roots: tuple[float, ...]
    pos: tuple[tuple[float, float], ...]
    H: Callable[[float], float]
    h_pinf: float
    h_minf: float

    @classmethod
    def of(cls, F: RealForm) -> "QuadCase":
        A, B, C = F.A, F.B, F.C
        D = F.discriminant()
        if not abs(D) <= sys.float_info.max:
            raise DomainError(f"the discriminant of {F} overflows: B^2 - 4AC = {D}")
        if A == 0:
            r = -C / B
            pos = ((r, INF),) if B > 0 else ((-INF, r),)
            H = lambda t: math.log(abs(B * t + C)) / B
            return cls(F, "linear", (r,), pos, H, math.nan, math.nan)
        if D < 0 and A > 0:
            sd = math.sqrt(-D)
            H = lambda t: 2 / sd * math.atan((2 * A * t + B) / sd)
            lim = math.pi / sd
            return cls(F, "definite", (), ((-INF, INF),), H, lim, -lim)
        if D < 0 or (D == 0 and A < 0):
            raise IntervalOutsidePositivityRegion(f"{F} is never positive")
        sd = math.sqrt(D)
        r1, r2 = sorted(((-B - sd) / (2 * A), (-B + sd) / (2 * A)))
        if A < 0:
            H = lambda t: math.log((t - r1) / (r2 - t)) / sd
            return cls(F, "cap", (r1, r2), ((r1, r2),), H, math.nan, math.nan)
        pos = ((-INF, r1), (r2, INF))
        if D == 0:
            H = lambda t: -2 / (2 * A * t + B)
            return cls(F, "parabolic", (r1, r2), pos, H, 0.0, 0.0)
        H = lambda t: math.log(abs((t - r2) / (t - r1))) / sd
        return cls(F, "indefinite", (r1, r2), pos, H, 0.0, 0.0)

    def at(self, t: float) -> float:
        """H(t), taking the limits at t = +-inf."""
        h = self.h_pinf if t == INF else self.h_minf if t == -INF else self.H(t)
        if math.isnan(h):
            raise UnboundedDivergence(f"integral of 1/{self.F} diverges at {t}")
        return h


def case_tag(F: RealForm) -> str:
    """linear, definite, indefinite, parabolic or cap."""
    return QuadCase.of(F).tag


def _check_interval(case: QuadCase, I: ProjInterval) -> None:
    """Closure of I must stay inside {F > 0} and off the roots of F."""
    if I.wraps and case.F.A <= 0:
        raise IntervalOutsidePositivityRegion(
            "wrapping through infinity requires A > 0"
        )
    for e in (I.lo, I.hi):
        if e in case.roots:
            raise IntervalTouchesRoot(f"endpoint {e} is a root of {case.F}")
    for lo, hi in I.pieces():
        if not any(a <= lo and hi <= b for a, b in case.pos):
            raise IntervalOutsidePositivityRegion(
                f"{I} leaves {{F > 0}} = {case.pos} for {case.F}"
            )


def _level_spans(
    case: QuadCase, n: np.ndarray, delta: float, ipieces: list[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """Integer m-ranges [L, H] covering {m : m/n in I, F(m/n) <= delta/n^2},
    one column per piece of the level set, for a block of n at once.

    Once _check_interval has passed, I lies in the closure of {F > 0}, so
    these cover {t in I : 0 < F(t) <= K}, and every piece is bounded.  The
    float operations are those of the scalar formulas; each range is padded
    by 1 against rounding, and an empty piece becomes the range [1, 0].
    """
    A, B, C = case.F.A, case.F.B, case.F.C
    nf = n.astype(float)
    K = delta / (nf * nf)
    if A == 0:
        top = (K - C) / B
        below = [(-INF, top)] if B > 0 else [(top, INF)]
    else:
        disc = B * B - 4 * A * (C - K)
        real = disc >= 0
        sd = np.sqrt(np.where(real, disc, 0.0))
        r1, r2 = (-B - sd) / (2 * A), (-B + sd) / (2 * A)
        if A > 0:
            below = [(np.where(real, r1, INF), np.where(real, r2, -INF))]
        else:
            below = [(-INF, np.where(real, r2, INF)), (np.where(real, r1, INF), INF)]
    L, H = [], []
    for a, b in below:
        for lo, hi in ipieces:
            lo, hi = np.maximum(a, lo), np.minimum(b, hi)
            hit = lo <= hi
            L.append(np.where(hit, nf * lo, 2.0))
            H.append(np.where(hit, nf * hi, -1.0))
    L = np.floor(np.stack(L, 1)).astype(np.int64) - 1
    H = np.ceil(np.stack(H, 1)).astype(np.int64) + 1
    return L, H


def mu_integral(F: RealForm, I: ProjInterval) -> float:
    """Integral of dt / (A t^2 + B t + C) over I, in closed form."""
    case = QuadCase.of(F)
    _check_interval(case, I)
    return _mu(case, I)


def _mu(case: QuadCase, I: ProjInterval) -> float:
    """mu_integral for an interval that _check_interval has passed."""
    if I.wraps:
        return (case.h_pinf - case.H(I.lo)) + (case.H(I.hi) - case.h_minf)
    return case.at(I.hi) - case.at(I.lo)


def predicted_count(F: RealForm, delta: float, I: ProjInterval) -> float:
    """Main term (3 delta / pi^2) mu(I) of #W_delta restricted to I."""
    if delta == 0:
        return 0.0
    return 3.0 * delta / math.pi**2 * mu_integral(F, I)


# ---------------------------------------------------------------------------
# exact enumeration


def _min_on_closure(F: RealForm, I: ProjInterval) -> float:
    """min of F over the closure of I (inf at infinite endpoints when A > 0)."""
    vals = []
    for e in (I.lo, I.hi):
        v = F.value(e)
        if not math.isinf(v):
            vals.append(v)
    if F.A != 0:
        vtx = -F.B / (2 * F.A)
        if I.contains(vtx):
            vals.append(F.value(vtx))
    if not vals:
        raise UnboundedDivergence(f"no finite minimum of {F} on {I}")
    return min(vals)


def form_values(F: RealForm, ms: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """F(m, n) = A m^2 + B m n + C n^2 for int64 columns ms, ns, equal to
    the scalar expression element by element.

    Integral F is exact: int64 while coeff * max(|m|, n)^2 < 2^62, Python
    ints in an object array beyond.  Real (float) coefficients take the
    scalar expression's float operations in the same order, so every value
    is bit-identical to it.
    """
    if not F.is_integral():
        m, n = ms.astype(float), ns.astype(float)
        return F.A * m * m + F.B * m * n + F.C * n * n
    return _scan_values(F, True, ms, ns)


def _absmax(*cols: np.ndarray) -> int:
    """The largest |entry| of the integer columns, 0 when they are empty."""
    return max(int(np.abs(c).max(initial=0)) for c in cols)


def _int_values(A: int, B: int, C: int, ms: np.ndarray, ns: np.ndarray, big: int) -> np.ndarray:
    """form_values for integer A, B, C, given big >= max(|m|, n)."""
    if (abs(A) + abs(B) + abs(C)) * big * big < 2**62:
        return A * ms * ms + B * ms * ns + C * (ns * ns)
    vals = [A * m * m + B * m * k + C * k * k for m, k in zip(ms.tolist(), ns.tolist())]
    return np.array(vals, dtype=object)


def _scan_values(F: RealForm, integral: bool, ms: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """The values F(m, n) the scan tests: exact for integral F, else in
    float operations of the scan's own order."""
    if integral:
        return _int_values(int(F.A), int(F.B), int(F.C), ms, ns, _absmax(ms, ns))
    mm, nn = (ms * ms).astype(float), (ns * ns).astype(float)
    return F.A * mm + F.B * ms.astype(float) * ns.astype(float) + F.C * nn


def _at_most(vals: np.ndarray, delta: float) -> np.ndarray:
    """vals <= delta.  int64 values are compared with floor(delta) as an
    int: against a float delta, numpy would round them above 2^53."""
    return vals <= (min(math.floor(delta), 2**62) if vals.dtype == np.int64 else delta)


def ladder_counts(F: RealForm, deltas: list[float], I: ProjInterval) -> list[int]:
    """len(W_delta) on I for each delta, from one enumeration at the largest:
    a rung counts the pairs whose value the scan's test puts at most delta."""
    if not all(map(math.isfinite, deltas)):
        raise DomainError(f"deltas must be finite, got {deltas}")
    ms, ns, _, _ = _enumerate_with_ties(F, max(deltas), I)
    vals = _scan_values(F, F.is_integral(), ms, ns)
    return [int(_at_most(vals, delta).sum()) for delta in deltas]


def _run_scan(
    case: QuadCase,
    integral: bool,
    delta: float,
    I: ProjInterval,
    n_max: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """All reduced (m, n) with 1 <= n <= n_max, m/n in I and
    0 < F(m, n) <= delta, as int64 columns (ms, ns) ordered by n, then m;
    plus the count of float values within TIE_REL of delta (boundary ties;
    integral forms have none).

    Works on blocks of _BLOCK values of n: the m-ranges of a block come
    from one vectorised pass, and their candidates are tested in chunks of
    _CHUNK so that temporaries stay small.
    """
    F = case.F
    ipieces = I.pieces()
    out_m, out_n = [_NO_INTS], [_NO_INTS]
    ties = 0
    for n0 in range(1, n_max + 1, _BLOCK):
        n = np.arange(n0, min(n0 + _BLOCK, n_max + 1), dtype=np.int64)
        L, H = _level_spans(case, n, delta, ipieces)
        # merge the ranges of each n.  Sorting starts and ends separately
        # keeps how often each m is covered, so it keeps the union; then
        # every range begins after the end before it and is tested once
        L, H = np.sort(L, axis=1), np.sort(H, axis=1)
        L[:, 1:] = np.maximum(L[:, 1:], H[:, :-1] + 1)
        count = np.maximum(H - L + 1, 0).ravel()
        ends = np.cumsum(count)
        # candidate number p of the block lies in range s = the first with
        # ends[s] > p, and is m = L[s] + p - (ends[s] - count[s])
        shift, span_n = L.ravel() - (ends - count), np.repeat(n, L.shape[1])
        total = int(ends[-1])
        for c0 in range(0, total, _CHUNK):
            pos = np.arange(c0, min(c0 + _CHUNK, total), dtype=np.int64)
            s = np.searchsorted(ends, pos, side="right")
            ms, ns = shift[s] + pos, span_n[s]
            vals = _scan_values(F, integral, ms, ns)
            ok = (vals > 0) & _at_most(vals, delta)
            if not integral:
                ties += int((np.abs(vals - delta) < TIE_REL * delta).sum())
            ok &= np.gcd(ms, ns) == 1
            # the comparisons of I.contains(m / n), exact for |m|, n < 2^53
            t = ms / ns
            if I.wraps:
                ok &= (t >= I.lo) | (t <= I.hi)
            else:
                ok &= (I.lo <= t) & (t <= I.hi)
            out_m.append(ms[ok])
            out_n.append(ns[ok])
    return np.concatenate(out_m), np.concatenate(out_n), ties


def _sort_along(
    I: ProjInterval, ms: np.ndarray, ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (ms, ns, t = ms / ns) stably sorted by t along I: a wrapping
    interval runs lo -> +inf first, then -inf -> hi."""
    t = ms / ns
    order = np.lexsort((t, t < I.lo)) if I.wraps else np.argsort(t, kind="stable")
    return ms[order], ns[order], t[order]


def enumerate_W(F: RealForm, delta: float, I: ProjInterval) -> list[Frac]:
    """All reduced m/n in I with 0 < F(m, n) <= delta, sorted along I.

    Membership is exact integer arithmetic when F has integer coefficients.
    Wrapping intervals sort lo -> +inf first, then -inf -> hi.
    """
    ms, ns, t, _ = _enumerate_with_ties(F, delta, I)
    return _fracs(ms, ns, t)


def _enumerate_with_ties(
    F: RealForm, delta: float, I: ProjInterval, case: QuadCase | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """W_delta on I as columns (ms, ns, t) sorted along I, and the number
    of boundary ties.  case is QuadCase.of(F), if the caller has it."""
    if not math.isfinite(delta):
        raise DomainError(f"delta must be finite, got {delta}")
    if delta <= 0:
        return _NO_INTS, _NO_INTS, _NO_FLOATS, 0
    case = case or QuadCase.of(F)
    _check_interval(case, I)
    minF = _min_on_closure(F, I)
    if minF <= 0:
        raise IntervalTouchesRoot(
            f"min of {F} on closure of {I} is {minF}; n-range would be infinite"
        )
    n_max = math.isqrt(math.floor(delta / minF))
    if n_max < 1:
        return _NO_INTS, _NO_INTS, _NO_FLOATS, 0
    ms, ns, ties = _run_scan(case, F.is_integral(), delta, I, n_max)
    return (*_sort_along(I, ms, ns), ties)


def brute_force_W(F: RealForm, delta: float, I: ProjInterval) -> list[Frac]:
    """Naive double-loop oracle for enumerate_W.  Guarded to delta <= 10^6."""
    if delta > BRUTE_GUARD:
        raise GuardExceeded(f"brute force refuses delta > {BRUTE_GUARD}")
    if delta <= 0:
        return []
    _check_interval(QuadCase.of(F), I)
    minF = _min_on_closure(F, I)
    if minF <= 0:
        raise IntervalTouchesRoot(f"min of {F} on closure of {I} is {minF}")
    n_max = math.isqrt(math.floor(delta / minF))
    # widest conceivable |t|: the interval itself when finite, otherwise the
    # extent of the level set F <= delta (I is then unbounded, so A >= 0)
    marks = [abs(e) for e in (I.lo, I.hi) if not math.isinf(e)] + [1.0]
    if I.wraps or math.isinf(I.lo) or math.isinf(I.hi):
        if F.A == 0:
            marks.append(abs((delta - F.C) / F.B))
        else:
            sd = math.sqrt(max(F.B * F.B - 4 * F.A * (F.C - delta), 0.0))
            marks += [abs((-F.B - sd) / (2 * F.A)), abs((-F.B + sd) / (2 * F.A))]
    T = max(marks)
    integral = F.is_integral()
    A, B, C = (int(F.A), int(F.B), int(F.C)) if integral else (F.A, F.B, F.C)
    out = []
    for n in range(1, n_max + 1):
        M = math.ceil(n * T) + 1
        for m in range(-M, M + 1):
            if math.gcd(m, n) != 1:
                continue
            v = A * m * m + B * m * n + C * n * n
            if 0 < v <= delta and I.contains(m / n):
                out.append(Frac.make(m, n))
    if I.wraps:
        out.sort(key=lambda f: (0, f.t) if f.t >= I.lo else (1, f.t))
    else:
        out.sort(key=lambda f: f.t)
    return out


# ---------------------------------------------------------------------------
# equidistribution statistics


def count_residual(empirical: int, delta: float, mu: float) -> tuple[float, float, float]:
    """(predicted, residual, normalized residual) of a count of W_delta on an
    interval of mu-mass mu: predicted = (3 delta / pi^2) mu, and the residual
    is normalized by sqrt(delta) log^2 delta (nan at delta = 1)."""
    predicted = 3.0 * delta / math.pi**2 * mu
    residual = empirical - predicted
    scale = math.sqrt(delta) * math.log(delta) ** 2
    return predicted, residual, residual / scale if scale else math.nan


def _heights(case: QuadCase, I: ProjInterval, t: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The monotone coordinate h along I (dh = d_mu, continued through the
    infinity seam of a wrapping I) at each t, and its range (h0, h1).

    H is applied per element: numpy's log and arctan may round differently
    from math's.
    """
    h = np.fromiter(map(case.H, t.tolist()), float, len(t))
    if not I.wraps:
        return h, case.at(I.lo), case.at(I.hi)
    jump = case.h_pinf - case.h_minf
    h[t < I.lo] += jump
    return h, case.H(I.lo), case.H(I.hi) + jump


def equid_report(
    F: RealForm,
    delta: float,
    I: ProjInterval,
    buckets: int,
) -> EnumReport:
    """Compare the enumeration against the predicted count and bucket masses.

    I is split into `buckets` pieces of equal mu-mass (by the closed-form
    antiderivative, which is the monotone coordinate along I, including
    through the infinity seam of a wrapping interval).  The report keeps
    the enumerated fractions as columns.
    """
    if buckets < 2:
        raise ValueError("need at least 2 buckets")
    if buckets > BUCKET_GUARD:
        raise GuardExceeded(f"{buckets} buckets requested; at most {BUCKET_GUARD}")
    if delta <= 0:
        return EnumReport(0, 0.0, 0.0, 0.0, [(0, 0.0)] * buckets, 0.0, 0,
                          _NO_INTS, _NO_INTS, _NO_FLOATS)
    case = QuadCase.of(F)
    ms, ns, t, ties = _enumerate_with_ties(F, delta, I, case)
    mu_tot = _mu(case, I)
    empirical = len(t)
    predicted, residual, normalized = count_residual(empirical, delta, mu_tot)
    h, h0, h1 = _heights(case, I, t)
    # astype truncates toward zero, as int() does
    j = ((h - h0) / ((h1 - h0) / buckets)).astype(np.int64)
    counts = np.bincount(np.clip(j, 0, buckets - 1), minlength=buckets).tolist()
    mass = mu_tot / buckets
    if min(counts) > 0:
        dev = max(counts) / min(counts) - 1.0
    else:
        dev = math.inf if empirical else 0.0
    return EnumReport(
        empirical=empirical,
        predicted=predicted,
        residual=residual,
        normalized_residual=normalized,
        histogram=[(c, mass) for c in counts],
        max_ratio_dev=dev,
        boundary_ties=ties,
        ms=ms,
        ns=ns,
        t=t,
    )
