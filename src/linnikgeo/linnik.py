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
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple

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

# most work a scan may do, counted as n_max plus the candidates it tests
SCAN_GUARD = 10**8
_SCAN_WORK = "the scan of {} on {} at delta = {} has n_max = {} and {:.0f} candidates"

# candidate values this close to the cutoff delta are reported as boundary
# ties when the coefficients are not exact integers
TIE_REL = 1e-9

# values per block and per chunk of every scan (_upto, _expand): columns of
# 2^14 int64s stay in cache (2^16 halved the ball's speed)
_BLOCK = 2**14
_NO_INTS = np.zeros(0, dtype=np.int64)
_NO_FLOATS = np.zeros(0)


@dataclass(frozen=True)
class ProjInterval:
    """Subinterval of the projectively extended real line.

    wraps=True means the interval runs lo -> +inf, then continues from
    -inf -> hi, with finite ends lo > hi so that the pieces do not overlap.
    Endpoints may be +-inf only in the non-wrapping case, and never nan.
    """

    lo: float
    hi: float
    wraps: bool = False

    def __post_init__(self):
        if self.wraps:
            if not INF > self.lo > self.hi > -INF:
                raise ValueError(f"a wrapping interval needs finite ends with lo > hi, got {self.lo}, {self.hi}")
        elif not self.lo <= self.hi:
            raise ValueError(f"need lo <= hi, got {self.lo}, {self.hi} (pass wraps=True to go through inf)")

    def contains(self, t: float | np.ndarray) -> bool | np.ndarray:
        """t in I, for a float t or elementwise for a column of them."""
        if self.wraps:
            return (t >= self.lo) | (t <= self.hi)
        return (self.lo <= t) & (t <= self.hi)

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


def _tuples(cls: type, *cols: list) -> list:
    """cls (a NamedTuple) records of the columns, made by tuple's C-level
    constructor rather than the namedtuple's Python-level __new__."""
    return list(map(tuple.__new__, repeat(cls), zip(*cols)))


def _fracs(ms: np.ndarray, ns: np.ndarray, t: np.ndarray) -> list[Frac]:
    """Frac records of the columns."""
    return _tuples(Frac, ms.tolist(), ns.tolist(), t.tolist())


@dataclass(eq=False)
class EnumReport:
    """Empirical against predicted count of W_delta on I.

    normalized_residual is residual / (sqrt(delta) log^2 delta), nan at
    delta = 1.  The enumerated fractions, sorted along I, are kept as the
    columns ms, ns (int64), t = ms / ns and values, F(m, n) of each row as
    the scan tested it; fracs builds their records.
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
    values: np.ndarray

    @property
    def fracs(self) -> list[Frac]:
        return _fracs(self.ms, self.ns, self.t)


# ---------------------------------------------------------------------------
# sign cases and antiderivatives


@dataclass(frozen=True)
class QuadCase:
    """The sign case of F(t) = A t^2 + B t + C, worked out once.

    D is the discriminant B^2 - 4AC, an exact int for integral F; roots are
    the real roots of F, sorted; pos are the open intervals where F > 0; H is
    an antiderivative of 1/F there, and h_pinf, h_minf are its limits at
    +-inf (nan where the integral diverges).
    """

    F: RealForm
    tag: str
    D: float
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
        try:
            integral = F.is_integral()
        except OverflowError:
            raise DomainError(f"the coefficients of {F} pass the float range") from None
        D = int(B) ** 2 - 4 * int(A) * int(C) if integral else D  # exact
        if A == 0:
            r = -C / B
            pos = ((r, INF),) if B > 0 else ((-INF, r),)
            H = lambda t: math.log(abs(B * t + C)) / B
            return cls(F, "linear", D, (r,), pos, H, math.nan, math.nan)
        if D < 0 and A > 0:
            sd = math.sqrt(-D)
            H = lambda t: 2 / sd * math.atan((2 * A * t + B) / sd)
            lim = math.pi / sd
            return cls(F, "definite", D, (), ((-INF, INF),), H, lim, -lim)
        if D < 0 or (D == 0 and A < 0):
            raise IntervalOutsidePositivityRegion(f"{F} is never positive")
        sd = math.sqrt(D)
        r1, r2 = sorted(((-B - sd) / (2 * A), (-B + sd) / (2 * A)))
        if A < 0:
            H = lambda t: math.log((t - r1) / (r2 - t)) / sd
            return cls(F, "cap", D, (r1, r2), ((r1, r2),), H, math.nan, math.nan)
        pos = ((-INF, r1), (r2, INF))
        if D == 0:
            H = lambda t: -2 / (2 * A * t + B)
            return cls(F, "parabolic", D, (r1, r2), pos, H, 0.0, 0.0)
        H = lambda t: math.log(abs((t - r2) / (t - r1))) / sd
        return cls(F, "indefinite", D, (r1, r2), pos, H, 0.0, 0.0)

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
    """Closure of I must stay inside {F > 0} and off the roots of F (so a
    wrapping I needs A > 0), and F must be > 0 in floats on it, as the scan tests."""
    for e in (I.lo, I.hi):
        if e in case.roots:
            raise IntervalTouchesRoot(f"endpoint {e} is a root of {case.F}")
    for lo, hi in I.pieces():
        if not any(a <= lo and hi <= b for a, b in case.pos):
            raise IntervalOutsidePositivityRegion(
                f"{I} leaves {{F > 0}} = {case.pos} for {case.F}"
            )
    if _min_on_closure(case.F, I) <= 0:
        raise IntervalTouchesRoot(f"{case.F} rounds to <= 0 on the closure of {I}")


def _level_spans(
    case: QuadCase, n: np.ndarray, delta: float, pieces: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, int]:
    """Integer m-ranges [L, H] covering {m : m/n in I, F(m/n) <= delta/n^2}
    for a block of n, as _expand's block ([n], L, H, bound): a range per
    piece of the level set, of I (pieces, their ends as a (2, 1, P) array,
    met by broadcasting; the level set has two only where A < 0 and I does
    not wrap) and n, merged so that no m is in two; bound >= max(|m|, n).

    Once _check_interval has passed, I lies in the closure of {F > 0}, so
    these cover {t in I : 0 < F(t) <= K}, and every piece is bounded.  The
    roots come from D + 4AK, which does not cancel as B^2 - 4A(C - K) does;
    each range is padded by 1 against rounding, an empty piece is [1, 0].
    """
    A, B, C = case.F.A, case.F.B, case.F.C
    nf = n.astype(float)[:, None]
    K = delta / (nf * nf)
    if A == 0:
        top = (K - C) / B
        a, b = (-INF, top) if B > 0 else (top, INF)
    else:
        disc = case.D + 4 * A * K
        real = disc >= 0
        sd = np.sqrt(np.where(real, disc, 0.0))
        r1, r2 = (-B - sd) / (2 * A), (-B + sd) / (2 * A)
        if A > 0:
            a, b = np.where(real, r1, INF), np.where(real, r2, -INF)
        else:  # the pieces (-inf, r2] and [r1, inf), as columns
            r = np.where(real, np.hstack((r2, r1)), INF)
            a, b = np.where([True, False], -INF, r), np.where([False, True], INF, r)
    lo, hi = np.maximum(a, pieces[0]), np.minimum(b, pieces[1])
    hit = lo <= hi
    L, H = np.floor(np.where(hit, nf * lo, 2.0)), np.ceil(np.where(hit, nf * hi, -1.0))
    reach = max(-L.min(), H.max())  # L <= H in a non-empty piece; past 2^62 int64 wraps
    if not reach < 2**62:
        raise GuardExceeded(f"the level set of {case.F} at delta = {delta} reaches |m| = {reach:.3g} > 2^62")
    L, H = L.astype(np.int64) - 1, H.astype(np.int64) + 1
    if L.shape[1] > 1:  # sorting starts and ends apart keeps how often each m
        # is covered, so the union; then each range begins after the one before
        L, H = np.sort(L, 1), np.sort(H, 1)
        L[:, 1:] = np.maximum(L[:, 1:], H[:, :-1] + 1)
    return [n.repeat(L.shape[1])], L.ravel(), H.ravel(), max(int(reach) + 1, int(n[-1]))


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


def _check_delta(delta: float) -> None:
    """Refuse a delta that is nan or infinite, as every W-set entry does."""
    if not math.isfinite(delta):
        raise DomainError(f"delta must be finite, got {delta}")


def predicted_count(F: RealForm, delta: float, I: ProjInterval) -> float:
    """Main term (3 delta / pi^2) mu(I) of #W_delta on I; 0.0 for delta <= 0."""
    _check_delta(delta)
    if delta <= 0:
        return 0.0
    return count_residual(0, delta, mu_integral(F, I))[0]


# ---------------------------------------------------------------------------
# exact enumeration


def _min_on_closure(F: RealForm, I: ProjInterval) -> float:
    """min of F over the closure of I, at an end or the vertex: +inf at an
    infinite end of an I that _check_interval passes, and where F overflows."""
    vals = [F.value(I.lo), F.value(I.hi)]
    if F.A != 0:
        vtx = -F.B / (2 * F.A)
        if I.contains(vtx):
            vals.append(F.value(vtx))
    return min(vals)


def form_values(F: RealForm, ms: np.ndarray, ns: np.ndarray, bound: int | None = None) -> np.ndarray:
    """F(m, n) = A m^2 + B m n + C n^2 for int64 columns ms, ns, equal to
    the scalar expression element by element: the one evaluation of F(m, n),
    made by the scan, whose values column every consumer reads.

    Integral F is exact: int64 while coeff * bound^2 < 2^63 (no value
    becomes a float here), Python ints in an object array beyond; bound >=
    max(|m|, n, 1) is the scan's level-set bound, or else that maximum.
    Real (float) coefficients multiply the float-cast columns in the scalar
    expression's order, so every value is bit-identical to it (and to
    brute_force_W's), and no int64 square wraps.
    """
    if F.is_integral():
        A, B, C = int(F.A), int(F.B), int(F.C)
        bound = bound or _absmax(ms, ns)
        m, n = _ints((abs(A) + abs(B) + abs(C)) * bound**2, ms, ns, floats=False)
        return A * m * m + B * m * n + C * (n * n)
    m, n = ms.astype(float), ns.astype(float)
    return F.A * m * m + F.B * m * n + F.C * n * n


def _absmax(*cols: np.ndarray) -> int:
    """The largest |entry| of the integer columns, at least 1 so bounds cover the coefficients."""
    return max(1, *(int(np.abs(c).max(initial=0)) for c in cols))


def _int_dtype(bound: int, floats: bool = True) -> type:
    """int64 when bound, a bound on every integer a computation makes, is
    below 2^53 where one of them is divided or cast to float (floats), so the
    cast is exact and a true division rounds as int / int does, or below 2^63
    where none is (no product overflows); else object, for exact Python ints."""
    return np.int64 if bound < (2**53 if floats else 2**63) else object


def _ints(bound: int, *cols: np.ndarray, floats: bool = True) -> list[np.ndarray]:
    dt = _int_dtype(bound, floats)
    return [c.astype(dt, copy=False) for c in cols]


def _at_most(vals: np.ndarray, delta: float) -> np.ndarray:
    """vals <= delta.  int64 values are compared with floor(delta) as an
    int: against a float delta, numpy would round them above 2^53."""
    return vals <= (min(math.floor(delta), 2**63 - 1) if vals.dtype == np.int64 else delta)


def ladder_counts(F: RealForm, deltas: list[float], I: ProjInterval) -> list[int]:
    """len(W_delta) on I for each delta, from one enumeration at the largest:
    a rung counts the pairs whose value the scan's test puts at most delta."""
    for delta in deltas:
        _check_delta(delta)
    _, _, _, vals, _ = _enumerate_with_ties(F, max(deltas, default=0), I)
    return [int(_at_most(vals, delta).sum()) for delta in deltas]


def _run_scan(
    case: QuadCase,
    integral: bool,
    delta: float,
    I: ProjInterval,
    n_max: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """All reduced (m, n) with 1 <= n <= n_max, m/n in I and
    0 < F(m, n) <= delta, as int64 columns (ms, ns) ordered by n, then m,
    t = ms / ns and vals, the F(m, n) tested; plus the count of float values
    within TIE_REL of delta (boundary ties; integral forms have none).

    The m-ranges of each block of n and the bound form_values takes come
    from one vectorised pass (_level_spans), and _expand tests their
    candidates chunk by chunk; t, divided once there, goes to _sort_along.
    """
    F = case.F
    pieces = np.array(I.pieces()).T[:, None, :]
    out = []
    ties = 0
    blocks = (_level_spans(case, n, delta, pieces) for n in _upto(n_max))
    for (ns,), ms, bound in _expand(blocks, n_max, _SCAN_WORK, F, I, delta, n_max):
        vals = form_values(F, ms, ns, bound)
        ok = (vals > 0) & _at_most(vals, delta)
        if not integral:
            ties += int((np.abs(vals - delta) < TIE_REL * delta).sum())
        t = ms / ns  # rounds as the scalar m / n does for |m|, n < 2^53
        ok &= (np.gcd(ms, ns) == 1) & I.contains(t)
        out.append((ms[ok], ns[ok], t[ok], vals[ok]))
    ms, ns, t, vals = out[0] if len(out) == 1 else map(np.concatenate, zip(*out))
    return ms, ns, t, vals, ties


def _upto(top: int) -> Iterator[np.ndarray]:
    """1, ..., top as int64 columns of at most _BLOCK values."""
    for v0 in range(1, top + 1, _BLOCK):
        yield np.arange(v0, min(v0 + _BLOCK, top + 1), dtype=np.int64)


def _expand(blocks: Iterable, start: float, what: str, *args) -> Iterator[tuple]:
    """The one blocked loop of every scan.  Each block (rows, lo, hi, *rest)
    holds ranges [lo, hi] and columns rows with one entry per range; their
    integers v come in order, in chunks of at most _BLOCK (one empty chunk if
    there are none) as ([row[s], ...], v, *rest), row[s] the entries of v's
    range.  Before a block is expanded, start plus the count of integers so
    far (a float sum, which cannot wrap) passes _guard, named by
    what.format(*args, count)."""
    count = 0.0
    for rows, lo, hi, *rest in blocks:
        k = np.maximum(hi - lo + 1, 0)
        total = k.sum(dtype=float)
        count += total
        _guard(start + count, what, *args, count)
        n, k = int(total), k.astype(np.int64, copy=False)
        ends = k.cumsum()
        starts = ends - k
        if n <= _BLOCK:  # one chunk, repeated by k with no search
            yield [row.repeat(k) for row in rows], (lo - starts).repeat(k) + np.arange(n), *rest
            continue
        for p0 in range(0, n, _BLOCK):
            p1 = min(p0 + _BLOCK, n)
            i, j = np.searchsorted(ends, p0, side="right"), np.searchsorted(starts, p1)
            part = np.minimum(ends[i:j], p1) - np.maximum(starts[i:j], p0)
            s = np.repeat(np.arange(i, j), part)
            v = np.repeat(lo[i:j] - starts[i:j], part) + np.arange(p0, p1)
            yield [row[s] for row in rows], v, *rest


def _guard(count: float, what: str, *args) -> None:
    """Refuse work whose count passes SCAN_GUARD or is nan, naming it: what.format(*args)."""
    if not count <= SCAN_GUARD:
        raise GuardExceeded(f"{what.format(*args)}, over SCAN_GUARD = {SCAN_GUARD}")


def _sort_along(
    I: ProjInterval, ms: np.ndarray, ns: np.ndarray, t: np.ndarray, vals: np.ndarray
) -> list[np.ndarray]:
    """_run_scan's columns (ms, ns, t = ms / ns, vals) stably sorted by t
    along I: a wrapping interval runs lo -> +inf first, then -inf -> hi."""
    order = np.lexsort((t, t < I.lo)) if I.wraps else np.argsort(t, kind="stable")
    return [ms[order], ns[order], t[order], vals[order]]


def enumerate_W(F: RealForm, delta: float, I: ProjInterval) -> list[Frac]:
    """All reduced m/n in I with 0 < F(m, n) <= delta, sorted along I.

    Membership is exact integer arithmetic when F has integer coefficients.
    Wrapping intervals sort lo -> +inf first, then -inf -> hi.
    """
    ms, ns, t, _, _ = _enumerate_with_ties(F, delta, I)
    return _fracs(ms, ns, t)


def _enumerate_with_ties(
    F: RealForm, delta: float, I: ProjInterval, case: QuadCase | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """W_delta on I as columns (ms, ns, t, values) sorted along I, and the
    number of boundary ties.  case is QuadCase.of(F), if the caller has it."""
    case = case or QuadCase.of(F)
    _check_interval(case, I)
    return _scan_window(case, delta, I)


def _scan_window(
    case: QuadCase, delta: float, I: ProjInterval | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """The one way into the scan: W_delta of case.F on I as _enumerate_with_ties
    gives it, with n bounded by the minimum of F on the closure of I, which
    must be positive.  I = None is the whole positivity region of an integral
    F, roots included, where _region_n_max bounds n."""
    _check_delta(delta)
    F, n_max = case.F, 0
    if I is None:  # n_max first: _region_n_max refuses a double root, where I could not wrap
        n_max = _region_n_max(case, delta) if delta >= 1 else 0
        pos = case.pos
        I = ProjInterval(*pos[0]) if len(pos) == 1 else ProjInterval(pos[1][0], pos[0][1], True)
    elif delta > 0:
        minF = _min_on_closure(F, I)
        if minF <= 0:
            raise IntervalTouchesRoot(
                f"min of {F} on closure of {I} is {minF}; n-range would be infinite"
            )
        n_max = math.isqrt(math.floor(delta / minF))
    if n_max < 1:
        return _NO_INTS, _NO_INTS, _NO_FLOATS, _NO_INTS, 0
    _guard(n_max, _SCAN_WORK, F, I, delta, n_max, 0)
    *cols, ties = _run_scan(case, F.is_integral(), delta, I, n_max)
    return (*_sort_along(I, *cols), ties)


def _region_n_max(case: QuadCase, delta: float) -> int:
    """n-bound of the scan of an integral F over its positivity region and
    roots.  Linear values factor as n (B m + C n), a definite F has 4A F(m, n)
    >= -D n^2; else the roots must be rational, or W_delta is infinite."""
    F, D = case.F, case.D
    if not F.is_integral():
        raise DomainError(f"{F} is not integral: its positivity region needs an interval")
    A = abs(int(F.A))
    if case.tag == "linear":
        return math.floor(delta)
    if case.tag == "definite":
        return math.isqrt(math.floor(4 * A * delta / -D))
    s = math.isqrt(D)
    if s == 0 or s * s != D:
        raise UnboundedDivergence(
            f"discriminant {D} of {F} is not a nonzero square: infinitely many "
            "solutions; restrict to an arc"
        )
    # 4|A| value = u v with 2 s n = |v - u| and 1 <= |u v| <= 4 |A| delta
    m4ad = 4 * A * delta
    return math.floor((m4ad + math.sqrt(m4ad)) / (2 * s)) + 1


def brute_force_W(F: RealForm, delta: float, I: ProjInterval) -> list[Frac]:
    """Naive double-loop oracle for enumerate_W.  Guarded to delta <= 10^6."""
    _check_delta(delta)
    if delta > BRUTE_GUARD:
        raise GuardExceeded(f"brute force refuses delta > {BRUTE_GUARD}")
    if delta <= 0:
        return []
    _check_interval(QuadCase.of(F), I)
    minF = _min_on_closure(F, I)
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
    _check_delta(delta)
    if delta <= 0:
        return EnumReport(0, 0.0, 0.0, 0.0, [(0, 0.0)] * buckets, 0.0, 0,
                          _NO_INTS, _NO_INTS, _NO_FLOATS, _NO_INTS)
    case = QuadCase.of(F)
    ms, ns, t, values, ties = _enumerate_with_ties(F, delta, I, case)
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
        values=values,
    )
