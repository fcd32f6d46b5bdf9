"""Independent computations the benchmark checks linnikgeo against.

Nothing here imports linnikgeo.  Every count is exact integer arithmetic on
its own terms: per-n integer ranges with a Mobius coprime count, lattice
loops over the forms an incidence relation allows, and continued fractions
for Pell.  Quadratures and j values come from mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

INF = math.inf


# ---------------------------------------------------------------------------
# small arithmetic


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def totient(n: int) -> int:
    r = n
    for p in prime_factors(n):
        r -= r // p
    return r


def squarefree(n: int) -> bool:
    return all(n % (p * p) for p in prime_factors(n))


def fundamental_negative(D: int) -> bool:
    """Is D < 0 a fundamental discriminant?"""
    if D >= 0:
        return False
    if D % 4 == 1:
        return squarefree(-D)
    if D % 4 == 0:
        return (D // 4) % 4 in (2, 3) and squarefree(-D // 4)
    return False


@lru_cache(maxsize=4096)
def _mobius_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(d)) for the squarefree divisors d of n."""
    divs = [(1, 1)]
    for p in prime_factors(n):
        divs += [(d * p, -s) for d, s in divs]
    return tuple(divs)


def coprime_in_range(lo: int, hi: int, n: int) -> int:
    """#{lo <= m <= hi : gcd(m, n) = 1}, by Mobius over the divisors of n."""
    if hi < lo:
        return 0
    return sum(s * (hi // d - (lo - 1) // d) for d, s in _mobius_divisors(n))


def totients(T: int) -> np.ndarray:
    """phi(0..T) (phi(0) = 0): Eratosthenes for the primes, then one pass each."""
    is_p = np.ones(T + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(T) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    phi = np.arange(T + 1, dtype=np.int64)
    for p in np.flatnonzero(is_p).tolist():
        phi[p::p] -= phi[p::p] // p
    return phi


def phi_sum(N: int, _memo: dict | None = None) -> int:
    """Sum of phi(n) for n <= N, by Phi(N) = N(N+1)/2 - sum_{d>=2} Phi(N//d)."""
    memo = {} if _memo is None else _memo
    if N in memo:
        return memo[N]
    total = N * (N + 1) // 2
    d = 2
    while d <= N:
        q = N // d
        d_next = N // q + 1
        total -= (d_next - d) * phi_sum(q, memo)
        d = d_next
    memo[N] = total
    return total


def ceil_div(x: int, y: int) -> int:
    return -((-x) // y)


# ---------------------------------------------------------------------------
# W-sets: integer form G = (a, b, c), integer bound Delta, interval I with
# exact (Fraction or +-inf) endpoints.  A real form with dyadic coefficients
# is scaled to an integer one first (see scaled_form).


def scaled_form(A: float, B: float, C: float, delta: float):
    """(a, b, c, Delta) with a = k A etc. integers and Delta = floor(k delta)."""
    fr = [Fraction(x) for x in (A, B, C)]
    k = math.lcm(*(f.denominator for f in fr))
    a, b, c = (int(f * k) for f in fr)
    return a, b, c, math.floor(Fraction(delta) * k)


def _exact(e):
    return e if math.isinf(e) else Fraction(e)


def _value(a: int, b: int, c: int, t: Fraction) -> Fraction:
    return (a * t + b) * t + c


def n_bound(a: int, b: int, c: int, Delta: int, lo, hi, wraps: bool) -> int:
    """Largest n that can carry a solution: n^2 * min_{closure I} G <= Delta."""
    lo, hi = _exact(lo), _exact(hi)
    cands = [_value(a, b, c, e) for e in (lo, hi) if not math.isinf(e)]
    if a != 0:
        v = Fraction(-b, 2 * a)
        inside = (v >= lo or v <= hi) if wraps else (lo <= v <= hi)
        if inside:
            cands.append(_value(a, b, c, v))
    m = min(cands)
    if m <= 0:
        raise ValueError("form is not positive on the closure of the interval")
    return math.isqrt(math.floor(Fraction(Delta) / m))


def _value_m_ranges(a: int, b: int, c: int, Delta: int, n: int) -> list[tuple[int, int]]:
    """Integer ranges of m with 0 < a m^2 + b m n + c n^2 <= Delta."""
    if a == 0:
        K = Delta // n  # the value is n (b m + c n), so 0 < b m + c n <= K
        if b > 0:
            return [((-c * n) // b + 1, (K - c * n) // b)]
        bb = -b
        return [(ceil_div(c * n - K, bb), ceil_div(c * n, bb) - 1)]
    # w = 2 a m + b n gives 4 a value = w^2 - n^2 D
    L = n * n * (b * b - 4 * a * c)
    if a > 0:
        U = L + 4 * a * Delta
        if U < 0:
            return []
        w_hi = math.isqrt(U)
        w_lo = math.isqrt(L) + 1 if L >= 0 else 0
    else:
        if L <= 0:
            return []
        w_hi = math.isqrt(L - 1)
        low = L + 4 * a * Delta
        w_lo = math.isqrt(low - 1) + 1 if low > 0 else 0
    if w_lo > w_hi:
        return []
    wr = [(-w_hi, w_hi)] if w_lo == 0 else [(w_lo, w_hi), (-w_hi, -w_lo)]
    out = []
    for w1, w2 in wr:
        if a > 0:
            out.append((ceil_div(w1 - b * n, 2 * a), (w2 - b * n) // (2 * a)))
        else:
            out.append((ceil_div(w2 - b * n, 2 * a), (w1 - b * n) // (2 * a)))
    return out


def _interval_m_ranges(lo, hi, wraps: bool, n: int, big: int) -> list[tuple[int, int]]:
    def up(e):
        return -big if e == -INF else math.ceil(e * n)

    def down(e):
        return big if e == INF else math.floor(e * n)

    if wraps:
        return [(up(lo), big), (-big, down(hi))]
    return [(up(lo), down(hi))]


def w_count(a: int, b: int, c: int, Delta: int, lo, hi, wraps: bool) -> int:
    """Exact #W: per-n integer ranges intersected, coprime m counted by Mobius."""
    lo, hi = _exact(lo), _exact(hi)
    N = n_bound(a, b, c, Delta, lo, hi, wraps)
    big = 1 << 62
    total = 0
    for n in range(1, N + 1):
        for v1, v2 in _value_m_ranges(a, b, c, Delta, n):
            for i1, i2 in _interval_m_ranges(lo, hi, wraps, n, big):
                total += coprime_in_range(max(v1, i1), min(v2, i2), n)
    return total


def w_brute(a: int, b: int, c: int, Delta: int, lo, hi, wraps: bool) -> list[tuple[int, int]]:
    """All (m, n) of W by a plain double loop over a box, sorted along I.

    For a finite interval the box is n * I; otherwise |m| <= M(n), beyond
    which a m^2 - |b| n |m| - |c| n^2 exceeds Delta.  Membership in I is
    exact (m q >= p n for an endpoint p/q)."""
    lo, hi = _exact(lo), _exact(hi)
    N = n_bound(a, b, c, Delta, lo, hi, wraps)
    ns = np.arange(1, N + 1, dtype=np.int64)
    if not wraps and not math.isinf(lo) and not math.isinf(hi):
        m1 = -((-ns * lo.numerator) // lo.denominator)
        m2 = (ns * hi.numerator) // hi.denominator
    else:
        if a == 0:
            M = abs(c) * ns + Delta + 2
        else:
            A = abs(a)
            M = ((abs(b) * ns + np.sqrt(b * b * ns * ns + 4.0 * A * (abs(c) * ns * ns + Delta)))
                 / (2 * A)).astype(np.int64) + 2
        m1, m2 = -M, M
    size = np.maximum(m2 - m1 + 1, 0)
    n = np.repeat(ns, size)
    start = np.repeat(np.cumsum(size) - size, size)
    m = np.repeat(m1, size) + np.arange(int(size.sum()), dtype=np.int64) - start
    vals = a * m * m + b * m * n + c * n * n
    ok = (vals > 0) & (vals <= Delta) & (np.gcd(m, n) == 1)

    def ge(e):
        return np.full(len(m), e < 0) if math.isinf(e) else m * e.denominator >= e.numerator * n

    def le(e):
        return np.full(len(m), e > 0) if math.isinf(e) else m * e.denominator <= e.numerator * n

    upper = ge(lo)
    ok &= (upper | le(hi)) if wraps else (upper & le(hi))
    m, n, seg = m[ok], n[ok], np.where(upper[ok] | (not wraps), 0, 1)
    # distinct reduced fractions with n <= N differ by >= 1/N^2, far above
    # the rounding of m / n, so the float key orders them exactly
    order = np.lexsort((m / n, seg))
    return list(zip(m[order].tolist(), n[order].tolist()))


def w_row_faults(m: np.ndarray, n: np.ndarray, a: int, b: int, c: int, Delta: int,
                 lo, hi, wraps: bool, exempt: np.ndarray | None = None) -> list[str]:
    """Faults of a W listing: not reduced, outside I, value outside (0, Delta],
    out of order along I, or repeated.  Rows flagged in `exempt` skip the
    value test only."""
    faults = []
    m = np.asarray(m, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    if len(m) == 0:
        return faults
    if (n < 1).any():
        faults.append("row with n < 1")
    if (np.gcd(m, n) != 1).any():
        faults.append(f"{int((np.gcd(m, n) != 1).sum())} rows not reduced")
    vals = a * m * m + b * m * n + c * n * n
    bad = ~((vals > 0) & (vals <= Delta))
    if exempt is not None:
        bad &= ~exempt
    if bad.any():
        faults.append(f"{int(bad.sum())} rows with value outside (0, delta]")
    lo, hi = _exact(lo), _exact(hi)

    def ge(e):  # m/n >= e, exactly
        if math.isinf(e):
            return np.full(len(m), e < 0)
        return m * e.denominator >= e.numerator * n

    def le(e):
        if math.isinf(e):
            return np.full(len(m), e > 0)
        return m * e.denominator <= e.numerator * n

    upper = ge(lo)
    inside = (upper | le(hi)) if wraps else (upper & le(hi))
    if not inside.all():
        faults.append(f"{int((~inside).sum())} rows outside the interval")
        return faults
    # strictly increasing along I: the lo->inf piece, then the -inf->hi piece
    seg = np.where(upper, 0, 1) if wraps else np.zeros(len(m), dtype=np.int64)
    ds = np.diff(seg)
    cross = m[1:] * n[:-1] - m[:-1] * n[1:]  # sign of t[i+1] - t[i]
    if (ds < 0).any() or ((ds == 0) & (cross <= 0)).any():
        faults.append("rows not strictly ordered along the interval (or repeated)")
    return faults


def mu_quad(A: float, B: float, C: float, lo: float, hi: float, wraps: bool) -> float:
    """Integral of dt / (A t^2 + B t + C) over I by mpmath quadrature."""
    import mpmath

    f = lambda t: 1 / ((A * t + B) * t + C)
    pieces = [(lo, mpmath.inf), (-mpmath.inf, hi)] if wraps else [(lo, hi)]
    total = 0.0
    for p, q in pieces:
        p = -mpmath.inf if p == -INF else p
        q = mpmath.inf if q == INF else q
        total += float(mpmath.quad(f, [p, q]))
    return total


# ---------------------------------------------------------------------------
# Pell and closed geodesics


def pell4(D: int) -> tuple[int, int]:
    """Smallest t, u > 0 with t^2 - D u^2 = 4, from the continued fraction of
    ((D mod 2) + sqrt(D)) / 2; a norm -4 unit is squared."""
    if D <= 0 or D % 4 not in (0, 1) or math.isqrt(D) ** 2 == D:
        raise ValueError(f"no Pell unit for D = {D}")
    s = D % 2
    r = math.isqrt(D)
    P, Q = s, 2
    A_prev, A_cur = 0, 1
    B_prev, B_cur = 1, 0
    while True:
        q = (P + r) // Q
        A_prev, A_cur = A_cur, q * A_cur + A_prev
        B_prev, B_cur = B_cur, q * B_cur + B_prev
        P = q * Q - P
        Q = (D - P * P) // Q
        t, u = 2 * A_cur - s * B_cur, B_cur
        norm = t * t - D * u * u
        if u > 0 and t > 0 and norm in (4, -4):
            if norm == -4:
                t, u = (t * t + D * u * u) // 2, t * u
            return t, u


def log_eps(D: int, t: int, u: int) -> float:
    import mpmath

    with mpmath.workdps(max(30, t.bit_length() // 3 + 30)):
        return float(mpmath.log((t + u * mpmath.sqrt(D)) / 2))


def stabilizer_faults(form: tuple[int, int, int], gamma, t: int, u: int) -> list[str]:
    """gamma must have determinant 1, trace t and fix the roots of form:
    (r, s - p, -q) is a nonzero multiple of (a, b, c)."""
    (p, q), (r, s) = gamma
    a, b, c = form
    faults = []
    if p * s - q * r != 1:
        faults.append(f"{gamma} has determinant {p * s - q * r}")
    if p + s != t:
        faults.append(f"{gamma} has trace {p + s}, Pell gives {t}")
    if (r, s - p, -q) != (u * a, u * b, u * c):
        faults.append(f"{gamma} does not fix the roots of {form}")
    return faults


def principal_form(D: int) -> tuple[int, int, int]:
    return (1, 0, -D // 4) if D % 4 == 0 else (1, 1, (1 - D) // 4)


def closed_count_main(D: int, L: float, delta: float) -> float:
    """3 gcd(D,2) L delta / (2 pi^2 sqrt D): the CM count on a closed geodesic."""
    return 3 * math.gcd(D, 2) * L * delta / (2 * math.pi**2 * math.sqrt(D))


# ---------------------------------------------------------------------------
# j and cycle integrals


def reduce_fd(z):
    """Move z into |Re z| <= 1/2, |z| >= 1 (mpmath complex)."""
    import mpmath

    z = mpmath.mpc(z)
    for _ in range(1000):
        z -= mpmath.nint(z.real)
        if abs(z) < 1:
            z = -1 / z
        else:
            return z
    raise ArithmeticError("reduction did not terminate")


def j_mp(z) -> complex:
    import mpmath

    return complex(1728 * mpmath.kleinj(reduce_fd(z)))


def fundamental_arc_u(form: tuple[int, int, int], t: int, u: int):
    """(q, r, u0, u1): semicircle centre and radius of form, and the
    log tan(theta/2) coordinates of its top and of gamma(top)."""
    a, b, c = form
    D = b * b - 4 * a * c
    q, r = -b / (2 * a), math.sqrt(D) / (2 * a)
    g = ((t - b * u) // 2, -c * u, a * u, (t + b * u) // 2)
    z0 = complex(q, r)
    z1 = (g[0] * z0 + g[1]) / (g[2] * z0 + g[3])
    th1 = math.atan2(z1.imag, z1.real - q)
    return q, r, 0.0, math.log(math.tan(th1 / 2))


def cycle_integral_j(form: tuple[int, int, int], t: int, u: int) -> complex:
    """Integral of j along one period of the closed geodesic of form (ds = du)."""
    import mpmath

    q, r, u0, u1 = fundamental_arc_u(form, t, u)

    def z_of(v):
        th = 2 * mpmath.atan(mpmath.exp(v))
        return mpmath.mpc(q + r * mpmath.cos(th), r * mpmath.sin(th))

    lo, hi = min(u0, u1), max(u0, u1)
    with mpmath.workdps(20):
        re = mpmath.quad(lambda v: (1728 * mpmath.kleinj(reduce_fd(z_of(v)))).real, [lo, hi])
        im = mpmath.quad(lambda v: (1728 * mpmath.kleinj(reduce_fd(z_of(v)))).imag, [lo, hi])
    return complex(float(re), float(im))


# ---------------------------------------------------------------------------
# incidence lattices: the forms each relation 2aC0 + 2cA0 = bB0 allows


def cm_on_unit_circle(delta: int, arc: tuple[float, float]) -> set[tuple[int, int, int]]:
    """CM forms on the geodesic of x^2 - y^2 (the unit circle) with |D| <= delta
    and angle in the open arc: (a, b, a) with |b| < 2a, gcd(a, b) = 1.

    With k = 2a - b >= 1 the discriminant is -k (4a - k)."""
    c_hi, c_lo = math.cos(arc[0]), math.cos(arc[1])
    out = set()
    for k in range(1, delta + 1):  # |D| >= k, so k <= delta
        a_min = (k + 4) // 4  # b > -2a
        a_max = (delta // k + k) // 4
        if a_max < a_min:
            continue
        a = np.arange(a_min, a_max + 1, dtype=np.int64)
        b = 2 * a - k
        keep = (np.gcd(a, k) == 1) & (k * (4 * a - k) <= delta) & (np.abs(b) < 2 * a)
        x = -b / (2.0 * a)  # cos(theta) on the unit circle
        keep &= (x > c_lo) & (x < c_hi)
        out.update((int(p), int(s), int(p)) for p, s in zip(a[keep], b[keep]))
    return out


def rm_perp_unit_circle(delta: int, arc: tuple[float, float]) -> set[tuple[int, int, int]]:
    """RM forms meeting the unit circle perpendicularly inside the arc:
    (a, b, a) with |b| > 2a, gcd(a, b) = 1, D = b^2 - 4a^2 <= delta, and the
    foot at cos(theta) = -2a / b.  With k = |b| - 2a, D = k (4a + k)."""
    c_hi, c_lo = math.cos(arc[0]), math.cos(arc[1])
    out = set()
    for k in range(1, delta + 1):
        a_max = (delta // k - k) // 4
        if a_max < 1:
            break
        a = np.arange(1, a_max + 1, dtype=np.int64)
        for sign in (1, -1):
            b = sign * (2 * a + k)
            keep = (np.gcd(a, k) == 1) & (k * (4 * a + k) <= delta)
            x = -2.0 * a / b
            keep &= (x > c_lo) & (x < c_hi)
            out.update((int(p), int(s), int(p)) for p, s in zip(a[keep], b[keep]))
    return out


def cm_on_imaginary_axis(delta: int) -> set[tuple[int, int, int]]:
    """CM forms on the half-line x = 0: (a, 0, c) with a, c >= 1, gcd 1, 4ac <= delta."""
    out = set()
    for a in range(1, delta // 4 + 1):
        c = np.arange(1, delta // (4 * a) + 1, dtype=np.int64)
        c = c[np.gcd(c, a) == 1]
        out.update((a, 0, int(x)) for x in c)
    return out


def rm_through_count(point: str, delta: int) -> int:
    """Number of primitive RM forms with a >= 1 and 0 < D <= delta whose curve
    passes through the CM point: i -> (a, b, -a); rho -> (a, 2(a+c), c);
    i sqrt2 -> (a, b, -2a)."""
    total = 0
    a = 1
    while True:
        if point == "i":
            R = delta - 4 * a * a  # D = b^2 + 4a^2
            if R < 0:
                break
            B = math.isqrt(R)
            total += coprime_in_range(-B, B, a)
        elif point == "i*sqrt2":
            R = delta - 8 * a * a  # D = b^2 + 8a^2
            if R < 0:
                break
            B = math.isqrt(R)
            total += coprime_in_range(-B, B, a)
        else:
            # D = 4(a^2 + ac + c^2) = (2c + a)^2 + 3a^2
            R = delta - 3 * a * a
            if R < 0:
                break
            W = math.isqrt(R)
            total += coprime_in_range(ceil_div(-W - a, 2), (W - a) // 2, a)
        a += 1
    return total


def ball_disk(x0: float, y0: float, s0: float) -> tuple[float, float, float]:
    """Euclidean centre (x, y) and radius of the hyperbolic ball."""
    return x0, y0 * math.cosh(s0), y0 * math.sinh(s0)


def cm_in_disk_single(D: int, disk: tuple[float, float, float]) -> set[tuple[int, int, int]]:
    """Primitive (a, b, c) of discriminant D < 0 whose root lies in the disk:
    a loop over a up to sqrt|D| / (2 y_min), b over the disk's x-range."""
    xc, yc, rc = disk
    y_min = yc - rc
    out = set()
    a = 1
    while math.sqrt(-D) / (2 * a) >= y_min * (1 - 1e-12):
        b = np.arange(math.floor(-2 * a * (xc + rc)) - 1, math.ceil(-2 * a * (xc - rc)) + 2,
                      dtype=np.int64)
        b = b[(b * b - D) % (4 * a) == 0]
        c = (b * b - D) // (4 * a)
        keep = np.gcd(np.gcd(a, b), c) == 1
        x, y = -b / (2 * a), math.sqrt(-D) / (2 * a)
        keep &= (x - xc) ** 2 + (y - yc) ** 2 <= rc * rc
        out.update((a, int(p), int(q)) for p, q in zip(b[keep], c[keep]))
        a += 1
    return out


def cm_in_disk_count(delta: int, disk: tuple[float, float, float]) -> int:
    """Number of primitive (a, b, c), 0 < -D <= delta, whose root lies in the
    disk.  For fixed (a, b) the root is at x = -b/2a, and y in the disk's
    vertical chord [y1, y2] means 4a^2 y1^2 <= 4ac - b^2 <= 4a^2 y2^2: an
    integer range of c, counted coprime to gcd(a, b)."""
    xc, yc, rc = disk
    y_min = yc - rc
    total = 0
    a = 1
    while math.sqrt(delta) / (2 * a) >= y_min * (1 - 1e-12):
        for b in range(math.floor(-2 * a * (xc + rc)), math.ceil(-2 * a * (xc - rc)) + 1):
            dx = -b / (2 * a) - xc
            if dx * dx > rc * rc:
                continue
            h = math.sqrt(rc * rc - dx * dx)
            d_lo = max(1, math.ceil(4 * a * a * (yc - h) ** 2))
            d_hi = min(delta, math.floor(4 * a * a * (yc + h) ** 2))
            c_lo = ceil_div(b * b + d_lo, 4 * a)
            c_hi = (b * b + d_hi) // (4 * a)
            total += coprime_in_range(c_lo, c_hi, math.gcd(a, b))
        a += 1
    return total


def ball_main(s0: float, delta: float) -> float:
    """area * delta^(3/2) / (6 zeta(3)), area = 2 pi (cosh s0 - 1)."""
    zeta3 = 1.2020569031595942
    return 2 * math.pi * (math.cosh(s0) - 1) * delta**1.5 / (6 * zeta3)


def bucket_spread(u: np.ndarray, lo: float, hi: float, k: int = 8) -> float:
    """max/min - 1 of k equal-width bucket counts of u on [lo, hi]."""
    counts = np.histogram(u, bins=k, range=(lo, hi))[0]
    if counts.min() == 0:
        return math.inf
    return float(counts.max() / counts.min() - 1)


def mean_spread(u: np.ndarray, lo: float, hi: float, k: int = 8) -> float:
    """max |count / mean - 1| of k equal-width bucket counts on [lo, hi]."""
    counts = np.histogram(u, bins=k, range=(lo, hi))[0]
    mean = counts.mean()
    return float(np.abs(counts / mean - 1).max()) if mean else math.inf
