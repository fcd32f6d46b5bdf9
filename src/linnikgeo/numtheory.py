"""Arithmetic support: totient sieve, summatory lemmas, Bezout, Pell, SL2(Z).

The summatory functions return (exact partial sum, asymptotic main term) pairs
so callers can check convergence of the ratio themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BadResidue,
    DomainError,
    LimitTooLarge,
    NumericalInstability,
    SquareDiscriminant,
)
from .hyperbolic import PointH

SIEVE_LIMIT = 10**8
_SEG = 2**16  # table entries per block: a block's columns stay in cache

_phi_cache: dict[str, np.ndarray] = {}


@dataclass(frozen=True)
class PhiTable:
    limit: int
    # values[n] = phi(n) for 1 <= n <= limit; values[0] = 0.  A read-only view
    # of the cached int32 table: exact, as phi(n) <= n <= SIEVE_LIMIT < 2^31
    values: np.ndarray

    def __getitem__(self, n: int) -> int:
        return int(self.values[n])


def phi_sieve(T: int) -> PhiTable:
    """Totients of 1..T by a segmented sieve over the primes up to sqrt(T).

    The int32 table is built block by block, so the working memory is the
    table (4 bytes per entry) plus one block of _SEG entries.
    """
    if T < 1:
        raise LimitTooLarge(f"sieve limit must be in [1, {SIEVE_LIMIT}]")
    return PhiTable(T, _phi_upto(T))


def _sieved(name: str, T: int, dtype, fill) -> np.ndarray:
    """Table `name` of 0..T from the cache, or built in blocks of _SEG entries.

    fill(blk, lo, primes, rest) fills blk = table[lo : lo + len(blk)], given
    the primes up to sqrt(T) and rest[i] = lo + i with those primes divided
    out: 1, or the one prime factor of lo + i above sqrt(T).
    """
    cached = _phi_cache.get(name)
    if cached is not None and len(cached) > T:
        return cached[: T + 1]
    if T > SIEVE_LIMIT:
        raise LimitTooLarge(f"table limit {T} exceeds SIEVE_LIMIT = {SIEVE_LIMIT}")
    table = np.zeros(T + 1, dtype=dtype)
    r = math.isqrt(T)
    prime = np.ones(r + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(r) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    primes = np.flatnonzero(prime).tolist()
    for start in range(0, T + 1, _SEG):
        lo, hi = max(start, 1), min(start + _SEG, T + 1)  # rest would be 0 at n = 0
        rest = np.arange(lo, hi, dtype=np.int32)
        for p in primes:
            q = p
            while q < hi:
                rest[-lo % q :: q] //= p
                q *= p
        fill(table[lo:hi], lo, primes, rest)
    table.flags.writeable = False
    _phi_cache[name] = table
    return table


def _phi_upto(T: int) -> np.ndarray:
    def fill(phi, lo, primes, rest):
        phi[:] = np.arange(lo, lo + len(phi))
        for p in primes:
            phi[-lo % p :: p] -= phi[-lo % p :: p] // p
        phi //= rest  # phi is a multiple of the prime factor above sqrt(T)
        phi *= np.maximum(rest - 1, 1)

    return _sieved("phi", T, np.int32, fill)


def _mobius_upto(T: int) -> np.ndarray:
    def fill(mu, lo, primes, rest):
        mu[:] = 1
        for p in primes:
            mu[-lo % p :: p] *= -1
            mu[-lo % (p * p) :: p * p] = 0
        np.negative(mu, out=mu, where=rest > 1)

    return _sieved("mu", T, np.int8, fill)


def _block_sum(values: np.ndarray, lo: int, hi: int, term) -> float:
    """Sum of term(values[n], n) for lo <= n < hi, one block of _SEG at a time."""
    total = 0.0
    for a in range(lo, hi, _SEG):
        b = min(a + _SEG, hi)
        total += float(term(values[a:b], np.arange(a, b, dtype=np.float64)).sum())
    return total


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


def sum_phi(T: int, table: PhiTable | None = None) -> tuple[int, float]:
    """(sum of phi(n) for n <= T, main term 3 T^2 / pi^2)."""
    phi = table.values if table is not None and table.limit >= T else _phi_upto(T)
    exact = int(phi[1 : T + 1].sum())
    return exact, 3.0 * T * T / math.pi**2


def sum_phi_over_n(T: int, table: PhiTable | None = None) -> tuple[float, float]:
    """(sum of phi(n)/n for n <= T, main term 6 T / pi^2)."""
    phi = table.values if table is not None and table.limit >= T else _phi_upto(T)
    exact = _block_sum(phi, 1, T + 1, lambda v, n: v / n)
    return exact, 6.0 * T / math.pi**2


def sum_phi_over_n2(
    T: int, table: PhiTable | None = None, gamma0: float | None = None
) -> tuple[float, float]:
    """(sum of phi(n)/n^2 for n <= T, main term (6/pi^2) log T + gamma0).

    gamma0 defaults to the fitted empirical constant (see gamma0_fitted); it
    is never claimed exact.
    """
    phi = table.values if table is not None and table.limit >= T else _phi_upto(T)
    exact = _block_sum(phi, 1, T + 1, lambda v, n: v / (n * n))
    if gamma0 is None:
        gamma0 = gamma0_fitted()
    return exact, 6.0 / math.pi**2 * math.log(T) + gamma0


_gamma0_fit: dict[int, float] = {}


def gamma0_fitted(T: int = 10**6) -> float:
    """Empirical constant: exact sum of phi(n)/n^2 minus (6/pi^2) log T."""
    if T not in _gamma0_fit:
        exact, main = sum_phi_over_n2(T, gamma0=0.0)
        _gamma0_fit[T] = exact - main
    return _gamma0_fit[T]


def gamma0_series(terms: int = 10**6) -> float:
    """Defining series: sum over d of mu(d) (euler_gamma - log d) / d^2."""
    mu = _mobius_upto(terms)
    return _block_sum(mu, 1, terms + 1, lambda m, d: m * (np.euler_gamma - np.log(d)) / (d * d))


def weighted_sqrt_sum(
    A: float,
    D: float,
    s1: float,
    s2: float,
    delta: float,
    table: PhiTable | None = None,
) -> tuple[float, float]:
    """Sum of phi(n) sqrt(D + 4 A delta / n^2) over sqrt(s1 delta) < n <= sqrt(s2 delta).

    Returns (exact sum, closed-form main term).  D > 0 uses the log
    antiderivative, D < 0 the arctan one; the main term is
    (3 delta / pi^2) [bracket(u)]_{s1}^{s2}.
    """
    if not all(map(math.isfinite, (A, D, s1, s2, delta))):
        raise DomainError(f"arguments must be finite, got {(A, D, s1, s2, delta)}")
    if A == 0:
        raise DomainError("A must be nonzero")
    if s1 > s2:
        raise DomainError("need s1 <= s2")
    if D > 0 and s1 < max(0.0, -4 * A / D) - 1e-12:
        raise DomainError("log branch needs s1 >= max(0, -4A/D)")
    if D < 0 and not (A > 0 and -1e-12 <= s1 and s2 <= 4 * A / (-D) + 1e-12):
        raise DomainError("arctan branch needs A > 0 and 0 <= s1 <= s2 <= 4A/(-D)")
    n_lo = math.isqrt(max(0, math.floor(s1 * delta)))
    while (n_lo + 1) ** 2 <= s1 * delta:
        n_lo += 1
    n_hi = math.isqrt(max(0, math.floor(s2 * delta)))
    if n_hi <= n_lo:
        return 0.0, 0.0

    def rad(n):
        return D + 4 * A * delta / (n * n)

    # rad is monotone in n, so its least value over the range sits at an end
    if min(rad(n_lo + 1.0), rad(float(n_hi))) < -1e-9 * max(1.0, abs(D)):
        raise DomainError("radicand went negative inside the summation range")
    phi = table.values if table is not None and table.limit >= n_hi else _phi_upto(n_hi)
    exact = _block_sum(phi, n_lo + 1, n_hi + 1, lambda v, n: v * np.sqrt(np.maximum(rad(n), 0.0)))

    def bracket(u: float) -> float:
        head = math.sqrt(max(D * u * u + 4 * A * u, 0.0))
        if D > 0:
            if u == 0:
                return head + 4 * A / math.sqrt(D) * math.log(math.sqrt(4 * A))
            return head + 4 * A / math.sqrt(D) * math.log(
                math.sqrt(D * u) + math.sqrt(max(D * u + 4 * A, 0.0))
            )
        sd = math.sqrt(-D)
        if u == 0:
            return head - 4 * A / sd * (math.pi / 2)
        arg = math.sqrt(max(D * u + 4 * A, 0.0)) / math.sqrt(-D * u)
        return head - 4 * A / sd * math.atan(arg)

    main = 3.0 * delta / math.pi**2 * (bracket(s2) - bracket(s1))
    return exact, main


def ext_gcd(Q: int, R: int) -> tuple[int, int, int]:
    """(S, b0, c0) with b0*Q + c0*R = S = gcd(Q, R), |b0| minimal, ties b0 >= 0."""
    if Q == 0 and R == 0:
        raise ValueError("gcd(0, 0) undefined")
    if R == 0:
        return abs(Q), 1 if Q > 0 else -1, 0
    if Q == 0:
        return abs(R), 0, 1 if R > 0 else -1
    # plain extended Euclid, then canonicalize b0 modulo R/S
    old_r, r = Q, R
    old_s, s = 1, 0
    while r != 0:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
    S, b = old_r, old_s
    if S < 0:
        S, b = -S, -b
    step = abs(R // S)
    b %= step
    b0 = b if 2 * b <= step else b - step
    c0 = (S - b0 * Q) // R
    assert b0 * Q + c0 * R == S
    return S, b0, c0


@dataclass(frozen=True)
class PellSolution:
    """Smallest positive (t0, u0) with t0^2 - D u0^2 = 4."""

    D: int
    t0: int
    u0: int

    @property
    def eps(self) -> float:
        return (self.t0 + self.u0 * math.sqrt(self.D)) / 2

    @property
    def log_eps(self) -> float:
        if self.t0.bit_length() < 512:
            return math.log(self.eps)
        # eps = t0 - 1/eps, so log(t0) equals log(eps) to double precision
        # (and t0 no longer fits a float)
        return math.log(self.t0)


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


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


def pell_fundamental(D: int) -> PellSolution:
    """Smallest positive integer solution of t^2 - D u^2 = 4.

    Expands w = (s + sqrt(D)) / 2, s = D mod 2, as a continued fraction.  The
    first convergent p/q with t = 2p - s q, u = q and t^2 - D u^2 = +-4
    gives the fundamental unit (t + u sqrt(D)) / 2 of discriminant D; a unit
    of norm -1 is squared (Cohen, GTM 138, section 5.7).
    """
    if D <= 0 or _is_square(D):
        raise SquareDiscriminant(f"D = {D} must be a positive non-square")
    if D % 4 not in (0, 1):
        raise BadResidue(f"D = {D} must be 0 or 1 mod 4")
    s, r = D % 2, math.isqrt(D)
    P, Q = s, 2  # complete quotient (P + sqrt(D)) / Q
    p_prev, p = 0, 1
    q_prev, q = 1, 0
    while True:
        a = (P + r) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        t = 2 * p - s * q
        norm = t * t - D * q * q
        if norm == 4:
            return PellSolution(D, t, q)
        if norm == -4:
            return PellSolution(D, (t * t + D * q * q) // 2, t * q)
        P = a * Q - P
        Q = (D - P * P) // Q


_S = ((0, -1), (1, 0))


def _matmul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def sl2z_reduce(z: PointH | complex) -> tuple[PointH, tuple[tuple[int, int], tuple[int, int]]]:
    """Move z into the standard fundamental domain |Re| <= 1/2, |z| >= 1.

    Returns (z', gamma) with z' = gamma(z) and det(gamma) = 1.
    """
    w = z.as_complex() if isinstance(z, PointH) else complex(z)
    if not w.imag > 0:
        raise ValueError("point must be in the upper half-plane")
    gamma = ((1, 0), (0, 1))
    for _ in range(10**4):
        n = round(w.real)
        if n != 0:
            w -= n
            gamma = _matmul(((1, -n), (0, 1)), gamma)
        if abs(w) < 1 - 1e-15:
            w = -1 / w
            gamma = _matmul(_S, gamma)
        else:
            return PointH(w.real, w.imag), gamma
    raise NumericalInstability("fundamental-domain reduction did not terminate")


def is_fundamental_discriminant(D: int) -> bool:
    """Is D < 0 a fundamental discriminant?"""
    if D >= 0:
        return False
    if D % 4 == 1 or D % 4 == -3:
        return _is_squarefree(-D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (-2, -1, 2, 3) and _is_squarefree(-m)
    return False


def _is_squarefree(n: int) -> bool:
    for p in _prime_factors(n):
        if n % (p * p) == 0:
            return False
    return True
