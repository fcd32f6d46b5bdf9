"""Arithmetic support: totient sieve, summatory lemmas, Bezout, Pell, SL2(Z).

The summatory functions return (exact partial sum, asymptotic main term) pairs
so callers can check convergence of the ratio themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadResidue,
    DomainError,
    GuardExceeded,
    LimitTooLarge,
    NumericalInstability,
    SquareDiscriminant,
)
from .hyperbolic import PointH

SIEVE_LIMIT = 10**8
_PELL_STEPS = 20_000  # the longest expansion for D <= 10^6 takes 2,349 (D = 979,969)
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
    return PhiTable(T, _phi_for(T, None))


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


def _block_sum(values: np.ndarray, lo: int, hi: int, term) -> float:
    """Sum of term(values[n], n) for lo <= n < hi, one block of _SEG at a time."""
    total = 0.0
    for a in range(lo, hi, _SEG):
        b = min(a + _SEG, hi)
        total += float(term(values[a:b], np.arange(a, b, dtype=np.float64)).sum())
    return total


def _phi_for(T: int, table: PhiTable | None) -> np.ndarray:
    """phi of 0..T or more, T >= 1: the table's values if it reaches T, else the cache's."""
    if T < 1:
        raise LimitTooLarge(f"totient limit must be in [1, {SIEVE_LIMIT}], got {T}")
    return table.values if table is not None and table.limit >= T else _phi_upto(T)


def sum_phi(T: int, table: PhiTable | None = None) -> tuple[int, float]:
    """(sum of phi(n) for n <= T, main term 3 T^2 / pi^2)."""
    exact = int(_phi_for(T, table)[1 : T + 1].sum())
    return exact, 3.0 * T * T / math.pi**2


def sum_phi_over_n(T: int, table: PhiTable | None = None) -> tuple[float, float]:
    """(sum of phi(n)/n for n <= T, main term 6 T / pi^2)."""
    exact = _block_sum(_phi_for(T, table), 1, T + 1, lambda v, n: v / n)
    return exact, 6.0 * T / math.pi**2


# sum_{n <= T} phi(n)/n^2 = (6/pi^2)(log T + euler_gamma - zeta'(2)/zeta(2)) + O(log T / T),
# and zeta'(2)/zeta(2) = euler_gamma + log(2 pi) - 12 log A, A the Glaisher-Kinkelin
# constant.  The same value is sum_d mu(d) (euler_gamma - log d) / d^2, since
# sum mu(d)/d^2 = 1/zeta(2) and sum mu(d) log d / d^2 = zeta'(2)/zeta(2)^2.
_GAMMA0 = 6 / math.pi**2 * (12 * math.log(1.2824271291006226) - math.log(2 * math.pi))


def sum_phi_over_n2(T: int, table: PhiTable | None = None) -> tuple[float, float]:
    """(sum of phi(n)/n^2 for n <= T, main term (6/pi^2) log T + gamma0),
    gamma0 = (6/pi^2)(12 log A - log 2 pi) = 0.697399781010136..."""
    exact = _block_sum(_phi_for(T, table), 1, T + 1, lambda v, n: v / (n * n))
    return exact, 6.0 / math.pi**2 * math.log(T) + _GAMMA0


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
    if D > 0 and s1 < max(0.0, -4 * A / D):
        raise DomainError("log branch needs s1 >= max(0, -4A/D)")
    if D < 0 and not (A > 0 and 0 <= s1 and s2 <= 4 * A / (-D) + 1e-12):
        raise DomainError("arctan branch needs A > 0 and 0 <= s1 <= s2 <= 4A/(-D)")
    # (n_lo + 1)^2 is an integer above floor(s1 delta), so above s1 delta
    n_lo = math.isqrt(max(0, math.floor(s1 * delta)))
    n_hi = math.isqrt(max(0, math.floor(s2 * delta)))
    if n_hi <= n_lo:
        return 0.0, 0.0

    def rad(n):
        return D + 4 * A * delta / (n * n)

    # rad is monotone in n, so its least value over the range sits at an end
    if min(rad(n_lo + 1.0), rad(float(n_hi))) < -1e-9 * max(1.0, abs(D)):
        raise DomainError("radicand went negative inside the summation range")
    phi = _phi_for(n_hi, table)
    exact = _block_sum(phi, n_lo + 1, n_hi + 1, lambda v, n: v * np.sqrt(np.maximum(rad(n), 0.0)))

    def bracket(u: float) -> float:
        head = math.sqrt(max(D * u * u + 4 * A * u, 0.0))
        if D > 0:
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
    # plain extended Euclid, then canonicalize b0 modulo R/S; Q = 0 gives
    # (|R|, 0, sign R)
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


def pell_fundamental(D: int) -> PellSolution:
    """Smallest positive integer solution of t^2 - D u^2 = 4.

    Expands w = (s + sqrt(D)) / 2, s = D mod 2, as a continued fraction.  The
    first convergent p/q with t = 2p - s q, u = q and t^2 - D u^2 = +-4
    gives the fundamental unit (t + u sqrt(D)) / 2 of discriminant D; a unit
    of norm -1 is squared (Cohen, GTM 138, section 5.7).  The norm is +-2 Q
    of the next complete quotient (P + sqrt(D)) / Q.  Refused past _PELL_STEPS.
    """
    if D <= 0 or math.isqrt(D) ** 2 == D:
        raise SquareDiscriminant(f"D = {D} must be a positive non-square")
    if D % 4 not in (0, 1):
        raise BadResidue(f"D = {D} must be 0 or 1 mod 4")
    s, r = D % 2, math.isqrt(D)
    P, Q = s, 2  # complete quotient (P + sqrt(D)) / Q
    p_prev, p = 0, 1
    q_prev, q = 1, 0
    for _ in range(_PELL_STEPS):
        a = (P + r) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        P = a * Q - P
        Q = (D - P * P) // Q
        if Q == 2:
            t = 2 * p - s * q
            if t * t - D * q * q == 4:
                return PellSolution(D, t, q)
            return PellSolution(D, (t * t + D * q * q) // 2, t * q)
    raise GuardExceeded(f"the continued fraction of D = {D} runs past {_PELL_STEPS} steps")


def sl2z_reduce(z: PointH | complex) -> tuple[PointH, tuple[tuple[int, int], tuple[int, int]]]:
    """Move z into the standard fundamental domain |Re| <= 1/2, |z| >= 1.

    Returns (z', gamma) with z' = gamma(z) and det(gamma) = 1.
    """
    w, gamma = _reduce(z)
    return PointH(w.real, w.imag), gamma


def _reduce(z: PointH | complex) -> tuple[complex, tuple[tuple[int, int], tuple[int, int]]]:
    """sl2z_reduce's (z', gamma) with z' a complex: the one reduction loop.
    gamma = ((a, b), (c, d)) is kept as four ints; a translation by -n maps
    it to ((a - n c, b - n d), (c, d)) and z -> -1/z to ((-c, -d), (a, b))."""
    w = z.as_complex() if isinstance(z, PointH) else complex(z)
    if not w.imag > 0:
        raise ValueError("point must be in the upper half-plane")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10**4):
        try:
            n = round(w.real)
        except (ValueError, OverflowError):  # nan, +-inf
            raise DomainError(f"point must be finite, got {z}") from None
        if n != 0:
            w -= n
            a, b = a - n * c, b - n * d
        if abs(w) < 1 - 1e-15:
            w = -1 / w
            a, b, c, d = -c, -d, a, b
        else:
            return w, ((a, b), (c, d))
    raise NumericalInstability("fundamental-domain reduction did not terminate")
