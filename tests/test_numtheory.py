import functools
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linnikgeo import numtheory
from linnikgeo.errors import (
    BadResidue,
    DomainError,
    GuardExceeded,
    LimitTooLarge,
    SquareDiscriminant,
)
from linnikgeo.numtheory import (
    PellSolution,
    ext_gcd,
    pell_fundamental,
    phi_sieve,
    sl2z_reduce,
    sum_phi,
    sum_phi_over_n,
    sum_phi_over_n2,
    weighted_sqrt_sum,
)
from reference import _pell_one, count_coprime_upto, is_fundamental_discriminant


def test_phi_sieve():
    t = phi_sieve(100)
    assert [t[n] for n in (1, 2, 6, 7, 12, 100)] == [1, 1, 2, 6, 4, 40]
    # cross-check against the gcd definition
    for n in range(1, 60):
        assert t[n] == sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)
    with pytest.raises(LimitTooLarge):
        phi_sieve(10**9)


def _totient(n: int) -> int:
    out, d = n, 2
    while d * d <= n:
        if n % d == 0:
            out -= out // d
            while n % d == 0:
                n //= d
        d += 1
    return out - out // n if n > 1 else out


def test_phi_sieve_matches_trial_division(monkeypatch):
    monkeypatch.setattr(numtheory, "_phi_cache", {})
    for T in (1, 2, 97, 1000, 10007):
        assert phi_sieve(T).values.tolist() == [0] + [_totient(n) for n in range(1, T + 1)]
    # a smaller table is a prefix of the cached one
    assert phi_sieve(1000).values.tolist() == [0] + [_totient(n) for n in range(1, 1001)]


SEG = numtheory._SEG
REF_N = 3 * SEG + 1


@functools.cache
def _trial_division_tables(N: int = REF_N) -> tuple[np.ndarray, np.ndarray]:
    """phi and mu of 0..N by testing every n for divisibility by each p <= sqrt(N)."""
    n = np.arange(N + 1, dtype=np.int64)
    phi, rest, mu = n.copy(), n.copy(), np.ones(N + 1, dtype=np.int64)
    for p in range(2, math.isqrt(N) + 1):
        if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            continue
        hit = np.flatnonzero(n % p == 0)[1:]  # n = 0 is left out
        phi[hit] -= phi[hit] // p
        mu[hit] *= -1
        while hit.size:
            rest[hit] //= p
            hit = hit[rest[hit] % p == 0]
            mu[hit] = 0
    big = rest > 1
    phi[big] -= phi[big] // rest[big]
    mu[big] *= -1
    phi[0] = mu[0] = 0
    return phi, mu


def test_trial_division_reference():
    phi, mu = _trial_division_tables()
    assert phi[:1001].tolist() == [0] + [_totient(n) for n in range(1, 1001)]
    assert [phi[n] for n in (65536, 68921, 196607, REF_N)] == [
        _totient(n) for n in (65536, 68921, 196607, REF_N)
    ]
    assert mu[1:13].tolist() == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def _check_fresh_tables(T: int) -> None:
    phi, _ = _trial_division_tables()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numtheory, "_phi_cache", {})
        assert np.array_equal(numtheory._phi_upto(T), phi[: T + 1]), T


# 257^2 = 66049 is the largest small prime's square, just past the first
# block boundary; 41^2 = 1681 and 41^3 = 68921 straddle it
@pytest.mark.parametrize(
    "T",
    [k * SEG + d for k in (1, 2, 3) for d in (-1, 0, 1)] + [257**2, 41**3, 41**3 + SEG],
)
def test_tables_at_segment_boundaries(T):
    _check_fresh_tables(T)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, REF_N))
def test_tables_match_trial_division(T):
    _check_fresh_tables(T)


def test_sum_phi_accumulates_past_int32():
    exact, _ = sum_phi(10**5)
    assert exact == sum(_trial_division_tables()[0][1 : 10**5 + 1].tolist())
    assert exact == 3_039_650_754 > 2**31


def test_cached_tables_are_read_only(monkeypatch):
    monkeypatch.setattr(numtheory, "_phi_cache", {})
    values = phi_sieve(1000).values
    with pytest.raises(ValueError):
        values[7] = 0
    assert sum_phi(10)[0] == 32
    assert not phi_sieve(10**4).values.flags.writeable  # a rebuilt, longer table too


def test_phi_over_n2_sieves_only_up_to_its_limit(monkeypatch):
    monkeypatch.setattr(numtheory, "_phi_cache", {})
    sum_phi_over_n2(100)
    assert [len(t) for t in numtheory._phi_cache.values()] == [101]


def test_totient_sums_refuse_limits_above_the_sieve():
    # limits numpy could not allocate: a missing guard fails, it never fills memory
    huge = 10**15
    for call in (
        lambda: sum_phi(huge),
        lambda: sum_phi_over_n(huge),
        lambda: sum_phi_over_n2(huge),
        lambda: weighted_sqrt_sum(1, 5, 0, 4, 1e30),
        lambda: phi_sieve(huge),
    ):
        with pytest.raises(LimitTooLarge):
            call()
    # a table too short for the limit is rebuilt, under the same guard
    with pytest.raises(LimitTooLarge):
        sum_phi(huge, phi_sieve(100))


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_weighted_sqrt_sum_refuses_non_finite_delta(delta):
    with pytest.raises(DomainError):
        weighted_sqrt_sum(1, 5, 0, 4, delta)
    with pytest.raises(DomainError):
        weighted_sqrt_sum(1, 5, 0, delta, 100.0)


def test_sieve_and_sums_hold_one_block(monkeypatch):
    # the table plus O(_SEG) working columns, not several copies of the table
    monkeypatch.setattr(numtheory, "_phi_cache", {})
    T, slack = 2 * 10**6, 4 * 2**20
    tracemalloc.start()
    try:
        table = phi_sieve(T)
        sieve_peak = tracemalloc.get_traced_memory()[1]
        sum_peaks = []
        for call in (
            lambda: weighted_sqrt_sum(1, 5, 0, 4, T * T / 4, table),
            lambda: sum_phi_over_n(T, table),
            lambda: sum_phi_over_n2(T, table),
        ):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            sum_peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert sieve_peak <= table.values.nbytes + slack
    assert max(sum_peaks) <= slack


def test_count_coprime_upto():
    for n in (1, 2, 6, 30, 49):
        for T in (0.5, 10, 37.9, 100):
            expect = sum(1 for m in range(1, int(T) + 1) if math.gcd(m, n) == 1)
            assert count_coprime_upto(T, n) == expect


def test_summatory_main_terms():
    exact, main = sum_phi(10**4)
    assert abs(exact / main - 1) < 1e-3
    exact, main = sum_phi_over_n(10**4)
    assert abs(exact / main - 1) < 1e-3
    exact, main = sum_phi_over_n2(10**4)
    assert abs(exact - main) < 1e-3


def test_gamma0_constant():
    # gamma0 = (6/pi^2)(euler_gamma - zeta'(2)/zeta(2)), evaluated at 30 digits
    with mpmath.workdps(30):
        ref = 6 / mpmath.pi**2 * (mpmath.euler - mpmath.zeta(2, derivative=1) / mpmath.zeta(2))
        assert abs(numtheory._GAMMA0 - ref) < 1e-15
    # the main term's error is O(log T / T): below 0.07 log T / T at these T,
    # and below 0.19 log T / T for every T from 10 to 10^7 (largest at T = 13)
    for k in range(1, 7):
        T = 10**k
        exact, main = sum_phi_over_n2(T)
        assert abs(exact - main) <= math.log(T) / T, T


def test_weighted_sqrt_sum_small():
    # direct check of the exact sum at tiny delta
    phi = phi_sieve(100)
    delta = 50.0
    exact, _ = weighted_sqrt_sum(1, 5, 1, 4, delta)
    n_lo, n_hi = math.isqrt(50), math.isqrt(200)
    direct = sum(
        phi[n] * math.sqrt(5 + 4 * delta / n**2) for n in range(n_lo + 1, n_hi + 1)
    )
    assert math.isclose(exact, direct)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(-1, 1), st.integers(1, 1000), st.integers(1, 40))
def test_weighted_sqrt_sum_starts_after_the_last_square_at_most_s1_delta(k, e, delta, width):
    """The sum starts at n_lo + 1, n_lo the largest n with n^2 <= s1 delta
    (the float product), with s1 delta on and next to the square k^2."""
    s1, s2 = (k * k + e) / delta, (k + width) ** 2 / delta
    x = s1 * delta
    n_lo = sum(1 for n in range(1, k + 2) if n * n <= x)
    n_hi = math.isqrt(math.floor(s2 * delta))
    phi = phi_sieve(n_hi)
    direct = math.fsum(phi[n] * math.sqrt(5 + 4 * delta / (n * n)) for n in range(n_lo + 1, n_hi + 1))
    exact, _ = weighted_sqrt_sum(1.0, 5.0, s1, s2, float(delta))
    assert math.isclose(exact, direct, rel_tol=1e-12)


@pytest.mark.parametrize("A, D", [(1.0, 5.0), (0.3, 13.0), (7.25, 0.5), (2.0, 1e-3)])
def test_weighted_sqrt_sum_at_s1_zero_is_the_u_zero_expression(A, D):
    """At u = 0 the log antiderivative's general expression gives the value
    of the special case head + 4A / sqrt(D) log(sqrt(4A)), bit for bit."""

    def bracket(u):
        head = math.sqrt(max(D * u * u + 4 * A * u, 0.0))
        if u == 0:
            return head + 4 * A / math.sqrt(D) * math.log(math.sqrt(4 * A))
        return head + 4 * A / math.sqrt(D) * math.log(math.sqrt(D * u) + math.sqrt(max(D * u + 4 * A, 0.0)))

    for s2, delta in [(4.0, 100.0), (1.5, 12345.0), (9.0, 1e5)]:
        _, main = weighted_sqrt_sum(A, D, 0.0, s2, delta)
        assert main == 3.0 * delta / math.pi**2 * (bracket(s2) - bracket(0.0))


def test_weighted_sqrt_sum_domain():
    from linnikgeo.errors import DomainError

    with pytest.raises(DomainError):
        weighted_sqrt_sum(1, -4, 0.0, 2.0, 100.0)  # s2 beyond 4A/(-D)
    with pytest.raises(DomainError):
        weighted_sqrt_sum(0, 5, 1, 2, 100.0)
    with pytest.raises(DomainError):
        weighted_sqrt_sum(-1, 5, 0.0, 1.0, 100.0)  # log branch needs s1 >= -4A/D
    # no slack below either branch's lower bound on s1: each of these would
    # take the square root of a negative or log(0.0) in the main term
    for args in [(1.0, 5.0, -1e-13, 1.0, 100.0), (-1e-20, 1.0, 0.0, 1.0, 100.0), (1.0, -4.0, -1e-13, 0.5, 100.0)]:
        with pytest.raises(DomainError):
            weighted_sqrt_sum(*args)


def test_ext_gcd_examples():
    assert ext_gcd(4, 6) == (2, -1, 1)
    assert ext_gcd(7, 5) == (1, -2, 3)
    assert ext_gcd(0, 3) == (3, 0, 1)
    assert ext_gcd(3, 0) == (3, 1, 0)
    assert ext_gcd(-3, 0) == (3, -1, 0)


def test_ext_gcd_with_q_zero_is_euclid():
    for R in range(-50, 51):
        if R:
            assert ext_gcd(0, R) == (abs(R), 0, 1 if R > 0 else -1)


def test_ext_gcd_property():
    rng = random.Random(5)
    for _ in range(300):
        Q = rng.randint(-50, 50)
        R = rng.randint(-50, 50)
        if Q == 0 and R == 0:
            continue
        S, b0, c0 = ext_gcd(Q, R)
        assert S == math.gcd(Q, R)
        assert b0 * Q + c0 * R == S
        if R != 0:
            step = abs(R // S)
            # minimal |b0| in its residue class, ties broken nonnegative
            for other in (b0 - step, b0 + step):
                assert abs(other) > abs(b0) or (abs(other) == abs(b0) and b0 >= 0)


def test_pell_small():
    assert (pell_fundamental(5).t0, pell_fundamental(5).u0) == (3, 1)
    assert (pell_fundamental(8).t0, pell_fundamental(8).u0) == (6, 2)
    assert (pell_fundamental(12).t0, pell_fundamental(12).u0) == (4, 1)
    with pytest.raises(SquareDiscriminant):
        pell_fundamental(16)
    with pytest.raises(SquareDiscriminant):
        pell_fundamental(-5)
    with pytest.raises(BadResidue):
        pell_fundamental(7)


def test_pell_421():
    # 421 = 5 mod 8: the half-integer unit is the exact cube root of the
    # (astronomically large) x^2 - 421 y^2 = 1 fundamental solution
    p = pell_fundamental(421)
    t0, u0 = p.t0, p.u0
    assert t0 * t0 - 421 * u0 * u0 == 4
    assert (t0, u0) == (197970713723, 9648502215)
    x1, y1 = _pell_one(421)
    assert (t0**3 + 3 * t0 * u0 * u0 * 421) == 8 * x1
    assert (3 * t0 * t0 * u0 + u0**3 * 421) == 8 * y1
    assert math.isclose(p.log_eps, math.log((t0 + u0 * math.sqrt(421)) / 2))


def test_pell_even_discriminants():
    # t^2 - D u^2 = 4 with D = 4d forces t even: (t/2)^2 - d u^2 = 1
    for D in range(8, 1001, 4):
        if math.isqrt(D) ** 2 == D:
            continue
        x, y = _pell_one(D // 4)
        p = pell_fundamental(D)
        assert (p.t0, p.u0) == (2 * x, y), D


def test_pell_step_cap():
    """D = 979,969 has the longest expansion for D <= 10^6 (2,349 steps),
    far inside the cap; D = 1 + 4 * 10^300 runs past it and is refused,
    naming D and the cap."""
    p = pell_fundamental(979969)
    assert p.t0 * p.t0 - 979969 * p.u0 * p.u0 == 4
    D = 1 + 4 * int(1e300)
    with pytest.raises(GuardExceeded, match=f"D = {D} runs past {numtheory._PELL_STEPS} steps"):
        pell_fundamental(D)


def test_pell_one_oracle():
    for D in (5, 8, 13, 61):
        x, y = _pell_one(D)
        assert x * x - D * y * y == 1


def test_pell_log_eps():
    p = pell_fundamental(5)
    assert math.isclose(p.log_eps, math.log((3 + math.sqrt(5)) / 2))


def test_sl2z_reduce():
    rng = random.Random(11)
    for _ in range(200):
        z = complex(rng.uniform(-8, 8), rng.uniform(0.05, 5))
        w, g = sl2z_reduce(z)
        (a, b), (c, d) = g
        assert a * d - b * c == 1
        zz = (a * z + b) / (c * z + d)
        assert abs(zz - w.as_complex()) < 1e-9
        assert abs(w.x) <= 0.5 + 1e-9
        assert math.hypot(w.x, w.y) >= 1 - 1e-9


def test_is_fundamental_discriminant():
    fund = [-3, -4, -7, -8, -11, -15, -19, -20, -23, -24]
    for D in fund:
        assert is_fundamental_discriminant(D)
    for D in (-12, -9, -16, -25, -27, -28, 5, 0):
        assert not is_fundamental_discriminant(D)


def test_totient_limit_below_one_is_refused_at_the_one_entry():
    """_phi_for refuses T < 1 for phi_sieve and every sum: sum_phi(-5, table)
    summed values[1:-4], phi(1..96) = 2806, and sum_phi_over_n2(0) raised a
    bare math domain error."""
    table = phi_sieve(100)
    for call in (
        lambda: sum_phi(-5, table),
        lambda: sum_phi(0),
        lambda: sum_phi_over_n(0, table),
        lambda: sum_phi_over_n2(0),
        lambda: phi_sieve(0),
        lambda: phi_sieve(-3),
    ):
        with pytest.raises(LimitTooLarge, match=r"totient limit must be in \[1, "):
            call()
    assert sum_phi(1, table) == (1, 3 / math.pi**2)


def test_sl2z_reduce_refuses_non_finite_points():
    for z in (complex(math.inf, 1), complex(-math.inf, 1), complex(math.nan, 1), complex(math.inf, math.inf)):
        with pytest.raises(DomainError, match="point must be finite"):
            sl2z_reduce(z)


def test_pell_log_eps_past_512_bits():
    """D = 979,969 has t0 of 7,806 bits: log_eps takes log(t0), within
    1e-15 of log((t0 + u0 sqrt D) / 2) in 100-digit arithmetic."""
    p = pell_fundamental(979969)
    assert p.t0.bit_length() == 7806
    with mpmath.workdps(100):
        ref = mpmath.log((p.t0 + p.u0 * mpmath.sqrt(p.D)) / 2)
        assert abs((p.log_eps - ref) / ref) <= 1e-15


def test_weighted_sqrt_sum_arctan_bracket_at_s1_zero():
    """At u = 0 the arctan antiderivative takes its limit pi/2: s1 = 0
    matches the closed form, and s1 = 1e-18 (the general expression,
    arctan(1e9)) within the 4e-9 the bracket moves there."""
    delta = 100
    exact0, main0 = weighted_sqrt_sum(1, -4, 0, 0.5, delta)
    exact1, main1 = weighted_sqrt_sum(1, -4, 1e-18, 0.5, delta)
    # bracket(0.5) = 1 - 2 atan(1), bracket(0) = -pi
    assert math.isclose(main0, 3 * delta / math.pi**2 * (1 + math.pi / 2), rel_tol=1e-14)
    assert exact0 == exact1 and 0 < main0 - main1 < 3 * delta / math.pi**2 * 5e-9
