import functools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linnikgeo import numtheory
from linnikgeo.errors import BadResidue, DomainError, LimitTooLarge, SquareDiscriminant
from linnikgeo.numtheory import (
    PellSolution,
    _pell_one,
    count_coprime_upto,
    ext_gcd,
    gamma0_fitted,
    gamma0_series,
    is_fundamental_discriminant,
    pell_fundamental,
    phi_sieve,
    sl2z_reduce,
    sum_phi,
    sum_phi_over_n,
    sum_phi_over_n2,
    weighted_sqrt_sum,
)


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
    phi, mu = _trial_division_tables()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numtheory, "_phi_cache", {})
        assert np.array_equal(numtheory._phi_upto(T), phi[: T + 1]), T
        assert np.array_equal(numtheory._mobius_upto(T)[1:], mu[1 : T + 1]), T


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
    with pytest.raises(ValueError):
        numtheory._mobius_upto(100)[7] = 0
    assert sum_phi(10)[0] == 32
    assert not phi_sieve(10**4).values.flags.writeable  # a rebuilt, longer table too


def test_totient_sums_refuse_limits_above_the_sieve():
    # limits numpy could not allocate: a missing guard fails, it never fills memory
    huge = 10**15
    for call in (
        lambda: sum_phi(huge),
        lambda: sum_phi_over_n(huge),
        lambda: sum_phi_over_n2(huge, gamma0=0.0),
        lambda: gamma0_series(huge),
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
            lambda: sum_phi_over_n2(T, table, gamma0=0.0),
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
    # the fitted constant and the Mobius series agree to high accuracy
    assert abs(gamma0_fitted(10**6) - gamma0_series(10**6)) < 1e-7


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


def test_weighted_sqrt_sum_domain():
    from linnikgeo.errors import DomainError

    with pytest.raises(DomainError):
        weighted_sqrt_sum(1, -4, 0.0, 2.0, 100.0)  # s2 beyond 4A/(-D)
    with pytest.raises(DomainError):
        weighted_sqrt_sum(0, 5, 1, 2, 100.0)
    with pytest.raises(DomainError):
        weighted_sqrt_sum(-1, 5, 0.0, 1.0, 100.0)  # log branch needs s1 >= -4A/D


def test_ext_gcd_examples():
    assert ext_gcd(4, 6) == (2, -1, 1)
    assert ext_gcd(7, 5) == (1, -2, 3)
    assert ext_gcd(0, 3) == (3, 0, 1)
    assert ext_gcd(3, 0) == (3, 1, 0)
    assert ext_gcd(-3, 0) == (3, -1, 0)


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
