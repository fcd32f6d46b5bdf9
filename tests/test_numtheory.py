import math
import random

import pytest

from linnikgeo import numtheory
from linnikgeo.errors import BadResidue, LimitTooLarge, SquareDiscriminant
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
