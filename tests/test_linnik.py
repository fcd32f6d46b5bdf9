import math
import random
import re
import warnings
from unittest import mock

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from linnikgeo import linnik
from linnikgeo.errors import (
    DomainError,
    GuardExceeded,
    IntervalOutsidePositivityRegion,
    IntervalTouchesRoot,
    UnboundedDivergence,
)
from linnikgeo.forms import RealForm
from linnikgeo.linnik import (
    Frac,
    ProjInterval,
    brute_force_W,
    case_tag,
    enumerate_W,
    equid_report,
    form_values,
    mu_integral,
    predicted_count,
)

INF = math.inf


def test_proj_interval():
    I = ProjInterval(1, 3)
    assert I.contains(2) and not I.contains(4)
    W = ProjInterval(2, -2, True)
    assert W.contains(5) and W.contains(-3) and not W.contains(0)
    # elementwise on a column, through infinity and to infinite ends
    t = np.array([-INF, -3, -2, 0, 2, 3, 5, INF])
    assert W.contains(t).tolist() == [True, True, True, False, True, True, True, True]
    assert I.contains(t).tolist() == [False, False, False, False, True, True, False, False]
    assert ProjInterval(-INF, 0).contains(t).tolist() == [True] * 4 + [False] * 4
    assert ProjInterval(0, INF).contains(t).tolist() == [False] * 3 + [True] * 5
    with pytest.raises(ValueError):
        ProjInterval(3, 1)
    with pytest.raises(ValueError):
        ProjInterval(INF, 0, True)


def test_case_tags():
    assert case_tag(RealForm(0, 1, 0)) == "linear"
    assert case_tag(RealForm(1, 0, -1)) == "indefinite"
    assert case_tag(RealForm(1, 0, 1)) == "definite"
    assert case_tag(RealForm(1, 2, 1)) == "parabolic"
    assert case_tag(RealForm(-1, 0, 1)) == "cap"


def test_mu_integral_closed_forms():
    assert math.isclose(mu_integral(RealForm(1, 0, 1), ProjInterval(0, 1)), math.pi / 4)
    assert math.isclose(mu_integral(RealForm(0, 1, 0), ProjInterval(1, 2)), math.log(2))
    assert math.isclose(
        mu_integral(RealForm(1, 0, -1), ProjInterval(2, 3)), 0.5 * math.log(1.5)
    )
    assert math.isclose(mu_integral(RealForm(1, 0, 1), ProjInterval(-INF, INF)), math.pi)


def test_mu_integral_vs_quadrature():
    cases = [
        (RealForm(0, 2, 1), ProjInterval(0, 5)),
        (RealForm(1, 0, -1), ProjInterval(1.5, 9)),
        (RealForm(1, 0, -1), ProjInterval(-7, -1.2)),
        (RealForm(3, 1, 5), ProjInterval(-4, 4)),
        (RealForm(1, 2, 1), ProjInterval(0, 6)),
        (RealForm(-1, 0, 4), ProjInterval(-1.7, 1.9)),
        (RealForm(2, -3, -7), ProjInterval(3, 11)),
    ]
    for F, I in cases:
        num, _ = quad(lambda t: 1 / F.value(t), I.lo, I.hi, limit=200)
        assert math.isclose(mu_integral(F, I), num, rel_tol=1e-10)


def test_mu_integral_wrap():
    F = RealForm(1, 0, -1)
    got = mu_integral(F, ProjInterval(2, -2, True))
    left, _ = quad(lambda t: 1 / F.value(t), -math.inf, -2)
    right, _ = quad(lambda t: 1 / F.value(t), 2, math.inf)
    assert math.isclose(got, left + right, rel_tol=1e-6)
    # definite wrap: complement of [-1, 1] plus the interval gives the full line
    G = RealForm(1, 0, 1)
    assert math.isclose(
        mu_integral(G, ProjInterval(1, -1, True)) + mu_integral(G, ProjInterval(-1, 1)),
        math.pi,
    )


def test_mu_integral_additive_and_reflection():
    rng = random.Random(3)
    for _ in range(50):
        F = RealForm(1, rng.randint(-3, 3), rng.randint(5, 9))
        a = rng.uniform(-5, 0)
        b = a + rng.uniform(0.1, 3)
        c = b + rng.uniform(0.1, 3)
        lhs = mu_integral(F, ProjInterval(a, c))
        rhs = mu_integral(F, ProjInterval(a, b)) + mu_integral(F, ProjInterval(b, c))
        assert abs(lhs - rhs) < 1e-12
        R = RealForm(F.A, -F.B, F.C)
        assert math.isclose(
            mu_integral(F, ProjInterval(a, c)),
            mu_integral(R, ProjInterval(-c, -a)),
            rel_tol=1e-12,
        )


def test_mu_integral_errors():
    with pytest.raises(IntervalTouchesRoot):
        mu_integral(RealForm(1, 0, -1), ProjInterval(1, 2))
    with pytest.raises(IntervalOutsidePositivityRegion):
        mu_integral(RealForm(1, 0, -1), ProjInterval(-0.5, 0.5))
    with pytest.raises(IntervalOutsidePositivityRegion):
        mu_integral(RealForm(1, 0, -1), ProjInterval(0, 5))
    with pytest.raises(UnboundedDivergence):
        mu_integral(RealForm(0, 1, 0), ProjInterval(1, INF))
    with pytest.raises(IntervalOutsidePositivityRegion):
        mu_integral(RealForm(-1, 0, 1), ProjInterval(1.5, -1.5, True))


def test_enumerate_examples():
    got = enumerate_W(RealForm(1, 0, 1), 2, ProjInterval(-10, 10))
    assert [(f.m, f.n) for f in got] == [(-1, 1), (0, 1), (1, 1)]
    got = enumerate_W(RealForm(0, 1, 0), 4, ProjInterval(0.1, 5))
    assert [(f.m, f.n) for f in got] == [
        (1, 4), (1, 3), (1, 2), (1, 1), (2, 1), (3, 1), (4, 1)
    ]
    assert enumerate_W(RealForm(1, 0, 1), 0, ProjInterval(-10, 10)) == []


def test_predicted_count():
    assert math.isclose(
        predicted_count(RealForm(1, 0, 1), 10**6, ProjInterval(0, 1)),
        3e6 / math.pi**2 * math.pi / 4,
    )
    assert predicted_count(RealForm(1, 0, 1), 0, ProjInterval(0, 1)) == 0.0


def test_brute_force_guard():
    with pytest.raises(GuardExceeded):
        brute_force_W(RealForm(1, 0, 1), 10**6 + 1, ProjInterval(0, 1))


def test_full_disk_count():
    # reduced fractions m/n with m^2 + n^2 <= 100; doubling and adding the
    # two pairs (+-1, 0) recovers the 192 coprime lattice points in the disk
    got = brute_force_W(RealForm(1, 0, 1), 100, ProjInterval(-INF, INF))
    assert len(got) == 95
    assert 2 * len(got) + 2 == 192


def test_exactness_of_membership():
    F = RealForm(1, 0, -2)
    I = ProjInterval(1.5, -1.5, True)
    for f in enumerate_W(F, 300, I):
        v = f.m * f.m - 2 * f.n * f.n
        assert 0 < v <= 300
        assert math.gcd(f.m, f.n) == 1 and f.n >= 1
        assert I.contains(f.m / f.n)


def test_negation_symmetry():
    F = RealForm(1, 3, -2)
    lo, hi = 1.0, 8.0
    a = enumerate_W(F, 400, ProjInterval(lo, hi))
    b = enumerate_W(RealForm(1, -3, -2), 400, ProjInterval(-hi, -lo))
    assert [(f.m, f.n) for f in a] == [(-f.m, f.n) for f in reversed(b)]


def test_wrap_sorting():
    F = RealForm(1, 0, -1)
    got = enumerate_W(F, 50, ProjInterval(1.5, -1.5, True))
    ts = [f.t for f in got]
    cut = sum(1 for t in ts if t >= 1.5)
    assert ts[:cut] == sorted(ts[:cut])
    assert ts[cut:] == sorted(ts[cut:])
    assert all(t >= 1.5 for t in ts[:cut]) and all(t <= -1.5 for t in ts[cut:])


def test_equid_report_basic():
    F = RealForm(1, 0, 1)
    r = equid_report(F, 10**4, ProjInterval(-1, 1), 2)
    # m -> -m symmetry forces near-equal halves
    c0, c1 = r.histogram[0][0], r.histogram[1][0]
    assert abs(c0 - c1) <= 4 * math.sqrt(10**4)
    assert sum(c for c, _ in r.histogram) == r.empirical
    assert r.normalized_residual == r.residual / (100 * math.log(10**4) ** 2)
    assert r.fracs == enumerate_W(F, 10**4, ProjInterval(-1, 1))
    z = equid_report(F, 0, ProjInterval(-1, 1), 4)
    assert z.empirical == 0 and z.predicted == 0

def _loop_histogram(F, delta, I, buckets):
    """Bucket counts of equid_report by a per-point loop over h(t)."""
    case = linnik.QuadCase.of(F)
    if I.wraps:
        jump = case.h_pinf - case.h_minf
        h = lambda t: case.H(t) if t >= I.lo else case.H(t) + jump
        h0, h1 = case.H(I.lo), case.H(I.hi) + jump
    else:
        h, h0, h1 = case.H, case.at(I.lo), case.at(I.hi)
    width = (h1 - h0) / buckets
    counts = [0] * buckets
    for f in enumerate_W(F, delta, I):
        j = int((h(f.t) - h0) / width)
        counts[min(max(j, 0), buckets - 1)] += 1
    return counts


def test_equid_report_buckets_match_loop():
    for F, I in [
        (RealForm(0, 1.5, 0.25), ProjInterval(1.0, 3.0)),  # linear
        (RealForm(1, 0, -2), ProjInterval(2.0, INF)),  # indefinite
        (RealForm(1, 0, 1), ProjInterval(1.0, -1.0, True)),  # definite, wrapping
        (RealForm(0.25, -1, 1), ProjInterval(2.5, 6.0)),  # parabolic
        (RealForm(-1, 1, 1), ProjInterval(-0.5, 1.5)),  # cap
    ]:
        for buckets in (2, 7):
            got = [c for c, _ in equid_report(F, 3000, I, buckets).histogram]
            assert got == _loop_histogram(F, 3000, I, buckets)
            assert sum(got) > 100


def test_equid_trend():
    F = RealForm(1, 0, 1)
    I = ProjInterval(-INF, INF)
    devs = [equid_report(F, d, I, 8).max_ratio_dev for d in (10**4, 10**5, 10**6)]
    assert (devs[1] < devs[0]) + (devs[2] < devs[1]) >= 1
    assert devs[2] < 0.03


def test_residual_normalization_bound():
    for F, I in [
        (RealForm(0, 1, 0), ProjInterval(1, 2)),
        (RealForm(1, 0, 1), ProjInterval(0, 1)),
        (RealForm(1, 2, 1), ProjInterval(1, 4)),
        (RealForm(-1, 0, 1), ProjInterval(-0.5, 0.5)),
    ]:
        for delta in (10**3, 10**4, 10**5):
            emp = len(enumerate_W(F, delta, I))
            pred = predicted_count(F, delta, I)
            assert abs(emp - pred) / (math.sqrt(delta) * math.log(delta) ** 2) <= 10


def test_non_finite_delta_rejected():
    # predicted_count returned nan and inf, equid_report at -inf an empty
    # report and brute_force_W at nan a ValueError, before they refused a
    # non-finite delta as the scan does
    F, I = RealForm(1, 0, 1), ProjInterval(0, 1)
    for delta in (INF, -INF, math.nan):
        for call in (enumerate_W, predicted_count, brute_force_W, lambda F, d, I: equid_report(F, d, I, 4),
                     lambda F, d, I: linnik.ladder_counts(F, [100, d], I)):
            with pytest.raises(DomainError, match=f"delta must be finite, got {delta}"):
                call(F, delta, I)


def test_boundary_tie_flagging():
    # real coefficients, a fraction exactly at the cutoff
    F = RealForm(0.0, 1.0, 0.5)
    *_, ties = __import__("linnikgeo.linnik", fromlist=["x"])._enumerate_with_ties(
        F, 1.5, ProjInterval(0.1, 4)
    )
    assert ties >= 1  # (1, 1) evaluates exactly to the cutoff


def test_equid_report_guards_bucket_count_before_enumerating():
    with mock.patch.object(linnik, "_enumerate_with_ties", side_effect=AssertionError):
        with pytest.raises(GuardExceeded, match=str(linnik.BUCKET_GUARD + 1)):
            equid_report(RealForm(1, 0, 1), 1e4, ProjInterval(0, 1), linnik.BUCKET_GUARD + 1)


def test_equid_report_columns():
    F, I = RealForm(1, 0, -2), ProjInterval(1.5, -1.5, True)
    r = equid_report(F, 500, I, 4)
    fr = enumerate_W(F, 500, I)
    assert r.ms.tolist() == [f.m for f in fr] and r.ns.tolist() == [f.n for f in fr]
    assert r.t.tolist() == [f.t for f in fr]
    assert r.fracs == fr and all(type(f) is Frac for f in r.fracs)


@pytest.mark.parametrize(
    "A, B, C, big, dtype",
    [
        (3, -5, 7, 10**4, np.int64),  # int64 path
        (2147483647, 1, -2147483629, 10**5, object),  # past the 2^62 guard: Python ints
        (0.3, -1.7, 2.9, 10**4, np.float64),  # float path
        (1e-3, 7.1, -1 / 3, 10**9, np.float64),
    ],
)
def test_form_values_match_scalar_expression(A, B, C, big, dtype):
    rng = np.random.default_rng(5)
    ms = rng.integers(-big, big, 500)
    ns = rng.integers(1, big, 500)
    got = form_values(RealForm(A, B, C), ms, ns)
    assert got.dtype == dtype
    want = [A * m * m + B * m * n + C * n * n for m, n in zip(ms.tolist(), ns.tolist())]
    assert got.tolist() == want
    assert [type(v) for v in got.tolist()] == [type(v) for v in want]


@st.composite
def _scan_past_int64(draw):
    """A definite integral form A t^2 + C and a window of width at most 8
    ending at +-m0, 2^11 <= m0 <= 2^12, where the scan's values pass 2^63.
    Either A and C are anywhere up to 2^50, or A is the least (or nearly)
    with A (m0 + 1)^2 >= 2^63 and C is small: then coeff * m0^2 < 2^63, and
    only the pad m0 + 1 of the level set's range passes 2^63."""
    m0 = draw(st.integers(2**11, 2**12))
    if draw(st.booleans()):
        A, C = -(-(2**63) // (m0 + 1) ** 2) + draw(st.integers(0, 3)), draw(st.integers(1, 2**20))
    else:
        A, C = draw(st.integers(2**41, 2**50)), draw(st.integers(1, 2**50))
    sign, width = draw(st.sampled_from([1, -1])), draw(st.integers(1, 8))
    ends = sorted((sign * m0, sign * (m0 - width)))
    return RealForm(A, 0, C), ProjInterval(*ends)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_form_values_with_the_scans_bound_are_exact_past_2_63(data):
    """form_values with the bound that _level_spans gives the scan equals
    the Python-int value of every candidate, the padded ends included, and
    the scan finds what it finds with form_values's own bound."""
    F, I = data.draw(_scan_past_int64())
    A, C, m0 = int(F.A), int(F.C), int(max(-I.lo, I.hi))
    delta = 2.0 * A * m0**2 + C  # the level set covers I at n = 1 only
    pieces = np.array(I.pieces()).T[:, None, :]
    spans = linnik._level_spans(linnik.QuadCase.of(F), np.arange(1, 4), delta, pieces)
    assert spans[-1] == m0 + 1  # the reach m0, +1 for the pad
    for (ns,), ms, bound in linnik._expand([spans], 0, "test"):
        got = form_values(F, ms, ns, bound)
        want = [A * m * m + C * n * n for m, n in zip(ms.tolist(), ns.tolist())]
        assert max(want) >= 2**63 and got.tolist() == want
    got = enumerate_W(F, delta, I)
    with mock.patch.object(linnik, "form_values", lambda F, ms, ns, bound: form_values(F, ms, ns)):
        assert got and enumerate_W(F, delta, I) == got


# offsets from a root or a finite endpoint, in eighths
_off = st.integers(2, 24).map(lambda k: k / 8)


@st.composite
def _form_and_interval(draw, case, shape):
    """A form of the given sign case, integral or scaled by a factor, and a
    window inside {F > 0} of the given shape: finite, unbounded, or wrapping
    through infinity.  The factors that are not dyadic (0.1, 0.3, 1/3) make
    the float values inexact, which the scan and the oracle must round
    alike; a parabolic form scaled by one stops being parabolic in floats."""
    if case == "linear":
        A, B = 0, draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 6))
        C = draw(st.integers(-6, 6))
    elif case == "definite":
        A, B = draw(st.integers(1, 4)), draw(st.integers(-6, 6))
        C = B * B // (4 * A) + draw(st.integers(1, 5))
    elif case == "indefinite":
        A, B = draw(st.integers(1, 4)), draw(st.integers(-6, 6))
        C = draw(st.integers(-6, -1))
    elif case == "parabolic":
        a, b = draw(st.integers(1, 2)), draw(st.integers(-3, 3))
        A, B, C = a * a, 2 * a * b, b * b
    else:
        A, B = -draw(st.integers(1, 3)), draw(st.integers(-3, 3))
        C = draw(st.integers(1, 6))
    scales = [1, 0.25, 0.75] + ([] if case == "parabolic" else [0.1, 0.3, 1 / 3])
    scale = draw(st.sampled_from(scales))
    F = RealForm(A * scale, B * scale, C * scale)
    if case == "definite":
        lo = draw(st.integers(-16, 16)) / 4
        if shape == "wrap":
            return F, ProjInterval(lo, lo - draw(_off), True)
        if shape == "unbounded":
            return F, draw(st.sampled_from(
                [ProjInterval(lo, INF), ProjInterval(-INF, lo), ProjInterval(-INF, INF)]
            ))
        return F, ProjInterval(lo, lo + draw(_off))
    if case == "linear":
        r1 = r2 = -C / B
    else:
        sd = math.sqrt(B * B - 4 * A * C)
        r1, r2 = sorted([(-B - sd) / (2 * A), (-B + sd) / (2 * A)])
    if case == "cap":
        u = draw(st.integers(1, 14))
        v = draw(st.integers(u + 1, 15))
        return F, ProjInterval(r1 + (r2 - r1) * u / 16, r1 + (r2 - r1) * v / 16)
    if shape == "wrap":
        return F, ProjInterval(r2 + draw(_off), r1 - draw(_off), True)
    right = B > 0 if case == "linear" else draw(st.booleans())
    if right:
        lo = r2 + draw(_off)
        return F, ProjInterval(lo, INF if shape == "unbounded" else lo + draw(_off))
    hi = r1 - draw(_off)
    return F, ProjInterval(-INF if shape == "unbounded" else hi - draw(_off), hi)


_CASES = [
    ("linear", "finite"), ("linear", "unbounded"), ("cap", "finite"),
    *((c, s) for c in ("definite", "indefinite", "parabolic")
      for s in ("finite", "unbounded", "wrap")),
]


def _matches_brute_force(case, shape, data):
    F, I = data.draw(_form_and_interval(case, shape))
    # on an unbounded linear window the oracle scans |t| up to delta / |B|
    top = 100 if (case, shape) == ("linear", "unbounded") else 400
    delta = data.draw(st.integers(1, top))
    assert case_tag(F) == case
    assert enumerate_W(F, delta, I) == brute_force_W(F, delta, I)


@pytest.mark.parametrize("case, shape", _CASES)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_enumerate_matches_brute_force(case, shape, data):
    _matches_brute_force(case, shape, data)


@pytest.mark.parametrize("case, shape", _CASES)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_enumerate_matches_brute_force_across_blocks(case, shape, data):
    # blocks of 3 values of n and chunks of 3 candidates: every call crosses
    # many block and chunk boundaries, inside the m-ranges of one n too
    with mock.patch.object(linnik, "_BLOCK", 3):
        _matches_brute_force(case, shape, data)


def test_enumerate_huge_coefficients_matches_brute_force():
    # F(m, n) = f(m - M n, n) for small f: coefficients near 2^31, and
    # |m| near M, so coeff * max(|m|, n)^2 >= 2^62 sends every candidate
    # through the exact Python-int path; each delta is a value of F, at
    # (3M + 2, 3) and (2M + 5, 2)
    M = 46341
    for (a, b, c), lo, hi, delta in [((1, 0, 4), -2, 2, 40), ((1, 0, -2), 2, 4, 17)]:
        F = RealForm(a, b - 2 * a * M, a * M * M - b * M + c)
        assert (abs(F.A) + abs(F.B) + abs(F.C)) * M * M >= 2**62
        I = ProjInterval(M + lo, M + hi)
        got = enumerate_W(F, delta, I)
        assert got and got == brute_force_W(F, delta, I)
        assert max(F.A * f.m**2 + F.B * f.m * f.n + F.C * f.n**2 for f in got) == delta


def test_scan_and_oracle_round_f_alike():
    # m reaches 1.0e11 here, and m * m wrapped in int64 (5 of the 15 points)
    F, I = RealForm(1e-15, 0, 1), ProjInterval(1e10, 1e10 + 0.5)
    want = [(m, n) for n in range(1, 11) for m in range(10**10 * n, (10**10 + 1) * n)
            if math.gcd(m, n) == 1 and I.contains(m / n)
            and 0 < F.A * m * m + F.B * m * n + F.C * n * n <= 1e7]
    assert len(want) == 15
    assert [(f.m, f.n) for f in enumerate_W(F, 1e7, I)] == sorted(want, key=lambda p: p[0] / p[1])
    # 0.1 * 9 is 0.9, but 0.1 * 3 * 3 rounds up, and F(1, 3) = 0.1 + 0.1 * 3 * 3
    # lands above 1: (1, 3) and (3, 1) are not in W_1
    F, I = RealForm(0.1, 0, 0.1), ProjInterval(0, INF)
    want = [Frac.make(m, n) for m, n in [(0, 1), (1, 2), (1, 1), (2, 1)]]
    assert enumerate_W(F, 1, I) == brute_force_W(F, 1, I) == want


def test_overlapping_pieces_counted_once():
    # the padded m-ranges of two pieces overlap at small n: the wrapped
    # windows of a steep form, and the two flanks of a cap near its top
    for F, I, delta in [
        (RealForm(100, 0, -1), ProjInterval(0.11, -0.11, True), 2000),
        (RealForm(400, 1, -1), ProjInterval(0.06, -0.06, True), 500),
        (RealForm(-50, 0, 1), ProjInterval(-0.14, 0.14), 60),
        (RealForm(-1, 0, 1), ProjInterval(-0.9, 0.9), 3.9),
    ]:
        got = enumerate_W(F, delta, I)
        assert len(set(got)) == len(got)
        assert got == brute_force_W(F, delta, I)


def test_int64_values_compared_with_delta_exactly():
    # F(2, 3) = 13 (2^50 + 1) = 13 * 2^50 + 13 rounds to the float delta
    F, I = RealForm(2**50 + 1, 0, 2**50 + 1), ProjInterval(0, 1)
    for delta in (13 * 2**50 + 12, float(13 * 2**50 + 12)):
        got = [(f.m, f.n) for f in enumerate_W(F, delta, I)]
        assert got == [(0, 1), (1, 3), (1, 2), (1, 1)]


def test_overflowing_discriminant_is_a_domain_error():
    for A, B, C in ((1e200, 0, 1e200), (1e200, 0, -1e200), (1e200, 1e200, 1e200)):
        F = RealForm(A, B, C)
        with pytest.raises(DomainError, match="discriminant of RealForm"):
            linnik.QuadCase.of(F)
        with pytest.raises(DomainError):
            enumerate_W(F, 1e203, ProjInterval(-1, 1))


def test_coefficients_past_the_float_range_are_a_domain_error():
    """D = 0 fits, but the coefficients do not become floats: refused
    naming the form, not a bare OverflowError."""
    F, I = RealForm(10**400, 2 * 10**400, 10**400), ProjInterval(0, 1)
    for call in (lambda: enumerate_W(F, 100, I), lambda: mu_integral(F, I),
                 lambda: linnik.ladder_counts(F, [10, 100], I), lambda: equid_report(F, 100, I, 4),
                 lambda: brute_force_W(F, 100, I)):
        with pytest.raises(DomainError, match=r"coefficients of RealForm\(A=1000"):
            call()


def test_ladder_counts_match_one_enumeration_per_delta():
    cases = [(RealForm(1, 0, 1), ProjInterval(-1, 1)), (RealForm(0.5, 0.25, -1.5), ProjInterval(2, 3)),
             (RealForm(0.1, 0, 0.3), ProjInterval(-2, 2)), (RealForm(1, 0, -2), ProjInterval(2, -2, True))]
    for F, I in cases:
        ladder = [700, 60.5, 3000, 2999.5]
        assert linnik.ladder_counts(F, ladder, I) == [len(enumerate_W(F, d, I)) for d in ladder]
    # F(-205, 174) lies one ulp from this delta: the rung and the enumeration
    # evaluate it alike (form_values)
    F, I, ladder = RealForm(0.1, 0.3, 0.7), ProjInterval(-2, 2), [14694.699999999997, 20000]
    assert linnik.ladder_counts(F, ladder, I) == [len(enumerate_W(F, d, I)) for d in ladder]


def test_int_policy_switches_to_python_ints_at_2_53():
    assert linnik._int_dtype(2**53 - 1) is np.int64
    assert linnik._int_dtype(2**53) is object
    col = np.arange(3, dtype=np.int64)
    assert linnik._ints(2**53 - 1, col)[0] is col  # no cast, no copy
    (wide,) = linnik._ints(2**53, col)
    assert wide.dtype == object and wide.tolist() == [0, 1, 2]
    # where no integer becomes a float, int64 holds every bound below 2^63
    assert linnik._int_dtype(2**63 - 1, floats=False) is np.int64
    assert linnik._int_dtype(2**63, floats=False) is object
    assert linnik._ints(2**63 - 1, col, floats=False)[0] is col
    assert linnik._ints(2**63, col, floats=False)[0].dtype == object


def test_guard_refuses_a_nan_count():
    with pytest.raises(GuardExceeded, match="over SCAN_GUARD"):
        linnik._guard(math.nan, "the work of nan")


def test_whole_positivity_region_needs_an_integral_form_and_rational_roots():
    """_scan_window with no interval bounds n from the case: integral forms
    only, and an irrational or double root leaves infinitely many pairs."""
    with pytest.raises(DomainError, match="not integral"):
        linnik._scan_window(linnik.QuadCase.of(RealForm(1, 0.5, 1)), 10)
    for F in (RealForm(1, 1, -1), RealForm(1, -2, 1), RealForm(-1, 0, 2)):
        with pytest.raises(UnboundedDivergence, match="not a nonzero square"):
            linnik._scan_window(linnik.QuadCase.of(F), 10)
    # t^2 - 1 on its two half-lines: t = m/n with 0 < m^2 - n^2 <= 8
    ms, ns, _, _, _ = linnik._scan_window(linnik.QuadCase.of(RealForm(1, 0, -1)), 8)
    assert sorted(zip(ms.tolist(), ns.tolist())) == [(-4, 3), (-3, 1), (-3, 2), (-2, 1), (2, 1), (3, 1), (3, 2), (4, 3)]


def test_ladder_counts_of_no_deltas():
    assert linnik.ladder_counts(RealForm(1, 0, 1), [], ProjInterval(0, 1)) == []


def test_scan_guard_refuses_n_max_before_scanning():
    # n_max = isqrt(10^150); 1e100 (t^2 + 1) on [-1, 1] has its minimum 1e100 at 0
    with mock.patch.object(linnik, "_run_scan", side_effect=AssertionError):
        with pytest.raises(GuardExceeded, match=f"over SCAN_GUARD = {linnik.SCAN_GUARD}"):
            enumerate_W(RealForm(1e100, 0, 1e100), 1e250, ProjInterval(-1, 1))


def test_scan_guard_counts_candidates_block_by_block(monkeypatch):
    F, I = RealForm(1, 0, 1), ProjInterval(-1, 1)
    assert len(enumerate_W(F, 10**4, I)) > 0
    monkeypatch.setattr(linnik, "SCAN_GUARD", 1000)
    # n_max = 100 passes up front; the block's candidates do not
    with pytest.raises(GuardExceeded, match="has n_max = 100 and [0-9]+ candidates"):
        enumerate_W(F, 10**4, I)


def test_level_set_beyond_int64_is_refused_without_a_warning():
    """n_max is 10^5, under the guard, but the level set reaches |m| = 1e55.
    The int64 cast wrapped it (with a RuntimeWarning) into 217,252 fractions."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GuardExceeded, match=r"reaches \|m\| = 1e\+55 > 2\^62"):
            enumerate_W(RealForm(1e-100, 0, 1), 1e10, ProjInterval(-1e60, 1e60))


def test_ranges_split_across_blocks(monkeypatch):
    """_expand yields the integers of its ranges in order, in chunks of at
    most _BLOCK, each with the row entries of its range."""
    rng = np.random.default_rng(3)
    lo = rng.integers(-50, 50, 300)
    hi = lo + rng.integers(-3, 40, 300)  # some ranges are empty
    want_s = np.concatenate([np.full(max(h - l + 1, 0), i) for i, (l, h) in enumerate(zip(lo, hi))])
    want_v = np.concatenate([np.arange(l, h + 1) for l, h in zip(lo, hi)])
    rows = np.arange(300)
    for block in (1, 7, 64, 2000, 10**6):
        monkeypatch.setattr(linnik, "_BLOCK", block)
        # two blocks of ranges, the rows' entries naming each range
        blocks = [([rows[:150]], lo[:150], hi[:150]), ([rows[150:]], lo[150:], hi[150:])]
        got = list(linnik._expand(blocks, 0, "test"))
        assert all(len(v) <= block for _, v in got)
        assert np.array_equal(np.concatenate([s for (s,), _ in got]), want_s)
        assert np.array_equal(np.concatenate([v for _, v in got]), want_v)
        # no integers at all: one empty chunk
        got = list(linnik._expand([([rows[:1]], np.array([3]), np.array([1]))], 0, "test"))
        assert [len(v) for _, v in got] == [0]
    monkeypatch.setattr(linnik, "SCAN_GUARD", len(want_v) - 1)
    with pytest.raises(GuardExceeded, match=f"test {len(want_v):.0f}"):
        list(linnik._expand([([rows], lo, hi)], 0, "test {:.0f}"))


def test_wrapping_interval_needs_finite_ends_with_lo_above_hi():
    """ProjInterval refuses for every caller what only the CLI refused: a
    wrap whose pieces overlap (predicted_count counted [0, 1] twice, mu =
    3.927, for (0, 1, wraps=True)), and a nan end on either kind."""
    for lo, hi in ((0, 1), (1, 1), (INF, 0), (1, -INF), (math.nan, 0), (0, math.nan)):
        with pytest.raises(ValueError, match="wrapping interval needs finite ends with lo > hi"):
            ProjInterval(lo, hi, True)
    for lo, hi in ((math.nan, 1), (0, math.nan), (math.nan, math.nan), (1, 0)):
        with pytest.raises(ValueError, match="need lo <= hi"):
            ProjInterval(lo, hi)
    assert ProjInterval(1, 0.5, True).pieces() == [(1, INF), (-INF, 0.5)]


def test_window_whose_ends_overflow_F_is_empty():
    """F(1e200) overflows to inf at both ends of a window inside {F > 0}:
    no m/n there has F(m, n) <= delta, so the set is empty (the minimum
    over the closure is +inf), not refused for want of a finite minimum."""
    F, I = RealForm(1, 0, 1), ProjInterval(1e200, 1e201)
    assert enumerate_W(F, 10, I) == []
    assert brute_force_W(F, 10, I) == []
    assert linnik._min_on_closure(F, I) == INF
    assert linnik._min_on_closure(F, ProjInterval(-1e200, 1e200)) == 1


@pytest.mark.parametrize("F, I, at", [
    # the end is one ulp above the float root sqrt(6) - 2 of t^2 + 4t - 2,
    # where F is -8.9e-16 in floats (-7.9e-16 exactly)
    (RealForm(1, 4, -2), ProjInterval(0.44948974278317794, 1.5), 0.44948974278317794),
    # D = -3: F is 1.0 at both ends, but (A t + B) t rounds so that F is
    # 0.0 at the vertex
    (RealForm(3, 300000003, 7500000150000001), ProjInterval(-50000001.0, -50000000.0), -50000000.5),
])
def test_an_end_where_F_rounds_to_zero_is_refused_by_every_entry(F, I, at):
    """The scan refused these windows for the minimum of F on their closure,
    but mu_integral measured them (7.61 and 2.42), and so did predicted_count."""
    assert F.value(at) <= 0 < F.value(I.hi)
    assert not {I.lo, I.hi} & set(linnik.QuadCase.of(F).roots)
    for call in (lambda: enumerate_W(F, 100, I), lambda: linnik.ladder_counts(F, [100], I),
                 lambda: equid_report(F, 100, I, 4), lambda: brute_force_W(F, 100, I),
                 lambda: mu_integral(F, I), lambda: predicted_count(F, 100, I)):
        with pytest.raises(IntervalTouchesRoot, match=re.escape(f"rounds to <= 0 on the closure of {I}")):
            call()


def _values_are_re_evaluated(F, delta, I):
    """equid_report's values column is form_values of its (ms, ns), row by
    row as Python numbers, and each passed the scan's test."""
    r = equid_report(F, delta, I, 2)
    got, want = r.values.tolist(), form_values(F, r.ms, r.ns).tolist()
    assert len(got) == r.empirical and got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    assert all(0 < v <= delta for v in got)
    return r


# mu diverges on an unbounded linear window, so equid_report refuses it
@pytest.mark.parametrize("case, shape", [c for c in _CASES if c != ("linear", "unbounded")])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_report_values_are_the_scans_values(case, shape, data):
    F, I = data.draw(_form_and_interval(case, shape))
    _values_are_re_evaluated(F, data.draw(st.integers(1, 400)), I)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_report_values_past_2_63_are_exact_python_ints(data):
    F, I = data.draw(_scan_past_int64())
    A, C, m0 = int(F.A), int(F.C), int(max(-I.lo, I.hi))
    r = _values_are_re_evaluated(F, 2.0 * A * m0**2 + C, I)
    assert r.values.dtype == object and r.empirical
    assert r.values.tolist() == [A * m * m + C * n * n for m, n in zip(r.ms.tolist(), r.ns.tolist())]
    assert equid_report(F, 0, I, 2).values.tolist() == []
