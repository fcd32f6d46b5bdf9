import math
import random
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
    for delta in (INF, math.nan):
        with pytest.raises(DomainError):
            enumerate_W(RealForm(1, 0, 1), delta, ProjInterval(0, 1))
        with pytest.raises(DomainError):
            equid_report(RealForm(1, 0, 1), delta, ProjInterval(0, 1), 4)


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


# offsets from a root or a finite endpoint, in eighths
_off = st.integers(2, 24).map(lambda k: k / 8)


@st.composite
def _form_and_interval(draw, case, shape):
    """A form of the given sign case, integral or scaled by a dyadic factor
    (so that the float path is exact), and a window inside {F > 0} of the
    given shape: finite, unbounded, or wrapping through infinity."""
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
    scale = draw(st.sampled_from([1, 0.25, 0.75]))
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
    # blocks of 3 values of n and chunks of 7 candidates: every call crosses
    # many block and chunk boundaries, inside the m-ranges of one n too
    with mock.patch.multiple(linnik, _BLOCK=3, _CHUNK=7):
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


def test_ladder_counts_match_one_enumeration_per_delta():
    cases = [(RealForm(1, 0, 1), ProjInterval(-1, 1)), (RealForm(0.5, 0.25, -1.5), ProjInterval(2, 3)),
             (RealForm(0.1, 0, 0.3), ProjInterval(-2, 2)), (RealForm(1, 0, -2), ProjInterval(2, -2, True))]
    for F, I in cases:
        ladder = [700, 60.5, 3000, 2999.5]
        assert linnik.ladder_counts(F, ladder, I) == [len(enumerate_W(F, d, I)) for d in ladder]
    # the scan's float order puts F(-205, 174) at this delta; A m m + B m n + C n n
    # (form_values) puts it one ulp above
    F, I, ladder = RealForm(0.1, 0.3, 0.7), ProjInterval(-2, 2), [14694.699999999997, 20000]
    assert linnik.ladder_counts(F, ladder, I) == [len(enumerate_W(F, d, I)) for d in ladder]
