import cmath
import math
import random
import re
from fractions import Fraction

import pytest

from linnikgeo.cycles import (
    CONSTANT_ONE,
    J_FUNCTION,
    ModularFunction,
    _arc_ends,
    closed_geodesic,
    cm_count_closed,
    cm_on_fundamental_arc,
    cycle_quadrature,
    cycle_value,
    j_invariant,
)
from linnikgeo.errors import DomainError, ImprimitiveForm, SquareDiscriminant
from linnikgeo.forms import IntForm, cm_on_geodesic, normalize
from linnikgeo.geodesic_enum import CM_ON_G, build_param, mn_to_form
from reference import apply_mobius


def test_closed_geodesic_examples():
    cg5 = closed_geodesic(IntForm(1, 1, -1))
    assert (cg5.pell.t0, cg5.pell.u0) == (3, 1)
    assert cg5.gamma == ((1, 1), (1, 2))
    assert math.isclose(cg5.length, 2 * math.log((3 + math.sqrt(5)) / 2))

    cg8 = closed_geodesic(IntForm(1, 0, -2))
    assert (cg8.pell.t0, cg8.pell.u0) == (6, 2)
    assert cg8.gamma == ((3, 4), (2, 3))
    assert math.isclose(cg8.length, 2 * math.log(3 + 2 * math.sqrt(2)))


def test_closed_geodesic_rejects():
    with pytest.raises(ImprimitiveForm):
        closed_geodesic(IntForm(2, 0, -2))
    with pytest.raises(SquareDiscriminant):
        closed_geodesic(IntForm(1, 0, -1))


def _random_primitive_indefinite(rng):
    while True:
        a = rng.randint(1, 8)
        b = rng.randint(-8, 8)
        c = rng.randint(-8, -1)
        if math.gcd(math.gcd(a, abs(b)), abs(c)) != 1:
            continue
        D = b * b - 4 * a * c
        if math.isqrt(D) ** 2 == D:
            continue
        return IntForm(a, b, c)


def test_gamma_preserves_geodesic_and_form():
    rng = random.Random(11)
    for _ in range(50):
        f = _random_primitive_indefinite(rng)
        cg = closed_geodesic(f)
        (p, q), (r, s) = cg.gamma
        assert p * s - q * r == 1
        # the substitution z -> (pz+q)/(rz+s) fixes the form
        a, b, c = f.triple()
        a2 = a * p * p + b * p * r + c * r * r
        b2 = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
        c2 = a * q * q + b * q * s + c * s * s
        assert (a2, b2, c2) == (a, b, c)
        # random points of the semicircle stay on it
        sc = cg.semicircle
        for k in range(2):
            th = rng.uniform(0.3, math.pi - 0.3)
            z = complex(sc.q + sc.r * math.cos(th), sc.r * math.sin(th))
            w = apply_mobius(cg.gamma, z)
            assert abs(abs(w - sc.q) - sc.r) < 1e-9 * max(1.0, sc.r)


def test_fundamental_arc_length():
    """The fundamental arc's ends x + i y, with x the real part of the
    incident form at each t of _arc_ends and y^2 = D / 4a^2 - (x - q)^2:
    gamma sends the end of smaller real part exactly to the other (Re and
    Im^2 equal as Fractions), and where the angles are representable the
    arc between them has length cg.length."""
    rng = random.Random(3)
    for _ in range(200):
        cg = closed_geodesic(_random_primitive_indefinite(rng))
        param = build_param(cg.form, CM_ON_G)
        a, b, _ = cg.form.triple()
        q = Fraction(-b, 2 * a)
        ends = []
        for t in _arc_ends(cg, param):
            f = mn_to_form(param, t.numerator, t.denominator)
            x = Fraction(-f.b, 2 * f.a)
            ends.append((x, Fraction(cg.pell.D, 4 * a * a) - (x - q) ** 2))
        (x0, yy0), (x1, yy1) = ends
        assert x0 < x1 and yy0 > 0, cg.form
        # gamma = ((p, r), (s, w)) sends x + i y to (Re, Im) over |s z + w|^2
        (p, r), (s, w) = cg.gamma
        den = (s * x0 + w) ** 2 + s * s * yy0
        assert ((p * x0 + r) * (s * x0 + w) + p * s * yy0) / den == x1, cg.form
        assert yy0 / den**2 == yy1, cg.form
        if cg.length <= 16:
            # beyond, the ends' angles lie within e^-8 of 0 and pi
            th0, th1 = (math.atan2(math.sqrt(yy), x - q) for x, yy in ends)
            u = lambda th: math.log(math.tan(th / 2))
            assert math.isclose(u(th0) - u(th1), cg.length, rel_tol=1e-9)
            assert math.isclose(u(th1), -cg.length / 2, rel_tol=1e-9)


def test_cm_on_fundamental_arc_small():
    cg = closed_geodesic(IntForm(1, 1, -1))
    pts = cm_on_fundamental_arc(cg, 200)
    assert pts
    for r in pts:
        assert cm_on_geodesic(r.point.form, IntForm(1, 1, -1))
        assert abs(r.point.form.discriminant()) <= 200
    # seam handling: gamma maps each arc point to a point of the next copy,
    # so no pair in the list is gamma-equivalent
    zs = [r.point.z for r in pts]
    moved = [apply_mobius(cg.gamma, z) for z in zs]
    for w in moved:
        assert all(abs(w - z) > 1e-9 for z in zs)
    # the arc's ends are the CM points (-4 + i sqrt 5) / 3 and (1 + i sqrt 5) / 3
    # (|D| = 20); only the one of smaller real part is on the arc
    ends = [z for z in zs if abs(z.imag - math.sqrt(5) / 3) < 1e-12]
    assert len(ends) == 1 and abs(ends[0].real + 4 / 3) < 1e-12
    assert cm_on_fundamental_arc(cg, 0.5) == []


def test_closed_count_keeps_int64_columns_below_2_63(monkeypatch):
    """On the D = 89 arc (t0 = 1,000,002) at delta = 200, 333 of the 380
    integer bounds pass 2^53, and at a 2^53 limit most chunks ran on Python
    ints (3.7 s against 1.1 s).  No integer there becomes a float, so int64
    holds them all."""
    from linnikgeo import linnik

    real, made = linnik._int_dtype, []
    monkeypatch.setattr(linnik, "_int_dtype", lambda *a, **k: made.append(real(*a, **k)) or made[-1])
    assert cm_count_closed(closed_geodesic(IntForm(1, 1, -22)), 200)[0] == 98
    assert made and object not in made


def test_closed_count_sl2z_invariant():
    """Forms equivalent under z -> z + 1 have the same closed geodesic, so
    the same count; the seam point is counted once, at one end only."""
    for f, g, delta, count in [
        ((1, 1, -3), (1, 3, -1), 100, 20),
        ((1, 3, 1), (1, 1, -1), 10**5, 13084),
    ]:
        cgs = [closed_geodesic(IntForm(*h)) for h in (f, g)]
        assert [cm_count_closed(cg, delta)[0] for cg in cgs] == [count, count]
    assert [len(cm_on_fundamental_arc(cg, 100)) for cg in cgs] == [
        cm_count_closed(cg, 100)[0] for cg in cgs
    ]
    rng = random.Random(1)
    done = 0
    while done < 15:
        f = _random_primitive_indefinite(rng)
        if f.discriminant() > 64:  # the arc's cost grows with eps_D
            continue
        done += 1
        a, b, c = f.triple()
        k = rng.choice((-2, -1, 1, 2))
        g = IntForm(a, 2 * a * k + b, a * k * k + b * k + c)  # z -> z + k
        counts = {cm_count_closed(closed_geodesic(h), 1000)[0] for h in (f, g)}
        assert len(counts) == 1, (f, g, counts)


def test_closed_count_reach():
    """Units with t0 = 4098 (D = 41) and 33710 (D = 129): the principal form,
    its translates by z -> z +- 2 and its normalised S-image give one count."""
    import time

    for a, b, c in ((1, 1, -10), (1, 1, -32)):
        forms = [(a, b, c), (a, b + 4 * a, 4 * a + 2 * b + c), (a, b - 4 * a, 4 * a - 2 * b + c)]
        counts, secs = [], []
        for h in forms + [normalize(c, -b, a).triple()]:
            t = time.perf_counter()
            counts.append(cm_count_closed(closed_geodesic(IntForm(*h)), 200)[0])
            secs.append(time.perf_counter() - t)
        assert len(set(counts)) == 1 and counts[0] > 0, counts
        # the S-image's semicircle is |c| times smaller, and its scan as
        # many times longer
        assert max(secs[:3]) < 1.0 and secs[3] < 5.0, secs


def test_cm_count_trend():
    cg = closed_geodesic(IntForm(1, 0, -2))
    rel = []
    for delta in (10**3, 10**4, 10**5):
        emp, pred = cm_count_closed(cg, delta)
        rel.append(abs(emp - pred) / pred)
    assert rel[-1] < 0.05
    assert rel[-1] < rel[0]


def test_j_special_values():
    assert abs(j_invariant(1j) - 1728) < 1e-6
    rho = cmath.exp(2j * math.pi / 3)
    assert abs(j_invariant(rho)) < 1e-6
    assert abs(j_invariant(2j) - 287496) < 1e-3


def test_j_refuses_points_past_the_float_range():
    """|j| ~ e^(2 pi y) at the reduced point: above y = log(float max) / 2 pi
    = 112.97 j is refused, naming the point and its reduced height."""
    for z, y in ((113j, "113"), (120j, "120"), (1e-3j, "1000"), (0.5 + 1e-3j, "250")):
        with pytest.raises(DomainError, match=rf"j\({re.escape(str(z))}\).* y = {y} "):
            j_invariant(z)
    assert math.isfinite(abs(j_invariant(112j)))
    z = complex(0.5, 5e-324)  # its reduced point is past the float range itself
    with pytest.raises(DomainError, match=re.escape(f"the reduced point of {z} is past the float range")):
        j_invariant(z)


def test_j_modular_invariance():
    rng = random.Random(19)
    for _ in range(25):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.4, 3.0))
        jz = j_invariant(z)
        for w in (z + 1, -1 / z):
            assert abs(j_invariant(w) - jz) < 1e-7 * max(1.0, abs(jz))


def _matmul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _sl2z_reduce_by_matrices(z):
    """The reduction as products of 2 x 2 matrices: the reference for _reduce."""
    w = complex(z)
    gamma = ((1, 0), (0, 1))
    for _ in range(10**4):
        n = round(w.real)
        if n != 0:
            w -= n
            gamma = _matmul(((1, -n), (0, 1)), gamma)
        if abs(w) < 1 - 1e-15:
            w = -1 / w
            gamma = _matmul(((0, -1), (1, 0)), gamma)
        else:
            return w, gamma
    raise AssertionError("no reduction")


def _j_by_matrices(z):
    """Klein j through _sl2z_reduce_by_matrices, the sums built per call."""
    from linnikgeo.cycles import _SIGMA3, _TAU

    q = cmath.exp(2j * math.pi * _sl2z_reduce_by_matrices(z)[0])
    e4 = dq = 0j
    for s3, tau in zip(_SIGMA3[::-1], _TAU[::-1]):
        e4, dq = (e4 + s3) * q, (dq + tau) * q
    return (1 + 240 * e4) ** 3 / dq


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_reduction_and_j_match_the_matrix_products_bit_for_bit():
    """Random points, the arc |z| = 1 from rho to rho + 1, the edges
    x = +-1/2 and points at y = 5: the same reduced point, gamma and j."""
    from linnikgeo.numtheory import sl2z_reduce

    rng = random.Random(23)
    pts = [complex(rng.uniform(-6, 6), 10 ** rng.uniform(-1.5, 0.7)) for _ in range(600)]
    pts += [cmath.exp(1j * math.pi * (2 - k / 200) / 3) for k in range(201)]
    pts += [complex(x, y / 64) for x in (-0.5, 0.5) for y in range(1, 321)]
    pts += [complex(x / 100, 5.0) for x in range(-300, 301)]
    for z in pts:
        w, gamma = _sl2z_reduce_by_matrices(z)
        got, got_gamma = sl2z_reduce(z)
        assert _bits(got.as_complex()) == _bits(w) and got_gamma == gamma, z
        assert _bits(j_invariant(z)) == _bits(_j_by_matrices(z)), z


def test_cycle_quadrature_of_one_is_length():
    for f in (IntForm(1, 1, -1), IntForm(1, 0, -3)):
        cg = closed_geodesic(f)
        val = cycle_quadrature(cg, CONSTANT_ONE)
        assert math.isclose(val.real, cg.length, rel_tol=1e-9)
        assert abs(val.imag) < 1e-12


def test_cycle_value_converges():
    estimates, quadrature = cycle_value(CONSTANT_ONE, IntForm(1, 1, -1), [10**4, 10**5])
    cg = closed_geodesic(IntForm(1, 1, -1))
    assert math.isclose(quadrature.real, cg.length, rel_tol=1e-9)
    errs = [abs(v - quadrature) for _, v in estimates]
    assert errs[-1] < 0.05 * cg.length
    with pytest.raises(ValueError):
        cycle_value(CONSTANT_ONE, IntForm(-1, 1, 1), [10])


def test_cycle_value_j():
    estimates, quadrature = cycle_value(J_FUNCTION, IntForm(1, 1, -1), [10**5])
    assert abs(estimates[0][1] - quadrature) < 0.05 * abs(quadrature)


def test_j_tables():
    from linnikgeo.cycles import _SIGMA3, _TAU

    assert list(_SIGMA3) == [sum(d**3 for d in range(1, n + 1) if n % d == 0) for n in range(1, 13)]
    # Delta = q prod (1 - q^n)^24, as integer polynomial coefficients
    prod = [1] + [0] * 12
    for n in range(1, 13):
        for _ in range(24):
            prod = [prod[k] - (prod[k - n] if k >= n else 0) for k in range(13)]
    assert list(_TAU) == prod[:12]


def test_j_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(23)
    zs = [complex(rng.uniform(-0.5, 0.5), 0.87 + 4.13 * k / 39) for k in range(40)]
    # the bottom arc |z| = 1 from rho to rho + 1, where |q| is largest
    arc = [cmath.exp(1j * math.pi * (1 / 3 + k / 30)) for k in range(11)]
    zs = [z for z in zs if abs(z) >= 1] + arc + [0.3 + 3.9j, 0.3 + 5j]
    assert len(zs) >= 30
    for z in zs:
        ref = complex(1728 * mpmath.kleinj(mpmath.mpc(z)))
        assert abs(j_invariant(z) - ref) <= 1e-13 * max(abs(ref), 1728), z


def _principal(D):
    return IntForm(1, 1, -(D - 1) // 4) if D % 4 == 1 else IntForm(1, 0, -D // 4)


def test_cycle_quadrature_matches_scipy_quad():
    quad = pytest.importorskip("scipy.integrate").quad
    for D in (5, 8, 12, 13, 17):
        cg = closed_geodesic(_principal(D))
        sc, L = cg.semicircle, cg.length
        g = lambda u: j_invariant(complex(sc.q - sc.r * math.tanh(u), sc.r / math.cosh(u)))
        ref = complex(*(quad(lambda u: part(g(u)), -L / 2, L / 2, limit=200, epsabs=1e-8, epsrel=1e-12)[0]
                        for part in (lambda w: w.real, lambda w: w.imag)))
        got = cycle_quadrature(cg, J_FUNCTION)
        assert abs(got - ref) <= 1e-9 * abs(ref), (D, got, ref)


# References: mpmath.quad at 25 digits over equal pieces of one period u in
# [-L/2, L/2], with 1728 kleinj of the reduced point (all are real).  This
# table used 400 pieces (800 agree to 20 digits for D = 73 and 116), the
# D = 37, 41 and 61 references in test_cycle_quadrature_long_arcs 200.
_REFS = {
    73: 21890.566374702893,
    85: 6387.4618759183235,
    101: 8624.8566516153693,
    104: 6692.4996749005067,
    105: 6302.3992465171929,
    116: 14147.244893402623,
    120: 4448.9112782078096,
}


def test_cycle_quadrature_long_arcs():
    """Near the ends |j| reaches 2e8 (D = 37), 5e8 (D = 41) and 5e10
    (D = 61) and cancels along the arc, so the float noise of those points
    leaves errors of about 5e-10, 2e-8 and 3e-7 relative.  Longer units
    either land within 1e-5 of their reference or are refused."""
    import warnings

    from linnikgeo.errors import NumericalInstability

    for D, ref, rel in (
        (37, 7125.1889006036939, 1e-8),
        (41, 11869.099053755831, 1e-7),
        (61, 10491.940149421909, 1e-5),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cycle_quadrature(closed_geodesic(_principal(D)), J_FUNCTION)
        assert abs(got - ref) <= rel * ref, (D, got)
    for D, ref in _REFS.items():
        try:
            got = cycle_quadrature(closed_geodesic(_principal(D)), J_FUNCTION)
        except NumericalInstability:
            continue
        assert abs(got - ref) <= 1e-5 * ref, (D, got)


def test_cycle_quadrature_principal_forms_up_to_72():
    for D in range(5, 73):
        if D % 4 in (0, 1) and math.isqrt(D) ** 2 != D:
            assert math.isfinite(abs(cycle_quadrature(closed_geodesic(_principal(D)), J_FUNCTION)))


def test_cycle_quadrature_nested_nodes():
    """Each doubling evaluates only the new midpoints, so f is called once
    per node of the final rule, and the nodes are distinct."""
    for D, nodes in ((5, 32), (37, 256), (61, 512)):
        zs = []
        f = ModularFunction("j", lambda z: zs.append(z) or j_invariant(z))
        cycle_quadrature(closed_geodesic(_principal(D)), f)
        assert len(zs) == len(set(zs)) == nodes, (D, len(zs))


def test_cycle_quadrature_needs_no_gauss_legendre(monkeypatch):
    import numpy as np

    def refuse(*args):
        raise AssertionError("leggauss called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    got = cycle_quadrature(closed_geodesic(_principal(37)), J_FUNCTION)
    assert abs(got - 7125.1889006036939) <= 1e-8 * 7125.19


def test_cycle_quadrature_refusals():
    import time

    from linnikgeo.errors import NumericalInstability

    t = time.perf_counter()
    with pytest.raises(NumericalInstability, match="float grid"):
        cycle_quadrature(closed_geodesic(_principal(97)), J_FUNCTION)
    assert time.perf_counter() - t < 1.0
    # an integrand that never settles: both last values are in the message
    rng = random.Random(2)
    noise = ModularFunction("noise", lambda z: complex(rng.random()))
    with pytest.raises(NumericalInstability, match=r"512 nodes give .*, 1024 give"):
        cycle_quadrature(closed_geodesic(IntForm(1, 1, -1)), noise)
    # a value below the float noise of its largest terms: max|j| = 8.8e14
    # on the arc of D = 120, whose cycle integral is 4449, refused as soon
    # as the noise shows, not after 1,024 nodes
    zs = []
    counted = ModularFunction("j", lambda z: zs.append(z) or j_invariant(z))
    with pytest.raises(NumericalInstability, match=r"float noise .*: 64 nodes give .*, 128 give"):
        cycle_quadrature(closed_geodesic(_principal(120)), counted)
    assert len(zs) == 128
    # and when the rules agree: the first two nodes carry +-1e12, which
    # cancel exactly, so every rule gives L, yet the noise is 2e-4 L
    spikes = iter((1e12, 2 - 1e12))
    spiked = ModularFunction("spiked", lambda z: complex(next(spikes, 1)))
    with pytest.raises(NumericalInstability, match="float noise"):
        cycle_quadrature(closed_geodesic(IntForm(1, 1, -1)), spiked)


def test_cycle_value_refuses_before_scanning():
    """D = 73: the comparator is refused before the long arc is scanned."""
    import time

    from linnikgeo.errors import NumericalInstability

    t = time.perf_counter()
    with pytest.raises(NumericalInstability):
        cycle_value(J_FUNCTION, IntForm(1, 1, -18), [200])
    assert time.perf_counter() - t < 1.0


def test_cycle_value_enumerates_once(monkeypatch):
    """One arc scan at the largest delta, no records; each rung equals the
    one-rung call and the sum over cm_on_fundamental_arc's records."""
    from linnikgeo import cycles, geodesic_enum

    cg = closed_geodesic(IntForm(1, 1, -1))
    ladder = [3000.0, 12000.5, 20000.0]
    for f in (CONSTANT_ONE, J_FUNCTION):
        scale = 2 * math.pi**2 * math.sqrt(5) / 3
        by_records = [scale / d * sum((f(r.point.z) for r in cm_on_fundamental_arc(cg, d)), 0j)
                      for d in ladder]
        singles = [cycle_value(f, IntForm(1, 1, -1), [d])[0][0] for d in ladder]
        calls = []
        real_arc_pairs = cycles._arc_pairs
        with monkeypatch.context() as mp:
            mp.setattr(cycles, "_arc_pairs", lambda *a: calls.append(a) or real_arc_pairs(*a))

            def refuse(*args):
                raise AssertionError("a CMOnGeodesic was built")

            mp.setattr(geodesic_enum, "CMOnGeodesic", refuse)
            mp.setattr(cycles, "CMOnGeodesic", refuse)
            estimates, _ = cycle_value(f, IntForm(1, 1, -1), ladder)
        assert len(calls) == 1 and calls[0][1] == max(ladder)
        assert estimates == singles
        assert [v for _, v in estimates] == by_records


def test_j_refuses_non_finite_points():
    """Re z = +-inf raised a bare OverflowError and nan "cannot convert float
    NaN to integer"; the reduction refuses both."""
    for z in (complex(math.inf, 1), complex(-math.inf, 1), complex(math.nan, 1)):
        with pytest.raises(DomainError, match="point must be finite"):
            j_invariant(z)


def test_cm_count_below_delta_one_is_empty():
    cg = closed_geodesic(IntForm(1, 1, -1))
    assert cm_count_closed(cg, 0.5) == (0, 0.0)
    assert cm_on_fundamental_arc(cg, 0.5) == []
