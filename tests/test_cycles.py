import cmath
import math
import random

import pytest

from linnikgeo.cycles import (
    CONSTANT_ONE,
    J_FUNCTION,
    apply_mobius,
    closed_geodesic,
    cm_count_closed,
    cm_on_fundamental_arc,
    cycle_quadrature,
    cycle_value,
    fundamental_arc,
    j_invariant,
    topmost,
    _arc_length,
)
from linnikgeo.errors import ImprimitiveForm, PointNotOnGeodesic, SquareDiscriminant
from linnikgeo.forms import IntForm, cm_on_geodesic


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
    rng = random.Random(3)
    done = 0
    while done < 20:
        cg = closed_geodesic(_random_primitive_indefinite(rng))
        if cg.length > 8:
            # endpoints sit within exp(-length) of the real axis, where the
            # angle loses float precision; skip the extreme Pell solutions
            continue
        done += 1
        th0, th1 = fundamental_arc(cg)
        assert math.isclose(_arc_length(th0, th1), cg.length, rel_tol=1e-9)
        # applying gamma twice doubles the arc
        z1 = apply_mobius(cg.gamma, apply_mobius(cg.gamma, topmost(cg).as_complex()))
        from linnikgeo.cycles import _arg_on

        th2 = _arg_on(cg.semicircle, z1)
        assert math.isclose(_arc_length(th0, th2), 2 * cg.length, rel_tol=1e-9)


def test_arg_on_rejects_off_curve():
    cg = closed_geodesic(IntForm(1, 1, -1))
    from linnikgeo.cycles import _arg_on

    with pytest.raises(PointNotOnGeodesic):
        _arg_on(cg.semicircle, 10 + 10j)


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
    assert cm_on_fundamental_arc(cg, 0.5) == []


def test_closed_count_sl2z_invariant():
    """Forms equivalent under z -> z + 1 have the same closed geodesic, so
    the same count; the seam point is counted once, at the start only."""
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
        if f.discriminant() > 40:  # the arc's cost grows with eps_D
            continue
        done += 1
        a, b, c = f.triple()
        k = rng.choice((-2, -1, 1, 2))
        g = IntForm(a, 2 * a * k + b, a * k * k + b * k + c)  # z -> z + k
        counts = {cm_count_closed(closed_geodesic(h), 1000)[0] for h in (f, g)}
        assert len(counts) == 1, (f, g, counts)


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


def test_j_modular_invariance():
    rng = random.Random(19)
    for _ in range(25):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.4, 3.0))
        jz = j_invariant(z)
        for w in (z + 1, -1 / z):
            assert abs(j_invariant(w) - jz) < 1e-7 * max(1.0, abs(jz))


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
