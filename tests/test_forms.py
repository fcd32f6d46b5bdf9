import math

import pytest

from linnikgeo.errors import WrongDiscriminantSign, ZeroForm
from linnikgeo.forms import (
    CMPoint,
    HalfLine,
    IntForm,
    RMCurve,
    RealForm,
    Semicircle,
    cm_on_geodesic,
    geodesic_of_form,
    is_normalized,
    normalize,
    rm_perp_geodesic,
)
from reference import rm_through_cm


def test_normalize():
    assert normalize(2, 0, -2).triple() == (1, 0, -1)
    assert normalize(-1, 0, 1).triple() == (1, 0, -1)
    assert normalize(0, -3, 6).triple() == (0, 1, -2)
    assert normalize(0, 0, -5).triple() == (0, 0, 1)
    with pytest.raises(ZeroForm):
        normalize(0, 0, 0)


def test_is_normalized():
    assert is_normalized(1, 0, -1)
    assert not is_normalized(2, 0, -2)
    assert not is_normalized(-1, 0, 1)
    assert not is_normalized(0, 0, 0)


def test_discriminant():
    assert IntForm(1, 0, -1).discriminant() == 4
    assert IntForm(1, 1, -1).discriminant() == 5
    assert IntForm(1, 0, 1).discriminant() == -4
    assert IntForm(1, 0, 1).value(2, 3) == 13


def test_geodesic_of_form():
    g = geodesic_of_form(IntForm(1, 0, -1))
    assert isinstance(g, Semicircle)
    assert g.q == 0 and g.r == 1
    h = geodesic_of_form(IntForm(0, 1, -2))
    assert isinstance(h, HalfLine)
    assert h.x == 2


def test_cm_point():
    p = CMPoint(IntForm(1, 0, 1))
    assert p.z == complex(0, 1)
    with pytest.raises(WrongDiscriminantSign):
        CMPoint(IntForm(1, 0, -1))


def test_rm_curve():
    c = RMCurve(IntForm(1, 1, -1))
    g = c.geodesic
    assert math.isclose(g.q, -0.5)
    assert math.isclose(g.r, math.sqrt(5) / 2)
    with pytest.raises(WrongDiscriminantSign):
        RMCurve(IntForm(1, 0, 1))


def test_incidence_predicates():
    G = IntForm(1, 0, -1)
    # i and (3 + i sqrt 7)/4 are on the unit semicircle
    assert cm_on_geodesic(IntForm(1, 0, 1), G)
    assert cm_on_geodesic(IntForm(2, -3, 2), G)
    assert not cm_on_geodesic(IntForm(1, 0, 2), G)
    # (1, m, -1) passes through i for every m
    p = IntForm(1, 0, 1)
    for m in range(-3, 4):
        assert rm_through_cm(IntForm(1, m, -1), p)
    assert not rm_through_cm(IntForm(1, 0, -2), p)
    # the unit semicircle is perpendicular to the imaginary axis
    assert rm_perp_geodesic(IntForm(1, 0, -1), IntForm(0, 1, 0))
    assert rm_perp_geodesic(IntForm(1, 0, -2), IntForm(0, 1, 0))
    assert not rm_perp_geodesic(IntForm(1, 1, -1), IntForm(0, 1, 0))
    with pytest.raises(WrongDiscriminantSign):
        cm_on_geodesic(IntForm(1, 1, -1), G)


def test_real_form_value_at_infinity():
    F = RealForm(1, 0, -1)
    assert F.value(math.inf) == math.inf
    assert F.value(-math.inf) == math.inf
    L = RealForm(0, 2, 1)
    assert L.value(math.inf) == math.inf
    assert L.value(-math.inf) == -math.inf
    assert RealForm(1.0, 0.0, 1.0).is_integral()
    assert not RealForm(1.0, 0.5, 1.0).is_integral()
