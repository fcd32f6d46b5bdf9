"""Exact enumeration and verification of aggregate-Linnik sets.

Binary quadratic forms, their CM points and rational geodesics, the
interval-restricted sets W_delta with their limit measure, and cycle
values of modular functions on closed geodesics.
"""

from .forms import (
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
from .hyperbolic import PointH, ang_p, ball, perp_foot, sector_area
from .linnik import (
    EnumReport,
    Frac,
    ProjInterval,
    brute_force_W,
    enumerate_W,
    equid_report,
    mu_integral,
    predicted_count,
)
from .geodesic_enum import (
    GeodesicParam,
    build_param,
    enum_cm_in_ball,
    enum_cm_on_geodesic,
    enum_cm_on_im1,
    enum_rm_perp_geodesic,
    enum_rm_through_point,
    mn_to_form,
    pushforward_check,
)
from .cycles import (
    CONSTANT_ONE,
    J_FUNCTION,
    ClosedGeodesic,
    ModularFunction,
    closed_geodesic,
    cm_count_closed,
    cycle_value,
    j_invariant,
)
from .numtheory import (
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

__version__ = "0.1.0"
