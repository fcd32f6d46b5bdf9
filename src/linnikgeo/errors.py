"""Exception hierarchy shared across the package."""


class LinnikError(Exception):
    """Base class for all package-specific errors."""


# -- form layer --------------------------------------------------------------

class ZeroForm(LinnikError, ValueError):
    """Normalization of the all-zero triple was requested."""


class NotPositiveDiscriminant(LinnikError, ValueError):
    """A geodesic was requested from a form with discriminant <= 0."""


class WrongDiscriminantSign(LinnikError, ValueError):
    """A form with the wrong discriminant sign was supplied."""


# -- hyperbolic layer ---------------------------------------------------------

class CoincidentPoints(LinnikError, ValueError):
    """Two distinct points were required but equal points were given."""


class BadAngleOrder(LinnikError, ValueError):
    """Sector angles must satisfy 0 <= theta1 <= theta2 <= 2*pi."""


class NotPerpendicularPair(LinnikError, ValueError):
    """perp_foot called on a pair failing the perpendicularity predicate."""


# -- number theory ------------------------------------------------------------

class LimitTooLarge(LinnikError, ValueError):
    """Sieve limit above the supported range."""


class SquareDiscriminant(LinnikError, ValueError):
    """Pell machinery needs a non-square discriminant."""


class BadResidue(LinnikError, ValueError):
    """Discriminant not congruent to 0 or 1 mod 4."""


class ImprimitiveForm(LinnikError, ValueError):
    """A primitive form was required."""


class DomainError(LinnikError, ValueError):
    """Radicand or argument left the admissible domain."""


class NumericalInstability(LinnikError, ArithmeticError):
    """An iteration failed to converge within its cap."""


# -- interval / enumeration layer ---------------------------------------------

class IntervalTouchesRoot(LinnikError, ValueError):
    """The closure of the interval meets a root of the quadratic."""


class IntervalOutsidePositivityRegion(LinnikError, ValueError):
    """The interval leaves the region where the quadratic is positive."""


class UnboundedDivergence(LinnikError, ValueError):
    """The measure integral diverges on this interval (A = 0 at infinity)."""


class GuardExceeded(LinnikError, ValueError):
    """A brute-force guard (or enumeration size guard) was exceeded."""
