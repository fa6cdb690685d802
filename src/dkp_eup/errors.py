"""Exception types shared across the package."""


class DkpError(Exception):
    """Base class for all errors raised by this package."""


class ComplexExponent(DkpError):
    """The discriminant of the wall exponent b is negative; no real b exists."""

    def __init__(self, discriminant: float):
        self.discriminant = discriminant
        super().__init__(f"exponent discriminant D = {discriminant} < 0")


class ComplexShift(DkpError):
    """The radicand of the hypergeometric shift S is negative."""

    def __init__(self, radicand: float):
        self.radicand = radicand
        super().__init__(f"shift radicand {radicand} < 0")


class ComplexEnergy(DkpError):
    """The energy radicand is negative: no real bound-state energy.

    Carries the offending radicand so callers never have to deal with NaN.
    """

    def __init__(self, radicand: float):
        self.radicand = radicand
        super().__init__(f"energy radicand {radicand} < 0")


class NonFiniteParameter(DkpError):
    """An input to a closed-form formula is NaN or infinite."""

    def __init__(self, name: str, value: float):
        self.name = name
        self.value = value
        super().__init__(f"parameter {name} = {value} is not finite")


class UnsupportedRegime(DkpError):
    """An unsolved sector or regime (refused in ``model``), or past the float range."""


class GridTooCoarse(DkpError):
    """Requested grid cannot reach the residual tolerance."""


class ResidualFloor(DkpError):
    """The residual tolerance lies below the floating-point floor of the
    equation being checked: its terms are so large that their rounding
    alone exceeds the tolerance, on any grid."""


class DivergentNorm(DkpError):
    """The norm integral is non-integrable at an endpoint, or its value
    under the endpoint weights is not a positive finite float."""


class OutOfDomain(DkpError):
    """A point lies outside the deformation ball: ``evaluate_primary`` at a
    rho = alpha r^2 outside [0, 1], or not finite."""


class AlgebraInconsistent(DkpError):
    """A matrix identity that must hold exactly failed to."""


class NonConvergence(DkpError):
    """The eigenvalue iteration did not converge."""
