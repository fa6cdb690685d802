"""Physical parameters and quantum numbers shared by every other module.

Natural units (hbar = c = 1) throughout.  The deformation parameter alpha
carries dimension energy^2; alpha = 0 selects the undeformed theory and is
routed to dedicated limit formulas instead of being substituted into
expressions containing 1/alpha.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple


class Parity(Enum):
    NATURAL = "natural"
    UNNATURAL = "unnatural"


class Branch(Enum):
    PLUS = 1
    MINUS = -1


class ModelParams(NamedTuple):
    """Mass, deformation strength and the two vector coupling constants.

    Construction never raises; use :func:`validate` for a report of any
    violated domain constraints.
    """

    m: float
    alpha: float
    lambda0: float
    lambda_r: float

    def discriminant(self) -> float:
        """D = 1 + 4[(lr/a)(lr/a + 1) - l0^2/a^2]; needs alpha > 0.

        D >= 0 is required for a real wall exponent b.
        """
        ra = self.lambda_r / self.alpha
        r0 = self.lambda0 / self.alpha
        return 1.0 + 4.0 * (ra * (ra + 1.0) - r0 * r0)


class _QuantumNumbers(NamedTuple):
    n: int
    J: int
    parity: Parity = Parity.NATURAL
    branch: Branch = Branch.PLUS


class QuantumNumbers(_QuantumNumbers):
    """Validated on construction, ``_replace`` included (it calls ``_make``)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.J < 0:
            raise ValueError(f"J must be >= 0, got {self.J}")
        if self.parity is Parity.UNNATURAL and self.J != 0:
            raise ValueError("unnatural parity is only solved for J = 0")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ValidationReport(NamedTuple):
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def validate(params: ModelParams) -> ValidationReport:
    """Check every domain constraint; report-style, never raises.

    Every parameter must be finite, so no NaN or infinity reaches a formula.
    The sign constraint 0 <= lambda0 <= lambda_r keeps the stated coupling
    domain.  Spectra depend on lambda0 only through its square; that symmetry
    is exercised by tests rather than silently accepted here.
    """
    bad = [f"{name} finite" for name, value in (
        ("m", params.m), ("alpha", params.alpha),
        ("lambda0", params.lambda0), ("lambdaR", params.lambda_r))
        if not math.isfinite(value)]
    if not params.m > 0:
        bad.append("m > 0")
    if params.alpha < 0:
        bad.append("alpha >= 0")
    if params.lambda0 < 0:
        bad.append("lambda0 >= 0")
    if params.lambda_r < params.lambda0:
        bad.append("lambdaR >= lambda0")
    if params.alpha > 0 and params.discriminant() < 0:
        # only reachable when the coupling order is already violated:
        # for lambda_r >= lambda0 >= 0, D >= 1 holds identically
        bad.append("discriminant >= 0")
    return ValidationReport(tuple(bad))


def require_valid(params: ModelParams) -> ModelParams:
    """``params`` when :func:`validate` passes them, else a ValueError that
    names every violated constraint."""
    report = validate(params)
    if not report.passed:
        raise ValueError(f"invalid parameters {params}: violated "
                         f"{', '.join(report.violations)}")
    return params


def xi_zeta(J: int) -> tuple[float, float]:
    """Angular coupling coefficients (xi_J, zeta_J) of the radial reduction.

    xi_J = sqrt((J+1)/(2J+1)), zeta_J = sqrt(J/(2J+1)); xi^2 + zeta^2 = 1.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    xi = math.sqrt((J + 1) / (2 * J + 1))
    zeta = math.sqrt(J / (2 * J + 1))
    return xi, zeta


def minimum_momentum_uncertainty(alpha: float) -> float:
    """Smallest achievable momentum spread sqrt(alpha)/2 implied by alpha > 0."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return math.sqrt(alpha) / 2.0
