"""Parameters, quantum numbers and input guards shared by every other module,
and the maximum that the checks take, which keeps a NaN.

Natural units (hbar = c = 1) throughout.  The deformation parameter alpha
carries dimension energy^2; alpha = 0 selects the undeformed theory and is
routed to dedicated limit formulas instead of being substituted into
expressions containing 1/alpha.
"""
from __future__ import annotations

import math
import operator
from enum import Enum
from typing import NamedTuple

from .errors import NonFiniteParameter, UnsupportedRegime


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


def _non_finite(params: ModelParams) -> list[tuple[str, float]]:
    """(field, value) of each NaN or infinite field of ``params``, in order."""
    return [(k, v) for k, v in zip(params._fields, params) if not math.isfinite(v)]


def require_finite(params: ModelParams):
    """Raise NonFiniteParameter naming the first NaN or infinite field."""
    if not all(map(math.isfinite, params)):
        for name, value in _non_finite(params):
            raise NonFiniteParameter(name, value)


def require_index(name: str, value, least: int = 0) -> int:
    """operator.index(value), or a ValueError naming ``name`` below ``least``."""
    index = operator.index(value)
    if index < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return index


def finite(name: str, compute) -> float:
    """``compute()``; UnsupportedRegime naming ``name`` if it overflows."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):  # x ** 2 over- or underflowed
        value = math.inf
    if not math.isfinite(value):
        raise UnsupportedRegime(f"{name} overflows the float range")
    return value


def require_alpha(alpha: float, positive: bool = False) -> float:
    """``alpha``, or a ValueError unless it is finite and >= 0 (> 0 if
    ``positive``); NaN fails either bound."""
    if not (alpha > 0 if positive else alpha >= 0) or not alpha < math.inf:
        bound = ">" if positive else ">="
        raise ValueError(f"alpha must be finite and {bound} 0, got {alpha}")
    return alpha


def max_or_nan(values) -> float:
    """The largest of ``values``, or NaN if any is NaN, so that a gate on it
    fails: the builtin max keeps a NaN only where it comes first."""
    return float(max(values, key=lambda v: (math.isnan(v), v)))


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
        require_index("n", self.n)
        require_index("J", self.J)
        if not isinstance(self.parity, Parity):
            raise TypeError(f"parity must be a Parity, got {self.parity!r}")
        if not isinstance(self.branch, Branch):
            raise TypeError(f"branch must be a Branch, got {self.branch!r}")
        if self.J != 0 and self.parity is Parity.UNNATURAL:
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
    domain, on which the wall exponent's discriminant D is at least 1 for
    alpha > 0; ``spectrum`` and ``oracle`` each decide D >= 0 themselves.
    Spectra depend on lambda0 only through its square; that symmetry
    is exercised by tests rather than silently accepted here.
    """
    bad = [f"{'lambdaR' if name == 'lambda_r' else name} finite"
           for name, _ in _non_finite(params)]
    if not params.m > 0:
        bad.append("m > 0")
    if params.alpha < 0:
        bad.append("alpha >= 0")
    if params.lambda0 < 0:
        bad.append("lambda0 >= 0")
    if params.lambda_r < params.lambda0:
        bad.append("lambdaR >= lambda0")
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
    require_index("J", J)
    return math.sqrt((J + 1) / (2 * J + 1)), math.sqrt(J / (2 * J + 1))


def minimum_momentum_uncertainty(alpha: float) -> float:
    """Smallest achievable momentum spread sqrt(alpha)/2 implied by alpha > 0."""
    return math.sqrt(require_alpha(alpha)) / 2.0
