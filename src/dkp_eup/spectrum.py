"""Closed-form bound-state energies of all solved sectors.

Natural parity (any J, alpha > 0), its alpha -> 0 limit, the asymptotic level
spacing, and the two decoupled unnatural-parity sectors (J = 0, lambda0 = 0).

The deformed energies are evaluated through a cancellation-free
rearrangement.  Writing Q = lr^2 - l0^2 + alpha*lr + alpha^2/4, the exponent
discriminant is D = 4Q/alpha^2, and

    E^2 = m^2 + lr + alpha/4 + 4*alpha*beta^2 + 4*beta*sqrt(Q)
          - alpha*J*(J+1),        beta = n + (2J+3)/4,

which is algebraically identical to the textbook form
m^2 + 4a(n + (2J+3)/4 + sqrt(D)/4)^2 - aJ(J+1) - (lr^2-l0^2)/a but contains
no large cancelling terms as alpha -> 0.
"""
from __future__ import annotations

import math
from enum import Enum
from itertools import pairwise
from typing import NamedTuple

from .errors import (ComplexEnergy, ComplexExponent, ComplexShift,
                     NonFiniteParameter, UnsupportedRegime)
from .model import (Branch, ModelParams, Parity, QuantumNumbers, finite,
                    require_finite, require_index)


class Formula(Enum):
    NATURAL_DEFORMED = "natural-deformed"
    NATURAL_LIMIT = "natural-limit"
    UNNATURAL_PHI = "unnatural-phi"
    UNNATURAL_H0 = "unnatural-h0"


_DEFORMED, _LIMIT, _PHI, _H0 = Formula  # globals: Enum attributes read slowly


class HypergeomData(NamedTuple):
    """Exponents (a, b) and parameters (A, B, C) of ``abc``'s 2F1."""

    a: float
    b: float
    A: float
    B: float
    C: float


class EnergyLevel(NamedTuple):
    qn: QuantumNumbers
    value: float
    formula: Formula


def _sqrt_q(params: ModelParams) -> float:
    """sqrt(Q), Q = lr^2 - l0^2 + alpha*lr + alpha^2/4 (equals alpha^2 D / 4).

    Guards every deformed formula: requires finite parameters, alpha > 0,
    a finite Q and D >= 0.
    """
    require_finite(params)
    if params.alpha <= 0:
        raise UnsupportedRegime(
            "deformed formulas need alpha > 0; alpha = 0 has the limit formula")
    q = finite("Q = lr^2 - l0^2 + alpha*lr + alpha^2/4", lambda: (
        params.lambda_r ** 2 - params.lambda0 ** 2
        + params.alpha * params.lambda_r + params.alpha ** 2 / 4.0))
    if not q >= 0:
        # divided twice: alpha ** 2 underflows to 0 below alpha ~ 1e-162
        raise ComplexExponent(4.0 * q / params.alpha / params.alpha)
    return math.sqrt(q)


def exponents(params: ModelParams, sector: str, J: int = 0) -> tuple[float, float]:
    """Exponents (a, b) of F = N rho^a (1-rho)^b Poly(rho) in ``sector``.

    The one place a wall exponent is decided, in closed form; x = lr/alpha.
    natural: a = (J+1)/2, b = 1/4 + sqrt(D)/4 (alpha > 0, D >= 0).
    phi: (1/2, (x+1)/2); h0: (1/2, x/2); both ignore J.  At rho = 1 the h0
    equation also has the root (1-x)/2, normalizable too for x < 1/2; its
    closed-form level E^2 = m^2 + 4 alpha (n+1/2)(n+1/2+x) fixes b = x/2.
    """
    require_index("J", J)
    if sector == "natural":
        sqrt_q = _sqrt_q(params)
        return (J + 1) / 2.0, finite("wall exponent b",
                                     lambda: 0.25 + 0.5 * sqrt_q / params.alpha)
    if sector not in ("phi", "h0"):
        raise UnsupportedRegime(f"unknown sector {sector!r}")
    _require_unnatural(params)
    shift = 1.0 if sector == "phi" else 0.0
    return 0.5, finite("wall exponent b",
                       lambda: (params.lambda_r / params.alpha + shift) / 2.0)


def abc(params: ModelParams, J: int, energy: float) -> HypergeomData:
    """Hypergeometric parameters (A, B, C) at a given energy.

    S = sqrt((E^2-m^2)/(4 alpha) + J(J+1)/4 + (lr^2-l0^2)/(4 alpha^2)),
    A = a + b + S, B = a + b - S, C = 1/2 + 2a; at a closed-form level
    B = -n.  The root selection needs no audit here: a(a - 1/2) = J(J+1)/4
    holds exactly for a = (J+1)/2, and the wall exponent's indicial equation
    is audited by the natural build's closure.
    """
    a, b = exponents(params, "natural", J)
    if not math.isfinite(energy):
        raise NonFiniteParameter("energy", energy)
    al = params.alpha
    radicand = finite("shift radicand", lambda: (
        (energy ** 2 - params.m ** 2) / (4.0 * al) + J * (J + 1) / 4.0
        + (params.lambda_r ** 2 - params.lambda0 ** 2) / (4.0 * al ** 2)))
    if not radicand >= 0:
        raise ComplexShift(radicand)
    s = math.sqrt(radicand)
    return HypergeomData(a=a, b=b, A=a + b + s, B=a + b - s, C=0.5 + 2.0 * a)


def _root(e2: float) -> float:
    if not e2 >= 0:
        raise ComplexEnergy(e2)
    return math.sqrt(e2)


def _single(params: ModelParams, formula: Formula, n: int, J: int, branch: Branch,
            parity: Parity = Parity.NATURAL) -> EnergyLevel:
    qn = QuantumNumbers(n, J, parity, branch)
    return EnergyLevel(qn, branch.value * _root(_e2(params, formula, J)(n)), formula)


def _e2(params: ModelParams, formula: Formula, J: int):
    """n -> E^2 of ``formula`` at J; guards and n-independent terms run once."""
    if formula is _DEFORMED:
        sqrt_q = _sqrt_q(params)
        return lambda n: finite("E^2", lambda beta=n + (2 * J + 3) / 4.0: (
            params.m ** 2 + params.lambda_r + params.alpha / 4.0
            + 4.0 * params.alpha * beta * beta + 4.0 * beta * sqrt_q
            - params.alpha * J * (J + 1)))
    if formula is _LIMIT:
        require_finite(params)
        gap2 = finite("lr^2 - l0^2", lambda: params.lambda_r ** 2 - params.lambda0 ** 2)
        if not gap2 >= 0:
            raise ComplexEnergy(gap2)
        root = math.sqrt(gap2)
        return lambda n: finite("E^2", lambda: params.m ** 2 + params.lambda_r
                                + (4 * n + 2 * J + 3) * root)
    _require_unnatural(params)
    if formula is _PHI:
        return lambda n: finite("E^2", lambda: params.m ** 2 + 4.0 * params.lambda_r
                                + 4.0 * params.alpha * (n + 0.5) * (n + 1.5)
                                + 4.0 * (n + 0.5) * params.lambda_r)
    return lambda n: finite("E^2", lambda: params.m ** 2
                            + 4.0 * params.alpha * (n + 0.5) ** 2
                            + 4.0 * (n + 0.5) * params.lambda_r)


def energy_natural(params: ModelParams, n: int, J: int,
                   branch: Branch = Branch.PLUS) -> EnergyLevel:
    """Deformed natural-parity level E_{n;J}; requires alpha > 0."""
    return _single(params, _DEFORMED, n, J, branch)


def energy_natural_limit(params: ModelParams, n: int, J: int,
                         branch: Branch = Branch.PLUS) -> EnergyLevel:
    """Undeformed natural-parity level; alpha is ignored but must be finite.

    E = sqrt(m^2 + lr + (4n + 2J + 3) sqrt(lr^2 - l0^2)), the alpha -> 0
    limit of the deformed level (a radial oscillator with angular momentum
    J).  At lambda0 = lambda_r every level collapses to sqrt(m^2 + lr).
    """
    return _single(params, _LIMIT, n, J, branch)


def _spacing(params: ModelParams, n: int, lo: float, hi: float) -> float:
    rounding = math.ulp(lo) + math.ulp(hi)
    flat = params.alpha == 0 and params.lambda_r ** 2 == params.lambda0 ** 2
    if not flat and rounding > math.sqrt(math.ulp(1.0)) * (hi - lo):
        raise UnsupportedRegime(f"E_{n + 1} - E_{n} = {hi - lo:.6g} has lost "
                                f"its digits: the levels round by {rounding:.3g}")
    return hi - lo


def level_spacing(params: ModelParams, n: int, J: int) -> float:
    """E_{n+1;J} - E_{n;J} on the plus branch; tends to 2 sqrt(alpha).
    UnsupportedRegime once ulp(E_n) + ulp(E_{n+1}) exceeds sqrt(eps) of it
    (past n = 1e7); exactly 0 on the flat alpha = 0, l0^2 = lr^2 spectrum."""
    return _spacing(params, n, level(params, "natural", n, J).value,
                    level(params, "natural", n + 1, J).value)


def _require_unnatural(params: ModelParams):
    require_finite(params)
    if params.lambda0 != 0:
        raise UnsupportedRegime("unnatural-parity spectra require lambda0 = 0")
    if params.alpha <= 0:
        raise UnsupportedRegime("unnatural-parity spectra require alpha > 0")


def energy_unnatural_phi(params: ModelParams, n: int,
                         branch: Branch = Branch.PLUS) -> EnergyLevel:
    """Scalar-component sector, J = 0, lambda0 = 0.

    E^2 = m^2 + 4 lr + 4 alpha (n + 1/2)(n + 3/2 + lr/alpha); the lr/alpha
    product is expanded so no 1/alpha survives.
    """
    return _single(params, _PHI, n, 0, branch, Parity.UNNATURAL)


def energy_unnatural_h0(params: ModelParams, n: int,
                        branch: Branch = Branch.PLUS) -> EnergyLevel:
    """Longitudinal-component sector, J = 0, lambda0 = 0.

    E^2 = m^2 + 4 alpha (n + 1/2)(n + 1/2 + lr/alpha).
    """
    return _single(params, _H0, n, 0, branch, Parity.UNNATURAL)


def _route(params: ModelParams, sector: str):
    """(level function, formula, natural parity?) of ``sector``."""
    if sector == "natural":
        if params.alpha == 0:
            return energy_natural_limit, _LIMIT, True
        return energy_natural, _DEFORMED, True
    if sector == "phi":
        return energy_unnatural_phi, _PHI, False
    if sector == "h0":
        return energy_unnatural_h0, _H0, False
    raise UnsupportedRegime(f"unknown sector {sector!r}")


def level(params: ModelParams, sector: str, n: int, J: int = 0,
          branch: Branch = Branch.PLUS) -> EnergyLevel:
    """The closed-form level of ``sector``: "natural", "phi" or "h0".

    ``_route``, shared with ``levels``, maps a sector to its formula and
    sends natural alpha = 0 to the limit formula; ``formula`` records the
    route.  The unnatural sectors ignore J.  Patching an ``energy_*`` function
    reaches single-level callers only, not the CLI's or the figures' series.
    """
    single, _, natural = _route(params, sector)
    return single(params, n, J, branch) if natural else single(params, n, branch)


def _series(params: ModelParams, sector: str, J: int, branch: Branch):
    """n -> ``level(params, sector, n, J, branch).value``, checked once."""
    _, formula, natural = _route(params, sector)
    QuantumNumbers(0, J if natural else 0, branch=branch)  # rejects J, branch as level
    e2 = _e2(params, formula, J)
    return lambda n: branch.value * _root(e2(n))


def levels(params: ModelParams, sector: str, n_max: int, J: int = 0,
           branch: Branch = Branch.PLUS) -> list[float]:
    """[level(params, sector, n, J, branch).value for n in 0..n_max]."""
    return list(map(_series(params, sector, J, branch), range(n_max + 1)))


def level_spacings(params: ModelParams, n_max: int, J: int) -> list[float]:
    """[level_spacing(params, n, J) for n in 0..n_max], each level computed
    once; the first failing n raises before any later level is computed."""
    pairs = pairwise(map(_series(params, "natural", J, Branch.PLUS),
                         range(n_max + 2)))
    return [_spacing(params, n, lo, hi) for n, (lo, hi) in enumerate(pairs)]
