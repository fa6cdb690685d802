"""Explicit radial eigenfunctions, their normalization and residual audits.

Every solved component has the closed form

    F(rho) = N * rho^a (1-rho)^b * Poly(rho),      rho = alpha r^2 in (0, 1),

where Poly = 2F1(-n, n + 2a + 2b; 2a + 1/2; rho) = n!/(ja+1)_n P_n^(ja,jb)(1-2rho)
is a Jacobi polynomial, ja = 2a - 1/2, jb = 2b - 1/2.  It is evaluated by the
three-term recurrence (DLMF 18.9.2), which stays accurate at high n where the
power basis cancels, and differentiated by the shift identity (DLMF 18.9.15)
and the product rule; no finite differences enter, so residuals isolate
formula errors rather than discretization error.

Normalization uses the deformed measure: the line integral
int_0^{1/sqrt(alpha)} |F(r)|^2 (1 - alpha r^2)^{-1/2} dr, which in rho carries
the Jacobi weight rho^ja (1-rho)^jb, so it is the Jacobi norm h_n (DLMF 18.3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DivergentNorm, GridTooCoarse, ResidualFloor,
                     UnsupportedRegime)
from .model import ModelParams, xi_zeta
from .spectrum import EnergyLevel, energy_natural, exponents, level

DEFAULT_GRID_SIZE = 2048
DEFAULT_RESIDUAL_TOL = 1e-8
EPS = float(np.finfo(float).eps)
# Rounding of the rho-form residual in units of eps times its largest term,
# over (n + 1)^2: measured up to ~2 at n = 0 and ~610 at n = 40 (alpha in
# [1e-6, 1]), against the allowance 16 (n + 1)^2.
FLOOR_ULPS = 16


def _jacobi(n: int, ja: float, jb: float, x: np.ndarray) -> np.ndarray:
    """P_n^(ja,jb)(x) by the three-term recurrence (DLMF 18.9.2); 0 for n < 0."""
    if n <= 0:
        return np.full_like(x, float(n == 0))
    prev, cur = np.ones_like(x), (ja + 1.0) + (ja + jb + 2.0) * (x - 1.0) / 2.0
    for k in range(1, n):
        s = 2 * k + ja + jb
        prev, cur = cur, ((s + 1) * ((s + 2) * s * x + ja * ja - jb * jb) * cur
                          - 2 * (k + ja) * (k + jb) * (s + 2) * prev) \
            / (2 * (k + 1) * (k + ja + jb + 1) * s)
    return cur


def _poly(a: float, b: float, n: int, rho: np.ndarray, k: int = 0) -> np.ndarray:
    """k-th rho-derivative of Poly = n!/(ja+1)_n P_n^(ja,jb)(1 - 2 rho): the i-th
    derivative multiplies by -(n+ja+jb+1+i) and moves to P_{n-1-i}^(ja+1+i,
    jb+1+i) (DLMF 18.9.15)."""
    ja, jb = 2.0 * a - 0.5, 2.0 * b - 0.5
    scale = math.prod([(i + 1) / (ja + 1 + i) for i in range(n)]
                      + [-(n + ja + jb + 1 + i) for i in range(k)])
    return scale * _jacobi(n - k, ja + k, jb + k, 1.0 - 2.0 * rho)


def chebyshev_grid(size: int) -> np.ndarray:
    """Open Chebyshev grid on (0, 1), clustered at both endpoints."""
    i = np.arange(size)
    return 0.5 * (1.0 - np.cos(np.pi * (i + 0.5) / size))


@dataclass
class RadialSolution:
    """One bound-state radial solution sampled on a rho grid.

    The exponents (a, b), n and ``norm_constant`` reproduce the primary
    component exactly (``evaluate_primary``); the sampled arrays are a
    convenience view of the same function.
    """

    sector: str                       # "natural" | "phi" | "h0"
    n: int
    J: int
    energy: float
    params: ModelParams
    rho_grid: np.ndarray
    primary: np.ndarray
    primary_name: str
    secondary: dict[str, np.ndarray]
    norm_constant: float
    residual_sup: float
    exponent_a: float
    exponent_b: float


# --- analytic derivative kernels ------------------------------------------


def _prefactor_derivs(a: float, b: float, n: int, rho: np.ndarray):
    """F, dF/drho, d2F/drho2 for F = rho^a (1-rho)^b Poly(rho) (unnormalized)."""
    q = 1.0 - rho
    p0, p1, p2 = (_poly(a, b, n, rho, k) for k in range(3))
    f = rho ** a * q ** b * p0
    g1 = (a * q - b * rho) * p0 + rho * q * p1
    fr = rho ** (a - 1.0) * q ** (b - 1.0) * g1
    dg1 = -(a + b) * p0 + (a * q - b * rho + q - rho) * p1 + rho * q * p2
    g2 = ((a - 1.0) * q - (b - 1.0) * rho) * g1 + rho * q * dg1
    frr = rho ** (a - 2.0) * q ** (b - 2.0) * g2
    return f, fr, frr


def _natural_components(params: ModelParams, J: int, energy: float,
                        a: float, b: float, n: int,
                        rho: np.ndarray, scale: float):
    """F0, H+1, H-1, G0 and the r-derivatives of the H components.

    H components follow the first-order relations
        H+1 = -(zeta/m) [p F0' - (J+1)(p/r) F0 - Ar F0]
        H-1 = -(xi  /m) [p F0' +     J(p/r) F0 - Ar F0]
    with p = sqrt(1 - alpha r^2) and Ar = lr r / p.  G0 is stored with the
    real magnitude convention sqrt(E^2 + A0^2) F0 / m (phase not fixed by
    the time-component relation when A0 != 0).
    """
    al, m, lr, l0 = params.alpha, params.m, params.lambda_r, params.lambda0
    xi, zeta = xi_zeta(J)
    f, frho, frhorho = (scale * d for d in _prefactor_derivs(a, b, n, rho))
    df = 2.0 * np.sqrt(al * rho) * frho  # chain rule in rho
    ddf = 2.0 * al * frho + 4.0 * al * rho * frhorho
    r = np.sqrt(rho / al)
    q = 1.0 - rho
    p = np.sqrt(q)
    ar = lr * r / p
    a0 = l0 * r / p

    h_plus = -(zeta / m) * (p * df - (J + 1) * (p / r) * f - ar * f)
    h_minus = -(xi / m) * (p * df + J * (p / r) * f - ar * f)
    g0 = np.sqrt(energy ** 2 + a0 ** 2) * f / m

    dp = -al * r / p
    dar = lr / p ** 3
    d_p_over_r = dp / r - p / r ** 2
    dh_plus = -(zeta / m) * (dp * df + p * ddf
                             - (J + 1) * (d_p_over_r * f + (p / r) * df)
                             - (dar * f + ar * df))
    dh_minus = -(xi / m) * (dp * df + p * ddf
                            + J * (d_p_over_r * f + (p / r) * df)
                            - (dar * f + ar * df))
    return f, df, h_plus, h_minus, g0, dh_plus, dh_minus


# --- sector assembly -------------------------------------------------------


def _unnatural_sector_data(params: ModelParams, which: str):
    """(a, b, c_wall, c_const_of_E2) of the decoupled sector "phi" or "h0"."""
    al, lr = params.alpha, params.lambda_r
    x = lr / al
    if which == "phi":
        c_wall = x * (x + 1.0) / 4.0
        def c_const(e2):
            return (e2 - params.m ** 2) / (4 * al) + 0.25 + (lr / (4 * al)) * (x - 2.0)
    else:
        c_wall = x * (x - 1.0) / 4.0
        def c_const(e2):
            return (e2 - params.m ** 2) / (4 * al) + x * x / 4.0
    a = 0.5
    b = 0.25 + 0.25 * math.sqrt(1.0 + 16.0 * c_wall)
    return a, b, c_wall, c_const


def _raw_norm_integral(a: float, b: float, n: int, alpha: float) -> float:
    """int_0^1 [rho^a (1-rho)^b Poly]^2 rho^{-1/2} (1-rho)^{-1/2} drho / (2 sqrt(alpha)),

    the Jacobi norm (n!/(ja+1)_n)^2 h_n / 2^(ja+jb+1) (DLMF 18.3) through lgamma;
    a value that is not a positive finite float raises DivergentNorm."""
    ja, jb = 2.0 * a - 0.5, 2.0 * b - 0.5
    if jb <= -1.0:
        raise DivergentNorm(f"wall exponent 2b - 1/2 = {jb} <= -1")
    value = math.exp(
        math.lgamma(n + 1) + 2.0 * math.lgamma(ja + 1) + math.lgamma(n + jb + 1)
        - math.lgamma(n + ja + 1) - math.lgamma(n + ja + jb + 1)
        - math.log(2 * n + ja + jb + 1)) / (2.0 * math.sqrt(alpha))
    if not 0.0 < value < math.inf:
        raise DivergentNorm(f"norm integral is {value} at the Jacobi "
                            f"parameters 2b - 1/2 = {jb:.6g}, 2a - 1/2 = {ja:.6g}")
    return value


def natural_solution(params: ModelParams, n: int, J: int,
                     grid_size: int = DEFAULT_GRID_SIZE,
                     tol: float = DEFAULT_RESIDUAL_TOL) -> RadialSolution:
    """Normalized natural-parity solution and its first-order-system residual."""
    level = energy_natural(params, n, J)
    a, b = exponents(params, J)
    n1 = 1.0 / math.sqrt(_raw_norm_integral(a, b, n, params.alpha))
    rho = chebyshev_grid(grid_size)
    f, _, h_plus, h_minus, g0, _, _ = _natural_components(
        params, J, level.value, a, b, n, rho, n1)

    sol = RadialSolution(
        sector="natural", n=n, J=J, energy=level.value, params=params,
        rho_grid=rho, primary=f, primary_name="F0",
        secondary={"H_plus1": h_plus, "H_minus1": h_minus, "G0": g0},
        norm_constant=n1, residual_sup=0.0,
        exponent_a=a, exponent_b=b)
    sol.residual_sup = residual_first_order(params, level, sol)
    if not sol.residual_sup <= tol:
        raise GridTooCoarse(
            f"residual {sol.residual_sup:.3e} above tolerance {tol:.1e} "
            f"at grid size {grid_size}")
    return sol


def unnatural_solution(params: ModelParams, n: int, which: str,
                       grid_size: int = DEFAULT_GRID_SIZE,
                       tol: float = DEFAULT_RESIDUAL_TOL) -> RadialSolution:
    """Normalized solution of a decoupled unnatural sector ("phi" or "h0").

    The residual is measured against the second-order rho-form equation of
    the sector; the printed first-order unnatural system is not mutually
    consistent and is not used here.
    """
    if which not in ("phi", "h0"):
        raise ValueError(f"unknown unnatural sector {which!r}")
    energy = level(params, which, n).value
    a, b, c_wall, c_const = _unnatural_sector_data(params, which)
    n1 = 1.0 / math.sqrt(_raw_norm_integral(a, b, n, params.alpha))
    rho = chebyshev_grid(grid_size)
    f, frho, frhorho = (n1 * d for d in _prefactor_derivs(a, b, n, rho))
    terms = ((1.0 - rho) * rho * frhorho, (0.5 - rho) * frho,
             -c_wall * f / (1.0 - rho), c_const(energy ** 2) * f)
    residual_sup = float(np.max(np.abs(sum(terms))))
    if not residual_sup <= tol:
        # the terms grow like b ~ 1/alpha, and so does their rounding
        term_max = float(np.max(np.abs(terms)))
        if residual_sup <= FLOOR_ULPS * (n + 1) ** 2 * EPS * term_max:
            raise ResidualFloor(
                f"residual {residual_sup:.3e} above tolerance {tol:.1e} is "
                f"rounding in the rho-form equation, whose terms reach "
                f"{term_max:.2e}: no grid can reach the tolerance")
        raise GridTooCoarse(
            f"residual {residual_sup:.3e} above tolerance {tol:.1e}")

    return RadialSolution(
        sector=which, n=n, J=0, energy=energy, params=params,
        rho_grid=rho, primary=f, primary_name="phi" if which == "phi" else "H0",
        secondary={}, norm_constant=n1, residual_sup=residual_sup,
        exponent_a=a, exponent_b=b)


def evaluate_primary(sol: RadialSolution, rho) -> np.ndarray:
    """Evaluate the primary component analytically at arbitrary rho in (0, 1)."""
    rho = np.asarray(rho, dtype=float)
    a, b = sol.exponent_a, sol.exponent_b
    return sol.norm_constant * rho ** a * (1.0 - rho) ** b * _poly(a, b, sol.n, rho)


def deformed_norm(sol: RadialSolution, params: ModelParams) -> float:
    """Norm of the primary component under the deformed measure.

    In the rho variable the measure is a Jacobi weight, so the integral is
    the closed-form Jacobi norm of the polynomial part.
    """
    raw = _raw_norm_integral(sol.exponent_a, sol.exponent_b, sol.n,
                             params.alpha)
    return sol.norm_constant ** 2 * raw


def residual_first_order(params: ModelParams, level: EnergyLevel,
                         sol: RadialSolution) -> float:
    """Sup-norm residual of the active first-order equations (natural parity).

    Four relations couple F0, G0 and H+-1; the two defining H from F0, the
    algebraic G0 relation (checked in the stored magnitude convention), and
    the closure equation, whose residual is the nontrivial content:

        -p[zeta(d/dr + (J+1)/r + Ar/p) H+1 + xi(d/dr - J/r + Ar/p) H-1]
            + (E^2 + A0^2) F0 / m  =  m F0.
    """
    if sol.sector != "natural":
        raise UnsupportedRegime(
            "first-order residuals are defined for the natural sector; "
            "unnatural solutions carry their ODE residual in residual_sup")
    al, m, lr, l0 = params.alpha, params.m, params.lambda_r, params.lambda0
    xi, zeta = xi_zeta(sol.J)
    J = sol.J
    energy = level.value
    rho = sol.rho_grid
    r = np.sqrt(rho / al)
    p = np.sqrt(1.0 - rho)
    ar = lr * r / p
    a0 = l0 * r / p

    f, df, h_plus, h_minus, g0, dh_plus, dh_minus = _natural_components(
        params, J, energy, sol.exponent_a, sol.exponent_b,
        sol.n, rho, sol.norm_constant)

    res01 = zeta * (p * df - (J + 1) * (p / r) * f - ar * f) + m * h_plus
    res02 = xi * (p * df + J * (p / r) * f - ar * f) + m * h_minus
    res08 = np.sqrt(energy ** 2 + a0 ** 2) * f - m * g0
    res07 = (-p * (zeta * (dh_plus + (J + 1) / r * h_plus + ar / p * h_plus)
                   + xi * (dh_minus - J / r * h_minus + ar / p * h_minus))
             + (energy ** 2 + a0 ** 2) * f / m - m * f)
    # np.max, unlike the builtin max, propagates a NaN from any of the four
    return float(np.max([np.max(np.abs(res))
                         for res in (res01, res02, res07, res08)]))


def count_nodes(sol: RadialSolution, samples: int = 10000) -> int:
    """Interior sign changes of the primary component (Sturm oscillation)."""
    rho = chebyshev_grid(samples)
    vals = evaluate_primary(sol, rho)
    return int(np.sum(vals[:-1] * vals[1:] < 0))


def write_csv(sol: RadialSolution, path) -> None:
    """Columns: rho, r, primary, secondary components, deformed line weight."""
    names = sorted(sol.secondary)
    header = ["rho", "r", sol.primary_name, *names, "weight"]
    r = np.sqrt(sol.rho_grid / sol.params.alpha)
    weight = 1.0 / (2.0 * math.sqrt(sol.params.alpha)
                    * np.sqrt(sol.rho_grid) * np.sqrt(1.0 - sol.rho_grid))
    cols = [sol.rho_grid, r, sol.primary,
            *(sol.secondary[k] for k in names), weight]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
