"""Independent numerical eigensolver for the reduced second-order equations.

Validates every closed-form spectrum without touching the analytic-spectrum
code path: this module depends only on :mod:`dkp_eup.model` and
:mod:`dkp_eup.errors`.

Each solved sector reduces, after factoring the known endpoint behavior
rho^a (1-rho)^b out of the radial function, to the operator

    L u = rho(1-rho) u'' + (C - (1+sigma) rho) u',      sigma = 2(a+b),

whose bounded eigenfunctions satisfy L u = mu u with the energy entering
only through the affine map E^2 = e2_offset - 4 alpha mu.

Discretization happens in s = sqrt(rho) (proportional to the radial
coordinate), where L = (1/4W) d/ds (P du/ds) with smooth even weight
W = s^{2C-1} (1 - s^2)^{sigma-C} and flux P = W (1 - s^2).  A cell-centered
finite-volume scheme on uniform s-cells has zero flux through both walls
(P vanishes there), which encodes the boundedness condition with no extra
boundary rows, and a diagonal similarity makes the matrix symmetric
tridiagonal.  Because the discrete operator is symmetric, eigenvalues
converge at twice the nominal second-order rate of the scheme.  The lowest
levels come from a certified shift-invert Lanczos solve (``solve_lowest``),
which stops as soon as the gap theorem (Parlett, *The Symmetric Eigenvalue
Problem*, sec. 11.7) bounds every wanted Ritz value by the square of its
residual over its distance to the rest of the spectrum; the gaps it uses
are proven by disjoint Ritz intervals and one Sturm count before any level
is returned.

What depends on the grid size alone is built once per size and shared
read-only: the cell centers and the logarithms of the faces and centers
(``_grid``), and the polynomial of the Lanczos start (``_start_poly``).
``DiscretizedProblem.s_nodes`` is that shared array of centers; copy it to
modify it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs, dstebz, dstev

from .errors import (ComplexEnergy, ComplexExponent, NonConvergence,
                     UnsupportedRegime)
from .model import ModelParams

# Shift of the spectral transformation.  The zero-flux matrix is negative
# semidefinite with its constant mode at lambda ~ 0, so sigma = 1 sits just
# above the wanted end of the spectrum and sigma I - T is positive definite.
SHIFT = 1.0
RITZ_TOL = 1e-14
EPS = float(np.finfo(float).eps)
LIMIT_GRID = 8192       # grid of the solves of ``extrapolated_limit_energy``
GRID_CACHE_SIZE = 8     # grid sizes (and start polynomials) held at once


@dataclass(frozen=True)
class Sector:
    """Which reduced equation to solve; J only matters for the natural one."""

    kind: str  # "natural" | "phi" | "h0"
    J: int = 0

    @staticmethod
    def natural(J: int) -> "Sector":
        return Sector("natural", J)

    @staticmethod
    def phi() -> "Sector":
        return Sector("phi")

    @staticmethod
    def h0() -> "Sector":
        return Sector("h0")


def _sector_constants(params: ModelParams, sector: Sector):
    """(C, sigma, e2_offset) of the regularized operator, derived inline.

    The constants are assembled in a cancellation-free arrangement; for the
    natural sector Q = lr^2 - l0^2 + alpha lr + alpha^2/4 so that
    sqrt(D) = 2 sqrt(Q)/alpha.
    """
    m, al, l0, lr = params.m, params.alpha, params.lambda0, params.lambda_r
    if al <= 0:
        raise UnsupportedRegime("the eigensolver needs alpha > 0")
    if sector.kind == "natural":
        q = lr * lr - l0 * l0 + al * lr + al * al / 4.0
        if not math.isfinite(q):
            raise UnsupportedRegime("Q = lr^2 - l0^2 + alpha*lr + alpha^2/4 "
                                    "overflows the float range")
        if q < 0:
            # divided twice: al ** 2 underflows to 0 below al ~ 1e-162
            raise ComplexExponent(4.0 * q / al / al)
        J = sector.J
        c = J + 1.5
        sigma = (2 * J + 3) / 2.0 + math.sqrt(q) / al
        offset = m * m + lr + al * (4 * J + 5) / 2.0 + (2 * J + 3) * math.sqrt(q)
    elif sector.kind == "phi":
        if l0 != 0:
            raise UnsupportedRegime("phi sector requires lambda0 = 0")
        c = 1.5
        sigma = 2.0 + lr / al
        offset = m * m + 6.0 * lr + 3.0 * al
    elif sector.kind == "h0":
        if l0 != 0:
            raise UnsupportedRegime("h0 sector requires lambda0 = 0")
        c = 1.5
        sigma = 1.0 + lr / al
        offset = m * m + 2.0 * lr + al
    else:
        raise ValueError(f"unknown sector kind {sector.kind!r}")
    if not math.isfinite(sigma):
        raise UnsupportedRegime("sigma = 2(a+b) overflows the float range")
    if not math.isfinite(offset):
        raise UnsupportedRegime("the E^2 offset overflows the float range")
    return c, sigma, offset


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _grid(n: int) -> tuple[np.ndarray, ...]:
    """Read-only (centers, log faces, log1p(-faces^2), log centers,
    log1p(-centers^2)) of n uniform s-cells on the ball; faces are the
    n - 1 inner ones."""
    faces = np.arange(1, n) / n
    centers = (np.arange(1, n + 1) - 0.5) / n
    arrays = (centers, np.log(faces), np.log1p(-faces ** 2),
              np.log(centers), np.log1p(-centers ** 2))
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _start_poly(n: int, k: int) -> np.ndarray:
    """Read-only 1 + rho + ... + rho^(k-1) at the n cell centers."""
    poly = np.polyval(np.ones(k), _grid(n)[0] ** 2)
    poly.flags.writeable = False
    return poly


@dataclass
class DiscretizedProblem:
    """Symmetric tridiagonal discretization plus the affine eigenvalue map."""

    grid_size: int
    sector: Sector
    s_nodes: np.ndarray          # cell centers in s = sqrt(rho), read-only
    half_weight: np.ndarray      # W^(1/2) at s_nodes, scaled to max 1
    diag: np.ndarray
    offdiag: np.ndarray
    e2_offset: float
    e2_scale: float              # E^2 = e2_offset + e2_scale * matrix_eigenvalue


def discretize(params: ModelParams, sector: Sector,
               grid_size: int) -> DiscretizedProblem:
    """Assemble the grid_size x grid_size symmetric tridiagonal matrix.

    The cells are uniform on the whole ball 0 < s < 1; its walls s = 0 and
    s = 1 carry no flux.  Entries are formed in log space because the wall
    factor (1-s^2)^(sigma-C) spans hundreds of orders of magnitude for small
    alpha; once sigma - C passes ~1,010 they overflow (UnsupportedRegime).
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    c, sigma, offset = _sector_constants(params, sector)
    n = grid_size
    centers, log_f, log1m_f2, log_c, log1m_c2 = _grid(n)
    pw, qw = 2.0 * c - 1.0, sigma - c

    log_p = np.full(n + 1, -np.inf)      # P = 0 on the walls
    log_p[1:n] = pw * log_f + (qw + 1) * log1m_f2
    log_w = pw * log_c + qw * log1m_c2
    l2h = 2.0 * math.log(1.0 / n)

    with np.errstate(over="ignore"):    # the isfinite test below reports it
        off = np.exp(log_p[1:n] - 0.5 * (log_w[:-1] + log_w[1:]) - l2h)
        diag = -(np.exp(log_p[1:n + 1] - log_w - l2h)
                 + np.exp(log_p[0:n] - log_w - l2h))
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise UnsupportedRegime(
            f"matrix entries overflow the float range: the wall exponent "
            f"sigma - C = {qw:.6g} is too large at alpha = {params.alpha:g}")

    # matrix eigenvalue lam = 4 mu, so E^2 = offset - alpha * lam
    return DiscretizedProblem(
        grid_size=n, sector=sector, s_nodes=centers,
        half_weight=np.exp(0.5 * (log_w - log_w.max())),
        diag=diag, offdiag=off,
        e2_offset=offset, e2_scale=-params.alpha)


def solve_lowest(problem: DiscretizedProblem, k: int) -> np.ndarray:
    """The k smallest E^2 values, ascending (largest matrix eigenvalues).

    Spectral-transformation Lanczos (Ericsson & Ruhe, Math. Comp. 1980):
    SHIFT I - T is factored once, and Lanczos with full reorthogonalization
    runs on its inverse, whose largest eigenvalues theta give the wanted
    lambda = SHIFT - 1/theta.  From step k + 1 on, each step bounds the
    error of every wanted Ritz value theta_i, with residual
    r_i = |beta_j s_ji|, by the gap theorem (Kato-Temple; Parlett, *The
    Symmetric Eigenvalue Problem*, sec. 11.7): err_i = min(r_i, r_i^2/gap_i),
    where gap_i is the distance from theta_i to the neighbouring Ritz
    intervals and, below the lowest one, to the floor of the Sturm count.
    It stops when every err_i, mapped to lambda, is at most
    RITZ_TOL * max(1, |lambda|); the levels are then certified by
    ``_certify``, which alone proves the gaps, or NonConvergence is raised.
    A count that finds more than k levels means the next Ritz value is
    still too poor to place the floor, so it costs further steps; it
    raises only when no step is left.

    The start is W^(1/2) (1 + rho + ... + rho^(k-1)).  L maps polynomials
    in rho of degree < k to themselves, so the eigenfunctions of the k lowest
    levels span exactly those polynomials, and the similarity turns them
    into the wanted eigenvectors W^(1/2) u up to the O(h^2) error of the
    scheme: the start lies almost in the wanted span, and the stop test is
    passed in fewer steps than from a random start.  A poor start costs
    steps only; the certificate does not depend on it.

    The certificate's rounding allowance n eps theta_0 maps to lambda as a
    half-width n eps theta_0 (SHIFT - lambda)^2, with theta_0 ~ 1 when the
    lowest level lies near lambda = 0: tight for the low levels, loose far
    below SHIFT.  With k near the grid size a coarse grid reaches such
    levels: at phi, m = 1, lambdaR = 1, alpha 0.021, grid 5, k 5 the last
    lambda, -1.61e14, is certified only to +-2.9e13 (18%), although it
    agrees with scipy.linalg.eigvalsh_tridiagonal to 2e-16.
    """
    if not 1 <= k <= problem.grid_size:
        raise ValueError("k must be in 1..grid_size")
    n = problem.grid_size
    d, e, info = dpttrf(SHIFT - problem.diag, -problem.offdiag)
    if info != 0:
        raise NonConvergence(f"SHIFT I - T is not positive definite "
                             f"(dpttrf info {info})")
    # 60 rows for k = 5: at grid 8192 the basis stays under the 4 MiB from
    # which numpy backs an array with huge pages, which would raise the RSS
    steps = min(n, 40 + 4 * k)
    basis = np.empty((steps, n))
    alphas, betas = np.empty(steps), np.empty(steps)
    start = problem.half_weight * _start_poly(n, k)
    basis[0] = start / np.linalg.norm(start)
    worst = math.inf
    for j in range(steps):
        w, _ = dpttrs(d, e, basis[j])
        alphas[j] = basis[j] @ w
        w -= alphas[j] * basis[j]
        if j:
            w -= betas[j - 1] * basis[j - 1]
        h = basis[:j + 1] @ w          # full reorthogonalization
        w -= h @ basis[:j + 1]
        alphas[j] += h[j]
        # a Krylov space of dimension n is invariant: its beta is 0
        betas[j] = np.linalg.norm(w) if j + 1 < n else 0.0
        last = j + 1 == steps or not betas[j] > 0.0
        if j + 1 > k or (j + 1 == k and last):
            # dstev wants max(1, j) off-diagonal entries; betas[0] is set
            ritz, s, info = dstev(alphas[:j + 1], betas[:max(j, 1)])
            if info != 0:
                raise NonConvergence(f"dstev did not converge (info {info})")
            theta = ritz[:-k - 1:-1]
            r = np.abs(betas[j] * s[j, :-k - 1:-1])
            radius = r + n * EPS * theta[0]
            lam = SHIFT - 1.0 / theta
            worst = math.inf
            if np.all(theta > radius):
                below = SHIFT - 1.0 / ritz[-k - 1] if j + 1 > k else -np.inf
                vl = _count_floor(theta, radius, below)
                upper = np.append(np.inf, theta[:-1] - radius[:-1])
                lower = np.append(theta[1:] + radius[1:], 1.0 / (SHIFT - vl))
                gap = np.minimum(upper - theta, theta - lower)
                err = np.where(gap > r, r * r / gap, r)
                # 1/(theta - err) - 1/theta: the mapped lower half-width
                worst = np.max(err / (theta * (theta - err))
                               / np.maximum(1.0, np.abs(lam)))
            if worst <= RITZ_TOL:
                count = _certify(problem, theta, radius, vl)
                if count == k:
                    return problem.e2_offset + problem.e2_scale * lam
                if count < k or last:
                    raise NonConvergence(f"Sturm count finds {count} eigenvalues "
                                         f"above {vl:.6g}, not {k}")
        if last:
            break
        basis[j + 1] = w / betas[j]
    cause = (f"the worst gap bound is {worst:.3g} of max(1, |lambda|), "
             f"above RITZ_TOL = {RITZ_TOL:g}" if worst < math.inf
             else "a Ritz interval reaches theta = 0")
    raise NonConvergence(f"Lanczos did not converge on {k} levels in "
                         f"{j + 1} steps: {cause}")


def _count_floor(theta: np.ndarray, radius: np.ndarray, below: float) -> float:
    """Floor vl of the Sturm count's interval (vl, SHIFT].

    lo, the lower end of the lowest Ritz interval mapped to lambda, must lie
    above vl by half the gap down to ``below``, the next Ritz value, and by
    at most 1 + |lo|, so that rounding in the count would have to move an
    eigenvalue by that much.  A ``below`` that is not below lo is treated
    as unknown (a Ritz value < 0 maps above SHIFT).
    """
    lo = SHIFT - 1.0 / (theta[-1] - radius[-1])
    if not below < lo:
        below = -np.inf
    return max(0.5 * (lo + below), lo - 1.0 - abs(lo))


def _certify(problem: DiscretizedProblem, theta: np.ndarray,
             radius: np.ndarray, vl: float) -> int:
    """Check that the descending Ritz values theta, each within radius
    (< theta) of an eigenvalue of (SHIFT I - T)^-1, are its k = len(theta)
    largest.

    The radius adds to the Ritz bound an allowance of n eps ||A|| for the
    rounding of the Lanczos recurrence.  Mapped to lambda, the k intervals
    must be disjoint, so that each holds its own eigenvalue, or
    NonConvergence is raised.  The return value is a Sturm count (Barth,
    Martin & Wilkinson, Numer. Math. 1967) of the eigenvalues of T in
    (vl, SHIFT], with vl from ``_count_floor``: the levels are certified,
    none missed, only when it is k.
    """
    lo = SHIFT - 1.0 / (theta - radius)
    hi = SHIFT - 1.0 / (theta + radius)
    if not np.all(lo[:-1] > hi[1:]):
        raise NonConvergence("Ritz intervals overlap")
    # RANGE = 1 ('V') counts the eigenvalues in (vl, vu]; a tolerance as
    # wide as the interval stops the bisection at once, leaving the count
    return dstebz(problem.diag, problem.offdiag, 1, vl, SHIFT, 0, 0,
                  SHIFT - vl, b"E")[0]


def lowest_energies(params: ModelParams, sector: Sector, n_levels: int,
                    grid_size: int) -> np.ndarray:
    """The n_levels lowest plus-branch energies on the ball; E^2 < 0 raises."""
    e2 = solve_lowest(discretize(params, sector, grid_size), n_levels)
    if e2.min() < 0:
        raise ComplexEnergy(float(e2.min()))
    return np.sqrt(e2)


@dataclass(frozen=True)
class ComparisonRow:
    n: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass(frozen=True)
class ComparisonReport:
    sector: Sector
    grid_size: int
    tol: float
    rows: tuple[ComparisonRow, ...]

    @property
    def worst(self) -> float:
        """Largest relative error; NaN if any row is NaN, so that it fails."""
        return float(np.max([r.rel_error for r in self.rows]))

    @property
    def passed(self) -> bool:
        return self.worst < self.tol

    def summary(self) -> str:
        s = self.sector
        tag = f"{s.kind}" + (f"(J={s.J})" if s.kind == "natural" else "")
        return (f"{'PASS' if self.passed else 'FAIL'} {tag} grid={self.grid_size} "
                f"worst_rel={self.worst:.3e} tol={self.tol:.1e}")


def compare(params: ModelParams, sector: Sector,
            analytic_energies: Sequence[float],
            grid_size: int, tol: float) -> ComparisonReport:
    """Double-entry check of closed-form energies at relative tolerance tol.

    Analytic values are injected by the caller so this module never imports
    the formula code it is auditing.
    """
    numeric = lowest_energies(params, sector, len(analytic_energies), grid_size)
    rows = []
    for n, (ea, en) in enumerate(zip(analytic_energies, numeric)):
        rows.append(ComparisonRow(n, float(ea), float(en),
                                  abs(en - ea) / abs(ea)))
    return ComparisonReport(sector, grid_size, tol, tuple(rows))


def extrapolated_limit_energy(m: float, lambda0: float, lambda_r: float,
                              n: int, J: int) -> float:
    """Richardson-extrapolate deformed eigenvalues to alpha = 0.

    The deformed energy approaches its limit linearly in alpha, so the
    weights (8, -6, 1)/3 on alpha = (4a, 2a, a) eliminate the first two
    orders.  Used to validate the undeformed closed form without a separate
    half-line solver.  The entries overflow once sigma - C = sqrt(Q)/alpha
    passes ~1,010; a = 1e-3 max(1, 1.1 sqrt(lambda_r^2 - lambda0^2)) keeps
    it below ~910, and is 1e-3 while lambda_r^2 - lambda0^2 < 0.83.  If
    lambda_r^2 < lambda0^2, the solves raise ComplexExponent.
    """
    a = 1e-3 * max(1.0, 1.1 * math.sqrt(max(0.0, lambda_r * lambda_r
                                             - lambda0 * lambda0)))
    es = [lowest_energies(ModelParams(m, k * a, lambda0, lambda_r),
                          Sector.natural(J), n + 1, LIMIT_GRID)[n]
          for k in (4, 2, 1)]
    return (8.0 * es[2] - 6.0 * es[1] + es[0]) / 3.0
