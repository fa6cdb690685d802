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
levels come from a certified shift-invert Lanczos solve (``solve_lowest``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs, dstebz

from .errors import (ComplexEnergy, ComplexExponent, NonConvergence,
                     UnsupportedRegime)
from .model import ModelParams

# Shift of the spectral transformation.  The zero-flux matrix is negative
# semidefinite with its constant mode at lambda ~ 0, so sigma = 1 sits just
# above the wanted end of the spectrum and sigma I - T is positive definite.
SHIFT = 1.0
RITZ_TOL = 1e-14
EPS = float(np.finfo(float).eps)


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
    return c, sigma, offset


@dataclass
class DiscretizedProblem:
    """Symmetric tridiagonal discretization plus the affine eigenvalue map."""

    grid_size: int
    sector: Sector
    params: ModelParams
    s_nodes: np.ndarray          # cell centers in s = sqrt(rho)
    diag: np.ndarray
    offdiag: np.ndarray
    e2_offset: float
    e2_scale: float              # E^2 = e2_offset + e2_scale * matrix_eigenvalue
    s_cut: float


def discretize(params: ModelParams, sector: Sector, grid_size: int,
               s_cut: float = 1.0) -> DiscretizedProblem:
    """Assemble the grid_size x grid_size symmetric tridiagonal matrix.

    ``s_cut`` < 1 truncates the domain with a Dirichlet wall, used when the
    deformation is so weak that the state occupies a tiny fraction of the
    ball (keeps the weight ratios representable and the state resolved).
    Entries are formed in log space because the wall factor (1-s^2)^(sigma-C)
    spans hundreds of orders of magnitude for small alpha.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    c, sigma, offset = _sector_constants(params, sector)
    n = grid_size
    h = s_cut / n
    faces = h * np.arange(0, n + 1)
    centers = h * (np.arange(1, n + 1) - 0.5)
    pw = 2.0 * c - 1.0
    qw = sigma - c

    log_p = np.full(n + 1, -np.inf)
    inner = (faces > 0) & (faces < 1)
    log_p[inner] = pw * np.log(faces[inner]) + (qw + 1) * np.log1p(-faces[inner] ** 2)
    log_w = pw * np.log(centers) + qw * np.log1p(-centers ** 2)
    l2h = 2.0 * math.log(h)

    off = np.exp(log_p[1:n] - 0.5 * (log_w[:-1] + log_w[1:]) - l2h)
    diag = -(np.exp(log_p[1:n + 1] - log_w - l2h)
             + np.exp(log_p[0:n] - log_w - l2h))
    if s_cut < 1.0:
        # Dirichlet u = 0 at the cut face: one-sided half-cell flux
        diag[-1] -= 2.0 * np.exp(log_p[n] - log_w[-1] - l2h)
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise UnsupportedRegime("matrix entries overflow the float range; "
                                "cut the domain (auto_cut) at this alpha")

    # matrix eigenvalue lam = 4 mu, so E^2 = offset - alpha * lam
    return DiscretizedProblem(
        grid_size=n, sector=sector, params=params, s_nodes=centers,
        diag=diag, offdiag=off,
        e2_offset=offset, e2_scale=-params.alpha, s_cut=s_cut)


def solve_lowest(problem: DiscretizedProblem, k: int) -> np.ndarray:
    """The k smallest E^2 values, ascending (largest matrix eigenvalues).

    Spectral-transformation Lanczos (Ericsson & Ruhe, Math. Comp. 1980):
    SHIFT I - T is factored once, and Lanczos with full reorthogonalization
    runs on its inverse, whose largest eigenvalues theta give the wanted
    lambda = SHIFT - 1/theta.  It stops when every Ritz bound |beta_j s_ji|,
    mapped to lambda, is at most RITZ_TOL * max(1, |lambda|); the levels
    are then certified by ``_certify`` or NonConvergence is raised.
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
    start = np.random.default_rng(0).standard_normal(n)
    basis[0] = start / np.linalg.norm(start)
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
        if j + 1 >= k:
            ritz, s = eigh_tridiagonal(alphas[:j + 1], betas[:j])
            theta = ritz[:-k - 1:-1]
            bound = np.abs(betas[j] * s[j, :-k - 1:-1])
            lam = SHIFT - 1.0 / theta
            # 1/(theta - bound) - 1/theta: the mapped lower half-width
            if np.all((theta > bound) & (bound / (theta * (theta - bound))
                      <= RITZ_TOL * np.maximum(1.0, np.abs(lam)))):
                below = SHIFT - 1.0 / ritz[-k - 1] if j + 1 > k else -np.inf
                _certify(problem, theta, bound + n * EPS * theta[0], below)
                return problem.e2_offset + problem.e2_scale * lam
        if not betas[j] > 0.0:
            break
        if j + 1 < steps:
            basis[j + 1] = w / betas[j]
    raise NonConvergence(f"Lanczos did not converge on {k} levels "
                         f"in {j + 1} steps")


def _certify(problem: DiscretizedProblem, theta: np.ndarray,
             radius: np.ndarray, below: float) -> None:
    """Certify that the descending Ritz values theta, each within radius of
    an eigenvalue of (SHIFT I - T)^-1, are its k largest.

    The radius adds to the Ritz bound an allowance of n eps ||A|| for the
    rounding of the Lanczos recurrence.  Mapped to lambda, the k intervals
    must be disjoint, so that each holds its own eigenvalue, and a Sturm
    count (Barth, Martin & Wilkinson, Numer. Math. 1967) must find exactly
    k eigenvalues of T in (lowest interval - margin, SHIFT], so that none
    was missed.  The margin is half the gap down to ``below``, the next
    Ritz value, and at most 1 + |lambda_k|, so rounding in the count would
    have to move an eigenvalue by that much.  Anything else raises
    NonConvergence.
    """
    if not np.all(theta > radius):
        raise NonConvergence("a Ritz interval reaches theta = 0")
    lo = SHIFT - 1.0 / (theta - radius)
    hi = SHIFT - 1.0 / (theta + radius)
    if not np.all(lo[:-1] > hi[1:]):
        raise NonConvergence("Ritz intervals overlap")
    vl = max(0.5 * (lo[-1] + below), lo[-1] - 1.0 - abs(lo[-1]))
    # RANGE = 1 ('V') counts the eigenvalues in (vl, vu]; a tolerance as
    # wide as the interval stops the bisection at once, leaving the count
    count = dstebz(problem.diag, problem.offdiag, 1, vl, SHIFT, 0, 0,
                   SHIFT - vl, b"E")[0]
    if count != len(theta):
        raise NonConvergence(f"Sturm count finds {count} eigenvalues above "
                             f"{vl:.6g}, not {len(theta)}")


def lowest_energies(params: ModelParams, sector: Sector, n_levels: int,
                    grid_size: int = 8192, s_cut: float = 1.0) -> np.ndarray:
    """Plus-branch energies of the n_levels lowest states; E^2 < 0 raises."""
    e2 = solve_lowest(discretize(params, sector, grid_size, s_cut), n_levels)
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

    def to_csv_text(self) -> str:
        lines = ["n,E_analytic,E_numeric,rel_error"]
        lines += [f"{r.n},{r.analytic:.12g},{r.numeric:.12g},{r.rel_error:.3e}"
                  for r in self.rows]
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        s = self.sector
        tag = f"{s.kind}" + (f"(J={s.J})" if s.kind == "natural" else "")
        return (f"{'PASS' if self.passed else 'FAIL'} {tag} grid={self.grid_size} "
                f"worst_rel={self.worst:.3e} tol={self.tol:.1e}")


def compare(params: ModelParams, sector: Sector,
            analytic_energies: Sequence[float],
            grid_size: int = 8192, tol: float = 1e-6) -> ComparisonReport:
    """Double-entry check of externally supplied closed-form energies.

    Analytic values are injected by the caller so this module never imports
    the formula code it is auditing.
    """
    numeric = lowest_energies(params, sector, len(analytic_energies), grid_size)
    rows = []
    for n, (ea, en) in enumerate(zip(analytic_energies, numeric)):
        rows.append(ComparisonRow(n, float(ea), float(en),
                                  abs(en - ea) / abs(ea)))
    return ComparisonReport(sector, grid_size, tol, tuple(rows))


def auto_cut(params: ModelParams, sector: Sector, n: int) -> float:
    """Domain cut leaving ~e^-60 of the state beyond the Dirichlet wall."""
    _, sigma, _ = _sector_constants(params, sector)
    return min(1.0, math.sqrt((60.0 + 15.0 * n) / sigma))


def extrapolated_limit_energy(m: float, lambda0: float, lambda_r: float,
                              n: int, J: int,
                              alphas: Sequence[float] = (4e-3, 2e-3, 1e-3),
                              grid_size: int = 16384) -> float:
    """Richardson-extrapolate deformed eigenvalues to alpha = 0.

    The deformed energy approaches its limit linearly in alpha, so three
    halved deformations eliminate the first two orders.  Used to validate
    the undeformed closed form without a separate half-line solver.
    """
    if len(alphas) != 3 or not (alphas[0] > alphas[1] > alphas[2] > 0):
        raise ValueError("alphas must be three decreasing positive values")
    if not math.isclose(alphas[0], 4 * alphas[2]) or \
            not math.isclose(alphas[1], 2 * alphas[2]):
        raise ValueError("alphas must be (4a, 2a, a) for Richardson weights")
    es = []
    for al in alphas:
        p = ModelParams(m=m, alpha=al, lambda0=lambda0, lambda_r=lambda_r)
        sec = Sector.natural(J)
        cut = auto_cut(p, sec, n)
        es.append(lowest_energies(p, sec, n + 1, grid_size, s_cut=cut)[n])
    return (8.0 * es[2] - 6.0 * es[1] + es[0]) / 3.0
