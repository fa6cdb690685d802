"""Independent numerical eigensolver for the reduced second-order equations.

Validates every closed-form spectrum without touching the analytic-spectrum
code path: this module depends only on numpy, :mod:`dkp_eup.model` and
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
converge at twice the nominal second-order rate of the scheme.

The matrix is -G^T G, G = diag(sqrt(p)) D W^(-1/2) with D the difference
matrix and p the face flux P/h^2, on the cells where W^(1/2) is at least
HW_FLOOR of its peak (``discretize``); G on those cells is all it holds.
Its top eigenvalue is exactly 0, the constant u, and gives level 0 with no
arithmetic.  The next levels come from a certified Lanczos solve
(``solve_lowest``) on the pseudo-inverse of G^T G, which running sums apply
without forming the matrix (``_RunningSums``), so that nothing rounds at
eps ||G^T G||.  It stops as soon as the gap theorem (Parlett, *The
Symmetric Eigenvalue Problem*, sec. 11.7) bounds every wanted Ritz value by
the square of its residual over its distance to the rest of the spectrum;
the gaps it uses are proven by disjoint Ritz intervals and one Sturm count
of G^T G, formed from p and W^(1/2) (``_sturm_count``, odd-even
reduction), before any level is returned.

What depends on the grid size alone is built once per size and shared
read-only: the cell centers and the logarithms of the faces and centers
(``_grid``).  ``DiscretizedProblem.s_nodes`` is a read-only view of the
kept cells of that shared array of centers; copy it to modify it.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (ComplexEnergy, ComplexExponent, NonConvergence,
                     UnsupportedRegime)
from .model import ModelParams, finite, require_finite, require_index

RITZ_TOL = 1e-14
EPS = float(np.finfo(float).eps)
GRID_CACHE_SIZE = 8     # grid sizes whose ``_grid`` arrays are held at once
SEQUENTIAL_ROWS = 128   # rows the cyclic Sturm count leaves to the pivots
HW_FLOOR = EPS          # least W^(1/2), relative to its peak, of a kept cell


class Sector(NamedTuple):
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
    sqrt(D) = 2 sqrt(Q)/alpha.  A NaN or inf field is named before any use.
    """
    require_finite(params)
    m, al, l0, lr = params.m, params.alpha, params.lambda0, params.lambda_r
    if al <= 0:
        raise UnsupportedRegime("the eigensolver needs alpha > 0")
    if sector.kind in ("phi", "h0") and l0 != 0:
        raise UnsupportedRegime(f"{sector.kind} sector requires lambda0 = 0")
    if sector.kind == "natural":
        q = finite("Q = lr^2 - l0^2 + alpha*lr + alpha^2/4",
                   lambda: lr * lr - l0 * l0 + al * lr + al * al / 4.0)
        if q < 0:
            # divided twice: al ** 2 underflows to 0 below al ~ 1e-162
            raise ComplexExponent(4.0 * q / al / al)
        J = require_index("J", sector.J)
        c = J + 1.5
        sigma = lambda: (2 * J + 3) / 2.0 + math.sqrt(q) / al
        offset = lambda: (m * m + lr + al * (4 * J + 5) / 2.0
                          + (2 * J + 3) * math.sqrt(q))
    elif sector.kind == "phi":
        c = 1.5
        sigma = lambda: 2.0 + lr / al
        offset = lambda: m * m + 6.0 * lr + 3.0 * al
    elif sector.kind == "h0":
        c = 1.5
        sigma = lambda: 1.0 + lr / al
        offset = lambda: m * m + 2.0 * lr + al
    else:
        raise ValueError(f"unknown sector kind {sector.kind!r}")
    return c, finite("sigma = 2(a+b)", sigma), finite("the E^2 offset", offset)


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


class DiscretizedProblem(NamedTuple):
    """G = diag(sqrt(flux)) D diag(1/half_weight) on the kept cells, one
    entry of s_nodes and half_weight each, plus the eigenvalue map."""

    grid_size: int               # cells on the whole ball, kept or not
    s_nodes: np.ndarray          # kept cell centers in s = sqrt(rho), read-only
    half_weight: np.ndarray      # W^(1/2) at s_nodes, scaled to max 1
    flux: np.ndarray             # p = P/h^2 on the inner faces of the kept cells
    e2_offset: float
    e2_scale: float              # E^2 = e2_offset + e2_scale * matrix_eigenvalue


def discretize(params: ModelParams, sector: Sector,
               grid_size: int) -> DiscretizedProblem:
    """G of grid_size uniform cells on the ball, on the cells it keeps.

    W^(1/2), divided by its largest value, is formed in log space because
    the wall factor (1-s^2)^(sigma-C) spans hundreds of orders of magnitude
    for small alpha; it only underflows, to 0.  The kept cells run from the
    first to the last where it is at least HW_FLOOR, and their end faces
    are walls, like s = 0 and s = 1, which carry no flux.  The cells cut
    carry less than HW_FLOOR^2 ~ 5e-32 of the peak weight, so the flux
    through those faces, p u^2 with p below n^2 HW_FLOOR^2, moves level 0
    (u = 1) by less than a rounding unit.  Level n's u has degree n in rho
    and reaches further out: at alpha 1e-3 and 1e-4 the cut moves levels
    15 to 20 by up to 7.9e-3 relative, at any grid (ROADMAP.md: size the
    cut for the highest wanted level).  The cut also leaves out the rows
    of G^T G whose diagonal grows with the steepness of W at the walls
    (2^(2J+2) n^2 in the first cell; past the float range at s = 1 for
    small alpha), which would make every norm-wise allowance of the
    certificate exceed the level gaps.

    ``s_nodes`` is a read-only view of the kept cells of the shared centers
    (``_grid``), ``half_weight`` is W^(1/2) on them, and ``flux`` p on their
    inner faces, scaled like ``half_weight`` squared: P/(h^2 sqrt(W W'))
    from the logs, times the two W^(1/2).  No kept W is below HW_FLOOR^2 of
    the peak, so nothing overflows, and every array is finite.
    """
    n = require_index("grid_size", grid_size, 2)  # 100.5: a centre at s = 1
    c, sigma, offset = _sector_constants(params, sector)
    centers, log_f, log1m_f2, log_c, log1m_c2 = _grid(n)
    pw, qw = 2.0 * c - 1.0, sigma - c
    with np.errstate(over="ignore"):    # -inf only where W^(1/2) is 0 anyway
        log_w = pw * log_c + qw * log1m_c2
    half_weight = np.exp(0.5 * (log_w - log_w.max()))
    inside = half_weight >= HW_FLOOR
    first, stop = int(np.argmax(inside)), n - int(np.argmax(inside[::-1]))
    hw, log_w = half_weight[first:stop], log_w[first:stop]

    # inner face first + i lies between kept cells i and i + 1
    log_p = pw * log_f[first:stop - 1] + (qw + 1) * log1m_f2[first:stop - 1]
    off = np.exp(log_p - 0.5 * (log_w[:-1] + log_w[1:])
                 - 2.0 * math.log(1.0 / n))
    # matrix eigenvalue lam = 4 mu, so E^2 = offset - alpha * lam
    return DiscretizedProblem(
        grid_size=n, s_nodes=centers[first:stop], half_weight=hw,
        flux=off * hw[:-1] * hw[1:], e2_offset=offset,
        e2_scale=-params.alpha)


class _RunningSums:
    """The pseudo-inverse of G^T G on the kept cells of ``discretize``,
    applied by running sums, and the data of its certificate.

    G^T G x = y, x orthogonal to the null vector W^(1/2), is solved by three
    sums: the flux f = P u' obeys D^T f = W^(1/2) y, so f is a running sum of
    W^(1/2) y, taken from the nearer side of the weight peak, where it starts
    from zero at a wall; u is a running sum of f/p, anchored at the peak; and
    x is W^(1/2) u.  The input loses its component along W^(1/2) first, so
    that the map is the pseudo-inverse on every vector once the output loses
    it too, which ``solve_lowest``'s reorthogonalization does.

    The Sturm count runs on (diag, off), the block -G^T G formed from p and
    W^(1/2): off = p/(W^(1/2) W'^(1/2)), and each diagonal entry is minus
    the sum of p/W over the two faces of its cell.  ``omega`` bounds the
    2-norm of the rounding of forming it.
    """

    def __init__(self, problem: DiscretizedProblem, k: int):
        self.hw = hw = problem.half_weight
        if hw.size < k:
            raise UnsupportedRegime(
                f"grid {problem.grid_size} is too coarse for alpha = "
                f"{-problem.e2_scale:g}: only {hw.size} cells carry a weight "
                f"W^(1/2) above {HW_FLOOR:.1e} of its peak, fewer than the "
                f"{k} levels asked for")
        p = problem.flux
        self.inv_p = 1.0 / p
        self.null = hw / math.sqrt(hw @ hw)
        self.hw_null = hw * self.null
        self.peak = int(np.argmax(hw))
        self._t, self._g = np.empty(hw.size), np.empty(hw.size - 1)
        # For a unit y, Cauchy-Schwarz bounds each flux by the 2-norm of
        # W^(1/2) on the nearer side of its face, and so u by the outward
        # sums of those norms over p.  A running sum of m terms errs by at
        # most m eps times the sum of their moduli: the projection of the
        # input, the two sums, the reciprocal and the products err by at
        # most (4m + 10) eps ||x||.
        bound = hw * self._outward(hw * hw, root=True)
        self.rounding = (4 * hw.size + 10) * EPS * math.sqrt(bound @ bound)
        # Each off errs by 2 eps of itself and each diagonal term, through
        # the ratio, by 4 eps, so their sum by 5 eps of the entry: by
        # Gershgorin the rounding's 2-norm is below omega.
        ratio = hw[1:] / hw[:-1]
        self.off = off = p / (hw[:-1] * hw[1:])
        self.diag = np.zeros(hw.size)
        self.diag[:-1] -= off * ratio
        self.diag[1:] -= off / ratio
        self.omega = 8 * EPS * float(np.max(np.abs(self.diag))
                                     + 2 * np.max(off))

    def __call__(self, y: np.ndarray) -> np.ndarray:
        t = np.multiply(self.hw, y, out=self._t)
        t -= (self.null @ y) * self.hw_null
        x = self._outward(t)
        x *= self.hw
        return x

    def _outward(self, t: np.ndarray, root: bool = False) -> np.ndarray:
        """u: the running sums of t from each wall to the faces on its side
        of the peak (their square roots if ``root``), over p, summed
        outward from u = 0 at the peak.  For t = W^(1/2) y the flux is
        minus the first sum left of the peak and the sum itself right of
        it, so u has the same sign on both sides."""
        peak, m, g = self.peak, t.size, self._g
        np.cumsum(t[:peak], out=g[:peak])
        np.cumsum(t[:peak:-1], out=g[::-1][:m - 1 - peak])
        if root:
            np.sqrt(g, out=g)
        g *= self.inv_p
        u = np.empty(m)
        u[peak] = 0.0
        np.cumsum(g[peak:], out=u[peak + 1:])
        np.cumsum(g[:peak][::-1], out=u[peak::-1][1:])
        return u


def _start_poly(s_nodes: np.ndarray, k: int) -> np.ndarray:
    """rho + rho^2 + ... + rho^(k-1) at the cell centers s_nodes."""
    return np.polyval(np.append(np.ones(k - 1), 0.0), s_nodes ** 2)


def solve_lowest(problem: DiscretizedProblem, k: int) -> np.ndarray:
    """The k smallest E^2 values, ascending (largest matrix eigenvalues).

    The matrix -G^T G (``discretize``) has the largest eigenvalue 0,
    exactly, with the null vector W^(1/2): level 0 is ``e2_offset``.
    Lanczos with full reorthogonalization runs on the pseudo-inverse of
    G^T G, applied by running sums (``_RunningSums``); its k - 1 largest
    eigenvalues theta give the other wanted lambda = -1/theta, and numpy's
    ``eigh`` diagonalizes the small projected matrix.  From step k + 1 on,
    each step bounds the error of every wanted Ritz value theta_i, with
    residual r_i = |beta_j s_ji|, by the gap theorem (Kato-Temple; Parlett,
    *The Symmetric Eigenvalue Problem*, sec. 11.7): err_i = min(r_i,
    r_i^2/gap_i), where gap_i is the distance from theta_i to the
    neighbouring Ritz intervals and, below the lowest one, to the floor of
    the Sturm count.  It stops when every err_i, mapped to lambda, is at
    most RITZ_TOL * max(1, |lambda|); the levels are then certified by
    ``_certify``, which alone proves the gaps, or NonConvergence is raised.
    A count that finds more than k levels means the next Ritz value is
    still too poor to place the floor, so it costs further steps; it
    raises only when no step is left.

    The start is W^(1/2) (rho + rho^2 + ... + rho^(k-1)), formed on the
    kept ``s_nodes`` at every solve (``_start_poly``), less its component
    along W^(1/2).  L maps polynomials in rho of degree < k to
    themselves, so the eigenfunctions of the k lowest levels span exactly
    those polynomials, and the similarity turns them into the wanted
    eigenvectors W^(1/2) u up to the O(h^2) error of the scheme: the start
    lies almost in the span of levels 1 to k - 1.  It has no constant term,
    because that term is the null vector: projected out of the start, it
    would leave rounding noise of its own size in the wanted span, which
    held level 4 at a floor of ~2e-11.  A poor start costs steps only; the
    certificate does not depend on it.

    The certified radius of theta_i adds to r_i the rounding of the
    recurrence, m eps theta_0 on the m kept cells, and that of
    the running sums: sqrt(j) times the bound ``_RunningSums.rounding`` of
    one of the j applications, since the coefficients of a unit Ritz vector
    have a 2-norm of 1.  ``_certify`` widens the intervals, mapped to
    lambda, by the rounding of the block that it counts.  Mapped to lambda,
    the radius is a half-width of about radius * lambda^2: tight for the
    low levels, loose far from them, which a coarse grid reaches with k
    near its size.  At h0, m = 1, lambdaR = 1, alpha 0.02, grid 4, k 4 the
    last lambda, -1.344e14, is certified to +-2.4e11, and lies 1.3e-3 from
    an exact tridiagonal eigensolver: the running sums resolve a level only
    to about eps |lambda/lambda_1|.
    """
    k = require_index("k", k, 1)
    if k > problem.grid_size:
        raise ValueError(f"{k} levels need a grid of at least {k} cells, "
                         f"got grid_size {problem.grid_size}")
    levels = np.full(k, problem.e2_offset)
    if k == 1:
        return levels
    sums = _RunningSums(problem, k)
    m, want = sums.hw.size, k - 1
    # row 0 is the null vector, row j + 1 the j-th Lanczos vector; 61 rows
    # for k = 5: at grid 8192 the basis stays under the 4 MiB from which
    # numpy backs an array with huge pages, which would raise the RSS
    steps = min(m - 1, 40 + 4 * k)
    basis = np.empty((steps + 1, m))
    basis[0] = sums.null
    projected = np.zeros((steps, steps))     # the Lanczos alphas, betas below
    start = sums.hw * _start_poly(problem.s_nodes, k)
    start -= (sums.null @ start) * sums.null
    basis[1] = start / math.sqrt(start @ start)
    worst = math.inf
    for j in range(steps):
        q = basis[j + 1]
        w = sums(q)
        projected[j, j] = q @ w
        i = max(j - 1, 0)       # w -= beta_(j-1) q_(j-1) + alpha_j q_j
        w -= projected[j, i:j + 1] @ basis[i + 1:j + 2]
        # full reorthogonalization, which also takes the null component
        # out of the running sums' output
        h = basis[:j + 2] @ w
        w -= h @ basis[:j + 2]
        projected[j, j] += h[j + 1]
        # the Krylov space spans at most the m - 1 dimensions orthogonal
        # to the null vector; once it does, it is invariant: beta is 0
        beta = math.sqrt(w @ w) if j + 1 < m - 1 else 0.0
        last = j + 1 == steps or not beta > 0.0
        if j + 1 > want + 1 or (j + 1 >= want and last):
            ritz, s = np.linalg.eigh(projected[:j + 1, :j + 1])
            # a handful of values: plain floats are cheaper than arrays
            theta = ritz[:-want - 1:-1].tolist()
            r = [abs(beta * x) for x in s[j, :-want - 1:-1].tolist()]
            floor = m * EPS * theta[0] + math.sqrt(j + 1) * sums.rounding
            radius = [x + floor for x in r]
            worst = math.inf
            if all(t > x for t, x in zip(theta, radius)):
                below = (-1.0 / ritz[-want - 1]
                         if j + 1 > want and ritz[-want - 1] > 0 else -math.inf)
                vl = _count_floor(theta[-1], radius[-1], sums.omega, below)
                upper = [math.inf] + [t - x for t, x in zip(theta[:-1],
                                                             radius[:-1])]
                lower = [t + x for t, x in zip(theta[1:], radius[1:])]
                worst = max(map(_mapped_gap_bound, theta, r, upper,
                                lower + [-1.0 / vl]))
            if worst <= RITZ_TOL:
                count = _certify(sums, theta, radius, vl)
                if count == k:
                    levels[1:] -= problem.e2_scale / np.array(theta)
                    return levels
                if count < k or last:
                    raise NonConvergence(f"Sturm count finds {count} eigenvalues "
                                         f"above {vl:.6g}, not {k}")
        if last:
            break
        projected[j + 1, j] = beta
        np.multiply(w, 1.0 / beta, out=basis[j + 2])
    cause = (f"the worst gap bound is {worst:.3g} of max(1, |lambda|), "
             f"above RITZ_TOL = {RITZ_TOL:g}" if worst < math.inf
             else "a Ritz interval reaches theta = 0")
    raise NonConvergence(f"Lanczos did not converge on {k} levels in "
                         f"{j + 1} steps: {cause}")


def _mapped_gap_bound(theta: float, r: float, upper: float,
                      lower: float) -> float:
    """The gap theorem's error bound min(r, r^2/gap) of the Ritz value
    theta between the Ritz intervals ending at ``upper`` and ``lower``,
    mapped to lambda = -1/theta as 1/(theta - err) - 1/theta, relative to
    max(1, |lambda|)."""
    gap = min(upper - theta, theta - lower)
    err = r * r / gap if gap > r else r
    return err / (theta * (theta - err)) / max(1.0, 1.0 / theta)


def _count_floor(theta: float, radius: float, omega: float,
                 below: float) -> float:
    """Floor vl of the Sturm count's interval (vl, inf).

    lo, the lower end of the lowest Ritz interval theta +- radius mapped to
    lambda and widened by omega (``_RunningSums``), must lie above vl by
    half the gap down to ``below``, the next Ritz value, and by at most
    1 + |lo|, so that rounding in the count would have to move an
    eigenvalue by that much.  A ``below`` that is not below lo is treated
    as unknown.
    """
    lo = -1.0 / (theta - radius) - omega
    if not below < lo:
        below = -math.inf
    return max(0.5 * (lo + below), lo - 1.0 - abs(lo))


def _certify(sums: _RunningSums, theta: list[float], radius: list[float],
             vl: float) -> int:
    """Check that the descending Ritz values theta, each within radius
    (< theta) of an eigenvalue of the pseudo-inverse of G^T G, are its
    len(theta) largest, so that with level 0 they are the k = len(theta) + 1
    largest eigenvalues of -G^T G.

    Mapped to lambda, each interval is widened by omega, which bounds the
    rounding of the block (diag, off) of ``_RunningSums``, so that it holds
    an eigenvalue of that block, and level 0 is [-omega, omega].  The k
    intervals must be disjoint, so that each holds its own eigenvalue, or
    NonConvergence is raised.  The return value is a Sturm count
    (``_sturm_count``) of the eigenvalues of the block above vl, with vl
    from ``_count_floor``: the levels are certified, none missed, only when
    it is k.
    """
    omega = sums.omega
    lo = [-omega] + [-1.0 / (t - x) - omega for t, x in zip(theta, radius)]
    hi = [omega] + [-1.0 / (t + x) + omega for t, x in zip(theta, radius)]
    if not all(a > b for a, b in zip(lo[:-1], hi[1:])):
        raise NonConvergence("Ritz intervals overlap")
    return _sturm_count(sums.diag, sums.off, vl, lo[-1] - vl)


def _sturm_count(diag: np.ndarray, off: np.ndarray, shift: float,
                 slack: float) -> int:
    """The number of eigenvalues above ``shift`` of the symmetric
    tridiagonal T = (diag, off), exact for a matrix within ``slack`` of it
    in the 2-norm: the count of T itself when no eigenvalue lies within
    ``slack`` of ``shift``.

    Odd-even (cyclic) reduction: each level eliminates every other row of
    B = T - shift I by a congruence, which keeps the inertia (Sylvester;
    Haynsworth for the Schur complement), and counts the positive pivots;
    B's positive eigenvalues are T's above ``shift``.  The last
    SEQUENTIAL_ROWS rows go to ``_pivot_count``.  Each level rounds its
    Schur complement in the kept rows only, so the count is exact for B
    plus the sum of those roundings, whose row sums are at most 8 eps times
    the sum over the levels of the largest |a|, b^2/|pivot| on either side
    and new |b|.  The new |b| is at most half the sum of the two b^2/|pivot|
    of its pivot, and the largest |a| grows by at most the largest two.  A
    pivot is too small when its b^2/|pivot| brings that bound to ``slack``:
    then B is counted by ``_pivot_count`` alone, or NonConvergence is
    raised if even its bound reaches ``slack``.
    """
    a, b = diag - shift, off
    size = float(np.max(np.abs(a)))
    bound = EPS * size
    count = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while a.size > SEQUENTIAL_ROWS:
            piv, bl, br = a[1::2], b[0::2], b[1::2]
            count += int(np.count_nonzero(piv > 0))
            inv = 1.0 / piv
            x = bl * inv                   # b^2/pivot onto the kept row
            x *= bl                        # left of each pivot,
            y = br * inv[:br.size]
            b = bl[:br.size] * y           # the new coupling (its sign
            y *= br                        # does not change the inertia)
            a = a[0::2].copy()             # and onto the row right of it
            a[:x.size] -= x
            a[1:1 + y.size] -= y
            schur = np.abs(x, out=x).max() + np.abs(y, out=y).max(initial=0.0)
            bound += 8 * EPS * (size + 1.5 * schur)
            size += schur
    if bound + _pivot_bound(a, b) < slack:     # False for a NaN or inf
        return count + _pivot_count(a, b)
    a = diag - shift
    if EPS * np.max(np.abs(a)) + _pivot_bound(a, off) < slack:
        return _pivot_count(a, off)
    raise NonConvergence(f"the Sturm count at {shift:.6g} cannot be "
                         f"resolved within {slack:.3g}")


def _pivot_bound(diag: np.ndarray, off: np.ndarray) -> float:
    """The backward error of ``_pivot_count``: 4 eps of the largest row sum
    of |(diag, off)|, plus the pivmin that replaces a tiny pivot."""
    rows = np.abs(diag)
    rows[:-1] += np.abs(off)
    rows[1:] += np.abs(off)
    return 4 * EPS * float(np.max(rows)) + _pivmin(off)


def _pivmin(off: np.ndarray) -> float:
    """The smallest pivot magnitude ``_pivot_count`` keeps, as in LAPACK's
    dstebz: the smallest normal float times max(1, max b^2)."""
    big = max(1.0, float(np.max(np.abs(off), initial=0.0)))
    return float(np.finfo(float).tiny) * big * big


def _pivot_count(diag: np.ndarray, off: np.ndarray) -> int:
    """The positive pivots q_i = d_i - b_(i-1)^2/q_(i-1) of (diag, off), which
    are its positive eigenvalues (Barth, Martin & Wilkinson, Numer. Math.
    1967); a pivot below pivmin becomes -pivmin.  The count is exact for
    relative perturbations of a few eps of every entry (Kahan, Stanford
    CS41, 1966), which ``_pivot_bound`` bounds."""
    pivmin, count, q = _pivmin(off), 0, 1.0
    for d, e in zip(diag.tolist(), [0.0, *off.tolist()]):
        q = d - e * (e / q)
        if abs(q) < pivmin:
            q = -pivmin
        count += q > 0
    return count


def lowest_energies(params: ModelParams, sector: Sector, n_levels: int,
                    grid_size: int) -> np.ndarray:
    """The n_levels lowest plus-branch energies on the ball; E^2 < 0 raises."""
    e2 = solve_lowest(discretize(params, sector, grid_size), n_levels)
    if e2.min() < 0:
        raise ComplexEnergy(float(e2.min()))
    return np.sqrt(e2)


class ComparisonRow(NamedTuple):
    n: int
    analytic: float
    numeric: float
    rel_error: float


class ComparisonReport(NamedTuple):
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

