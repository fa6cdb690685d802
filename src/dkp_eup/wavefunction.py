"""Explicit radial eigenfunctions, their normalization and residual audits.

Every solved component has the closed form

    F(rho) = N * rho^a (1-rho)^b * Poly(rho),      rho = alpha r^2 in (0, 1),

where Poly = 2F1(-n, n + 2a + 2b; 2a + 1/2; rho) = n!/(ja+1)_n P_n^(ja,jb)(1-2rho)
is a Jacobi polynomial, ja = 2a - 1/2, jb = 2b - 1/2, and (a, b) comes from
``spectrum.exponents``, the one place that decides them.  Poly is evaluated
by the three-term recurrence (DLMF 18.9.2), which stays accurate at high n
where the power basis cancels, written in rho rather than x = 1 - 2 rho:

    P_{k+1} = (c0 - c1 rho) P_k - c2 P_{k-1},     s = 2k + ja + jb,
    d  = 2 (k+1)(k+ja+jb+1) s,
    c0 = (s+1) [(2k+ja)(2k+ja+2jb) + ja^2 + 2s] / d,
    c1 = 2 (s+1)(s+2) s / d,     c2 = 2 (k+ja)(k+jb)(s+2) / d.

In x the factor (s+2) s x + ja^2 - jb^2 subtracts two terms of size
jb^2 ~ 1/alpha^2 near rho = 0, where a small alpha puts the whole weight
rho^a (1-rho)^b; in rho, c0 is a sum of positive terms and nothing cancels.
The polynomial is differentiated by the shift identity (DLMF 18.9.15) and
the product rule; no finite differences enter, so residuals isolate
formula errors rather than discretization error.

Normalization uses the deformed measure: the line integral
int_0^{1/sqrt(alpha)} |F(r)|^2 (1 - alpha r^2)^{-1/2} dr, which in rho carries
the Jacobi weight rho^ja (1-rho)^jb, so it is the Jacobi norm h_n (DLMF 18.3).

One audit rule serves every build, on one equation each: its residual is the
sup over the grid of |sum of its terms|, and a residual above the tolerance
is ResidualFloor (rounding no grid lowers) when it is <= 16 (n+1)^2 eps
times the largest term, else GridTooCoarse.  phi and h0 audit Poly's
hypergeometric equation (DLMF 15.10.1) times N rho^a (1-rho)^b: that is their
rho-form equation rho (1-rho) F'' + (1/2 - rho) F' + (c_const - c_wall/(1-rho))
F = 0 once b solves 2b^2 - b = 2 c_wall, checked as a scalar, and its terms
are ~n b |F|, not b^2 |F|.  Its constant term (c_const - c_wall - 1/4 - 3b/2) P
enters as two products, as at n = 0 it is all that is left: the difference of
two numbers of size b, rounding only.  Natural parity forms H and G0 from their
first-order relations, which then hold to rounding, and audits the closure;
p = sqrt(1 - alpha r^2), Ar = lr r/p, (c, s) = (zeta, -(J+1)) for H+1 and
(xi, J) for H-1, G0 real (its phase is free when A0 != 0):

    H = -(c/m) [p F0' + s (p/r) F0 - Ar F0],     G0 = sqrt(E^2 + A0^2) F0/m,
    -p sum_c c (d/dr - s/r + Ar/p) H + (E^2 + A0^2) F0/m - m F0 = 0,

where p^2 F0''/m enters as its parts p^2 (F0'/r)/m and p^2 4 alpha rho
F_rhorho/m, which cancel as rho -> 0.

Nodes are counted from the build's own samples: Poly has degree n, so n sign
changes there are all its zeros, and only a grid that shows another count
sends ``count_nodes`` to NODE_SAMPLES Chebyshev points below the bound on them.

``_jacobi``, ``_prefactor_derivs`` and ``_natural_system`` write into arrays
allocated once per build (``out=`` and augmented assignment), each block
following the expression quoted next to it, operation for operation and in
the same order, so their results equal those expressions bit for bit.  At
2,048 points allocating each result was about 40% of a pass.  No workspace
outlives a build, and no build writes into the shared grid.  Returning from
``_prefactor_derivs`` frees w, q and rho q before ``_natural_system``
allocates its own arrays; kept alive through it, they make glibc trim the
heap after each build and fault it back in on the next, about 84 minor page
faults per build when natural builds run back to back, against none.

Grids are built once per size: ``chebyshev_grid`` keeps the last
GRID_CACHE_SIZE sizes, and every build and node count of that size shares
the one read-only array, ``RadialSolution.rho_grid`` included.  Copy it to
modify it (``sol.rho_grid.copy()``).
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import (DivergentNorm, GridTooCoarse, OutOfDomain, ResidualFloor,
                     UnsupportedRegime)
from .model import ModelParams, finite, require_index, xi_zeta
from .spectrum import exponents, level

DEFAULT_GRID_SIZE = 2048
DEFAULT_RESIDUAL_TOL = 1e-8
NODE_SAMPLES = 10000
GRID_CACHE_SIZE = 8     # grid sizes ``chebyshev_grid`` holds at once
EPS = float(np.finfo(float).eps)
# Rounding of a residual in eps times its largest term, against 16 (n + 1)^2,
# over alpha in [1e-6, 1]: hypergeometric ~3.8 at n = 1, ~300 at n = 40; the
# natural system ~3.7 and ~480 (J <= 20, lambda0 < 1, grids 16 to 16384); the
# wall check 0.82 (alpha in [1e-8, 1e4], lr in [0, 3]).
FLOOR_ULPS = 16


def _jacobi(n: int, ja: float, jb: float, rho: np.ndarray) -> np.ndarray:
    """P_n^(ja,jb)(1 - 2 rho) by the recurrence in rho (module docstring);
    0 for n < 0."""
    if n <= 0:
        return np.full_like(rho, float(n == 0))
    # prev, cur = 1, (ja + 1.0) - (ja + jb + 2.0) * rho
    prev, cur, tmp = np.ones_like(rho), np.empty_like(rho), np.empty_like(rho)
    np.multiply(rho, ja + jb + 2.0, out=cur)
    np.subtract(ja + 1.0, cur, out=cur)
    for k in range(1, n):
        s = 2 * k + ja + jb
        d = 2 * (k + 1) * (k + ja + jb + 1) * s
        c0 = (s + 1) * ((2 * k + ja) * (2 * k + ja + 2 * jb) + ja * ja + 2 * s) / d
        c1 = 2 * (s + 1) * (s + 2) * s / d
        c2 = 2 * (k + ja) * (k + jb) * (s + 2) / d
        # prev, cur = cur, (c0 - c1 * rho) * cur - c2 * prev
        np.multiply(rho, c1, out=tmp)
        np.subtract(c0, tmp, out=tmp)
        tmp *= cur
        prev *= c2
        np.subtract(tmp, prev, out=prev)
        prev, cur = cur, prev
    return cur


def _poly(a: float, b: float, n: int, rho: np.ndarray, k: int = 0) -> np.ndarray:
    """k-th rho-derivative of Poly = n!/(ja+1)_n P_n^(ja,jb)(1 - 2 rho): the i-th
    derivative multiplies by -(n+ja+jb+1+i) and moves to P_{n-1-i}^(ja+1+i,
    jb+1+i) (DLMF 18.9.15)."""
    ja, jb = 2.0 * a - 0.5, 2.0 * b - 0.5
    scale = math.prod([(i + 1) / (ja + 1 + i) for i in range(n)]
                      + [-(n + ja + jb + 1 + i) for i in range(k)])
    p = _jacobi(n - k, ja + k, jb + k, rho)
    p *= scale  # scale * P
    return p


def chebyshev_grid(size: int) -> np.ndarray:
    """Open Chebyshev grid on (0, 1), clustered at both endpoints.

    Built once per size and shared read-only between callers; copy it to
    modify it."""
    # checked before the cache, which takes 64.0 for 64; 100.5 would put a
    # point at rho = 1, and 0 would cache an empty grid
    return _chebyshev_grid(require_index("size", size, 1))


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _chebyshev_grid(size: int) -> np.ndarray:
    i = np.arange(size)
    grid = 0.5 * (1.0 - np.cos(np.pi * (i + 0.5) / size))
    grid.flags.writeable = False
    return grid


class RadialSolution(NamedTuple):
    """One bound-state radial solution sampled on a rho grid.

    The exponents (a, b), n and ``norm_constant`` reproduce the primary
    component exactly: ``evaluate_primary`` at ``rho_grid`` returns
    ``primary`` bit for bit, and evaluates the same function anywhere else.
    """

    sector: str                       # "natural" | "phi" | "h0"
    n: int
    J: int
    energy: float
    params: ModelParams
    rho_grid: np.ndarray              # shared read-only ``chebyshev_grid``
    primary: np.ndarray
    primary_name: str
    secondary: dict[str, np.ndarray]
    norm_constant: float
    residual_sup: float
    exponent_a: float
    exponent_b: float


# --- analytic derivative kernels ------------------------------------------


def _prefactor_derivs(a: float, b: float, n: int, rho: np.ndarray):
    """F, dF/drho, d2F/drho2 for F = rho^a (1-rho)^b Poly(rho) (unnormalized).

    The powers are taken once: the derivatives' prefactors rho^(a-1)
    (1-rho)^(b-1) and rho^(a-2) (1-rho)^(b-2) are w = rho^a (1-rho)^b
    divided by rho (1-rho) once and twice."""
    p0, p1, p2 = (_poly(a, b, n, rho, k) for k in range(3))
    q = 1.0 - rho
    w = rho ** a * q ** b
    rq, s, t = rho * q, q * a, rho * b
    # g1 = (a * q - b * rho) * p0 + rho * q * p1
    s -= t
    g1 = s * p0
    g1 += np.multiply(rq, p1, out=t)
    # dg1 = -(a + b) * p0 + (a * q - b * rho + q - rho) * p1 + rho * q * p2
    s += q
    s -= rho
    s *= p1
    np.multiply(p0, -(a + b), out=t)
    t += s
    p2 *= rq
    t += p2
    # g2 = ((a - 1.0) * q - (b - 1.0) * rho) * g1 + rho * q * dg1
    np.multiply(q, a - 1.0, out=s)
    s -= np.multiply(rho, b - 1.0, out=p1)
    s *= g1
    t *= rq
    s += t
    # w1 = w / (rho * q); return w * p0, w1 * g1, w1 / (rho * q) * g2
    np.divide(w, rq, out=t)
    g1 *= t
    t /= rq
    s *= t
    p0 *= w
    # returning frees w, q and rq before _natural_system allocates: kept
    # alive, they cost ~84 minor page faults per back-to-back build
    return p0, g1, s


def _natural_system(params: ModelParams, J: int, energy: float,
                    a: float, b: float, n: int, rho: np.ndarray, scale: float):
    """F0, {H_plus1, H_minus1, G0} and the terms of the closure, the one
    equation that can fail; xi^2 + zeta^2 = 1 puts p^2 F0''/m in it once."""
    al, m, lr, l0 = params.alpha, params.m, params.lambda_r, params.lambda0
    f, df, frhorho = derivs = _prefactor_derivs(a, b, n, rho)
    for d in derivs:  # scale * d
        d *= scale
    # df = 2.0 * np.sqrt(al * rho) * frho  (chain rule in rho)
    t = rho * al
    np.sqrt(t, out=t)
    t *= 2.0
    df *= t
    # r, q = np.sqrt(rho / al), 1.0 - rho; p = np.sqrt(q)
    r, q = rho / al, 1.0 - rho
    np.sqrt(r, out=r)
    p = np.sqrt(q)
    # ar, dp, pr = lr * r / p, -al * r / p, p / r
    ar, dp, pr = r * lr, r * -al, p / r
    ar /= p
    dp /= p
    # e2 = energy ** 2 + (l0 * r / p) ** 2
    e2 = r * l0
    e2 /= p
    np.square(e2, out=e2)
    e2 += energy ** 2
    # closure = [q * df / (m * r), q * 4.0 * al * rho * frhorho / m,
    #            e2 * f / m, -m * f]
    c0, c2 = q * df, e2 * f
    c0 /= np.multiply(r, m, out=t)
    np.multiply(q, 4.0, out=t)
    t *= al
    t *= rho
    frhorho *= t
    frhorho /= m
    c2 /= m
    closure = [c0, frhorho, c2, f * -m]
    # the parts of H and of dH/dr (less its -(c/m) p F0'' part) that do not
    # depend on (c, s), each formed once in the order the sums need:
    # pdf, arf = p * df, ar * f
    # dh0 = dp * df - lr / p ** 3 * f - ar * df
    # dh1 = (dp / r - p / r ** 2) * f + pr * df
    pdf, arf, dh0, dh1 = p * df, ar * f, dp * df, dp / r
    np.power(p, 3, out=t)
    np.divide(lr, t, out=t)
    t *= f
    dh0 -= t
    dh0 -= np.multiply(ar, df, out=t)
    dh1 -= np.divide(p, np.square(r, out=t), out=t)
    dh1 *= f
    dh1 += np.multiply(pr, df, out=t)
    hs = []
    xi, zeta = xi_zeta(J)
    for c, s in ((zeta, -(J + 1)), (xi, J)):
        # h = -(c / m) * (pdf + s * pr * f - arf)
        h = pr * s
        h *= f
        h += pdf
        h -= arf
        h *= -(c / m)
        # dh = -(c / m) * (dh0 + s * dh1)
        dh = dh1 * s
        dh += dh0
        dh *= -(c / m)
        # closure += (-c * p * dh, c * s * pr * h, -c * ar * h)
        dh *= np.multiply(p, -c, out=t)
        hp, ha = pr * (c * s), ar * -c
        hp *= h
        ha *= h
        closure += (dh, hp, ha)
        hs.append(h)
    # g0 = np.sqrt(e2) * f / m
    g0 = np.sqrt(e2)
    g0 *= f
    g0 /= m
    return f, {"H_plus1": hs[0], "H_minus1": hs[1], "G0": g0}, closure


# --- sector assembly -------------------------------------------------------


def _unnatural_sector_data(params: ModelParams, which: str, e2: float):
    """(c_wall, c_const - c_wall) of "phi" or "h0" at E^2 = e2, x^2/4 cancelled."""
    al = params.alpha
    x, k = params.lambda_r / al, (e2 - params.m ** 2) / (4 * al)
    if which == "phi":
        return x * (x + 1.0) / 4.0, k + 0.25 - 0.75 * x
    return x * (x - 1.0) / 4.0, k + 0.25 * x


# B_2k / (2k (2k - 1)), k = 1..6: Stirling's series for log Gamma (DLMF 5.11.1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _lgamma_shift(z: float, s: float) -> float:
    """log Gamma(z + s) - log Gamma(z) for z > 0, s >= 0.

    Two lgamma values of size z log z would cancel to ~ s log z and lose
    their common digits, so for z >= 10 Stirling's series is differenced
    term by term; its truncation error there is below 1e-15."""
    if z < 10.0:
        return math.lgamma(z + s) - math.lgamma(z)
    series = sum(c * ((z + s) ** (1 - 2 * k) - z ** (1 - 2 * k))
                 for k, c in enumerate(_STIRLING, 1))
    return (z + s - 0.5) * math.log1p(s / z) + s * (math.log(z) - 1.0) + series


def _raw_norm_integral(a: float, b: float, n: int, alpha: float) -> float:
    """int_0^1 [rho^a (1-rho)^b Poly]^2 rho^{-1/2} (1-rho)^{-1/2} drho / (2 sqrt(alpha)),

    the Jacobi norm (n!/(ja+1)_n)^2 h_n / 2^(ja+jb+1) (DLMF 18.3) through
    log Gamma; a value that is not a positive finite float raises DivergentNorm."""
    ja, jb = 2.0 * a - 0.5, 2.0 * b - 0.5
    if jb <= -1.0:
        raise DivergentNorm(f"wall exponent 2b - 1/2 = {jb} <= -1")
    value = math.exp(
        math.lgamma(n + 1) + math.lgamma(ja + 1) - _lgamma_shift(ja + 1, n)
        - _lgamma_shift(n + jb + 1, ja)
        - math.log(2 * n + ja + jb + 1)) / (2.0 * math.sqrt(alpha))
    if not 0.0 < value < math.inf:
        raise DivergentNorm(f"norm integral is {value} at the Jacobi "
                            f"parameters 2b - 1/2 = {jb:.6g}, 2a - 1/2 = {ja:.6g}")
    return value


def _residual_sup(terms) -> float:
    """Sup over the grid of |sum of terms|, NaN when any term is NaN."""
    total = terms[0] + terms[1]
    for term in terms[2:]:
        total += term
    return float(np.max(np.abs(total, out=total)))


def _residual_failure(residual: float, tol: float, n: int, grid_size: int,
                      equation: str, terms) -> Exception:
    """The error for a residual above ``tol`` by the module's audit rule
    (GridTooCoarse also for a NaN residual)."""
    term_max = float(np.max(np.abs(terms)))
    if residual <= FLOOR_ULPS * (n + 1) ** 2 * EPS * term_max:
        return ResidualFloor(
            f"residual {residual:.3e} above tolerance {tol:.1e} is rounding "
            f"in the {equation}, whose terms reach {term_max:.2e}: no grid "
            f"can reach the tolerance")
    return GridTooCoarse(f"residual {residual:.3e} above tolerance {tol:.1e} "
                         f"in the {equation} at grid size {grid_size}")


def _build(params: ModelParams, sector: str, n: int, J: int,
           grid_size: int, tol: float) -> RadialSolution:
    """The normalized solution of ``sector``, gated on its residual audit."""
    require_index("grid_size", grid_size, 2)  # 100.5: a point at rho = 1
    energy = level(params, sector, n, J).value
    a, b = exponents(params, sector, J)
    finite("wall exponent term (2b)^2", lambda: 4.0 * b * b)  # F'', the wall check
    if sector != "natural":  # b solves the indicial equation 2b^2 - b = 2 c_wall
        c_wall, c_diff = _unnatural_sector_data(params, sector, energy ** 2)
        if not (abs(2.0 * b * b - b - 2.0 * c_wall)
                <= FLOOR_ULPS * EPS * (2.0 * b * b + b + 2.0 * abs(c_wall))):
            raise GridTooCoarse(f"wall exponent b = {b!r} misses 2b^2 - b = 2 c_wall")
    n1 = 1.0 / math.sqrt(_raw_norm_integral(a, b, n, params.alpha))
    rho = chebyshev_grid(grid_size)
    try:
        with np.errstate(over="raise", invalid="raise"):
            if sector == "natural":
                f, secondary, terms = _natural_system(params, J, energy, a, b,
                                                      n, rho, n1)
                name, equation = "F0", "closure of the first-order system"
            else:  # N w [rho q P'' + (2a + 1/2 - (2a+2b+1) rho) P'
                #            + c_diff P - (1/4 + 3b/2) P]
                p0, p1, p2 = (_poly(a, b, n, rho, k) for k in range(3))
                q = 1.0 - rho
                w = rho ** a * q ** b
                f, nw = (p0 * w) * n1, n1 * w
                # the last two stay apart: at n = 0 they are all there is, and
                # their difference is rounding that their own size must scale
                terms = (nw * (rho * q * p2),
                         nw * ((2.0 * a + 0.5 - (2.0 * (a + b) + 1.0) * rho) * p1),
                         nw * (c_diff * p0), nw * (-(0.25 + 1.5 * b) * p0))
                secondary, equation = {}, "hypergeometric equation"
                name = "phi" if sector == "phi" else "H0"
            residual_sup = _residual_sup(terms)
    except FloatingPointError:
        raise UnsupportedRegime(
            f"the Jacobi polynomial P_{n} or its derivatives overflow the "
            f"float range at alpha = {params.alpha:g}, wall exponent "
            f"b = {b:.6g}") from None
    if not np.any(f):
        raise UnsupportedRegime(
            f"the weight rho^a (1-rho)^b, b = {b:.6g}, underflows to 0 at every "
            f"grid point at alpha = {params.alpha:g}: the sample would audit "
            f"nothing")
    if not residual_sup <= tol:
        raise _residual_failure(residual_sup, tol, n, grid_size, equation,
                                terms)
    return RadialSolution(
        sector=sector, n=n, J=J, energy=energy, params=params, rho_grid=rho,
        primary=f, primary_name=name, secondary=secondary, norm_constant=n1,
        residual_sup=residual_sup, exponent_a=a, exponent_b=b)


def natural_solution(params: ModelParams, n: int, J: int,
                     grid_size: int = DEFAULT_GRID_SIZE,
                     tol: float = DEFAULT_RESIDUAL_TOL) -> RadialSolution:
    """Normalized natural-parity solution and its closure-equation residual."""
    return _build(params, "natural", n, J, grid_size, tol)


def unnatural_solution(params: ModelParams, n: int, which: str,
                       grid_size: int = DEFAULT_GRID_SIZE,
                       tol: float = DEFAULT_RESIDUAL_TOL) -> RadialSolution:
    """Normalized solution of a decoupled unnatural sector ("phi" or "h0"),
    audited on its polynomial's hypergeometric equation: the printed first-order
    unnatural system is not mutually consistent and is not used here."""
    if which not in ("phi", "h0"):
        raise ValueError(f"unknown unnatural sector {which!r}")
    return _build(params, which, n, 0, grid_size, tol)


def evaluate_primary(sol: RadialSolution, rho) -> np.ndarray:
    """Evaluate the primary component analytically at any rho in [0, 1],
    in the build's order of operations, so that at ``sol.rho_grid`` it
    returns ``sol.primary`` bit for bit; a point outside the ball, or not
    finite, raises OutOfDomain."""
    rho = np.asarray(rho, dtype=float)
    outside = ~((rho >= 0.0) & (rho <= 1.0))  # NaN compares False
    if np.any(outside):
        raise OutOfDomain(f"rho = {rho[outside].flat[0]} is outside [0, 1], "
                          f"the deformation ball alpha r^2 <= 1")
    a, b = sol.exponent_a, sol.exponent_b
    w = rho ** a * (1.0 - rho) ** b
    return (_poly(a, b, sol.n, rho) * w) * sol.norm_constant


def deformed_norm(sol: RadialSolution, params: ModelParams) -> float:
    """Norm of the primary component under the deformed measure.

    In the rho variable the measure is a Jacobi weight, so the integral is
    the closed-form Jacobi norm of the polynomial part.
    """
    raw = _raw_norm_integral(sol.exponent_a, sol.exponent_b, sol.n,
                             params.alpha)
    return sol.norm_constant ** 2 * raw


def count_nodes(sol: RadialSolution) -> int:
    """Interior sign changes of the primary component (Sturm oscillation).

    N rho^a (1-rho)^b is positive on (0, 1) and cannot change a sign, so the
    zeros are those of the polynomial, of degree n: it has at most n, and n
    sign changes on any grid is the exact count.  The build's own samples
    are counted first; their sign bits survive where the weight underflows,
    as 0 times a negative value is -0.0.  Only when they show another count
    (fewer where zeros lie closer than the build grid resolves) is the
    polynomial alone sampled on ``_node_grid``, below the bound on its
    zeros; a zero past it could only lower the count, never fake n.
    Neighbours are compared by sign bit, not by their product, which
    underflows to 0 below ~1e-154 and hides a change."""
    nodes = _sign_changes(sol.primary)
    if nodes == sol.n:
        return nodes
    return _sign_changes(_poly(sol.exponent_a, sol.exponent_b, sol.n,
                               _node_grid(sol)))


def _sign_changes(values: np.ndarray) -> int:
    sign = np.signbit(values)
    return int(np.count_nonzero(sign[:-1] != sign[1:]))


def _node_grid(sol: RadialSolution) -> np.ndarray:
    """The NODE_SAMPLES Chebyshev points ``count_nodes`` samples, on (0, c)
    when c = (4n + 2ja + 10)/jb < 1/2, else on (0, 1).  As jb grows,
    P_n^(ja,jb)(1 - 2x/jb) tends to the Laguerre L_n^(ja)(x), whose zeros
    lie below 4n + 2ja + 2, so every zero lies below c: at most at 0.851 c
    over n <= 40, ja <= 80.5 and jb up to 1e9 (scipy's ``roots_jacobi``)."""
    ja, jb = 2.0 * sol.exponent_a - 0.5, 2.0 * sol.exponent_b - 0.5
    bound = 4 * sol.n + 2 * ja + 10
    scale = bound / jb if 2 * bound < jb else 1.0
    return scale * chebyshev_grid(NODE_SAMPLES)


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
