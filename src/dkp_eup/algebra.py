"""Exact matrix algebra of the spin-one sector and the deformed operators.

Two independent verification layers live here:

* the 10x10 matrix representation (four beta matrices, spin matrices,
  projector) over Gaussian integers, checked in complex128 arithmetic that
  is asserted exact;
* the deformed position/momentum operators X_i = x_i/sqrt(1 - alpha r^2),
  P_i = -i sqrt(1 - alpha r^2) d_i, whose commutation relations are checked
  by applying both operator orderings symbolically to polynomial test
  functions and evaluating pointwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlgebraInconsistent, OutOfDomain

METRIC = (1, -1, -1, -1)


def _exact(*arrays: np.ndarray) -> None:
    """Raise AlgebraInconsistent unless every entry is a Gaussian integer
    below 2^53 in each part, where complex128 arithmetic is exact."""
    for a in arrays:
        parts = np.stack([a.real, a.imag])
        if not np.all((np.abs(parts) < 2.0 ** 53) & (parts == np.round(parts))):
            raise AlgebraInconsistent("matrix entries leave the exactly "
                                      "representable Gaussian integers")


def spin_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The usual 3x3 spin-one generators (S^j)_{kl} = -i eps_{jkl}."""
    return tuple(-1j * np.array([[_levi_civita(j, k, lo) for lo in range(3)]
                                 for k in range(3)])
                 for j in range(3))


def _levi_civita(i: int, j: int, k: int) -> int:
    if (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        return 1
    if (i, j, k) in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
        return -1
    return 0


@dataclass(frozen=True)
class DkpMatrixSet:
    """The four 10x10 beta matrices plus the spin matrices and the metric,
    as complex128 arrays whose entries are Gaussian integers."""

    beta: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    spin: tuple[np.ndarray, np.ndarray, np.ndarray]
    metric: tuple[int, int, int, int] = METRIC


def build_matrices() -> DkpMatrixSet:
    """Assemble the block form of the 10x10 representation.

    Component order: (scalar, F 3-vector, G 3-vector, H 3-vector).
    beta^0 couples F and G with unit blocks; beta^k couples the scalar to
    the G row via the unit row vector u^k and F to H via -i S^k.
    """
    spins = spin_matrices()
    b0 = np.zeros((10, 10), dtype=np.complex128)
    b0[1:4, 4:7] = b0[4:7, 1:4] = np.eye(3)
    beta = [b0]
    for k in range(3):
        bk = np.zeros((10, 10), dtype=np.complex128)
        bk[0, 4 + k] = 1
        bk[4 + k, 0] = -1
        bk[1:4, 7:10] = bk[7:10, 1:4] = -1j * spins[k]
        beta.append(bk)
    return DkpMatrixSet(tuple(beta), spins)


@dataclass(frozen=True)
class AlgebraReport:
    """Result of checking the trilinear identities over all index triples."""

    violations: tuple[tuple[int, int, int], ...]
    triples_checked: int

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        if self.passed:
            return ""
        return "\n".join(
            f"triple (sigma={s}, kappa={k}, lambda={lo}): identity violated"
            for s, k, lo in self.violations)


def verify_algebra(mats: DkpMatrixSet) -> AlgebraReport:
    """Check b^s b^k b^l + b^l b^k b^s = g^{sk} b^l + g^{kl} b^s exactly.

    All 64 (sigma, kappa, lambda) triples.  The entries of the matrices and
    of each left-hand side are asserted to be Gaussian integers below 2^53.
    """
    b = mats.beta
    g = mats.metric
    _exact(*b)
    bad = []
    for s in range(4):
        for k in range(4):
            for lo in range(4):
                lhs = b[s] @ b[k] @ b[lo] + b[lo] @ b[k] @ b[s]
                rhs = (g[s] if s == k else 0) * b[lo] + \
                    (g[k] if k == lo else 0) * b[s]
                _exact(lhs)
                if not np.array_equal(lhs, rhs):
                    bad.append((s, k, lo))
    return AlgebraReport(tuple(bad), 64)


@dataclass(frozen=True)
class ProjectorMatrix:
    matrix: np.ndarray

    def diagonal(self) -> list[complex]:
        return [complex(v) for v in np.diag(self.matrix)]


def build_projector(mats: DkpMatrixSet) -> ProjectorMatrix:
    """P = b^mu b_mu - 2, selecting the (scalar, F) components.

    Raises :class:`AlgebraInconsistent` unless the result is exactly
    idempotent and Hermitian.
    """
    b = mats.beta
    _exact(*b)
    p = sum(g * (bm @ bm) for g, bm in zip(mats.metric, b)) - 2 * np.eye(10)
    pp = p @ p
    _exact(p, pp)
    if not np.array_equal(pp, p) or not np.array_equal(p, p.conj().T):
        raise AlgebraInconsistent("beta^mu beta_mu - 2 is not a projector")
    return ProjectorMatrix(p)


# ---------------------------------------------------------------------------
# Deformed commutators on polynomial test functions.
#
# Functions are finite sums  c * w^s * x^ex y^ey z^ez  with w = sqrt(1-a r^2)
# and integer s; this family is closed under X_i and P_i:
#   X_i (w^s m) = w^{s-1} (x_i m)
#   P_i (w^s m) = -i w^{s+1} d_i m + i s a x_i w^{s-1} m
# so commutators can be formed without any finite differencing.
# ---------------------------------------------------------------------------

PolyFunction = dict  # {(s, ex, ey, ez): complex}


def monomial(ex: int, ey: int, ez: int) -> PolyFunction:
    return {(0, ex, ey, ez): 1.0 + 0.0j}


def monomial_basis(max_degree: int = 6) -> list[PolyFunction]:
    """All monomials x^i y^j z^k with i + j + k <= max_degree."""
    return [monomial(i, j, k)
            for i in range(max_degree + 1)
            for j in range(max_degree + 1)
            for k in range(max_degree + 1)
            if i + j + k <= max_degree]


def _acc(d: PolyFunction, key, c):
    if c != 0:
        v = d.get(key, 0) + c
        if v == 0:
            d.pop(key, None)
        else:
            d[key] = v


def apply_x(f: PolyFunction, i: int) -> PolyFunction:
    out: PolyFunction = {}
    for (s, ex, ey, ez), c in f.items():
        e = [ex, ey, ez]
        e[i] += 1
        _acc(out, (s - 1, *e), c)
    return out


def apply_p(f: PolyFunction, i: int, alpha: float) -> PolyFunction:
    out: PolyFunction = {}
    for (s, ex, ey, ez), c in f.items():
        e = (ex, ey, ez)
        if e[i] > 0:
            e2 = list(e)
            e2[i] -= 1
            _acc(out, (s + 1, *e2), -1j * c * e[i])
        e3 = list(e)
        e3[i] += 1
        _acc(out, (s - 1, *e3), 1j * c * s * alpha)
    return out


def apply_angular(f: PolyFunction, i: int, j: int) -> PolyFunction:
    """L_ij = x_i p_j - x_j p_i with p = -i d; the w weight passes through."""
    out: PolyFunction = {}
    for (s, ex, ey, ez), c in f.items():
        e = (ex, ey, ez)
        if e[j] > 0:
            e2 = list(e)
            e2[j] -= 1
            e2[i] += 1
            _acc(out, (s, *e2), -1j * c * e[j])
        if e[i] > 0:
            e3 = list(e)
            e3[i] -= 1
            e3[j] += 1
            _acc(out, (s, *e3), 1j * c * e[i])
    return out


def poly_sub(f: PolyFunction, g: PolyFunction) -> PolyFunction:
    out = dict(f)
    for k, c in g.items():
        _acc(out, k, -c)
    return out


def poly_scale(f: PolyFunction, c) -> PolyFunction:
    return {k: v * c for k, v in f.items()}


def evaluate_poly(f: PolyFunction, pts: np.ndarray, alpha: float) -> np.ndarray:
    """Evaluate on points of shape (k, 3); raises if any point leaves the ball."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    w2 = 1.0 - alpha * (x * x + y * y + z * z)
    if np.any(w2 <= 0):
        raise OutOfDomain("grid point with alpha*r^2 >= 1")
    w = np.sqrt(w2)
    tot = np.zeros(len(pts), dtype=np.complex128)
    for (s, ex, ey, ez), c in f.items():
        tot += c * w ** s * x ** ex * y ** ey * z ** ez
    return tot


def commutator_grid(alpha: float, points_per_axis: int = 5,
                    fill: float = 0.9) -> np.ndarray:
    """Cube lattice strictly inside the ball, alpha*r^2 <= fill."""
    half = np.sqrt(fill / alpha) / np.sqrt(3.0)
    g = np.linspace(-half, half, points_per_axis)
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])


@dataclass(frozen=True)
class CommutatorReport:
    alpha: float
    n_functions: int
    n_points: int
    worst_position_position: float
    worst_position_momentum: float
    worst_momentum_momentum: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(w < self.tolerance for w in (self.worst_position_position,
                                                self.worst_position_momentum,
                                                self.worst_momentum_momentum))


def check_deformed_commutators(alpha: float,
                               test_fns: Sequence[PolyFunction] | None = None,
                               grid: np.ndarray | None = None,
                               tol: float = 1e-10) -> CommutatorReport:
    """Verify the three deformed commutation relations on test functions.

    [X_i, X_j] f = 0 (exactly), [X_i, P_j] f = i (delta_ij + alpha X_i X_j) f,
    [P_i, P_j] f = i alpha L_ij f, each measured as a pointwise sup over the
    grid.  Multiplication operators commute term by term, so the first
    relation is asserted at the symbolic level.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if test_fns is None:
        test_fns = monomial_basis(6)
    if grid is None:
        grid = commutator_grid(alpha)
    if np.any(alpha * np.sum(np.asarray(grid) ** 2, axis=1) >= 1.0):
        raise OutOfDomain("grid point with alpha*r^2 >= 1")

    def raise_worst(worst: float, residual: PolyFunction) -> float:
        # np.maximum, unlike the builtin max, keeps a NaN once it appears
        if not residual:
            return worst
        return float(np.maximum(worst, np.max(np.abs(
            evaluate_poly(residual, grid, alpha)))))

    worst_xx = 0.0
    worst_xp = 0.0
    worst_pp = 0.0
    for f in test_fns:
        for i in range(3):
            for j in range(3):
                xx = poly_sub(apply_x(apply_x(f, j), i),
                              apply_x(apply_x(f, i), j))
                worst_xx = raise_worst(worst_xx, xx)

                # [X_i, P_j] = X_i P_j - P_j X_i
                comm = poly_sub(apply_x(apply_p(f, j, alpha), i),
                                apply_p(apply_x(f, i), j, alpha))
                rhs: PolyFunction = {}
                if i == j:
                    for k, c in f.items():
                        _acc(rhs, k, 1j * c)
                for k, c in apply_x(apply_x(f, j), i).items():
                    _acc(rhs, k, 1j * alpha * c)
                worst_xp = raise_worst(worst_xp, poly_sub(comm, rhs))

                if i != j:
                    comm_pp = poly_sub(apply_p(apply_p(f, j, alpha), i, alpha),
                                       apply_p(apply_p(f, i, alpha), j, alpha))
                    rhs_pp = poly_scale(apply_angular(f, i, j), 1j * alpha)
                    worst_pp = raise_worst(worst_pp, poly_sub(comm_pp, rhs_pp))

    return CommutatorReport(alpha, len(test_fns), len(grid),
                            worst_xx, worst_xp, worst_pp, tol)
