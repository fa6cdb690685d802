"""Exact matrix algebra of the spin-one sector and the deformed operators.

Two independent verification layers live here:

* the 10x10 matrix representation (four beta matrices, spin matrices,
  projector) over Gaussian integers, checked in complex128 arithmetic that
  is asserted exact;
* the deformed position/momentum operators X_i = x_i/sqrt(1 - alpha r^2),
  P_i = -i sqrt(1 - alpha r^2) d_i, whose commutation relations are checked
  as identities between first-order differential operators, formed
  symbolically; a coefficient that does not cancel is evaluated pointwise.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AlgebraInconsistent, OutOfDomain

METRIC = (1, -1, -1, -1)
COMMUTATOR_TOL = 1e-10   # sup of every relation's residual on commutator_grid


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


class DkpMatrixSet(NamedTuple):
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


class AlgebraReport(NamedTuple):
    """Result of checking the trilinear identities over all index triples."""

    violations: tuple[tuple[int, int, int], ...]
    triples_checked: int

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_algebra(mats: DkpMatrixSet) -> AlgebraReport:
    """Check b^s b^k b^l + b^l b^k b^s = g^{sk} b^l + g^{kl} b^s exactly.

    All 64 (sigma, kappa, lambda) triples at once, indexed [s, k, l] on the
    leading axes.  The entries of the matrices and of each left-hand side are
    asserted to be Gaussian integers below 2^53.
    """
    b = np.stack(mats.beta)
    g = np.diag(mats.metric)[..., None, None]     # g^{sk}, diagonal
    _exact(b)
    bbb = (b[:, None] @ b[None, :])[:, :, None] @ b   # b^s b^k b^l
    lhs = bbb + bbb.transpose(2, 1, 0, 3, 4)
    rhs = g[:, :, None] * b + g[None] * b[:, None, None]
    _exact(lhs)
    bad = np.argwhere(np.any(lhs != rhs, axis=(3, 4)))
    return AlgebraReport(tuple(tuple(int(i) for i in t) for t in bad), 64)


class ProjectorMatrix(NamedTuple):
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
# Deformed commutators as first-order operator identities.
#
# Coefficient functions are finite sums  c * w^s * x^ex y^ey z^ez  with
# w = sqrt(1-a r^2) and integer s; this family is closed under products and
# under d_k (w^s x^e) = e_k w^s x^(e-1_k) - s a x_k w^(s-2) x^e.
# X_i = x_i/w and P_j = -i w d_j are first-order operators a0 + a.grad with
# coefficients in the family, and so is the commutator of two of them, whose
# second-order parts cancel:
#   [a0 + a.grad, b0 + b.grad] = (a.grad b0 - b.grad a0)
#                                + sum_l (a.grad b_l - b.grad a_l) d_l
# so each relation is an identity between four coefficient functions, formed
# without any finite differencing, that holds on every smooth function.
# ---------------------------------------------------------------------------

PolyFunction = dict  # {(s, ex, ey, ez): complex}
Operator = tuple     # (a0, a1, a2, a3) of PolyFunctions: a0 + sum_l a_l d_l


def _x(*axes: int) -> tuple[int, int, int]:
    """Exponents (ex, ey, ez) of the product of the coordinates ``axes``."""
    return tuple(axes.count(m) for m in range(3))


def _acc(d: PolyFunction, key, c):
    if c != 0:
        v = d.get(key, 0) + c
        if v == 0:
            d.pop(key, None)
        else:
            d[key] = v


def poly_sub(f: PolyFunction, g: PolyFunction) -> PolyFunction:
    out = dict(f)
    for k, c in g.items():
        _acc(out, k, -c)
    return out


def mul(f: PolyFunction, g: PolyFunction) -> PolyFunction:
    out: PolyFunction = {}
    for (s, *e), c in f.items():
        for (t, *h), d in g.items():
            _acc(out, (s + t, *(a + b for a, b in zip(e, h))), c * d)
    return out


def deriv(f: PolyFunction, k: int, alpha: float) -> PolyFunction:
    """d_k f, by d_k (w^s x^e) = e_k w^s x^(e-1_k) - s alpha x_k w^(s-2) x^e."""
    out: PolyFunction = {}
    for (s, *e), c in f.items():
        if e[k]:
            _acc(out, (s, *(v - (m == k) for m, v in enumerate(e))), e[k] * c)
        _acc(out, (s - 2, *(v + (m == k) for m, v in enumerate(e))),
             -s * alpha * c)
    return out


def comm(a: Operator, b: Operator, alpha: float) -> Operator:
    """[A, B] of two first-order operators, itself first order."""
    def along(u: Operator, f: PolyFunction) -> PolyFunction:   # u.grad f
        out: PolyFunction = {}
        for k in range(3):
            for key, c in mul(u[k + 1], deriv(f, k, alpha)).items():
                _acc(out, key, c)
        return out
    return tuple(poly_sub(along(a, b[l]), along(b, a[l])) for l in range(4))


def position(i: int) -> Operator:
    """X_i = x_i / w, a multiplication operator."""
    return ({(-1, *_x(i)): 1.0 + 0.0j}, {}, {}, {})


def momentum(j: int) -> Operator:
    """P_j = -i w d_j."""
    return tuple({(1, *_x()): -1j} if l == j + 1 else {} for l in range(4))


def _residuals(alpha: float) -> list[tuple[str, Operator]]:
    """(relation, commutator minus its right-hand side) for the 9 [X_i, X_j],
    the 9 [X_i, P_j] and the 3 [P_i, P_j] with i < j."""
    out = []
    for i in range(3):
        for j in range(3):
            out.append(("xx", comm(position(i), position(j), alpha)))
            # i (delta_ij + alpha X_i X_j)
            rhs = {(-2, *_x(i, j)): 1j * alpha}
            if i == j:
                rhs[(0, *_x())] = 1j
            xp = comm(position(i), momentum(j), alpha)
            out.append(("xp", tuple(map(poly_sub, xp, (rhs, {}, {}, {})))))
            if i < j:
                # i alpha L_ij = alpha (x_i d_j - x_j d_i)
                rhs = [{}, {}, {}, {}]
                rhs[j + 1] = {(0, *_x(i)): alpha}
                rhs[i + 1] = {(0, *_x(j)): -alpha}
                pp = comm(momentum(i), momentum(j), alpha)
                out.append(("pp", tuple(map(poly_sub, pp, rhs))))
    return out


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


def commutator_grid(alpha: float) -> np.ndarray:
    """The 5^3 cube lattice with corners at alpha*r^2 = 0.9, inside the ball."""
    half = np.sqrt(0.9 / alpha) / np.sqrt(3.0)
    g = np.linspace(-half, half, 5)
    return np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)


class CommutatorReport(NamedTuple):
    alpha: float
    n_functions: int              # relations checked
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


def check_deformed_commutators(alpha: float) -> CommutatorReport:
    """Verify the three deformed commutation relations as operator identities.

    [X_i, X_j] = 0, [X_i, P_j] = i (delta_ij + alpha X_i X_j) and
    [P_i, P_j] = i alpha L_ij, with L_ij = x_i p_j - x_j p_i and p = -i d.
    Each commutator is formed exactly as a first-order operator; every
    coefficient of it minus its right-hand side that does not cancel
    symbolically must stay below COMMUTATOR_TOL on ``commutator_grid``.
    """
    # below ~5e-309, 0.9/alpha overflows and the lattice would be NaN
    if not (0 < alpha < np.inf and 0.9 / float(alpha) < np.inf):
        raise ValueError(f"alpha must be finite and > 0 with a finite "
                         f"commutator_grid, got {alpha}")
    grid = commutator_grid(alpha)
    residuals = _residuals(alpha)
    worst = dict.fromkeys(("xx", "xp", "pp"), 0.0)
    for relation, residual in residuals:
        for coeff in filter(None, residual):
            # np.maximum, unlike the builtin max, keeps a NaN once it appears
            worst[relation] = float(np.maximum(worst[relation], np.max(np.abs(
                evaluate_poly(coeff, grid, alpha)))))
    return CommutatorReport(alpha, len(residuals), len(grid), *worst.values(),
                            COMMUTATOR_TOL)
