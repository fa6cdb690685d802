"""Exact matrix algebra of the spin-one sector and the deformed operators.

Two independent verification layers live here:

* the 10x10 matrix representation (four beta matrices, spin matrices,
  projector), held as sparse matrices of Gaussian integers whose parts are
  Python ints, so that every product and sum is exact at any size;
* the deformed position/momentum operators X_i = x_i/sqrt(1 - alpha r^2),
  P_i = -i sqrt(1 - alpha r^2) d_i, whose commutation relations are checked
  as identities between first-order differential operators, formed
  symbolically; a relation holds when its residual cancels to no
  coefficient at all, the same exact rule as the matrix layer's.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import AlgebraInconsistent
from .model import max_or_nan, require_alpha

METRIC = (1, -1, -1, -1)

Matrix = dict  # {(row, col): (re, im)}: the nonzero entries re + i im, ints
_UNIT: Matrix = {(i, i): (1, 0) for i in range(10)}


def _sum(terms) -> Matrix:
    """sum c a b over the (int c, Matrix a, Matrix b) of ``terms``."""
    out: Matrix = {}
    for c, a, b in terms:
        rows: dict = {}
        for (k, j), v in b.items():
            rows.setdefault(k, []).append((j, v))
        for (i, k), (ar, ai) in a.items():
            for j, (br, bi) in rows.get(k, ()):
                r, m = out.get((i, j), (0, 0))
                out[i, j] = (r + c * (ar * br - ai * bi),
                             m + c * (ar * bi + ai * br))
    return {key: v for key, v in out.items() if v != (0, 0)}


def spin_matrices() -> tuple[Matrix, Matrix, Matrix]:
    """The usual 3x3 spin-one generators (S^j)_{kl} = -i eps_{jkl}, where
    eps_{jkl} = (j - k)(k - l)(l - j)/2 on the indices 0, 1, 2."""
    return tuple({(k, lo): (0, -(j - k) * (k - lo) * (lo - j) // 2)
                  for k in range(3) for lo in range(3) if len({j, k, lo}) == 3}
                 for j in range(3))


class DkpMatrixSet(NamedTuple):
    """The four 10x10 beta matrices plus the spin matrices and the metric,
    each matrix a sparse ``Matrix`` of Gaussian integers."""

    beta: tuple[Matrix, Matrix, Matrix, Matrix]
    spin: tuple[Matrix, Matrix, Matrix]
    metric: tuple[int, int, int, int] = METRIC


def build_matrices() -> DkpMatrixSet:
    """Assemble the block form of the 10x10 representation.

    Component order: (scalar, F 3-vector, G 3-vector, H 3-vector).
    beta^0 couples F and G with unit blocks; beta^k couples the scalar to
    the G row via the unit row vector u^k and F to H via -i S^k.
    """
    spins = spin_matrices()
    beta = [{(a + i, b + i): (1, 0)
             for i in range(3) for a, b in ((1, 4), (4, 1))}]
    for k in range(3):
        bk = {(0, 4 + k): (1, 0), (4 + k, 0): (-1, 0)}
        for (r, c), (re, im) in spins[k].items():    # -i (re + i im)
            bk[1 + r, 7 + c] = bk[7 + r, 1 + c] = (im, -re)
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

    All 64 (sigma, kappa, lambda) triples, each as q^{sk} b^l + q^{lk} b^s
    = 0 with q^{sk} = b^s b^k - g^{sk}, which is the identity's left side
    minus its right; the violated triples are reported in lexicographic order.
    """
    b, g = mats.beta, mats.metric
    q = [[_sum([(1, bs, bk), (-g[s] * (s == k), _UNIT, _UNIT)])
          for k, bk in enumerate(b)] for s, bs in enumerate(b)]
    bad = tuple(
        (s, k, lo) for s in range(4) for k in range(4) for lo in range(4)
        if _sum([(1, q[s][k], b[lo]), (1, q[lo][k], b[s])]))
    return AlgebraReport(bad, 64)


class ProjectorMatrix(NamedTuple):
    matrix: Matrix

    def diagonal(self) -> list[complex]:
        return [complex(*self.matrix.get((i, i), (0, 0))) for i in range(10)]


def build_projector(mats: DkpMatrixSet) -> ProjectorMatrix:
    """P = b^mu b_mu - 2, selecting the (scalar, F) components.

    Raises :class:`AlgebraInconsistent` unless the result is exactly
    idempotent and Hermitian.
    """
    p = _sum([*((g, bm, bm) for g, bm in zip(mats.metric, mats.beta)),
              (-2, _UNIT, _UNIT)])
    adjoint = {(c, r): (re, -im) for (r, c), (re, im) in p.items()}
    if _sum([(1, p, p)]) != p or adjoint != p:
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


class CommutatorReport(NamedTuple):
    """The largest |coefficient| left uncancelled by each kind of relation:
    0.0 for an identity, NaN where a coefficient is NaN."""

    alpha: float
    n_functions: int              # relations checked
    worst_position_position: float
    worst_position_momentum: float
    worst_momentum_momentum: float

    @property
    def passed(self) -> bool:
        return (self.worst_position_position, self.worst_position_momentum,
                self.worst_momentum_momentum) == (0.0, 0.0, 0.0)


def check_deformed_commutators(alpha: float) -> CommutatorReport:
    """Verify the three deformed commutation relations as operator identities.

    [X_i, X_j] = 0, [X_i, P_j] = i (delta_ij + alpha X_i X_j) and
    [P_i, P_j] = i alpha L_ij, with L_ij = x_i p_j - x_j p_i and p = -i d.
    Each commutator is formed exactly as a first-order operator; a relation
    holds when the commutator minus its right-hand side cancels to no
    coefficient at all (without w^2 = 1 - alpha r^2, which none needs), so
    on every smooth function.  ``alpha`` may be any positive finite float.
    """
    require_alpha(alpha, positive=True)
    residuals = _residuals(alpha)
    worst = dict.fromkeys(("xx", "xp", "pp"), 0.0)
    for relation, residual in residuals:
        left = [c for coeff in residual for c in coeff.values()]
        if left:
            worst[relation] = max_or_nan([worst[relation], *map(abs, left)])
    return CommutatorReport(alpha, len(residuals), *worst.values())
