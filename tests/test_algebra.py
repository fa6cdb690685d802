import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from conftest import dense
from hypothesis import strategies as st

from dkp_eup import algebra
from dkp_eup.algebra import (AlgebraInconsistent, build_matrices,
                             build_projector, check_deformed_commutators,
                             poly_sub, spin_matrices, verify_algebra)

MATS = build_matrices()


def test_printed_block_entries():
    b0, b1 = dense(MATS.beta[0]), dense(MATS.beta[1])
    assert b0[1, 4] == 1  # F-row couples to G-column with a unit block
    assert b1[0, 4] == 1  # scalar row couples to the first G slot
    s3 = dense(MATS.spin[2], 3)
    assert s3[0, 1] == -1j


def test_all_entries_are_gaussian_units():
    allowed = {0 + 0j, 1 + 0j, -1 + 0j, 1j, -1j}
    for b in MATS.beta:
        vals = {complex(v) for v in dense(b).ravel()}
        assert vals <= allowed


def test_hermiticity_pattern():
    b0 = dense(MATS.beta[0])
    assert np.array_equal(b0, b0.conj().T)
    for k in (1, 2, 3):
        bk = dense(MATS.beta[k])
        assert not (bk + bk.conj().T).any()


def test_cube_identities_exact():
    b0 = dense(MATS.beta[0])
    assert np.array_equal(b0 @ b0 @ b0, b0)
    for k in (1, 2, 3):
        bk = dense(MATS.beta[k])
        assert np.array_equal(bk @ bk @ bk, -bk)


def test_trilinear_algebra_all_64_triples():
    report = verify_algebra(MATS)
    assert report.triples_checked == 64
    assert report.passed


def test_verifier_detects_corruption():
    bad = dict(MATS.beta[1])
    # exact by type: every entry is a pair of Python ints
    assert {type(part) for entry in bad.values() for part in entry} == {int}
    bad[0, 5] = (1, 0)  # wrong u-vector slot
    corrupt = MATS._replace(
        beta=(MATS.beta[0], bad, MATS.beta[2], MATS.beta[3]))
    report = verify_algebra(corrupt)
    assert not report.passed


def _violations_one_by_one(mats, exact=False):
    """The violated (s, k, l) triples, checked one triple at a time on the
    dense matrices."""
    b, g = [dense(m, exact=exact) for m in mats.beta], mats.metric
    return tuple((s, k, lo) for s in range(4) for k in range(4) for lo in range(4)
                 if not np.array_equal(
                     b[s] @ b[k] @ b[lo] + b[lo] @ b[k] @ b[s],
                     (g[s] if s == k else 0) * b[lo]
                     + (g[k] if k == lo else 0) * b[s]))


@pytest.mark.parametrize("which, row, col, value", [
    (1, 0, 5, 1), (0, 2, 2, 1j), (3, 9, 0, -1), (2, 4, 8, 2)])
def test_batched_check_reports_the_triples_a_loop_finds(which, row, col, value):
    beta = [dict(b) for b in MATS.beta]
    beta[which][row, col] = (int(value.real), int(value.imag))
    corrupt = MATS._replace(beta=tuple(beta))
    report = verify_algebra(corrupt)
    assert report.violations == _violations_one_by_one(corrupt)
    assert report.violations and report.triples_checked == 64


def test_spin_matrices_su2_commutators():
    s1, s2, s3 = (dense(s, 3) for s in spin_matrices())
    assert np.array_equal(s1 @ s2 - s2 @ s1, 1j * s3)  # [S1,S2] = iS3


def test_projector_is_the_printed_diagonal():
    proj = build_projector(MATS)
    assert proj.diagonal() == [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    p = dense(proj.matrix)
    assert np.array_equal(p @ p, p)
    assert np.array_equal(p, p.conj().T)
    assert sum(v.real for v in proj.diagonal()) == 4


def test_projector_guard_raises_on_bad_set():
    bad = MATS._replace(beta=(MATS.beta[0], MATS.beta[0],
                              MATS.beta[2], MATS.beta[3]))
    with pytest.raises(AlgebraInconsistent):
        build_projector(bad)


@pytest.mark.parametrize("value", [(2 ** 53, 0), (2 ** 60, 0), (0, 2 ** 53)])
def test_entries_past_2_53_are_checked_exactly(value):
    # complex128 rounds the sums of products of such entries; the Gaussian
    # integers do not, so each violated triple is found as in exact algebra
    m = dict(MATS.beta[2])
    m[3, 3] = value
    corrupt = MATS._replace(beta=(MATS.beta[0], MATS.beta[1], m, MATS.beta[3]))
    report = verify_algebra(corrupt)
    assert report.violations == _violations_one_by_one(corrupt, exact=True)
    assert report.violations and report.triples_checked == 64


# --- deformed commutators ---------------------------------------------------
#
# The reference below applies both operator orderings to the monomials
# x^ex y^ey z^ez and evaluates the residual functions on a lattice.  It covers
# those monomials only, and shares with the operator form only the
# PolyFunction helpers _acc and poly_sub.


def evaluate(f, pts, alpha):
    """The PolyFunction f at points of shape (k, 3) inside the ball."""
    x, y, z = pts.T
    w = np.sqrt(1.0 - alpha * (x * x + y * y + z * z))
    return sum(c * w ** s * x ** ex * y ** ey * z ** ez
               for (s, ex, ey, ez), c in f.items())


def lattice(alpha, corner=0.9):
    """The 5^3 cube lattice with corners at alpha*r^2 = corner."""
    g = np.linspace(-1.0, 1.0, 5) * np.sqrt(corner / alpha / 3.0)
    return np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)


def monomial(ex, ey, ez):
    return {(0, ex, ey, ez): 1.0 + 0.0j}


def monomial_basis(max_degree):
    return [monomial(i, j, k)
            for i in range(max_degree + 1)
            for j in range(max_degree + 1)
            for k in range(max_degree + 1)
            if i + j + k <= max_degree]


def shifted(e, i, by):
    e = list(e)
    e[i] += by
    return tuple(e)


def apply_x(f, i):
    out = {}
    for (s, *e), c in f.items():
        algebra._acc(out, (s - 1, *shifted(e, i, 1)), c)
    return out


def apply_p(f, i, alpha, weight=1):
    """-i w^weight d_i: weight 1 is the deformed momentum, 0 drops w."""
    out = {}
    for (s, *e), c in f.items():
        if e[i] > 0:
            algebra._acc(out, (s + weight, *shifted(e, i, -1)), -1j * c * e[i])
        algebra._acc(out, (s + weight - 2, *shifted(e, i, 1)),
                     1j * c * s * alpha)
    return out


def apply_angular(f, i, j):
    """L_ij = x_i p_j - x_j p_i with p = -i d; the w weight passes through."""
    out = {}
    for (s, *e), c in f.items():
        if e[j] > 0:
            algebra._acc(out, (s, *shifted(shifted(e, j, -1), i, 1)),
                         -1j * c * e[j])
        if e[i] > 0:
            algebra._acc(out, (s, *shifted(shifted(e, i, -1), j, 1)),
                         1j * c * e[i])
    return out


def monomial_reference(alpha, test_fns, weight=1):
    """Worst [X,X], [X,P] and [P,P] residuals over test_fns on the lattice."""
    grid = lattice(alpha)
    worst = [0.0, 0.0, 0.0]

    def raise_worst(which, residual):
        if residual:
            worst[which] = max(worst[which], float(np.max(np.abs(
                evaluate(residual, grid, alpha)))))

    def p(f, i):
        return apply_p(f, i, alpha, weight)

    for f in test_fns:
        for i in range(3):
            for j in range(3):
                raise_worst(0, poly_sub(apply_x(apply_x(f, j), i),
                                        apply_x(apply_x(f, i), j)))
                rhs = {}
                if i == j:
                    for k, c in f.items():
                        algebra._acc(rhs, k, 1j * c)
                for k, c in apply_x(apply_x(f, j), i).items():
                    algebra._acc(rhs, k, 1j * alpha * c)
                raise_worst(1, poly_sub(poly_sub(apply_x(p(f, j), i),
                                                 p(apply_x(f, i), j)), rhs))
                if i != j:
                    rhs = {k: 1j * alpha * c
                           for k, c in apply_angular(f, i, j).items()}
                    raise_worst(2, poly_sub(poly_sub(p(p(f, j), i),
                                                     p(p(f, i), j)), rhs))
    return worst


def undeformed_momentum(j):
    """-i d_j: the momentum without its w factor."""
    return tuple({(0, 0, 0, 0): -1j} if l == j + 1 else {} for l in range(4))


F = {(1, 2, 0, 1): 0.5 + 1j, (-1, 0, 1, 0): -2.0 + 0j}
G = {(-2, 1, 1, 0): 1j, (0, 0, 0, 2): 3.0 + 0j}


def test_mul_is_the_pointwise_product():
    grid = lattice(0.1)
    assert np.allclose(evaluate(algebra.mul(F, G), grid, 0.1),
                       evaluate(F, grid, 0.1) * evaluate(G, grid, 0.1),
                       rtol=1e-14, atol=0)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_deriv_matches_a_central_difference(k):
    # interior points, alpha*r^2 <= 0.5, so that grid +- step stays inside
    grid = lattice(0.1, corner=0.5)
    step = 1e-5 * np.eye(3)[k]
    difference = (evaluate(F, grid + step, 0.1)
                  - evaluate(F, grid - step, 0.1)) / 2e-5
    exact = evaluate(algebra.deriv(F, k, 0.1), grid, 0.1)
    assert np.max(np.abs(exact - difference)) < 1e-8 * np.max(np.abs(exact))


def test_position_operators_commute_exactly():
    report = check_deformed_commutators(alpha=0.1)
    assert report.worst_position_position == 0.0


def apply(op, f, alpha):
    """The first-order operator op = (a0, a1, a2, a3) applied to f."""
    out = algebra.mul(op[0], f)
    for k in range(3):
        for key, c in algebra.mul(op[k + 1], algebra.deriv(f, k, alpha)).items():
            algebra._acc(out, key, c)
    return out


def test_position_momentum_on_linear_function():
    # [X1, P1] x = i(1 + alpha X1^2) x: the operator form applied to x is
    # X1 P1 x - P1 X1 x of the monomial reference, term by term
    f = monomial(1, 0, 0)
    comm = algebra.comm(algebra.position(0), algebra.momentum(0), 0.1)
    reference = poly_sub(apply_x(apply_p(f, 0, 0.1), 0),
                         apply_p(apply_x(f, 0), 0, 0.1))
    assert reference and poly_sub(apply(comm, f, 0.1), reference) == {}
    assert monomial_reference(0.1, [f])[1] < 1e-12


def test_momentum_momentum_on_xy():
    f = monomial(1, 1, 0)
    comm = algebra.comm(algebra.momentum(0), algebra.momentum(1), 0.1)
    reference = poly_sub(apply_p(apply_p(f, 1, 0.1), 0, 0.1),
                         apply_p(apply_p(f, 0, 0.1), 1, 0.1))
    assert reference and poly_sub(apply(comm, f, 0.1), reference) == {}
    assert monomial_reference(0.1, [f])[2] < 1e-12


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
def test_full_degree_six_suite(alpha):
    report = check_deformed_commutators(alpha=alpha)
    assert report.n_functions == 21  # 9 [X,X], 9 [X,P], 3 [P,P] relations
    assert report.passed
    assert report.worst_position_momentum == 0.0
    assert report.worst_momentum_momentum == 0.0


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
def test_operator_form_agrees_with_the_monomial_reference(alpha):
    report = check_deformed_commutators(alpha)
    worst = monomial_reference(alpha, monomial_basis(4))
    assert report.passed
    assert max(worst) < 1e-10
    # each commutator applied to a monomial is, term by term, the difference
    # of the reference's two orderings
    for i in range(3):
        for j in range(3):
            for a, b, ref_a, ref_b in [
                    (algebra.position(i), algebra.position(j),
                     lambda f: apply_x(f, i), lambda f: apply_x(f, j)),
                    (algebra.position(i), algebra.momentum(j),
                     lambda f: apply_x(f, i), lambda f: apply_p(f, j, alpha)),
                    (algebra.momentum(i), algebra.momentum(j),
                     lambda f: apply_p(f, i, alpha),
                     lambda f: apply_p(f, j, alpha))]:
                comm = algebra.comm(a, b, alpha)
                for f in monomial_basis(4):
                    reference = poly_sub(ref_a(ref_b(f)), ref_b(ref_a(f)))
                    assert poly_sub(apply(comm, f, alpha), reference) == {}


def test_both_checks_fail_without_the_momentum_deformation(monkeypatch):
    assert min(monomial_reference(0.1, monomial_basis(4), weight=0)[1:]) > 1e-10
    monkeypatch.setattr(algebra, "momentum", undeformed_momentum)
    report = check_deformed_commutators(0.1)
    assert min(report.worst_position_momentum,
               report.worst_momentum_momentum) > 1e-10


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(-1074.0, 1023.99).map(lambda e: 2.0 ** e))
@example(alpha=5e-324)
@example(alpha=sys.float_info.max)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_relation_cancels_exactly_for_any_alpha(alpha):
    # log-uniform over the whole positive float range, subnormals included
    report = check_deformed_commutators(alpha)
    assert report.n_functions == 21
    assert (report.worst_position_position, report.worst_position_momentum,
            report.worst_momentum_momentum) == (0.0, 0.0, 0.0)
    assert report.passed


@pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_alpha_must_be_positive(alpha):
    with pytest.raises(ValueError, match="alpha"):
        check_deformed_commutators(alpha=alpha)


@pytest.mark.parametrize("alpha", [3e-309, 1e-320, 5e-324])
def test_subnormal_alpha_passes(alpha):
    # the exact check evaluates nothing at points, so nothing can overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_deformed_commutators(alpha)
    assert report.passed
    assert (report.worst_position_position, report.worst_position_momentum,
            report.worst_momentum_momentum) == (0.0, 0.0, 0.0)


def test_tiny_alpha_with_a_finite_lattice_still_passes():
    # the monomial reference's lattice is still finite at 1e-300, and the
    # reference agrees with the exact check there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_deformed_commutators(1e-300)
        assert np.all(np.isfinite(lattice(1e-300)))
        assert monomial_reference(1e-300, monomial_basis(4)) == [0.0] * 3
    assert report.passed
    assert (report.worst_position_position, report.worst_position_momentum,
            report.worst_momentum_momentum) == (0.0, 0.0, 0.0)


def test_nan_residual_fails_the_commutator_check(monkeypatch):
    # a NaN coefficient makes every residual NaN; it must not be dropped
    monkeypatch.setattr(algebra, "position",
                        lambda i: ({(-1, *algebra._x(i)): complex("nan")},
                                   {}, {}, {}))
    report = check_deformed_commutators(0.1)
    assert np.isnan(report.worst_position_momentum)
    assert not report.passed


def test_a_momentum_without_its_deformation_term_fails_the_check(monkeypatch):
    # without its w factor the momentum breaks every [X,P] and [P,P] relation
    monkeypatch.setattr(algebra, "momentum", undeformed_momentum)
    broken = Counter(relation for relation, residual
                     in algebra._residuals(0.1) if any(residual))
    assert broken == {"xp": 9, "pp": 3}
    report = check_deformed_commutators(0.1)
    assert report.worst_position_position == 0.0
    assert report.worst_position_momentum > 1e-10
    assert report.worst_momentum_momentum > 1e-10
    assert not report.passed


def test_a_momentum_off_by_1e_15_fails_the_check(monkeypatch):
    # -i (1 + 1e-15) w d_j leaves coefficients of ~1e-15: far below any
    # pointwise tolerance, but not cancelled
    monkeypatch.setattr(algebra, "momentum", lambda j: tuple(
        {(1, 0, 0, 0): -1j * (1 + 1e-15)} if l == j + 1 else {}
        for l in range(4)))
    report = check_deformed_commutators(0.1)
    assert report.worst_position_position == 0.0
    assert 0.0 < report.worst_position_momentum < 1e-14
    assert 0.0 < report.worst_momentum_momentum < 1e-14
    assert not report.passed
