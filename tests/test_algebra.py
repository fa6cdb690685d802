import dataclasses

import numpy as np
import pytest

from dkp_eup import algebra
from dkp_eup.algebra import (AlgebraInconsistent, build_matrices,
                             build_projector, check_deformed_commutators,
                             commutator_grid, evaluate_poly, monomial,
                             monomial_basis, spin_matrices, verify_algebra)
from dkp_eup.errors import OutOfDomain

MATS = build_matrices()


def test_printed_block_entries():
    b0, b1 = MATS.beta[0], MATS.beta[1]
    assert b0[1, 4] == 1  # F-row couples to G-column with a unit block
    assert b1[0, 4] == 1  # scalar row couples to the first G slot
    s3 = MATS.spin[2]
    assert s3[0, 1] == -1j


def test_all_entries_are_gaussian_units():
    allowed = {0 + 0j, 1 + 0j, -1 + 0j, 1j, -1j}
    for b in MATS.beta:
        vals = {complex(v) for v in b.ravel()}
        assert vals <= allowed


def test_hermiticity_pattern():
    b0 = MATS.beta[0]
    assert np.array_equal(b0, b0.conj().T)
    for k in (1, 2, 3):
        bk = MATS.beta[k]
        assert not (bk + bk.conj().T).any()


def test_cube_identities_exact():
    b0 = MATS.beta[0]
    assert np.array_equal(b0 @ b0 @ b0, b0)
    for k in (1, 2, 3):
        bk = MATS.beta[k]
        assert np.array_equal(bk @ bk @ bk, -bk)


def test_trilinear_algebra_all_64_triples():
    report = verify_algebra(MATS)
    assert report.triples_checked == 64
    assert report.passed
    assert report.to_text() == ""


def test_verifier_detects_corruption():
    bad = MATS.beta[1].copy()
    assert bad.dtype == np.complex128
    bad[0, 5] = 1  # wrong u-vector slot
    corrupt = dataclasses.replace(
        MATS, beta=(MATS.beta[0], bad, MATS.beta[2], MATS.beta[3]))
    report = verify_algebra(corrupt)
    assert not report.passed
    assert "violated" in report.to_text()


def test_spin_matrices_su2_commutators():
    s1, s2, s3 = spin_matrices()
    assert np.array_equal(s1 @ s2 - s2 @ s1, 1j * s3)  # [S1,S2] = iS3


def test_projector_is_the_printed_diagonal():
    proj = build_projector(MATS)
    assert proj.diagonal() == [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    p = proj.matrix
    assert np.array_equal(p @ p, p)
    assert np.array_equal(p, p.conj().T)
    assert sum(v.real for v in proj.diagonal()) == 4


def test_projector_guard_raises_on_bad_set():
    bad = dataclasses.replace(MATS, beta=(MATS.beta[0], MATS.beta[0],
                                          MATS.beta[2], MATS.beta[3]))
    with pytest.raises(AlgebraInconsistent):
        build_projector(bad)


@pytest.mark.parametrize("value", [0.5, 0.5j, 2.0 ** 53, -2.0 ** 53 * 1j])
def test_exactness_guard_rejects_inexact_entries(value):
    m = MATS.beta[2].copy()
    m[3, 3] = value
    with pytest.raises(AlgebraInconsistent):
        algebra._exact(MATS.beta[0], m)
    algebra._exact(MATS.beta[0], MATS.beta[2])
    with pytest.raises(AlgebraInconsistent):
        verify_algebra(dataclasses.replace(
            MATS, beta=(MATS.beta[0], MATS.beta[1], m, MATS.beta[3])))


# --- deformed commutators ---------------------------------------------------


def test_position_operators_commute_exactly():
    report = check_deformed_commutators(alpha=0.1)
    assert report.worst_position_position == 0.0


def test_position_momentum_on_linear_function():
    # [X1, P1] x = i(1 + alpha X1^2) x, residual from symbolic expansion
    report = check_deformed_commutators(alpha=0.1, test_fns=[monomial(1, 0, 0)])
    assert report.worst_position_momentum < 1e-12


def test_momentum_momentum_on_xy():
    report = check_deformed_commutators(alpha=0.1, test_fns=[monomial(1, 1, 0)])
    assert report.worst_momentum_momentum < 1e-12


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
def test_full_degree_six_suite(alpha):
    report = check_deformed_commutators(alpha=alpha)
    assert report.n_functions == 84  # monomials of total degree <= 6
    assert report.passed
    assert report.worst_position_momentum < 1e-10
    assert report.worst_momentum_momentum < 1e-10


def test_grid_stays_inside_the_ball():
    grid = commutator_grid(0.1, fill=0.9)
    r2 = np.sum(grid ** 2, axis=1)
    assert np.all(0.1 * r2 <= 0.9 + 1e-12)


def test_out_of_domain_grid_rejected():
    bad_grid = np.array([[4.0, 0.0, 0.0]])  # alpha r^2 = 1.6
    with pytest.raises(OutOfDomain):
        evaluate_poly(monomial(1, 0, 0), bad_grid, alpha=0.1)
    with pytest.raises(OutOfDomain):
        check_deformed_commutators(alpha=0.1, test_fns=[monomial(2, 0, 0)],
                                   grid=bad_grid)


def test_alpha_must_be_positive():
    with pytest.raises(ValueError):
        check_deformed_commutators(alpha=0.0)


def test_monomial_basis_size():
    assert len(monomial_basis(6)) == 84  # C(9,3)
    assert len(monomial_basis(0)) == 1


def test_nan_residual_fails_the_commutator_check():
    # a NaN coefficient makes every residual NaN; it must not be dropped
    report = check_deformed_commutators(
        0.1, test_fns=[{(0, 1, 0, 0): complex(float("nan"))}])
    assert np.isnan(report.worst_position_momentum)
    assert not report.passed


def test_a_momentum_without_its_deformation_term_fails_the_check(monkeypatch):
    # every residual of the correct operators cancels symbolically, so only
    # a wrong operator reaches the numeric evaluation on the grid; called
    # with alpha = 0, apply_p drops its i s alpha x_i w^(s-1) term
    apply_p = algebra.apply_p
    monkeypatch.setattr(algebra, "apply_p",
                        lambda f, i, alpha: apply_p(f, i, 0.0))
    report = check_deformed_commutators(0.1)
    assert report.worst_position_momentum > 1e-10
    assert not report.passed
