import numpy as np
import pytest

from dkp_eup import algebra
from dkp_eup.algebra import (AlgebraInconsistent, GaussianMatrix,
                             build_matrices, build_projector,
                             check_deformed_commutators, commutator_grid,
                             evaluate_poly, monomial, monomial_basis,
                             spin_matrices, verify_algebra)
from dkp_eup.errors import OutOfDomain

MATS = build_matrices()


def test_printed_block_entries():
    b0, b1 = MATS.beta[0], MATS.beta[1]
    assert b0.entry(1, 4) == 1  # F-row couples to G-column with a unit block
    assert b1.entry(0, 4) == 1  # scalar row couples to the first G slot
    s3 = MATS.spin[2]
    assert s3.entry(0, 1) == -1j


def test_all_entries_are_gaussian_units():
    allowed = {0 + 0j, 1 + 0j, -1 + 0j, 1j, -1j}
    for b in MATS.beta:
        vals = {b.entry(i, j) for i in range(10) for j in range(10)}
        assert vals <= allowed


def test_hermiticity_pattern():
    assert MATS.beta[0].is_hermitian()
    for k in (1, 2, 3):
        assert MATS.beta[k].is_anti_hermitian()


def test_cube_identities_exact():
    b0 = MATS.beta[0]
    assert (b0 @ b0 @ b0).equals(b0)
    for k in (1, 2, 3):
        bk = MATS.beta[k]
        assert (bk @ bk @ bk).equals(-bk)


def test_trilinear_algebra_all_64_triples():
    report = verify_algebra(MATS)
    assert report.triples_checked == 64
    assert report.passed
    assert report.to_text() == ""


def test_verifier_detects_corruption():
    import dataclasses
    bad_re = MATS.beta[1].re.copy()
    bad_re[0, 5] = 1  # wrong u-vector slot
    corrupt = dataclasses.replace(
        MATS, beta=(MATS.beta[0],
                    GaussianMatrix(bad_re, MATS.beta[1].im.copy()),
                    MATS.beta[2], MATS.beta[3]))
    report = verify_algebra(corrupt)
    assert not report.passed
    assert "violated" in report.to_text()


def test_spin_matrices_su2_commutators():
    s1, s2, s3 = spin_matrices()
    assert (s1 @ s2 - s2 @ s1).equals(s3.times_i())  # [S1,S2] = iS3


def test_projector_is_the_printed_diagonal():
    proj = build_projector(MATS)
    assert proj.diagonal() == [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    p = proj.matrix
    assert (p @ p).equals(p)
    assert p.is_hermitian()
    assert sum(v.real for v in proj.diagonal()) == 4


def test_projector_guard_raises_on_bad_set():
    import dataclasses
    bad = dataclasses.replace(MATS, beta=(MATS.beta[0], MATS.beta[0],
                                          MATS.beta[2], MATS.beta[3]))
    with pytest.raises(AlgebraInconsistent):
        build_projector(bad)


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
