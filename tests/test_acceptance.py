"""Acceptance suite: one test per release criterion, stated tolerances only.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""
import math
import time

import numpy as np
import pytest
from conftest import dense

from dkp_eup import algebra, figures, oracle, verify
from dkp_eup.model import ModelParams
from dkp_eup.spectrum import (energy_natural, energy_natural_limit,
                              energy_unnatural_h0, energy_unnatural_phi,
                              level_spacing)
from dkp_eup.wavefunction import count_nodes, natural_solution

REFERENCE = ModelParams(m=1.0, alpha=0.1, lambda0=0.5, lambda_r=1.0)


def _report(k: int, desc: str):
    print(f"ACCEPTANCE {k} PASS: {desc}")


def test_criterion_1_algebra_exactness():
    t0 = time.perf_counter()
    mats = algebra.build_matrices()
    report = algebra.verify_algebra(mats)
    assert report.triples_checked == 64
    assert report.passed
    proj = algebra.build_projector(mats)
    assert proj.diagonal() == [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    p = dense(proj.matrix)
    assert np.array_equal(p @ p, p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"64 trilinear identities exact, projector exact "
               f"({elapsed:.3f} s)")


def test_criterion_2_deformed_commutators():
    t0 = time.perf_counter()
    report = algebra.check_deformed_commutators(alpha=0.1)
    assert report.n_functions == 21   # 9 [X,X], 9 [X,P], 3 [P,P] relations
    assert report.worst_position_position == 0.0
    assert report.worst_position_momentum == 0.0
    assert report.worst_momentum_momentum == 0.0
    assert report.passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, f"all three commutator relations cancel exactly as operator "
               f"identities ({elapsed:.3f} s)")


def test_criterion_3_oracle_equivalence_natural():
    t0 = time.perf_counter()
    result = verify.check_oracle(verify.NATURAL_CELLS, grid_size=8192, tol=1e-5)
    assert result.passed, result.failures
    worst = result.worst
    # the frozen reference point
    ref = energy_natural(REFERENCE, 0, 0).value
    assert ref == pytest.approx(2.2405, abs=5e-5)
    numeric = oracle.lowest_energies(REFERENCE, oracle.Sector.natural(0),
                                     1, 8192)[0]
    assert abs(numeric - ref) / ref < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(3, f"{len(verify.NATURAL_CELLS)} natural-parity sweeps at grid "
               f"8192, worst rel {worst:.2e} < 1e-5 ({elapsed:.1f} s)")


def test_criterion_4_oracle_equivalence_unnatural():
    result = verify.check_oracle(verify.UNNATURAL_CELLS, grid_size=8192,
                                 tol=1e-5)
    assert result.passed, result.failures
    worst = result.worst
    for alpha in verify.UNNATURAL_ALPHAS:
        params = ModelParams(m=1.0, alpha=alpha, lambda0=0.0, lambda_r=1.0)
        for n in range(verify.REFERENCE_NMAX + 1):
            assert energy_unnatural_phi(params, n).value > \
                energy_unnatural_h0(params, n).value
    _report(4, f"both unnatural sectors match at 1e-5 (worst {worst:.2e}) "
               f"and the scalar sector dominates at every n")


def test_criterion_5_limit_consistency():
    for n, J in ((0, 0), (2, 0), (1, 1)):
        limit = energy_natural_limit(
            ModelParams(1.0, 0.0, 0.5, 1.0), n, J).value
        errs = []
        for alpha in (4e-3, 2e-3, 1e-3):
            p = ModelParams(m=1.0, alpha=alpha, lambda0=0.5, lambda_r=1.0)
            errs.append(abs(energy_natural(p, n, J).value - limit))
        for hi, lo in zip(errs, errs[1:]):
            assert abs(hi / lo - 2.0) <= 0.4
    p_eq = ModelParams(m=1.0, alpha=0.0, lambda0=1.0, lambda_r=1.0)
    for n in range(21):
        assert energy_natural_limit(p_eq, n, 0).value == pytest.approx(
            math.sqrt(2.0), abs=1e-12)
    _report(5, "first-order alpha convergence (ratio 2.0 +- 0.4) and the "
               "constant sqrt(2) line at lambda0 = lambda_r")


def test_criterion_6_spacing_law():
    p = ModelParams(m=1.0, alpha=0.04, lambda0=0.5, lambda_r=1.0)
    gap = level_spacing(p, 10_000, 0)
    assert abs(gap - 2.0 * math.sqrt(0.04)) < 1e-4
    data = figures.fig3_data()
    rows = np.array([row[1:] for row in data.rows])
    for col, alpha in enumerate(figures.FIG2_ALPHA):
        if alpha == 0:
            continue
        dev = np.abs(rows[100:, col] - 2.0 * math.sqrt(alpha))
        assert np.all(np.diff(dev) <= 1e-12)  # monotone approach for n >= 100
    _report(6, "spacing at n = 10^4 within 1e-4 of 2 sqrt(alpha); "
               "monotone plateau approach in the fig3 data")


def test_criterion_7_quantization_closure():
    worst = verify.check_closure().worst
    assert worst < 1e-9
    _report(7, f"B recomputed at every returned energy equals -n "
               f"(worst |B+n| = {worst:.2e})")


def test_criterion_8_eigenfunction_residuals_and_nodes():
    worst = 0.0
    for J in (0, 1, 2, 3):
        for n in range(6):
            sol = natural_solution(REFERENCE, n, J, grid_size=2048)
            assert sol.residual_sup < 1e-8
            assert count_nodes(sol) == n
            worst = max(worst, sol.residual_sup)
    _report(8, f"first-order system residual < 1e-8 (worst {worst:.2e}) and "
               f"node count = n for n <= 5")


def test_criterion_9_figure_reproduction(tmp_path):
    dirs = (tmp_path / "run1", tmp_path / "run2")
    for d in dirs:
        d.mkdir()
        for fig in figures.FIGURE_IDS:
            figures.write_figure(figures.build_figure(fig), d)
    for fig in figures.FIGURE_IDS:
        for ext in ("csv", "svg"):
            b1 = (dirs[0] / f"{fig}.{ext}").read_bytes()
            b2 = (dirs[1] / f"{fig}.{ext}").read_bytes()
            assert b1 == b2, f"{fig}.{ext} not byte-stable"

    fig1 = figures.fig1_data()
    last_col = [row[-1] for row in fig1.rows]      # lambda0 = 1 = lambda_r
    assert all(v == pytest.approx(math.sqrt(2.0), abs=1e-12) for v in last_col)

    fig2 = figures.fig2_data()
    for row in fig2.rows:
        energies = row[1:]
        assert all(b > a for a, b in zip(energies, energies[1:])), \
            "energy must increase with alpha at fixed n"

    fig3 = figures.fig3_data()
    for col, alpha in enumerate(figures.FIG2_ALPHA):
        if alpha == 0:
            continue
        tail = fig3.rows[-1][1 + col]
        assert abs(tail - 2.0 * math.sqrt(alpha)) < 5e-3

    fig4 = figures.fig4_data()
    for row in fig4.rows:
        for k in range(len(figures.FIG4_ALPHA)):
            assert row[1 + 2 * k] > row[2 + 2 * k]  # E_phi above E_h0

    _report(9, "four CSV/SVG pairs byte-stable; constancy, alpha-monotonicity, "
               "spacing plateau and sector ordering all hold in the data")
