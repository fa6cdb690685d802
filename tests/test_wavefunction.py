import dataclasses
import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import eval_jacobi, hyp2f1, roots_jacobi

from dkp_eup import wavefunction
from dkp_eup.errors import (BadC, DivergentNorm, GridTooCoarse,
                            ResidualFloor, UnsupportedRegime)
from dkp_eup.model import ModelParams
from dkp_eup.spectrum import energy_natural, energy_unnatural_phi, exponents
from dkp_eup.wavefunction import (chebyshev_grid, count_nodes, deformed_norm,
                                  evaluate_primary, gauss2f1_terminating,
                                  natural_solution, residual_first_order,
                                  terminating_series_coefficients,
                                  unnatural_solution, write_csv)

REF = ModelParams(m=1.0, alpha=0.1, lambda0=0.5, lambda_r=1.0)


# --- terminating hypergeometric series --------------------------------------


def test_order_zero_series_is_one():
    for a, c, rho in [(2.3, 1.5, 0.0), (7.0, 3.5, 0.5), (-1.2, 2.5, 0.99)]:
        assert gauss2f1_terminating(a, 0, c, rho) == 1.0


def test_value_at_origin_is_one():
    assert gauss2f1_terminating(5.5, 4, 2.5, 0.0) == 1.0


def test_order_one_series_expansion():
    # hand expansion: 1 + A*(-1)/C * rho
    a, c, rho = 3.0, 1.5, 0.25
    assert gauss2f1_terminating(a, 1, c, rho) == pytest.approx(
        1.0 - (a / c) * rho, rel=1e-15)


def test_series_terminates_at_degree_n():
    coeffs = terminating_series_coefficients(4.5, 3, 2.5)
    assert len(coeffs) == 4
    # the recurrence factor (-n + n) annihilates the next coefficient
    next_c = coeffs[3] * (4.5 + 3) * (-3 + 3) / ((2.5 + 3) * 4)
    assert next_c == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_matches_scipy_hyp2f1(seed):
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.5, 20.0))
    c = float(rng.uniform(1.5, 10.0))
    n = int(rng.integers(0, 7))
    rho = rng.uniform(0.0, 0.9, size=8)
    ours = gauss2f1_terminating(a, n, c, rho)
    ref = hyp2f1(a, -n, c, rho)
    assert np.allclose(ours, ref, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("jb", [0.5, 9.23, 87.2, 866.6])
@pytest.mark.parametrize("ja", [0.5, 1.5, 4.5])
def test_jacobi_recurrence_matches_scipy(ja, jb):
    x = 1.0 - 2.0 * chebyshev_grid(257)
    for n in range(21):
        ref = eval_jacobi(n, ja, jb, x)
        ours = wavefunction._jacobi(n, ja, jb, x)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_bad_c_rejected():
    for c in (0.0, -1.0, -2.0):
        with pytest.raises(BadC):
            terminating_series_coefficients(1.0, 2, c)
    terminating_series_coefficients(1.0, 2, -0.5)  # non-integer is fine


# --- natural-parity solutions ------------------------------------------------


def test_ground_state_is_nodeless():
    sol = natural_solution(REF, 0, 0)
    assert count_nodes(sol) == 0
    assert np.all(sol.primary > 0)


@pytest.mark.parametrize("J", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_node_count_equals_n(J, n):
    sol = natural_solution(REF, n, J)
    assert count_nodes(sol) == n


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2, 1.0, 1e-3, 1e-5])
@pytest.mark.parametrize("lambda0", [0.0, 0.25, 0.5])
def test_oscillation_across_parameter_grid(alpha, lambda0):
    p = ModelParams(m=1.0, alpha=alpha, lambda0=lambda0, lambda_r=1.0)
    for n in range(21):
        assert count_nodes(natural_solution(p, n, 0)) == n


def test_residual_below_tolerance_on_reference_set():
    sol = natural_solution(REF, 1, 0)
    assert sol.residual_sup < 1e-8


def test_grid_too_coarse_guard():
    with pytest.raises(GridTooCoarse):
        natural_solution(REF, 1, 0, tol=1e-20)


def test_primary_vanishes_at_both_endpoints():
    sol = natural_solution(REF, 2, 1)
    edges = evaluate_primary(sol, np.array([1e-12, 1.0 - 1e-12]))
    assert np.all(np.abs(edges) < 1e-5)


def test_normalization_is_unit():
    for n, J in [(0, 0), (3, 2)]:
        sol = natural_solution(REF, n, J)
        assert deformed_norm(sol, REF) == pytest.approx(1.0, abs=1e-10)


def test_norm_scales_quadratically():
    sol = natural_solution(REF, 1, 0)
    doubled = dataclasses.replace(sol, norm_constant=2.0 * sol.norm_constant)
    assert deformed_norm(doubled, REF) == pytest.approx(4.0, rel=1e-10)


def test_ground_state_norm_matches_beta_function():
    # for n = 0 the polynomial is 1 and the integral reduces to
    # B(2a + 1/2, 2b + 1/2) / (2 sqrt(alpha))
    sol = natural_solution(REF, 0, 0)
    a, b = exponents(REF, 0)
    closed = sol.norm_constant ** 2 * \
        beta_fn(2 * a + 0.5, 2 * b + 0.5) / (2.0 * math.sqrt(REF.alpha))
    assert deformed_norm(sol, REF) == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("alpha", [1.0, 0.1, 1e-2, 1e-3])
def test_eigenfunctions_are_orthonormal(alpha):
    # <n|m> under the deformed measure at fixed J, by Gauss-Jacobi quadrature
    # of the polynomial parts, exact for degree 2 * 20 at 32 nodes
    p = dataclasses.replace(REF, alpha=alpha)
    sols = [natural_solution(p, n, 1) for n in range(21)]
    a, b = sols[0].exponent_a, sols[0].exponent_b
    ja, jb = 2.0 * a - 0.5, 2.0 * b - 0.5
    x, w = roots_jacobi(32, jb, ja)
    rho = 0.5 * (1.0 + x)
    polys = np.array([evaluate_primary(sol, rho) / (rho ** a * (1.0 - rho) ** b)
                      for sol in sols])
    gram = (polys * w) @ polys.T / (2.0 ** (ja + jb + 1) * 2.0 * math.sqrt(alpha))
    assert np.max(np.abs(gram - np.eye(len(sols)))) <= 1e-10


def test_divergent_norm_guard():
    sol = natural_solution(REF, 0, 0)
    pathological = dataclasses.replace(sol, exponent_b=-0.3)
    with pytest.raises(DivergentNorm):
        deformed_norm(pathological, REF)


def test_rho_and_r_parameterizations_agree():
    sol = natural_solution(REF, 2, 1)
    r = np.linspace(0.2, 3.0, 57)  # independent r grid inside the ball
    rho = REF.alpha * r * r
    via_rho = evaluate_primary(sol, rho)
    poly = np.zeros_like(r)
    for k, ck in enumerate(sol.series_coeffs):
        poly += ck * (REF.alpha * r * r) ** k
    via_r = sol.norm_constant * (REF.alpha * r * r) ** sol.exponent_a \
        * (1.0 - REF.alpha * r * r) ** sol.exponent_b * poly
    assert np.max(np.abs(via_rho - via_r)) < 1e-12


def test_secondary_components_present_and_consistent():
    sol = natural_solution(REF, 1, 1)
    assert set(sol.secondary) == {"H_plus1", "H_minus1", "G0"}
    # G0 magnitude convention: sqrt(E^2 + A0^2) F0 / m
    r = np.sqrt(sol.rho_grid / REF.alpha)
    a0 = REF.lambda0 * r / np.sqrt(1.0 - sol.rho_grid)
    expected = np.sqrt(sol.energy ** 2 + a0 ** 2) * sol.primary / REF.m
    assert np.allclose(sol.secondary["G0"], expected, rtol=1e-12)


def test_h_plus_vanishes_for_J_zero():
    sol = natural_solution(REF, 2, 0)
    assert np.all(sol.secondary["H_plus1"] == 0.0)


def test_residual_sensitive_to_energy_perturbation():
    sol = natural_solution(REF, 1, 0)
    level = energy_natural(REF, 1, 0)
    baseline = residual_first_order(REF, level, sol)
    bumped = dataclasses.replace(level, value=1.01 * level.value)
    assert residual_first_order(REF, bumped, sol) > 10.0 * max(baseline, 1e-12)


def test_zero_solution_has_zero_residual():
    sol = natural_solution(REF, 1, 0)
    zero = dataclasses.replace(
        sol, norm_constant=0.0, primary=0.0 * sol.primary,
        secondary={k: 0.0 * v for k, v in sol.secondary.items()})
    assert residual_first_order(REF, energy_natural(REF, 1, 0), zero) == 0.0


def test_first_order_residual_rejects_unnatural_sector():
    p = ModelParams(m=1.0, alpha=0.1, lambda0=0.0, lambda_r=1.0)
    sol = unnatural_solution(p, 0, "phi")
    with pytest.raises(UnsupportedRegime):
        residual_first_order(p, energy_unnatural_phi(p, 0), sol)


# --- unnatural-parity solutions ----------------------------------------------


UNNAT = ModelParams(m=1.0, alpha=0.1, lambda0=0.0, lambda_r=1.0)


def test_phi_ground_state_energy_and_shape():
    sol = unnatural_solution(UNNAT, 0, "phi")
    assert sol.energy == pytest.approx(math.sqrt(7.3), abs=1e-13)
    assert count_nodes(sol) == 0


def test_h0_second_excited_state_has_two_nodes():
    sol = unnatural_solution(UNNAT, 2, "h0")
    assert count_nodes(sol) == 2


@pytest.mark.parametrize("which", ["phi", "h0"])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_unnatural_ode_residual(which, n):
    sol = unnatural_solution(UNNAT, n, which, grid_size=2048)
    assert sol.residual_sup < 1e-8


def test_unnatural_normalized(which="h0"):
    sol = unnatural_solution(UNNAT, 1, which)
    assert deformed_norm(sol, UNNAT) == pytest.approx(1.0, abs=1e-10)


def test_unnatural_requires_supported_regime():
    with pytest.raises(UnsupportedRegime):
        unnatural_solution(REF, 0, "phi")  # lambda0 != 0
    with pytest.raises(ValueError):
        unnatural_solution(UNNAT, 0, "weird")


# --- misc ---------------------------------------------------------------------


def test_chebyshev_grid_properties():
    g = chebyshev_grid(512)
    assert len(g) == 512
    assert 0.0 < g[0] < g[-1] < 1.0
    assert np.all(np.diff(g) > 0)


def test_csv_export(tmp_path):
    sol = natural_solution(REF, 1, 0, grid_size=64)
    path = tmp_path / "wf.csv"
    write_csv(sol, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rho,r,F0,G0,H_minus1,H_plus1,weight"
    assert len(lines) == 65
    first = [float(tok) for tok in lines[1].split(",")]
    assert len(first) == 7 and all(np.isfinite(first))


BUILDS = [
    lambda p: natural_solution(p, 0, 0),
    lambda p: unnatural_solution(dataclasses.replace(p, lambda0=0.0), 0, "phi"),
]


@pytest.mark.parametrize("build", BUILDS)
def test_nan_residual_fails_the_residual_gate(build, monkeypatch):
    # every sampled component, and so the residual, is NaN
    def nan_derivs(a, b, n, rho):
        return (np.full_like(rho, np.nan),) * 3
    monkeypatch.setattr(wavefunction, "_prefactor_derivs", nan_derivs)
    with pytest.raises(GridTooCoarse, match="nan"):
        build(REF)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build,alpha", [(BUILDS[0], 1e-4), (BUILDS[0], 1e-6),
                                         (BUILDS[1], 1e-4)],
                         ids=["natural-1e-4", "natural-1e-6", "phi-1e-4"])
def test_small_alpha_builds_pass_every_check(build, alpha):
    # wall exponents b in the thousands to hundreds of thousands
    p = ModelParams(m=1.0, alpha=alpha, lambda0=0.5, lambda_r=1.0)
    sol = build(p)
    assert sol.residual_sup <= 1e-8
    assert deformed_norm(sol, sol.params) == pytest.approx(1.0, abs=1e-9)
    assert count_nodes(sol) == sol.n == 0


@pytest.mark.parametrize("which", ["phi", "h0"])
def test_residual_at_the_rounding_floor_names_the_floor(which):
    # at alpha = 1e-5 the rho-form terms reach ~2e9, so their rounding alone
    # exceeds the 1e-8 gate: the build still fails, but not on the grid
    p = ModelParams(m=1.0, alpha=1e-5, lambda0=0.0, lambda_r=1.0)
    with pytest.raises(ResidualFloor, match="rounding") as info:
        unnatural_solution(p, 0, which)
    assert not isinstance(info.value, GridTooCoarse)


def test_a_wrong_energy_is_not_mistaken_for_the_floor(monkeypatch):
    real = wavefunction.level

    def off_by_1e_6(*args):
        lev = real(*args)
        return dataclasses.replace(lev, value=lev.value * (1 + 1e-6))
    monkeypatch.setattr(wavefunction, "level", off_by_1e_6)
    with pytest.raises(GridTooCoarse):
        unnatural_solution(UNNAT, 0, "phi")
