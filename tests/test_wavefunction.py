import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn
from scipy.special import eval_jacobi, hyp2f1, roots_jacobi

from dkp_eup import wavefunction
from dkp_eup.errors import (DivergentNorm, GridTooCoarse, ResidualFloor,
                            UnsupportedRegime)
from dkp_eup.model import ModelParams, xi_zeta
from dkp_eup.spectrum import energy_natural, energy_unnatural_phi, exponents
from dkp_eup.wavefunction import (chebyshev_grid, count_nodes, deformed_norm,
                                  evaluate_primary, natural_solution,
                                  residual_first_order, unnatural_solution,
                                  write_csv)

REF = ModelParams(m=1.0, alpha=0.1, lambda0=0.5, lambda_r=1.0)


# --- the polynomial part: 2F1(-n, n + 2a + 2b; 2a + 1/2; rho) ----------------


def _series_2f1(A: float, n: int, C: float, rho):
    """Reference 2F1(A, -n; C; rho) summed in the power basis: the term ratio
    is (A + k)(-n + k) / ((C + k)(k + 1)), which vanishes past k = n."""
    term, total = 1.0, np.ones_like(rho)
    for k in range(n):
        term *= (A + k) * (-n + k) / ((C + k) * (k + 1))
        total = total + term * rho ** (k + 1)
    return total


def test_order_zero_series_is_one():
    rho = np.array([0.0, 0.5, 0.99])
    for a, b in [(0.5, 2.3), (1.5, 7.0), (3.5, 0.25)]:
        assert np.all(wavefunction._poly(a, b, 0, rho) == 1.0)


def test_value_at_origin_is_one():
    assert wavefunction._poly(1.0, 2.25, 4, np.array([0.0]))[0] == \
        pytest.approx(1.0, rel=1e-14)


def test_order_one_series_expansion():
    # hand expansion: 1 - (A/C) rho with A = 1 + 2a + 2b, C = 2a + 1/2
    a, b, rho = 0.5, 1.0, 0.25
    assert wavefunction._poly(a, b, 1, np.array([rho]))[0] == pytest.approx(
        1.0 - (4.0 / 1.5) * rho, rel=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_matches_scipy_hyp2f1(seed):
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.5, 5.0))
    b = float(rng.uniform(0.25, 8.0))
    rho = np.concatenate([[0.0], rng.uniform(0.0, 0.9, size=8)])
    for n in range(7):
        A, C = n + 2.0 * (a + b), 2.0 * a + 0.5
        ours = wavefunction._poly(a, b, n, rho)
        assert np.allclose(ours, _series_2f1(A, n, C, rho), rtol=1e-11, atol=1e-11)
        assert np.allclose(ours, hyp2f1(A, -n, C, rho), rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("jb", [0.5, 9.23, 87.2, 866.6])
@pytest.mark.parametrize("ja", [0.5, 1.5, 4.5])
def test_jacobi_recurrence_matches_scipy(ja, jb):
    rho = chebyshev_grid(257)
    for n in range(21):
        ref = eval_jacobi(n, ja, jb, 1.0 - 2.0 * rho)
        ours = wavefunction._jacobi(n, ja, jb, rho)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 10])
@pytest.mark.parametrize("alpha", [1e-3, 1e-5])
def test_poly_derivatives_match_mpmath_near_the_origin(alpha, n):
    # phi exponents, b ~ 1/(2 alpha): on rho < 40/b, where the weight
    # rho^a (1-rho)^b is not negligible, the recurrence in x = 1 - 2 rho lost
    # terms of size jb^2 and erred by ~3e-12 at alpha 1e-5
    p = dataclasses.replace(UNNAT, alpha=alpha)
    a, b = exponents(p, "phi")
    rho = chebyshev_grid(1024)
    rho = rho[rho < 40.0 / b]
    weight = rho ** a * (1.0 - rho) ** b
    A, B, C = -n, n + 2 * a + 2 * b, 2 * a + 0.5
    with mpmath.workdps(40):
        for k in range(3):
            # d^k/drho^k 2F1(A, B; C; rho) = (A)_k (B)_k / (C)_k 2F1(A+k, B+k; C+k; rho)
            coef = mpmath.rf(A, k) * mpmath.rf(B, k) / mpmath.rf(C, k)
            ref = np.array([float(coef * mpmath.hyp2f1(A + k, B + k, C + k, x))
                            for x in rho])
            err = np.abs(weight * (wavefunction._poly(a, b, n, rho, k) - ref))
            assert np.max(err) <= 1e-13 * np.max(np.abs(weight * ref))


@pytest.mark.parametrize("sector", ["natural", "phi"])
@pytest.mark.parametrize("alpha", [1.0, 1e-2, 1e-4, 1e-6, 1e-8])
def test_norm_integral_matches_mpmath(alpha, sector):
    # the log Gamma terms reach ~ b log b; differencing them in floats cost
    # 6.6e-10 relative at alpha 1e-6 and 3.0e-7 at 1e-8
    n = 10
    if sector == "natural":
        a, b = exponents(dataclasses.replace(REF, alpha=alpha), "natural")
    else:
        a, b = exponents(dataclasses.replace(UNNAT, alpha=alpha), "phi")
    with mpmath.workdps(50):
        ja, jb = 2 * mpmath.mpf(a) - 0.5, 2 * mpmath.mpf(b) - 0.5
        g = mpmath.gamma
        ref = (g(n + 1) * g(ja + 1) ** 2 * g(n + jb + 1)
               / (g(n + ja + 1) * g(n + ja + jb + 1) * (2 * n + ja + jb + 1))
               / (2 * mpmath.sqrt(mpmath.mpf(alpha))))
        err = abs(wavefunction._raw_norm_integral(a, b, n, alpha) / ref - 1)
    assert err <= 1e-12


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


def _product_rule_nodes(sol):
    """The former count: neighbours of the sampled primary whose product is
    negative, on the points count_nodes samples."""
    vals = evaluate_primary(sol, wavefunction._node_grid(sol, 10000))
    return int(np.sum(vals[:-1] * vals[1:] < 0))


@pytest.mark.parametrize("alpha", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("sector", ["natural", "phi", "h0"])
def test_node_count_matches_the_product_rule(sector, alpha):
    # none of the 168 builds raises under the suite's RuntimeWarning filter,
    # so none is skipped.  At alpha 1e-7 every zero of n = 40 lies below
    # rho ~ 2e-5, where a 10,000-point Chebyshev grid has only 28 points.
    for n in (0, 1, 2, 5, 10, 20, 30, 40):
        if sector == "natural":
            sol = natural_solution(dataclasses.replace(REF, alpha=alpha),
                                   n, 0, tol=math.inf)
        else:
            sol = unnatural_solution(dataclasses.replace(UNNAT, alpha=alpha),
                                     n, sector, tol=math.inf)
        nodes = count_nodes(sol)
        assert nodes == _product_rule_nodes(sol)
        assert nodes == n


def test_a_natural_build_computes_its_components_once(monkeypatch):
    calls = []
    system = wavefunction._natural_system

    def counted(*args):
        calls.append(args)
        return system(*args)
    monkeypatch.setattr(wavefunction, "_natural_system", counted)
    natural_solution(REF, 3, 2)
    assert len(calls) == 1


@pytest.mark.parametrize("alpha", [1.0, 0.1, 2e-3])
def test_build_residual_equals_the_public_audit(alpha):
    p = dataclasses.replace(REF, alpha=alpha)
    for n in range(7):
        for J in range(5):
            sol = natural_solution(p, n, J)
            audit = residual_first_order(p, energy_natural(p, n, J), sol)
            assert sol.residual_sup == audit


@pytest.mark.parametrize("J", [1, 2, 4])
def test_swapped_couplings_are_a_formula_error_not_the_floor(J, monkeypatch):
    # xi and zeta exchanged: H no longer solves the closure equation, and
    # the residual (~1.6-1.9) is far above any rounding of its terms
    monkeypatch.setattr(wavefunction, "xi_zeta", lambda J: xi_zeta(J)[::-1])
    for n in (0, 3):
        with pytest.raises(GridTooCoarse) as info:
            natural_solution(REF, n, J)
        assert not isinstance(info.value, ResidualFloor)


@pytest.mark.parametrize("J", [0, 1, 2, 4])
@pytest.mark.parametrize("alpha", [1.0, 1e-2, 1e-4, 1e-6])
def test_natural_builds_pass_every_check_up_to_n_40(alpha, J):
    # the README criterion-8 row: natural J = 0, 1, 2, 4 at lambda0 = 0.5
    # pass every n <= 40 over alpha in [1e-6, 1]; sampled here
    p = dataclasses.replace(REF, alpha=alpha)
    for n in (0, 10, 20, 30, 40):
        sol = natural_solution(p, n, J)
        assert sol.residual_sup <= 1e-8
        assert abs(deformed_norm(sol, p) - 1.0) <= 1e-9
        assert count_nodes(sol) == n


def test_residual_below_tolerance_on_reference_set():
    sol = natural_solution(REF, 1, 0)
    assert sol.residual_sup < 1e-8


def test_grid_too_coarse_guard():
    # a residual of ~3e-13 is rounding in the first-order system: no grid
    # lowers it to 1e-20, so the floor is named, not the grid
    with pytest.raises(ResidualFloor, match="first-order system"):
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
    a, b = exponents(REF, "natural", 0)
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
    a, b = sol.exponent_a, sol.exponent_b
    poly = _series_2f1(sol.n + 2.0 * (a + b), sol.n, 2.0 * a + 0.5, rho)
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


def _h0_at(x: float) -> ModelParams:
    """h0 parameters with lambdaR/alpha = x at alpha = 2."""
    return ModelParams(m=1.0, alpha=2.0, lambda0=0.0, lambda_r=2.0 * x)


@pytest.mark.parametrize("n", [0, 2, 5])
@pytest.mark.parametrize("x", [0.0, 0.05, 0.4, 0.6])
def test_h0_builds_pass_below_x_one_half(x, n):
    # below x = lambdaR/alpha = 1/2 the h0 wall has a second normalizable
    # indicial root (1 - x)/2; the closed-form level belongs to b = x/2
    p = _h0_at(x)
    sol = unnatural_solution(p, n, "h0")
    assert sol.residual_sup <= 1e-8
    assert abs(deformed_norm(sol, p) - 1.0) <= 1e-9
    assert count_nodes(sol) == n


def test_h0_wall_exponent_is_half_of_lambda_r_over_alpha():
    p = _h0_at(0.4)
    sol = unnatural_solution(p, 2, "h0")
    assert sol.exponent_b == p.lambda_r / (2.0 * p.alpha)


@pytest.mark.parametrize("n", [0, 2])
def test_h0_build_on_the_other_root_fails_the_gate(n, monkeypatch):
    p = _h0_at(0.4)
    monkeypatch.setattr(wavefunction, "exponents",
                        lambda params, sector, J=0: (0.5, (1.0 - 0.4) / 2.0))
    with pytest.raises(GridTooCoarse):
        unnatural_solution(p, n, "h0")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sector,alpha,lambda_r,quantity", [
    # lambdaR/alpha overflows while the level stays finite
    ("phi", 1e-300, 1e10, "wall exponent b"),
    ("h0", 1e-300, 1e10, "wall exponent b"),
    ("phi", 1e-200, 1e200, "wall exponent b"),
    ("h0", 1e-200, 1e200, "wall exponent b"),
    # b is finite, but not the (2b)^2 that scales F''
    ("phi", 0.1, 1e200, r"wall exponent term \(2b\)\^2"),
    ("h0", 0.1, 1e200, r"wall exponent term \(2b\)\^2"),
    ("natural", 1e-160, 1.0, r"wall exponent term \(2b\)\^2"),
])
def test_an_overflowing_wall_exponent_is_named(sector, alpha, lambda_r,
                                               quantity):
    p = ModelParams(m=1.0, alpha=alpha, lambda0=0.0, lambda_r=lambda_r)
    with pytest.raises(UnsupportedRegime, match=f"^{quantity} overflows"):
        if sector == "natural":
            natural_solution(p, 0, 0)
        else:
            unnatural_solution(p, 0, sector)


# --- misc ---------------------------------------------------------------------


def test_chebyshev_grid_properties():
    g = chebyshev_grid(512)
    assert len(g) == 512
    assert 0.0 < g[0] < g[-1] < 1.0
    assert np.all(np.diff(g) > 0)


@pytest.mark.parametrize("size", [1, 64, 2048, 10000])
def test_chebyshev_grid_is_built_once_and_bit_equal_to_the_formula(size):
    i = np.arange(size)
    fresh = 0.5 * (1.0 - np.cos(np.pi * (i + 0.5) / size))
    assert chebyshev_grid(size) is chebyshev_grid(size)
    assert np.array_equal(chebyshev_grid(size), fresh)


def test_shared_grids_are_read_only():
    sol = natural_solution(REF, 1, 0, grid_size=64)
    assert sol.rho_grid is chebyshev_grid(64)
    for grid in (chebyshev_grid(64), sol.rho_grid):
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            grid *= 2.0
    copy = sol.rho_grid.copy()
    copy[0] = 0.5                       # a copy is the caller's own
    assert chebyshev_grid(64)[0] != 0.5


def _arrays(sol):
    return [sol.rho_grid, sol.primary, *sol.secondary.values()]


def test_builds_at_alternating_grid_sizes_do_not_cross_talk():
    chebyshev_grid.cache_clear()
    first = {}
    for size in (64, 2048, 64, 2048):
        for sol in (natural_solution(REF, 3, 2, grid_size=size),
                    unnatural_solution(UNNAT, 2, "phi", grid_size=size)):
            key = (size, sol.sector)
            first.setdefault(key, _arrays(sol))
            assert all(np.array_equal(x, y)
                       for x, y in zip(_arrays(sol), first[key], strict=True))
            assert len(sol.rho_grid) == size


def test_the_grid_cache_stays_bounded():
    for size in range(100, 120):
        chebyshev_grid(size)
    info = chebyshev_grid.cache_info()
    assert info.currsize <= info.maxsize == wavefunction.GRID_CACHE_SIZE


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


def _off_by_1e_6(real):
    def wrong(*args):
        lev = real(*args)
        return dataclasses.replace(lev, value=lev.value * (1 + 1e-6))
    return wrong


@pytest.mark.parametrize("alpha", [1.0, 0.1, 2e-3])
@pytest.mark.parametrize("sector", ["natural", "phi", "h0"])
def test_a_wrong_energy_is_not_mistaken_for_the_floor(sector, alpha,
                                                       monkeypatch):
    monkeypatch.setattr(wavefunction, "level", _off_by_1e_6(wavefunction.level))
    for n in (0, 3):
        with pytest.raises(GridTooCoarse) as info:
            if sector == "natural":
                natural_solution(dataclasses.replace(REF, alpha=alpha), n, 2)
            else:
                unnatural_solution(dataclasses.replace(UNNAT, alpha=alpha),
                                   n, sector)
        assert not isinstance(info.value, ResidualFloor)


@settings(max_examples=200, deadline=None)
@given(sector=st.sampled_from(["natural", "phi", "h0"]),
       n=st.integers(0, 6), J=st.integers(0, 4),
       log_alpha=st.floats(math.log10(2e-3), 0.0),
       lambda0=st.floats(0.0, 1.0, exclude_max=True))
def test_every_build_in_the_timed_domain_passes_its_checks(sector, n, J,
                                                          log_alpha, lambda0):
    # the domain the eigenfunctions benchmark times: a failure there is a
    # regression, not a known limit
    alpha = 10.0 ** log_alpha
    if sector == "natural":
        p = ModelParams(m=1.0, alpha=alpha, lambda0=lambda0, lambda_r=1.0)
        sol = natural_solution(p, n, J)
    else:
        p = ModelParams(m=1.0, alpha=alpha, lambda0=0.0, lambda_r=1.0)
        sol = unnatural_solution(p, n, sector)
    assert sol.residual_sup <= 1e-8
    assert abs(deformed_norm(sol, p) - 1.0) <= 1e-9
    assert count_nodes(sol) == n


@pytest.mark.parametrize("sector", ["natural", "h0"])
@pytest.mark.parametrize("alpha,n,cause", [
    (1e-30, 2, "underflows to 0 at every grid point"),
    (1e-60, 2, "underflows to 0 at every grid point"),
    (1e-60, 4, "P_4 or its derivatives overflow"),
    (1e-100, 2, "P_2 or its derivatives overflow"),
])
def test_a_sample_beyond_the_float_range_is_unsupported(sector, alpha, n,
                                                        cause):
    # far below the documented alpha range the weight rho^a (1-rho)^b
    # underflows at every grid point, and the Jacobi values overflow: the
    # audit used to pass an all-zero sample, or to blame the grid for a NaN
    # residual after numpy's overflow warnings
    params = ModelParams(1.0, alpha, 0.5 if sector == "natural" else 0.0, 1.0)
    build = (lambda: natural_solution(params, n, 0)) if sector == "natural" \
        else (lambda: unnatural_solution(params, n, sector))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedRegime, match=cause):
            build()
