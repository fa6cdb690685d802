import ast
import dataclasses
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from dkp_eup import oracle, verify
from dkp_eup.errors import (ComplexEnergy, ComplexExponent, NonConvergence,
                            UnsupportedRegime)
from dkp_eup.model import ModelParams
from dkp_eup.oracle import (LIMIT_GRID, Sector, compare, discretize,
                            extrapolated_limit_energy, lowest_energies,
                            solve_lowest)
from dkp_eup.spectrum import (energy_natural, energy_natural_limit,
                              energy_unnatural_h0, energy_unnatural_phi)

REF = ModelParams(m=1.0, alpha=0.1, lambda0=0.5, lambda_r=1.0)


def test_discretize_shapes():
    prob = discretize(REF, Sector.natural(0), 8)
    assert prob.grid_size == 8
    assert prob.diag.shape == (8,)
    assert prob.offdiag.shape == (7,)
    assert prob.s_nodes.shape == (8,)
    assert np.all(np.diff(prob.s_nodes) > 0)


def test_constant_function_is_the_ground_mode():
    # u = 1 satisfies the regularized equation with eigenvalue 0 (n = 0);
    # the zero-flux scheme reproduces that exactly up to rounding
    params = ModelParams(1.0, 0.2, 0.5, 1.0)
    prob = discretize(params, Sector.natural(0), 64)
    # undo the similarity transform: the symmetric matrix acts on W^(1/2) u
    c, sigma, _ = oracle._sector_constants(params, prob.sector)
    s = prob.s_nodes
    half_w = np.exp(0.5 * ((2 * c - 1) * np.log(s) + (sigma - c) * np.log1p(-s * s)))
    # the Lanczos start reads this weight, scaled to a maximum of 1
    assert prob.half_weight == pytest.approx(half_w / half_w.max(),
                                             rel=1e-12)
    v = half_w * np.ones(64)
    res = prob.diag * v
    res[:-1] += prob.offdiag * v[1:]
    res[1:] += prob.offdiag * v[:-1]
    res /= half_w
    assert np.max(np.abs(res)) < 1e-8 * np.max(np.abs(prob.diag))


def test_lowest_level_matches_reference_energy():
    e2 = solve_lowest(discretize(REF, Sector.natural(0), 4096), 1)
    assert math.sqrt(e2[0]) == pytest.approx(2.240519537270967, rel=1e-5)
    assert e2[0] == pytest.approx(5.019927796892908, rel=1e-5)


def test_levels_strictly_increasing():
    e2 = solve_lowest(discretize(REF, Sector.natural(1), 2048), 3)
    assert e2[0] < e2[1] < e2[2]


def test_h0_ground_state_matches_formula():
    p = ModelParams(m=1.0, alpha=0.1, lambda0=0.0, lambda_r=1.0)
    e = lowest_energies(p, Sector.h0(), 1, 4096)[0]
    assert e == pytest.approx(1.7606816861659, rel=1e-5)


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
def test_compare_passes_on_reference_sweep(alpha):
    p = ModelParams(m=1.0, alpha=alpha, lambda0=0.5, lambda_r=1.0)
    analytic = [energy_natural(p, n, 0).value for n in range(5)]
    report = compare(p, Sector.natural(0), analytic, grid_size=4096, tol=1e-6)
    assert report.passed, report.summary()


def test_double_entry_extends_to_J_three():
    p = ModelParams(m=1.0, alpha=0.1, lambda0=0.5, lambda_r=1.0)
    analytic = [energy_natural(p, n, 3).value for n in range(5)]
    report = compare(p, Sector.natural(3), analytic, grid_size=8192, tol=1e-5)
    assert report.passed, report.summary()


def test_compare_detects_corrupted_rotational_term():
    J = 2
    p = ModelParams(m=1.0, alpha=0.1, lambda0=0.5, lambda_r=1.0)
    corrupted = [math.sqrt(energy_natural(p, n, J).value ** 2
                           + 0.1 * p.alpha * J * (J + 1))
                 for n in range(5)]
    report = compare(p, Sector.natural(J), corrupted, grid_size=2048, tol=1e-6)
    assert not report.passed
    assert all(r.rel_error > 1e-4 for r in report.rows)


def test_refinement_convergence_is_at_least_second_order():
    # symmetric discretization: eigenvalues gain the variational square,
    # so the observed ratio under doubling is ~16 rather than the plain 4
    exact = energy_natural(REF, 2, 0).value
    errs = []
    for grid in (128, 256, 512):
        e2 = solve_lowest(discretize(REF, Sector.natural(0), grid), 3)
        errs.append(abs(math.sqrt(e2[2]) - exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_unnatural_sector_guards():
    with pytest.raises(UnsupportedRegime):
        discretize(REF, Sector.phi(), 64)  # lambda0 != 0
    with pytest.raises(UnsupportedRegime):
        discretize(ModelParams(1.0, 0.0, 0.5, 1.0), Sector.natural(0), 64)
    with pytest.raises(ComplexExponent):
        discretize(ModelParams(1.0, 0.1, 1.5, 1.0), Sector.natural(0), 64)
    with pytest.raises(ValueError):
        discretize(REF, Sector("bogus"), 64)
    with pytest.raises(ValueError):
        solve_lowest(discretize(REF, Sector.natural(0), 8), 9)


@pytest.mark.parametrize("alpha", [4e-3, 2e-3, 1e-3])
@pytest.mark.parametrize("J", [0, 1, 2])
def test_whole_ball_solves_at_the_extrapolation_alphas(alpha, J):
    # the solves behind extrapolated_limit_energy, n <= 4, against the
    # closed form; the measured worst is 9.2e-11
    params = ModelParams(m=1.0, alpha=alpha, lambda0=0.5, lambda_r=1.0)
    numeric = lowest_energies(params, Sector.natural(J), 5, LIMIT_GRID)
    closed = [energy_natural(params, n, J).value for n in range(5)]
    assert numeric == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("J", [0, 1])
@pytest.mark.parametrize("n", [0, 1])
def test_richardson_extrapolation_reaches_the_limit_formula(J, n):
    # fully independent check of the undeformed closed form, including its
    # 2J dependence, from deformed eigensolves alone; measured worst 7.3e-9
    extrap = extrapolated_limit_energy(1.0, 0.5, 1.0, n, J)
    closed = energy_natural_limit(ModelParams(1.0, 0.0, 0.5, 1.0), n, J).value
    assert extrap == pytest.approx(closed, rel=1e-7)


@pytest.mark.parametrize("n,J", [(0, 0), (1, 1)])
@pytest.mark.parametrize("lambda0,lambda_r", [(0.0, 2.0), (3.0, 10.0)])
def test_richardson_extrapolation_at_strong_couplings(lambda0, lambda_r, n, J):
    # at alpha 1e-3 these couplings would overflow the entries; the scaled
    # alphas keep them solvable (measured worst 8.0e-9)
    extrap = extrapolated_limit_energy(1.0, lambda0, lambda_r, n, J)
    params = ModelParams(1.0, 0.0, lambda0, lambda_r)
    closed = energy_natural_limit(params, n, J).value
    assert extrap == pytest.approx(closed, rel=1e-7)


def test_richardson_extrapolation_without_a_real_exponent_raises():
    # lambda_r^2 < lambda0^2: the scaling of alpha must not take a sqrt of it
    with pytest.raises(ComplexExponent):
        extrapolated_limit_energy(1.0, 1.5, 1.0, 0, 0)


def test_oracle_does_not_import_the_spectrum_module():
    # double-entry bookkeeping: the solver must not reuse the formula code
    src = pathlib.Path(oracle.__file__).read_text()
    assert not re.search(r"^\s*(from|import)\s+\S*spectrum", src, re.M)


@pytest.mark.parametrize("sector,formula", [
    (Sector.phi(), energy_unnatural_phi),
    (Sector.h0(), energy_unnatural_h0),
])
def test_unnatural_sectors_against_formulas(sector, formula):
    p = ModelParams(m=1.0, alpha=0.05, lambda0=0.0, lambda_r=1.0)
    analytic = [formula(p, n).value for n in range(4)]
    report = compare(p, sector, analytic, grid_size=4096, tol=1e-6)
    assert report.passed, report.summary()


def test_nan_analytic_energy_fails_the_comparison():
    rep = compare(REF, Sector.natural(0), [2.2405195372709, math.nan],
                  grid_size=1024, tol=1e-5)
    assert math.isnan(rep.worst)
    assert not rep.passed


def test_negative_e2_raises_complex_energy():
    # lambda_r < 0 puts the h0 ground state below E^2 = 0
    p = ModelParams(m=1.0, alpha=0.1, lambda0=0.0, lambda_r=-1.0)
    with pytest.raises(ComplexEnergy) as info:
        lowest_energies(p, Sector.h0(), 1, grid_size=256)
    assert info.value.radicand == pytest.approx(-0.9, abs=1e-6)


def test_oracle_imports_only_model_and_errors():
    # independence of the cross-check: no path into the formula layer
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            package |= ({node.module} if node.module else
                        {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("dkp_eup"):
            package.add(node.module.split(".", 1)[-1])
        elif isinstance(node, ast.Import):
            package |= {a.name.split(".", 1)[-1] for a in node.names
                        if a.name.startswith("dkp_eup")}
    assert package <= {"model", "errors"}
    assert package


@pytest.mark.parametrize("call", [
    lambda p: discretize(p, Sector.natural(0), 8),
    lambda p: lowest_energies(p, Sector.natural(0), 1, 8),
], ids=["discretize", "lowest_energies"])
def test_underflowed_alpha_still_raises_complex_exponent(call):
    # alpha^2 underflows to 0; the discriminant is -inf, not a ZeroDivisionError
    p = ModelParams(m=1.0, alpha=1e-170, lambda0=1.5, lambda_r=1.0)
    with pytest.raises(ComplexExponent) as info:
        call(p)
    assert info.value.discriminant == -math.inf


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["natural", "phi", "h0"]),
       J=st.integers(0, 4),
       alpha=st.floats(0.05, 2.0),
       lambda0=st.floats(0.0, 0.95),
       grid=st.integers(2, 2048),
       data=st.data())
def test_solve_lowest_matches_tight_bisection(kind, J, alpha, lambda0, grid,
                                              data):
    k = data.draw(st.integers(1, min(grid, 8)), label="k")
    p = ModelParams(m=1.0, alpha=alpha,
                    lambda0=lambda0 if kind == "natural" else 0.0,
                    lambda_r=1.0)
    assert_matches_tight_bisection(discretize(p, Sector(kind, J), grid), k)


def assert_matches_tight_bisection(prob, k):
    e2 = solve_lowest(prob, k)
    lam = (e2 - prob.e2_offset) / prob.e2_scale
    grid = prob.grid_size
    ref = eigvalsh_tridiagonal(prob.diag, prob.offdiag, select="i",
                               select_range=(grid - k, grid - 1),
                               tol=1e-11)[::-1]
    assert np.all(np.diff(e2) > 0)
    err = np.abs(lam - ref)
    # 1e-7 absolute near the shift; far from it, shift-invert resolves
    # lambda only to about eps (SHIFT - lambda)^2 (the certified radius)
    assert np.all(err[np.abs(lam) <= 1e3] <= 1e-7)
    assert np.all(err <= 1e-7 + grid * oracle.EPS * (oracle.SHIFT - lam) ** 2)


# the first Sturm count finds k + 1 levels on these: the next Ritz value is
# still too poor to place the floor, and the following step settles it
EARLY_OVERCOUNT_CELLS = [
    (ModelParams(1.0, 0.32077658231923, 0.7390495052943067, 1.0),
     Sector.natural(0), 16384),
    (ModelParams(1.0, 1.422429662160269, 0.0, 1.0), Sector("phi", 7), 8192),
]


@pytest.mark.parametrize("params,sector,grid", EARLY_OVERCOUNT_CELLS,
                         ids=["natural-16384", "phi-8192"])
def test_an_early_overcount_costs_steps_not_an_error(params, sector, grid):
    assert_matches_tight_bisection(discretize(params, sector, grid), 3)


def test_a_single_spurious_overcount_returns_the_same_levels(monkeypatch):
    prob = discretize(REF, Sector.natural(0), 256)
    want = solve_lowest(prob, 3)
    count, calls = oracle.dstebz, []

    def overcount_once(*args):
        calls.append(args)
        return (count(*args)[0] + (len(calls) == 1),)

    monkeypatch.setattr(oracle, "dstebz", overcount_once)
    # one more step moves the levels within the stop tolerance only
    assert solve_lowest(prob, 3) == pytest.approx(want, rel=1e-13, abs=0)
    assert len(calls) == 2


def test_a_sturm_count_of_k_plus_one_raises_non_convergence(monkeypatch):
    count = oracle.dstebz
    monkeypatch.setattr(oracle, "dstebz", lambda *args: (count(*args)[0] + 1,))
    with pytest.raises(NonConvergence, match="Sturm count finds 4"):
        solve_lowest(discretize(REF, Sector.natural(0), 256), 3)


def test_a_next_ritz_value_above_shift_is_treated_as_unknown(capfd):
    # a negative Ritz value below the wanted ones maps `below` above SHIFT;
    # dstebz used to reject that interval on stderr and count 0 levels
    prob = discretize(ModelParams(1.0, 1.0, 0.2, 1.0), Sector.natural(0), 64)
    lam = eigh_tridiagonal(prob.diag, prob.offdiag, eigvals_only=True)[:-3:-1]
    theta = 1.0 / (oracle.SHIFT - lam)
    vl = oracle._count_floor(theta, 1e-13 * theta, 1e16)
    assert oracle._certify(prob, theta, 1e-13 * theta, vl) == 2
    assert capfd.readouterr().err == ""


def test_an_unconverged_lanczos_raises_non_convergence(monkeypatch):
    # a negative tolerance is never met; 0 would be, once s_ji underflows
    monkeypatch.setattr(oracle, "RITZ_TOL", -1.0)
    with pytest.raises(NonConvergence,
                       match=r"did not converge .* in 52 steps: the worst "
                             r"gap bound is \S+ .* above RITZ_TOL = -1$"):
        solve_lowest(discretize(REF, Sector.natural(0), 256), 3)


def test_a_shift_inside_the_spectrum_raises_non_convergence():
    # SHIFT I - T must be positive definite for the factorization
    prob = discretize(REF, Sector.natural(0), 256)
    with pytest.raises(NonConvergence, match="positive definite"):
        solve_lowest(dataclasses.replace(prob, diag=prob.diag + 2.0), 3)


def test_overflowing_matrix_entries_raise_unsupported_regime():
    # at small alpha the wall weight overflows; the typed error must come
    # without a RuntimeWarning from np.exp before it, and name the exponent
    # that overflowed
    for alpha, grid_size in ((1e-9, 64), (8e-4, 8192)):
        weak = ModelParams(m=1.0, alpha=alpha, lambda0=0.5, lambda_r=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnsupportedRegime, match="overflow") as info:
                discretize(weak, Sector.natural(0), grid_size)
        message = str(info.value)
        assert "sigma - C = " in message and f"alpha = {alpha:g}" in message
        assert "auto_cut" not in message and "cut the domain" not in message


def test_overflowing_q_is_named_without_a_warning():
    # Q = inf used to reach the log-space weights as NaN and raise advice
    # to cut the domain, which cannot help
    huge = ModelParams(m=1.0, alpha=1e200, lambda0=0.5, lambda_r=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedRegime, match=r"^Q = .* overflows") as info:
            discretize(huge, Sector.natural(0), 64)
    assert "auto_cut" not in str(info.value)


@pytest.mark.parametrize("kind", ["phi", "h0"])
@pytest.mark.parametrize("params,name", [
    (ModelParams(m=1.0, alpha=1e-300, lambda0=0.0, lambda_r=1e10), "sigma"),
    (ModelParams(m=1.0, alpha=1.0, lambda0=0.0, lambda_r=1e308), "offset"),
], ids=["lr_over_alpha", "lambda_r"])
def test_overflowing_unnatural_constants_are_named(kind, params, name):
    # sigma = 2 + lr/alpha or the offset 6 lr used to reach the log-space
    # weights as inf and raise advice to cut the domain, which cannot help
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedRegime, match=name) as info:
            discretize(params, Sector(kind), 64)
    assert "auto_cut" not in str(info.value)


def test_reference_cells_converge_in_at_most_13_lanczos_steps(monkeypatch):
    # one dpttrs solve per Lanczos step; a random start needed 23-25, and
    # the first-order Ritz bound 17-19 from the polynomial start
    steps = []
    solve = oracle.dpttrs

    def counted(*args):
        steps[-1] += 1
        return solve(*args)

    monkeypatch.setattr(oracle, "dpttrs", counted)
    for params, sector, J in verify.NATURAL_CELLS + verify.UNNATURAL_CELLS:
        steps.append(0)
        solve_lowest(discretize(params, Sector(sector, J), 8192), 5)
    assert max(steps) <= 13, steps


def test_a_start_without_the_ground_mode_costs_steps_not_correctness():
    # the start is half_weight * (1 + rho + rho^2); rescale the weight so
    # that the start has the exact ground eigenvector projected out
    k, grid = 3, 256
    prob = discretize(REF, Sector.natural(0), grid)
    poly = np.polyval(np.ones(k), prob.s_nodes ** 2)
    ground = eigh_tridiagonal(prob.diag, prob.offdiag, select="i",
                              select_range=(grid - 1, grid - 1))[1][:, 0]
    start = prob.half_weight * poly
    start -= (ground @ start) * ground
    bad = dataclasses.replace(prob, half_weight=start / poly)
    try:
        e2 = solve_lowest(bad, k)
    except NonConvergence:
        return
    lam = (e2 - prob.e2_offset) / prob.e2_scale
    ref = eigvalsh_tridiagonal(prob.diag, prob.offdiag, select="i",
                               select_range=(grid - k, grid - 1),
                               tol=1e-11)[::-1]
    assert np.all(np.abs(lam - ref) <= 1e-7)


def _reference_outputs(grid):
    """discretize's arrays and solve_lowest's 5 levels on the 22 reference
    cells."""
    out = []
    for params, sector, J in verify.NATURAL_CELLS + verify.UNNATURAL_CELLS:
        prob = discretize(params, Sector(sector, J), grid)
        out += [prob.s_nodes, prob.half_weight, prob.diag, prob.offdiag,
                solve_lowest(prob, 5)]
    return out


def _clear_grid_caches():
    oracle._grid.cache_clear()
    oracle._start_poly.cache_clear()


def test_shared_grid_arrays_do_not_change_the_outputs():
    grid = 8192
    assert len(verify.NATURAL_CELLS + verify.UNNATURAL_CELLS) == 22
    _clear_grid_caches()
    cold = _reference_outputs(grid)
    warm = _reference_outputs(grid)     # every array from the caches
    _clear_grid_caches()
    rebuilt = _reference_outputs(grid)
    for other in (warm, rebuilt):
        assert all(np.array_equal(x, y) for x, y in zip(cold, other, strict=True))
    # the comparison sees a cached array that is made writable and changed
    try:
        for cached in (oracle._grid(grid)[3], oracle._start_poly(grid, 5)):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.0
            cached.flags.writeable = True
            cached[0] *= 2.0
            assert not all(np.array_equal(x, y) for x, y in
                           zip(cold, _reference_outputs(grid), strict=True))
            cached[0] /= 2.0
    finally:
        _clear_grid_caches()


def test_the_grid_caches_stay_bounded():
    for n in range(16, 36):
        solve_lowest(discretize(REF, Sector.natural(0), n), 2)
    for cache in (oracle._grid, oracle._start_poly):
        info = cache.cache_info()
        assert info.currsize <= info.maxsize == oracle.GRID_CACHE_SIZE


def test_ground_level_on_the_finest_grid_is_below_1e_10():
    # the old bisection stopped at eps * ||T||_1 and gave 7.5e-10 here
    exact = energy_natural(REF, 0, 0).value
    numeric = lowest_energies(REF, Sector.natural(0), 1, 16384)[0]
    assert abs(numeric - exact) / exact < 1e-10
