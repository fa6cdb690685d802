import ast
import collections
import itertools
import math
import pathlib
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from dkp_eup import oracle, verify
from dkp_eup.errors import (ComplexEnergy, ComplexExponent, NonConvergence,
                            NonFiniteParameter, UnsupportedRegime)
from dkp_eup.model import ModelParams
from dkp_eup.oracle import (Sector, compare, discretize, lowest_energies,
                            solve_lowest)
from dkp_eup.spectrum import (energy_natural, energy_unnatural_h0,
                              energy_unnatural_phi, exponents, level)

REF = ModelParams(m=1.0, alpha=0.1, lambda0=0.5, lambda_r=1.0)


def reference_t(params, sector, grid, s_nodes=None):
    """(diag, off) of T = -G^T G as the oracle formed it before it kept only
    G: every entry from the logs of P and W, on the whole ball or on the
    cells centred at ``s_nodes``, whose end faces then carry no flux; None
    where an entry overflows."""
    c, sigma, _ = oracle._sector_constants(params, sector)
    _, log_f, log1m_f2, log_c, log1m_c2 = oracle._grid(grid)
    pw, qw = 2.0 * c - 1.0, sigma - c
    log_p = np.full(grid + 1, -np.inf)      # P = 0 on the walls
    log_p[1:grid] = pw * log_f + (qw + 1) * log1m_f2
    log_w = pw * log_c + qw * log1m_c2
    first, stop = 0, grid
    if s_nodes is not None:     # cell i is centred at (i + 1/2)/grid
        first = round(s_nodes[0] * grid - 0.5)
        stop = first + s_nodes.size
    log_p, log_w = log_p[first:stop + 1].copy(), log_w[first:stop]
    log_p[[0, -1]] = -np.inf
    l2h = 2.0 * math.log(1.0 / grid)
    with np.errstate(over="ignore"):
        off = np.exp(log_p[1:-1] - 0.5 * (log_w[:-1] + log_w[1:]) - l2h)
        diag = -(np.exp(log_p[1:] - log_w - l2h)
                 + np.exp(log_p[:-1] - log_w - l2h))
    if np.all(np.isfinite(diag)) and np.all(np.isfinite(off)):
        return diag, off
    return None


def assert_well_formed(prob):
    """One finite entry per kept cell, and s_nodes a read-only view of the
    shared centres."""
    assert prob.s_nodes.size == prob.half_weight.size == prob.flux.size + 1
    assert not prob.s_nodes.flags.writeable
    assert np.shares_memory(prob.s_nodes, oracle._grid(prob.grid_size)[0])
    for array in (prob.s_nodes, prob.half_weight, prob.flux):
        assert np.all(np.isfinite(array))


def test_discretize_shapes():
    assert oracle.DiscretizedProblem._fields == (
        "grid_size", "s_nodes", "half_weight", "flux", "e2_offset", "e2_scale")
    prob = discretize(REF, Sector.natural(0), 8)
    assert prob.grid_size == 8
    assert prob.half_weight.shape == (8,)
    assert prob.flux.shape == (7,)
    assert prob.s_nodes.shape == (8,)
    assert np.all(np.diff(prob.s_nodes) > 0)
    assert_well_formed(prob)
    with pytest.raises(ValueError, match="read-only"):
        prob.s_nodes[0] = 0.0


def test_a_negative_J_is_rejected_by_name():
    # Sector.natural(-1) belongs to no sector of the paper
    with pytest.raises(ValueError, match="J must be >= 0, got -1"):
        lowest_energies(REF, Sector.natural(-1), 3, 256)
    # nor does Sector.natural(1.5), which solved
    for J in (1.5, 2.0):
        with pytest.raises(TypeError):
            lowest_energies(REF, Sector.natural(J), 3, 256)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid_size", [100.5, 8.0])
def test_a_fractional_grid_size_is_a_type_error(grid_size):
    # 100.5 put a cell centre at s = 1, where log1p(-s^2) warned
    with pytest.raises(TypeError):
        discretize(REF, Sector.natural(0), grid_size)


def test_constant_function_is_the_ground_mode():
    # u = 1 satisfies the regularized equation with eigenvalue 0 (n = 0);
    # the zero-flux scheme reproduces that exactly up to rounding
    params = ModelParams(1.0, 0.2, 0.5, 1.0)
    prob = discretize(params, Sector.natural(0), 64)
    # undo the similarity transform: the symmetric matrix acts on W^(1/2) u
    c, sigma, _ = oracle._sector_constants(params, Sector.natural(0))
    s = prob.s_nodes
    half_w = np.exp(0.5 * ((2 * c - 1) * np.log(s) + (sigma - c) * np.log1p(-s * s)))
    # the Lanczos start reads this weight, scaled to a maximum of 1
    assert prob.half_weight == pytest.approx(half_w / half_w.max(),
                                             rel=1e-12)
    # so does the block -G^T G that the Sturm count runs on
    sums = oracle._RunningSums(prob, 2)
    assert s.size == prob.half_weight.size == 64     # every cell is kept
    v = half_w * np.ones(64)
    res = sums.diag * v
    res[:-1] += sums.off * v[1:]
    res[1:] += sums.off * v[:-1]
    res /= half_w
    assert np.max(np.abs(res)) < 1e-8 * np.max(np.abs(sums.diag))


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
    with pytest.raises(UnsupportedRegime, match="phi sector requires"):
        discretize(REF, Sector.phi(), 64)  # lambda0 != 0
    with pytest.raises(UnsupportedRegime, match="h0 sector requires"):
        discretize(REF, Sector.h0(), 64)
    with pytest.raises(UnsupportedRegime):
        discretize(ModelParams(1.0, 0.0, 0.5, 1.0), Sector.natural(0), 64)
    with pytest.raises(ComplexExponent):
        discretize(ModelParams(1.0, 0.1, 1.5, 1.0), Sector.natural(0), 64)
    with pytest.raises(ValueError):
        discretize(REF, Sector("bogus"), 64)
    with pytest.raises(ValueError, match="9 levels need a grid of at least "
                                         "9 cells, got grid_size 8"):
        solve_lowest(discretize(REF, Sector.natural(0), 8), 9)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        solve_lowest(discretize(REF, Sector.natural(0), 8), 0)


RICHARDSON_ALPHAS = (4e-3, 2e-3, 1e-3)


def assert_solves_meet_the_closed_form(params, J, k):
    # the lowest k levels at grid 8192 within 1e-9.  At the alphas of the
    # closed-form Richardson check in test_spectrum this bounds the oracle's
    # own Richardson value: |R_oracle - E_limit| <= 5 max|oracle - closed|
    # + |R_closed - E_limit| < 5e-9 + 9e-8, inside the former 1e-7 gate
    numeric = lowest_energies(params, Sector.natural(J), k, 8192)
    closed = [energy_natural(params, n, J).value for n in range(k)]
    assert numeric == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("alpha", RICHARDSON_ALPHAS)
@pytest.mark.parametrize("J", [0, 1, 2])
def test_whole_ball_solves_at_the_extrapolation_alphas(alpha, J):
    # n <= 4; the measured worst is 9.2e-11
    params = ModelParams(m=1.0, alpha=alpha, lambda0=0.5, lambda_r=1.0)
    assert_solves_meet_the_closed_form(params, J, 5)


@pytest.mark.parametrize("alpha", RICHARDSON_ALPHAS)
@pytest.mark.parametrize("lambda0,lambda_r", [(0.0, 2.0), (3.0, 10.0)])
def test_strong_coupling_solves_at_the_extrapolation_alphas(lambda0, lambda_r,
                                                            alpha):
    # sigma - C = sqrt(Q)/alpha reaches 9,541 at alpha 1e-3 for (3, 10); n
    # and J <= 1, measured worst 5.0e-10 there (n 1, J 0).  At n <= 4 the
    # (3, 10) cells reach 1.1e-8: the cut is sized for level 0 (ROADMAP
    # item 1)
    params = ModelParams(1.0, alpha, lambda0, lambda_r)
    for J in (0, 1):
        assert_solves_meet_the_closed_form(params, J, 2)


def test_richardson_extrapolation_without_a_real_exponent_raises():
    # lambda_r^2 < lambda0^2 at the smallest Richardson alpha: the oracle's
    # own constants reject it
    with pytest.raises(ComplexExponent):
        discretize(ModelParams(1.0, 1e-3, 1.5, 1.0), Sector.natural(0), 8192)


def test_oracle_does_not_import_the_spectrum_module():
    # double-entry bookkeeping: the solver must not reuse the formula code
    src = pathlib.Path(oracle.__file__).read_text()
    assert not re.search(r"^\s*(from|import)\s+\S*spectrum", src, re.M)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["natural", "phi", "h0"]), J=st.integers(0, 20),
       alpha=st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e),
       lambda_r=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       ratio=st.floats(0.0, 1.0))
@example(kind="h0", J=0, alpha=3.0, lambda_r=1.0, ratio=0.0)
@example(kind="h0", J=0, alpha=1.0, lambda_r=0.0, ratio=0.0)
def test_oracle_and_formulas_share_one_boundary_condition(kind, J, alpha,
                                                          lambda_r, ratio):
    # the oracle derives (C, sigma) itself; both layers must encode the same
    # exponents (a, b), also below lambdaR/alpha = 1/2 where h0 has two roots
    p = ModelParams(m=1.0, alpha=alpha, lambda_r=lambda_r,
                    lambda0=ratio * lambda_r if kind == "natural" else 0.0)
    c, sigma, _ = oracle._sector_constants(p, Sector(kind, J))
    a, b = exponents(p, kind, J)
    assert c == pytest.approx(2.0 * a + 0.5, rel=1e-14)
    assert sigma == pytest.approx(2.0 * (a + b), rel=1e-14)


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
    assert_matches_tight_bisection(p, Sector(kind, J), grid, k)


def assert_matches_tight_bisection(params, sector, grid, k):
    """solve_lowest against LAPACK bisection on reference_t, of the whole
    ball or, where an entry of that overflows, of the kept cells."""
    prob = discretize(params, sector, grid)
    e2 = solve_lowest(prob, k)
    lam = (e2 - prob.e2_offset) / prob.e2_scale
    diag, off = (reference_t(params, sector, grid)
                 or reference_t(params, sector, grid, prob.s_nodes))
    ref = eigvalsh_tridiagonal(diag, off, select="i",
                               select_range=(diag.size - k, diag.size - 1),
                               tol=1e-11)[::-1]
    assert np.all(np.diff(e2) > 0)
    assert e2[0] == prob.e2_offset          # level 0 is exact
    err = np.abs(lam - ref)
    # 1e-7 absolute near lambda = 0; far from it, the certified radius
    # grows like eps lambda^2, inside the bound of the former shift-invert
    # solve, eps (1 - lambda)^2
    assert np.all(err[np.abs(lam) <= 1e3] <= 1e-7)
    assert np.all(err <= 1e-7 + grid * oracle.EPS * (1.0 - lam) ** 2)


# the first Sturm count finds k + 1 levels on these: the next Ritz value is
# still too poor to place the floor, and the following step settles it
EARLY_OVERCOUNT_CELLS = [
    (ModelParams(1.0, 1.5601538242033932, 0.3376909040633287, 1.0),
     Sector.natural(0), 8192),
    (ModelParams(1.0, 1.422429662160269, 0.0, 1.0), Sector("phi", 7), 8192),
]


@pytest.mark.parametrize("params,sector,grid", EARLY_OVERCOUNT_CELLS,
                         ids=["natural-8192", "phi-8192"])
def test_an_early_overcount_costs_steps_not_an_error(params, sector, grid,
                                                     monkeypatch):
    k, count, counts = 3, oracle._sturm_count, []

    def recorded(*args):
        counts.append(count(*args))
        return counts[-1]

    monkeypatch.setattr(oracle, "_sturm_count", recorded)
    assert_matches_tight_bisection(params, sector, grid, k)
    # the cell still reaches the path it names: an overcount, then k
    assert counts[0] == k + 1 and counts[-1] == k, counts


def test_a_single_spurious_overcount_returns_the_same_levels(monkeypatch):
    prob = discretize(REF, Sector.natural(0), 256)
    want = solve_lowest(prob, 3)
    count, calls = oracle._sturm_count, []

    def overcount_once(*args):
        calls.append(args)
        return count(*args) + (len(calls) == 1)

    monkeypatch.setattr(oracle, "_sturm_count", overcount_once)
    # one more step moves the levels within the stop tolerance only
    assert solve_lowest(prob, 3) == pytest.approx(want, rel=1e-13, abs=0)
    assert len(calls) == 2


def test_a_sturm_count_of_k_plus_one_raises_non_convergence(monkeypatch):
    count = oracle._sturm_count
    monkeypatch.setattr(oracle, "_sturm_count", lambda *args: count(*args) + 1)
    with pytest.raises(NonConvergence, match="Sturm count finds 4"):
        solve_lowest(discretize(REF, Sector.natural(0), 256), 3)


def test_a_next_ritz_value_above_shift_is_treated_as_unknown(capfd):
    # a Ritz value <= 0 below the wanted ones has no image below them: its
    # `below` lies above the top of the spectrum and must count as unknown
    # (a shift-invert solve once handed such a floor to LAPACK's dstebz,
    # which rejected it on stderr and counted 0 levels)
    params = ModelParams(1.0, 1.0, 0.2, 1.0)
    prob = discretize(params, Sector.natural(0), 64)
    lam = eigh_tridiagonal(*reference_t(params, Sector.natural(0), 64),
                           eigvals_only=True)[-2]
    theta, radius = [-1.0 / lam], [-1e-13 / lam]
    sums = oracle._RunningSums(prob, 2)
    vl = oracle._count_floor(theta[-1], radius[-1], sums.omega, 1e16)
    assert vl < lam
    assert oracle._certify(sums, theta, radius, vl) == 2
    assert capfd.readouterr().err == ""


def test_an_unconverged_lanczos_raises_non_convergence(monkeypatch):
    # a negative tolerance is never met; 0 would be, once s_ji underflows
    monkeypatch.setattr(oracle, "RITZ_TOL", -1.0)
    with pytest.raises(NonConvergence,
                       match=r"did not converge .* in 52 steps: the worst "
                             r"gap bound is \S+ .* above RITZ_TOL = -1$"):
        solve_lowest(discretize(REF, Sector.natural(0), 256), 3)


def test_ritz_intervals_that_reach_theta_0_raise_non_convergence(
        monkeypatch):
    # with an infinite rounding bound every Ritz interval reaches theta = 0,
    # so no gap bound is ever formed and Lanczos runs out of steps
    init = oracle._RunningSums.__init__

    def unbounded(self, problem, k):
        init(self, problem, k)
        self.rounding = math.inf
    monkeypatch.setattr(oracle._RunningSums, "__init__", unbounded)
    with pytest.raises(NonConvergence,
                       match=r"did not converge on 3 levels in 52 steps: a "
                             r"Ritz interval reaches theta = 0$"):
        solve_lowest(discretize(REF, Sector.natural(0), 256), 3)


def test_overlapping_ritz_intervals_raise_non_convergence():
    # mapped to lambda, 0.5 +- 0.02 and 0.49 +- 0.02 share [-2.08, -1.96]:
    # neither interval can be proven to hold its own eigenvalue
    sums = oracle._RunningSums(discretize(REF, Sector.natural(0), 256), 3)
    with pytest.raises(NonConvergence, match="Ritz intervals overlap"):
        oracle._certify(sums, [0.5, 0.49], [0.02, 0.02], -1e3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind,alpha,lambda0,tol", [
    ("natural", 8e-4, 0.5, 1e-9),       # sigma - C = 1,083; measured 1.4e-10
    ("natural", 2e-4, 0.5, 1e-8),       # 2.2e-9
    ("phi", 1e-4, 0.0, 1e-7),           # 1.1e-8
    ("h0", 1e-4, 0.0, 1e-7),            # 1.3e-8
    ("natural", 1e-5, 0.5, 1e-5),       # sigma - C = 86,603; 8.7e-7
])
def test_cells_whose_whole_ball_entries_overflow_match_the_formulas(
        kind, alpha, lambda0, tol):
    # T over the whole ball overflows on these cells; G on the kept cells does
    # not, and its 5 lowest levels at grid 8192 meet the closed forms
    params = ModelParams(m=1.0, alpha=alpha, lambda0=lambda0, lambda_r=1.0)
    sector = Sector(kind, 0)
    assert reference_t(params, sector, 8192) is None
    prob = discretize(params, sector, 8192)
    assert_well_formed(prob)
    numeric = lowest_energies(params, sector, 5, 8192)
    closed = [level(params, kind, n).value for n in range(5)]
    assert numeric == pytest.approx(closed, rel=tol)


def test_a_window_of_fewer_cells_than_levels_names_the_grid():
    # at alpha 1e-9 one cell of 64 carries W^(1/2) >= eps of its peak: the
    # typed error names the grid, with no RuntimeWarning before it
    weak = ModelParams(m=1.0, alpha=1e-9, lambda0=0.5, lambda_r=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prob = discretize(weak, Sector.natural(0), 64)
        with pytest.raises(UnsupportedRegime,
                           match="grid 64 is too coarse for alpha = 1e-09"):
            solve_lowest(prob, 5)
        # sigma - C = 1e308: the log of the wall weight overflows to -inf
        tiny = discretize(ModelParams(1.0, 1e-308, 0.0, 1.0), Sector.phi(), 64)
        with pytest.raises(UnsupportedRegime, match="grid 64 is too coarse"):
            solve_lowest(tiny, 3)
    for p in (prob, tiny):
        # the innermost cell alone, with no inner face
        assert p.s_nodes.tolist() == [0.5 / 64]
        assert p.half_weight.size == 1 and p.flux.size == 0
        assert_well_formed(p)


def test_overflowing_q_is_named_without_a_warning():
    # Q = inf used to reach the log-space weights as NaN and raise advice
    # to cut the domain, which cannot help
    huge = ModelParams(m=1.0, alpha=1e200, lambda0=0.5, lambda_r=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedRegime, match=r"^Q = .* overflows") as info:
            discretize(huge, Sector.natural(0), 64)
    assert "auto_cut" not in str(info.value)


@pytest.mark.parametrize("kind", ["natural", "phi", "h0"])
@pytest.mark.parametrize("field", ["m", "alpha", "lambda0", "lambda_r"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_parameter_is_named_before_any_arithmetic(kind, field,
                                                               value):
    # NaN used to be reported as an overflow of Q, sigma or the E^2 offset
    params = ModelParams(1.0, 0.1, 0.0, 1.0)._replace(**{field: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteParameter,
                           match=f"^parameter {field} = {value} ") as info:
            discretize(params, Sector(kind), 64)
    assert info.value.name == field


def test_the_first_non_finite_parameter_is_named():
    with pytest.raises(NonFiniteParameter, match="^parameter alpha = inf "):
        discretize(ModelParams(1.0, math.inf, math.nan, 1.0), Sector.phi(), 64)


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
    # one running-sum application per Lanczos step; the former shift-invert
    # solve needed 23-25 from a random start and 17-19 with a first-order
    # Ritz bound from the polynomial start
    steps = []
    apply = oracle._RunningSums.__call__

    def counted(self, y):
        steps[-1] += 1
        return apply(self, y)

    monkeypatch.setattr(oracle._RunningSums, "__call__", counted)
    for params, sector, J in verify.NATURAL_CELLS + verify.UNNATURAL_CELLS:
        steps.append(0)
        solve_lowest(discretize(params, Sector(sector, J), 8192), 5)
    assert max(steps) <= 13, steps


def test_a_start_without_the_ground_mode_costs_steps_not_correctness(
        monkeypatch):
    # the start W^(1/2) (rho + rho^2) has no constant term: the ground mode
    # is the null vector, returned exactly; a start that lacks the first
    # excited mode too costs steps or raises, and never gives wrong levels
    k, grid = 3, 256
    prob = discretize(REF, Sector.natural(0), grid)
    rho = prob.s_nodes ** 2
    assert oracle._start_poly(prob.s_nodes, k) == pytest.approx(
        rho + rho ** 2, rel=1e-15)
    diag, off = reference_t(REF, Sector.natural(0), grid)
    ref = eigvalsh_tridiagonal(diag, off, select="i",
                               select_range=(grid - k, grid - 1),
                               tol=1e-11)[::-1]
    e2 = solve_lowest(prob, k)
    assert e2[0] == prob.e2_offset
    assert np.all(np.abs((e2 - prob.e2_offset) / prob.e2_scale - ref) <= 1e-7)
    first = eigh_tridiagonal(diag, off, select="i",
                             select_range=(grid - 2, grid - 2))[1][:, 0]
    start = prob.half_weight * oracle._start_poly(prob.s_nodes, k)
    start -= (first @ start) * first
    monkeypatch.setattr(oracle, "_start_poly",
                        lambda s_nodes, levels: start / prob.half_weight)
    try:
        e2 = solve_lowest(prob, k)
    except NonConvergence:
        return
    assert np.all(np.abs((e2 - prob.e2_offset) / prob.e2_scale - ref) <= 1e-7)


def _reference_outputs(grid):
    """discretize's arrays and solve_lowest's 5 levels on the 22 reference
    cells."""
    out = []
    for params, sector, J in verify.NATURAL_CELLS + verify.UNNATURAL_CELLS:
        prob = discretize(params, Sector(sector, J), grid)
        out += [prob.s_nodes, prob.half_weight, prob.flux,
                solve_lowest(prob, 5)]
    return out


def test_shared_grid_arrays_do_not_change_the_outputs():
    grid = 8192
    assert len(verify.NATURAL_CELLS + verify.UNNATURAL_CELLS) == 22
    oracle._grid.cache_clear()
    cold = _reference_outputs(grid)
    warm = _reference_outputs(grid)     # every array from the cache
    oracle._grid.cache_clear()
    rebuilt = _reference_outputs(grid)
    for other in (warm, rebuilt):
        assert all(np.array_equal(x, y) for x, y in zip(cold, other, strict=True))
    # the comparison sees a cached array that is made writable and changed
    # (in the middle: a doubled first log-center would make a first row so
    # stiff that the certificate rejects the solve); the centres reach the
    # solve through the Lanczos start, formed from s_nodes at every solve
    try:
        for cached in (oracle._grid(grid)[3], oracle._grid(grid)[0]):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.0
            cached.flags.writeable = True
            cached[grid // 2] *= 2.0
            assert not all(np.array_equal(x, y) for x, y in
                           zip(cold, _reference_outputs(grid), strict=True))
            cached[grid // 2] /= 2.0
    finally:
        oracle._grid.cache_clear()


def test_the_grid_caches_stay_bounded():
    for n in range(16, 36):
        solve_lowest(discretize(REF, Sector.natural(0), n), 2)
    info = oracle._grid.cache_info()
    assert info.currsize <= info.maxsize == oracle.GRID_CACHE_SIZE


def test_ground_level_on_the_finest_grid_is_below_1e_10():
    # the old bisection stopped at eps * ||T||_1 and gave 7.5e-10 here
    exact = energy_natural(REF, 0, 0).value
    numeric = lowest_energies(REF, Sector.natural(0), 1, 16384)[0]
    assert abs(numeric - exact) / exact < 1e-10


def _sturm_problems(seed=7):
    """(diag, off) of random symmetric tridiagonals and of the oracle's
    former whole-ball T, grids 2 to 8192."""
    rng = np.random.default_rng(seed)
    for grid in (2, 3, 5, 8, 33, 256, 257, 1000, 4096, 8192):
        yield rng.standard_normal(grid), rng.standard_normal(grid - 1)
        kind = ("natural", "phi", "h0")[grid % 3]
        p = ModelParams(1.0, float(rng.uniform(0.05, 2.0)),
                        0.5 if kind == "natural" else 0.0, 1.0)
        yield reference_t(p, Sector(kind, grid % 4), grid)


def _record_pivot_counts(monkeypatch):
    """The sizes of the matrices ``oracle._pivot_count`` is called on."""
    sizes, pivots = [], oracle._pivot_count

    def recorded(diag, off):
        sizes.append(diag.size)
        return pivots(diag, off)

    monkeypatch.setattr(oracle, "_pivot_count", recorded)
    return sizes


def test_the_cyclic_sturm_count_matches_the_sequential_pivots(monkeypatch):
    # shifts at mid-gap and at 1% of a gap from an eigenvalue, on both
    # sides of it, with a slack of half of that 1%
    pivots = oracle._pivot_count
    fallbacks = _record_pivot_counts(monkeypatch)
    shifts = 0
    for diag, off in _sturm_problems():
        lam = eigvalsh_tridiagonal(diag, off)
        grid = diag.size
        for i in sorted({0, grid // 3, grid // 2, grid - 2}):
            if i + 1 >= grid:
                continue
            gap = lam[i + 1] - lam[i]
            for shift in (lam[i] + 0.5 * gap, lam[i] + 0.01 * gap,
                          lam[i + 1] - 0.01 * gap):
                fallbacks.clear()
                count = oracle._sturm_count(diag, off, shift, 0.005 * gap)
                assert count == grid - 1 - i
                assert count == pivots(diag - shift, off)
                # the cyclic reduction served every grid above its last rows
                assert grid <= oracle.SEQUENTIAL_ROWS or fallbacks[0] < grid
                shifts += 1
    assert shifts == 210


def test_a_zero_pivot_counts_as_negative():
    # q_0 = 0 becomes -pivmin, so q_1 = 1 - 1/(-pivmin) is positive: one
    # positive eigenvalue, (1 + sqrt 5)/2, and one negative
    diag, off = np.array([0.0, 1.0]), np.array([1.0])
    lam = eigvalsh_tridiagonal(diag, off)
    assert oracle._pivot_count(diag, off) == np.count_nonzero(lam > 0) == 1


def test_a_zero_cyclic_pivot_falls_back_to_the_sequential_pivots(monkeypatch):
    # row 1 of T - shift I is 0: the first level divides by it, and the
    # bound it feeds is no longer finite
    grid = 1000
    diag, off = np.full(grid, 3.0), np.ones(grid - 1)
    diag[1] = 0.0
    lam = eigvalsh_tridiagonal(diag, off)
    fallbacks = _record_pivot_counts(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        count = oracle._sturm_count(diag, off, 0.0, 1e-3)
    assert fallbacks == [grid]
    assert count == np.count_nonzero(lam > 0.0)


def test_a_sturm_count_it_cannot_resolve_raises_non_convergence():
    # a slack below the rounding of the entries leaves no count certified
    diag, off = np.full(300, -2.0e12), np.full(299, 1.0e12)
    with pytest.raises(NonConvergence, match="cannot be resolved"):
        oracle._sturm_count(diag, off, -1.0, 1e-6)


def _coarse_cells(count, seed=2024):
    """The coarse-grid probe: random sectors at grids 8 to 64 and alpha in
    [1e-4, 1e-1], k up to min(grid, 8)."""
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.choice(["natural", "phi", "h0"])
        J = rng.randint(0, 4) if kind == "natural" else 0
        alpha = 10.0 ** rng.uniform(-4.0, -1.0)
        lambda0 = rng.uniform(0.0, 0.95) if kind == "natural" else 0.0
        grid = rng.choice([8, 16, 32, 64])
        k = rng.randint(1, min(grid, 8))
        yield ModelParams(1.0, alpha, lambda0, 1.0), Sector(kind, J), grid, k


def test_coarse_grids_solve_or_name_the_grid_as_too_coarse():
    # every 5th cell of the 1,500-cell probe; the former shift-invert solve
    # raised NonConvergence on 61 grid-8 and 3 grid-16 cells of it, and a
    # RuntimeWarning on one.  Of all 1,500, 1,196 solve (263 of them where
    # the whole-ball T overflows) and 304 name the grid as too coarse
    outcomes = collections.Counter()
    for params, sector, grid, k in itertools.islice(_coarse_cells(1500), 0,
                                                    None, 5):
        assert_well_formed(discretize(params, sector, grid))
        try:
            assert_matches_tight_bisection(params, sector, grid, k)
            outcomes["solved"] += 1
        except (NonConvergence, UnsupportedRegime) as exc:
            assert re.search(rf"grid {grid} is too coarse for alpha = "
                             rf"{params.alpha:g}", str(exc)), str(exc)
            outcomes[type(exc).__name__] += 1
    assert outcomes["solved"] >= 235     # measured 241
    assert outcomes["NonConvergence"] == 0
