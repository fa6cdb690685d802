import itertools
import math
import random
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn
from scipy.special import eval_jacobi, hyp2f1, roots_jacobi

from dkp_eup import wavefunction
from dkp_eup.errors import (DivergentNorm, DkpError, GridTooCoarse,
                            OutOfDomain, ResidualFloor, UnsupportedRegime)
from dkp_eup.model import ModelParams, finite, xi_zeta
from dkp_eup.spectrum import exponents, level
from dkp_eup.wavefunction import (chebyshev_grid, count_nodes, deformed_norm,
                                  evaluate_primary, natural_solution,
                                  unnatural_solution, write_csv)

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
    p = UNNAT._replace(alpha=alpha)
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
        a, b = exponents(REF._replace(alpha=alpha), "natural")
    else:
        a, b = exponents(UNNAT._replace(alpha=alpha), "phi")
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
    vals = evaluate_primary(sol, wavefunction._node_grid(sol))
    return int(np.sum(vals[:-1] * vals[1:] < 0))


@pytest.mark.parametrize("alpha", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("sector", ["natural", "phi", "h0"])
def test_node_count_matches_the_product_rule(sector, alpha):
    # none of the 168 builds raises under the suite's RuntimeWarning filter,
    # so none is skipped.  At alpha 1e-7 every zero of n = 40 lies below
    # rho ~ 2e-5, where a 10,000-point Chebyshev grid has only 28 points.
    for n in (0, 1, 2, 5, 10, 20, 30, 40):
        if sector == "natural":
            sol = natural_solution(REF._replace(alpha=alpha), n, 0,
                                   tol=math.inf)
        else:
            sol = unnatural_solution(UNNAT._replace(alpha=alpha), n, sector,
                                     tol=math.inf)
        nodes = count_nodes(sol)
        assert nodes == _product_rule_nodes(sol)
        assert nodes == n


def _fine_count(sol):
    """Sign changes of the polynomial on the NODE_SAMPLES points of
    ``_node_grid``: the count of the fallback path."""
    sign = np.signbit(wavefunction._poly(
        sol.exponent_a, sol.exponent_b, sol.n,
        wavefunction._node_grid(sol)))
    return int(np.count_nonzero(sign[:-1] != sign[1:]))


def _grid_count(sol):
    """Sign changes of the build's own samples, by sign bit."""
    sign = np.signbit(sol.primary)
    return int(np.count_nonzero(sign[:-1] != sign[1:]))


def _forbid_poly(monkeypatch):
    def poly(*args, **kwargs):
        raise AssertionError("count_nodes sampled the polynomial again")
    monkeypatch.setattr(wavefunction, "_poly", poly)


@settings(max_examples=150, deadline=None)
@given(sector=st.sampled_from(["natural", "phi", "h0"]),
       n=st.integers(0, 40), J=st.integers(0, 4),
       log_alpha=st.floats(-8.0, 0.0),
       lambda0=st.floats(0.0, 1.0, exclude_max=True))
def test_node_count_is_n_and_the_fine_grid_count(sector, n, J, log_alpha,
                                                 lambda0):
    # the degree bound makes n sign changes on the build grid exact; where
    # the build grid shows fewer, the fine grid must agree as well
    alpha = 10.0 ** log_alpha
    if sector == "natural":
        sol = natural_solution(ModelParams(1.0, alpha, lambda0, 1.0), n, J,
                               tol=math.inf)
    else:
        sol = unnatural_solution(UNNAT._replace(alpha=alpha), n, sector,
                                 tol=math.inf)
    assert count_nodes(sol) == n
    assert _fine_count(sol) == n


@pytest.mark.parametrize("build,shown", [
    # 8 grid points cannot show 10 sign changes
    (lambda: natural_solution(REF, 10, 0, grid_size=8, tol=math.inf), 2),
    # every zero of n = 30 lies below rho ~ 2e-5, between two grid points
    (lambda: natural_solution(REF._replace(alpha=1e-7), 30, 0, tol=math.inf),
     1),
])
def test_a_build_grid_that_misses_zeros_falls_back_to_the_fine_grid(
        build, shown, monkeypatch):
    sol = build()
    assert _grid_count(sol) == shown
    sampled = []
    poly = wavefunction._poly

    def spy(a, b, n, rho, k=0):
        sampled.append(rho)
        return poly(a, b, n, rho, k)
    monkeypatch.setattr(wavefunction, "_poly", spy)
    assert count_nodes(sol) == sol.n
    assert len(sampled) == 1
    assert np.array_equal(sampled[0], wavefunction._node_grid(sol))


_FALLBACK_CELLS = [(1e-4, 8), (1e-4, 64), (1e-6, 64), (1e-6, 2048),
                   (1e-8, 2048)]


@pytest.mark.parametrize("alpha,grid_size", _FALLBACK_CELLS)
@pytest.mark.parametrize("sector,J", [("natural", 0), ("natural", 4),
                                      ("phi", 0), ("h0", 0)])
def test_the_fallback_counts_n_on_one_scaled_grid(sector, J, alpha,
                                                  grid_size, monkeypatch):
    # n = 10, 20 and 40 at alpha <= 1e-4 or on coarse grids, where the
    # build's samples show fewer than n sign changes: count_nodes samples
    # the NODE_SAMPLES Chebyshev points of _node_grid, scaled to c < 1/2,
    # and finds n.  No other grid size is asked for, so the fallback adds
    # one array to the grid cache.  60 builds, ~0.1 s in all.
    if sector == "natural":
        sols = [natural_solution(REF._replace(alpha=alpha), n, J, grid_size,
                                 tol=math.inf) for n in (10, 20, 40)]
    else:
        sols = [unnatural_solution(UNNAT._replace(alpha=alpha), n, sector,
                                   grid_size, tol=math.inf)
                for n in (10, 20, 40)]
    sizes = []
    cached = wavefunction._chebyshev_grid

    def spy(size):
        sizes.append(size)
        return cached(size)
    monkeypatch.setattr(wavefunction, "_chebyshev_grid", spy)
    for sol in sols:
        assert _grid_count(sol) < sol.n
        assert wavefunction._node_grid(sol)[-1] < 0.5
        assert count_nodes(sol) == sol.n
    assert set(sizes) == {wavefunction.NODE_SAMPLES}


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_every_zero_lies_inside_the_scaled_node_grid():
    # scipy's zeros of P_n^(ja,jb) wherever _node_grid scales its grid to
    # c = (4n + 2ja + 10)/jb < 1/2: n = 1, 4, ..., 40, ja = J + 1/2 for
    # J up to 80, and 12 jb log-spaced above 2 (4n + 2ja + 10) up to 1e9.
    # The largest zero lies at most at 0.851 c (also over 12,800 cases with
    # every n <= 40 and 40 jb).  roots_jacobi warns of an overflow in its
    # quadrature weights at large jb; the zeros stay finite.  ~0.2 s.
    sol = natural_solution(REF, 0, 0)
    worst = 0.0
    for n, ja in itertools.product(range(1, 41, 3), (0.5, 1.5, 2.5, 4.5, 10.5,
                                                     20.5, 40.5, 80.5)):
        bound = 4 * n + 2 * ja + 10
        for jb in np.geomspace(2 * bound, 1e9, 13)[1:]:
            grid = wavefunction._node_grid(sol._replace(
                n=n, exponent_a=(ja + 0.5) / 2, exponent_b=(jb + 0.5) / 2))
            assert grid[-1] < 0.5
            zeros = (1.0 - roots_jacobi(n, ja, jb)[0]) / 2.0
            worst = max(worst, zeros.max() / grid[-1])
    assert worst <= 0.86


@pytest.mark.parametrize("alpha", [1.0, 0.3, 0.1, 0.03, 1e-2, 5e-3, 2e-3])
@pytest.mark.parametrize("sector", ["natural", "phi", "h0"])
def test_the_timed_domain_counts_nodes_from_the_build_grid(sector, alpha,
                                                           monkeypatch):
    # alpha >= 2e-3, n <= 6: the eigenfunctions benchmark's domain, where
    # every default build shows all n sign changes on its own samples
    if sector == "natural":
        sols = [natural_solution(ModelParams(1.0, alpha, l0, 1.0), n, J)
                for l0 in (0.0, 0.5, 0.99) for J in range(5) for n in range(7)]
    else:
        sols = [unnatural_solution(UNNAT._replace(alpha=alpha), n, sector)
                for n in range(7)]
    _forbid_poly(monkeypatch)
    for sol in sols:
        assert count_nodes(sol) == sol.n


def test_a_stratified_sample_of_the_timed_domain_never_falls_back():
    # the README's claim: for alpha >= 2e-3 and n <= 6 the build's own
    # samples show all n sign changes.  Seeded, one draw per stratum: alpha
    # log-uniform in each of 8 slices of [2e-3, 1]; natural also in each of
    # 3 slices of lambda0 in [0, 1), for every J <= 4; phi and h0 at J = 0.
    # 952 builds, ~0.3 s.
    rng = random.Random(2048)
    width = -math.log10(2e-3) / 8

    def alpha(k):  # log-uniform in the k-th slice
        return 2e-3 * 10.0 ** (width * (k + rng.random()))
    for n, k in itertools.product(range(7), range(8)):
        sols = [unnatural_solution(UNNAT._replace(alpha=alpha(k)), n, sector)
                for sector in ("phi", "h0")]
        sols += [natural_solution(ModelParams(1.0, alpha(k),
                                              (i + rng.random()) / 3, 1.0), n, J)
                 for i in range(3) for J in range(5)]
        for sol in sols:
            assert wavefunction._sign_changes(sol.primary) == n


def test_underflowed_samples_keep_their_sign(monkeypatch):
    # at alpha 1e-4 the weight rho^a (1-rho)^b underflows on most of the
    # grid; 0 times the negative polynomial beyond its last zero is -0.0,
    # whose sign bit keeps the count at 3, where +0.0 would add a change
    sol = natural_solution(REF._replace(alpha=1e-4), 3, 0)
    zeros = sol.primary == 0.0
    assert np.count_nonzero(zeros & np.signbit(sol.primary)) > 1000
    assert _grid_count(sol._replace(
        primary=np.where(zeros, 0.0, sol.primary))) == 4
    _forbid_poly(monkeypatch)
    assert count_nodes(sol) == 3


def test_a_natural_build_computes_its_components_once(monkeypatch):
    calls = []
    system = wavefunction._natural_system

    def counted(*args):
        calls.append(args)
        return system(*args)
    monkeypatch.setattr(wavefunction, "_natural_system", counted)
    natural_solution(REF, 3, 2)
    assert len(calls) == 1


# --- expression-form references of the in-place kernels ---------------------
# Each operation allocates its result here, as numpy evaluates the expression;
# the library writes the same operations, in the same order, into arrays it
# allocates once per build, so every build must equal these bit for bit.


def _reference_jacobi(n, ja, jb, rho):
    """``wavefunction._jacobi`` as an expression per recurrence step."""
    if n <= 0:
        return np.full_like(rho, float(n == 0))
    prev, cur = np.ones_like(rho), (ja + 1.0) - (ja + jb + 2.0) * rho
    for k in range(1, n):
        s = 2 * k + ja + jb
        d = 2 * (k + 1) * (k + ja + jb + 1) * s
        c0 = (s + 1) * ((2 * k + ja) * (2 * k + ja + 2 * jb) + ja * ja + 2 * s) / d
        c1 = 2 * (s + 1) * (s + 2) * s / d
        c2 = 2 * (k + ja) * (k + jb) * (s + 2) / d
        prev, cur = cur, (c0 - c1 * rho) * cur - c2 * prev
    return cur


def _reference_poly(a, b, n, rho, k=0):
    ja, jb = 2.0 * a - 0.5, 2.0 * b - 0.5
    scale = math.prod([(i + 1) / (ja + 1 + i) for i in range(n)]
                      + [-(n + ja + jb + 1 + i) for i in range(k)])
    return scale * _reference_jacobi(n - k, ja + k, jb + k, rho)


def _reference_prefactor_derivs(a, b, n, rho):
    q = 1.0 - rho
    p0, p1, p2 = (_reference_poly(a, b, n, rho, k) for k in range(3))
    w = rho ** a * q ** b
    g1 = (a * q - b * rho) * p0 + rho * q * p1
    dg1 = -(a + b) * p0 + (a * q - b * rho + q - rho) * p1 + rho * q * p2
    g2 = ((a - 1.0) * q - (b - 1.0) * rho) * g1 + rho * q * dg1
    w1 = w / (rho * q)
    return w * p0, w1 * g1, w1 / (rho * q) * g2


def _reference_hypergeometric(params, sector, energy, a, b, n, rho, scale):
    """The phi or h0 sample and the terms of Poly's hypergeometric equation,
    rho (1-rho) P'' + (2a + 1/2 - (2a + 2b + 1) rho) P' + c_diff P
    - (1/4 + 3b/2) P, times N w."""
    c_wall, c_diff = wavefunction._unnatural_sector_data(params, sector,
                                                         energy ** 2)
    p0, p1, p2 = (_reference_poly(a, b, n, rho, k) for k in range(3))
    q = 1.0 - rho
    w = rho ** a * q ** b
    nw = scale * w
    return (p0 * w) * scale, {}, (
        nw * (rho * q * p2),
        nw * ((2.0 * a + 0.5 - (2.0 * (a + b) + 1.0) * rho) * p1),
        nw * (c_diff * p0), nw * (-(0.25 + 1.5 * b) * p0))


def _reference_relations(params, J, energy, a, b, n, rho, scale):
    """F0, {H_plus1, H_minus1, G0}, the G0 and two H definitions as relations,
    and the closure terms, each product formed where it is used."""
    al, m, lr, l0 = params.alpha, params.m, params.lambda_r, params.lambda0
    f, frho, frhorho = (scale * d for d in
                        _reference_prefactor_derivs(a, b, n, rho))
    df = 2.0 * np.sqrt(al * rho) * frho
    r, q = np.sqrt(rho / al), 1.0 - rho
    p = np.sqrt(q)
    ar, dp = lr * r / p, -al * r / p
    e2 = energy ** 2 + (l0 * r / p) ** 2
    g0 = np.sqrt(e2) * f / m
    relations, hs = [(np.sqrt(e2) * f, -m * g0)], []
    closure = [q * df / (m * r), q * 4.0 * al * rho * frhorho / m,
               e2 * f / m, -m * f]
    xi, zeta = xi_zeta(J)
    for c, s in ((zeta, -(J + 1)), (xi, J)):
        pdf, spf, arf = p * df, s * (p / r) * f, ar * f
        h = -(c / m) * (pdf + spf - arf)
        dh = -(c / m) * (dp * df - lr / p ** 3 * f - ar * df
                         + s * ((dp / r - p / r ** 2) * f + (p / r) * df))
        relations.append((c * pdf, c * spf, -c * arf, m * h))
        closure += (-c * p * dh, c * s * (p / r) * h, -c * ar * h)
        hs.append(h)
    return f, {"H_plus1": hs[0], "H_minus1": hs[1], "G0": g0}, relations, closure


def _sup_of_sum(terms):
    return float(np.max(np.abs(sum(terms))))


def _reference_natural_system(params, J, energy, a, b, n, rho, scale):
    """``_natural_system`` as each product was once formed where it was used,
    audited on all four first-order relations: the reference for the
    bit-identity of the shared-product, closure-only form."""
    f, secondary, relations, closure = _reference_relations(
        params, J, energy, a, b, n, rho, scale)
    residual = float(np.max([_sup_of_sum(terms)
                             for terms in relations + [closure]]))
    return f, secondary, residual


@pytest.mark.parametrize("lambda0", [0.0, 0.5])
@pytest.mark.parametrize("alpha", [1.0, 0.1, 2e-3])
def test_natural_builds_are_bit_identical_to_the_reference_system(alpha,
                                                                  lambda0):
    # the wavefunction CSVs are not digest-pinned (libm differs by CPU), so
    # this in-process equality guards their bytes
    p = ModelParams(1.0, alpha, lambda0, 1.0)
    for n in range(7):
        for J in range(5):
            sol = natural_solution(p, n, J)
            f, secondary, residual = _reference_natural_system(
                p, J, sol.energy, sol.exponent_a, sol.exponent_b, n,
                sol.rho_grid, sol.norm_constant)
            assert np.array_equal(sol.primary, f)
            for name in ("H_plus1", "H_minus1", "G0"):
                assert np.array_equal(sol.secondary[name], secondary[name])
            assert sol.residual_sup == residual


@settings(max_examples=100, deadline=None)
@given(log_alpha=st.floats(-8.0, 1.0), n=st.integers(0, 40),
       J=st.integers(0, 20), lambda0=st.floats(0.0, 1.0, exclude_max=True))
def test_the_closure_alone_audits_what_the_four_relations_did(log_alpha, n, J,
                                                              lambda0):
    # G0 and each H are formed from their own definitions, so their relations
    # measure only that rounding (at most 2.3 eps of their largest term over
    # 3,000 random cells): the closure residual is the build's residual, and
    # the four-relation residual passes the 1e-8 gate exactly when it does.
    # Below alpha ~ 1e-6, where a handful of samples carry the function, the
    # definitional rounding (<= 4.5e-16 seen) can exceed the closure residual.
    p = ModelParams(1.0, 10.0 ** log_alpha, lambda0, 1.0)
    sol = natural_solution(p, n, J, tol=math.inf)
    *_, relations, closure = _reference_relations(
        p, J, sol.energy, sol.exponent_a, sol.exponent_b, n, sol.rho_grid,
        sol.norm_constant)
    assert sol.residual_sup == _sup_of_sum(closure)
    for terms in relations:
        assert _sup_of_sum(terms) <= 4 * wavefunction.EPS * np.max(np.abs(terms))
    four = max(_sup_of_sum(terms) for terms in relations + [closure])
    assert (sol.residual_sup <= 1e-8) == (four <= 1e-8)


def _reference_build(params, sector, n, J):
    """(primary, secondary, residual_sup) of a default-grid build at
    tol = inf from the expression-form kernels, raising the error class that
    ``_build`` raises."""
    energy = level(params, sector, n, J).value
    a, b = exponents(params, sector, J)
    finite("wall exponent term (2b)^2", lambda: 4.0 * b * b)
    n1 = 1.0 / math.sqrt(wavefunction._raw_norm_integral(a, b, n, params.alpha))
    rho = chebyshev_grid(wavefunction.DEFAULT_GRID_SIZE)
    try:
        with np.errstate(over="raise", invalid="raise"):
            if sector == "natural":
                f, secondary, _, terms = _reference_relations(
                    params, J, energy, a, b, n, rho, n1)
            else:
                f, secondary, terms = _reference_hypergeometric(
                    params, sector, energy, a, b, n, rho, n1)
            residual = _sup_of_sum(terms)
    except FloatingPointError:
        raise UnsupportedRegime("overflow") from None
    if not np.any(f):
        raise UnsupportedRegime("the weight underflows at every grid point")
    if not residual <= math.inf:
        raise GridTooCoarse("nan residual")
    return f, secondary, residual


@settings(max_examples=150, deadline=None)
@given(sector=st.sampled_from(["natural", "phi", "h0"]),
       log_alpha=st.floats(-8.0, 1.0), n=st.integers(0, 40),
       J=st.integers(0, 20), lambda0=st.floats(0.0, 1.0, exclude_max=True))
# far below the domain, where builds raise: a Jacobi overflow, an underflow
@example(sector="natural", log_alpha=-60.0, n=4, J=0, lambda0=0.5)
@example(sector="h0", log_alpha=-30.0, n=2, J=0, lambda0=0.0)
def test_builds_are_bit_identical_to_the_expression_reference(sector, log_alpha,
                                                              n, J, lambda0):
    # the in-place kernels perform the reference's operations in its order
    if sector == "natural":
        params = ModelParams(1.0, 10.0 ** log_alpha, lambda0, 1.0)
    else:
        params, J = ModelParams(1.0, 10.0 ** log_alpha, 0.0, 1.0), 0
    try:
        sol = wavefunction._build(params, sector, n, J,
                                  wavefunction.DEFAULT_GRID_SIZE, math.inf)
    except DkpError as exc:
        with pytest.raises(DkpError) as info:
            _reference_build(params, sector, n, J)
        assert type(info.value) is type(exc)
        return
    f, secondary, residual = _reference_build(params, sector, n, J)
    # by bytes: np.array_equal takes -0.0 for 0.0, whose sign bits count nodes
    assert sol.primary.tobytes() == f.tobytes()
    assert sol.secondary.keys() == secondary.keys()
    for name, values in secondary.items():
        assert sol.secondary[name].tobytes() == values.tobytes()
    assert sol.residual_sup == residual


@pytest.mark.parametrize("n", [0, 1, 2, 3, 6, 7])
def test_the_jacobi_kernel_equals_the_reference(n):
    # degrees n - k from -2 to 7: the constant, the linear start and the
    # recurrence, with P_n left in either of its two buffers
    rho = chebyshev_grid(257)
    for k in range(3):
        assert (wavefunction._poly(1.25, 3.7, n, rho, k).tobytes()
                == _reference_poly(1.25, 3.7, n, rho, k).tobytes())


def test_build_arrays_are_fresh_and_unshared():
    # no workspace outlives a build: each sampled array owns its memory, and
    # later builds leave an earlier one as it was
    sol = natural_solution(REF, 3, 2)
    arrays = [sol.primary, *sol.secondary.values()]
    copies = [x.copy() for x in arrays]
    assert all(x.base is None and x.flags.owndata for x in arrays)
    assert not any(np.shares_memory(x, y)
                   for x, y in itertools.combinations(arrays, 2))
    # nor is any sector's array, or a view of, a cached wall factor
    built = arrays + [unnatural_solution(UNNAT, n, which).primary
                      for n, which in ((2, "phi"), (4, "h0"))]
    assert not any(np.shares_memory(x, factor) for x in built
                   for factor in wavefunction._chebyshev_grid(2048))
    natural_solution(REF._replace(alpha=0.3), 5, 1)
    unnatural_solution(UNNAT, 2, "phi")
    assert all(np.array_equal(x, y) for x, y in zip(arrays, copies))


@pytest.mark.parametrize("J", [1, 2, 4])
def test_swapped_couplings_are_a_formula_error_not_the_floor(J, monkeypatch):
    # xi and zeta exchanged: H no longer solves the closure equation, and
    # the residual (~1.6-1.9) is far above any rounding of its terms
    monkeypatch.setattr(wavefunction, "xi_zeta", lambda J: xi_zeta(J)[::-1])
    for n in (0, 3):
        with pytest.raises(GridTooCoarse, match="closure") as info:
            natural_solution(REF, n, J)
        assert not isinstance(info.value, ResidualFloor)


@pytest.mark.parametrize("J", [0, 1, 2, 4])
@pytest.mark.parametrize("alpha", [1.0, 1e-2, 1e-4, 1e-6])
def test_natural_builds_pass_every_check_up_to_n_40(alpha, J):
    # the README criterion-8 row: natural J = 0, 1, 2, 4 at lambda0 = 0.5
    # pass every n <= 40 over alpha in [1e-6, 1]; sampled here
    p = REF._replace(alpha=alpha)
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


@pytest.mark.parametrize("rho", [1.5, -0.1, math.nan, math.inf, -math.inf,
                                 [0.2, 1.0 + 1e-12], [0.5, math.nan]])
def test_evaluate_primary_rejects_points_outside_the_ball(rho):
    # 1.5 used to give NaN with a RuntimeWarning, -0.1 a finite -14.08
    sol = natural_solution(REF, 2, 1)
    with pytest.raises(OutOfDomain, match="outside"):
        evaluate_primary(sol, rho)


@pytest.mark.filterwarnings("error")
def test_evaluate_primary_accepts_the_closed_ball():
    sol = natural_solution(REF, 2, 1)
    assert np.array_equal(evaluate_primary(sol, [0.0, 1.0]), [0.0, 0.0])
    assert evaluate_primary(sol, 0.3).shape == ()


@pytest.mark.parametrize("alpha", [1.0, 0.1, 2e-3, 1e-5])
@pytest.mark.parametrize("sector", ["natural", "phi", "h0"])
def test_evaluate_primary_reproduces_the_samples(sector, alpha):
    # by bytes, as the signs of -0.0 samples count nodes
    for n in (0, 3, 10):
        if sector == "natural":
            sol = natural_solution(REF._replace(alpha=alpha), n, 2,
                                   tol=math.inf)
        else:
            sol = unnatural_solution(UNNAT._replace(alpha=alpha), n, sector,
                                     tol=math.inf)
        assert evaluate_primary(sol, sol.rho_grid).tobytes() == \
            sol.primary.tobytes()


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
    doubled = sol._replace(norm_constant=2.0 * sol.norm_constant)
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
    p = REF._replace(alpha=alpha)
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
    pathological = sol._replace(exponent_b=-0.3)
    with pytest.raises(DivergentNorm):
        deformed_norm(pathological, REF)


def test_an_underflowing_norm_integral_is_a_divergent_norm():
    # natural J = 80 at alpha 1e-6 (lambda0 0.5, lambdaR 1): 2b - 1/2 =
    # 866026, and the raw norm underflows to 0 (ROADMAP item 3 will
    # normalize it in log space)
    with pytest.raises(DivergentNorm, match="norm integral is 0.0"):
        wavefunction._raw_norm_integral(40.5, 433013.0, 0, 1e-6)


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


def test_residual_sensitive_to_energy_perturbation(monkeypatch):
    baseline = natural_solution(REF, 1, 0).residual_sup
    monkeypatch.setattr(wavefunction, "level", _off_by(wavefunction.level, 0.01))
    sol = natural_solution(REF, 1, 0, tol=math.inf)
    assert sol.residual_sup > 10.0 * max(baseline, 1e-12)


def test_zero_solution_has_zero_residual():
    a, b = exponents(REF, "natural", 0)
    energy = level(REF, "natural", 1).value
    *_, closure = wavefunction._natural_system(
        REF, 0, energy, a, b, 1, wavefunction._chebyshev_grid(2048), 0.0)
    assert wavefunction._residual_sup(closure) == 0.0


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


def _off_by_1e_12(values, i):
    """``values`` with its i-th result scaled by 1 + 1e-12."""
    def wrong(*args):
        out = list(values(*args))
        out[i] *= 1 + 1e-12
        return tuple(out)
    return wrong


_WALL_MUTATIONS = [
    pytest.param(name, i, sector, alpha, id=f"{label}-{sector}-{alpha}")
    for name, i, label in (("exponents", 1, "b"),
                           ("_unnatural_sector_data", 0, "c_wall"))
    for sector in ("phi", "h0") for alpha in (1.0, 0.1, 2e-3, 1e-4, 1e-5)
    # c_wall = x (x - 1)/4 is 0 for h0 at x = 1: scaling it changes nothing
    if not (label == "c_wall" and sector == "h0" and alpha == 1.0)]


@pytest.mark.parametrize("name,i,sector,alpha", _WALL_MUTATIONS)
def test_a_wall_off_by_1e_12_fails_the_indicial_check(name, i, sector, alpha,
                                                      monkeypatch):
    # b or c_wall 1e-12 off: b no longer solves 2b^2 - b = 2 c_wall, which is
    # checked once, as a scalar, to 16 eps of its terms (the rho-form audit on
    # the grid passed both, or called them rounding)
    monkeypatch.setattr(wavefunction, name,
                        _off_by_1e_12(getattr(wavefunction, name), i))
    for n in (0, 3):
        with pytest.raises(GridTooCoarse, match="wall exponent b"):
            unnatural_solution(UNNAT._replace(alpha=alpha), n, sector)


@pytest.mark.parametrize("alpha", [1.0, 0.1, 1e-3])
def test_a_natural_wall_off_by_1e_6_fails_the_closure(alpha, monkeypatch):
    # the natural build checks no indicial equation of its own: a wall
    # exponent off by 1e-6 leaves a closure residual of 2.2e-6 to 3.6e-4,
    # over 200 times the 1e-8 gate, and is not mistaken for rounding
    exact = wavefunction.exponents

    def wrong(params, sector, J=0):
        a, b = exact(params, sector, J)
        return a, b * (1 + 1e-6)
    monkeypatch.setattr(wavefunction, "exponents", wrong)
    p = REF._replace(alpha=alpha)
    for n in (0, 3):
        assert natural_solution(p, n, 1, tol=math.inf).residual_sup > 2e-6
        with pytest.raises(GridTooCoarse, match="closure"):
            natural_solution(p, n, 1)


@pytest.mark.parametrize("alpha", [10.0, 1.0, 0.1, 2e-3, 1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("sector", ["phi", "h0"])
def test_the_hand_cancelled_constant_is_the_rho_form_difference(sector,
                                                                alpha):
    # c_const - c_wall with the x^2/4 parts cancelled by hand, against the
    # rho-form constants in 50-digit arithmetic, where they cancel exactly
    for lr in (0.3, 1.0, 2.7):
        p = ModelParams(m=1.0, alpha=alpha, lambda0=0.0, lambda_r=lr)
        for n in (0, 3, 40):
            e2 = level(p, sector, n).value ** 2
            c_wall, c_diff = wavefunction._unnatural_sector_data(p, sector, e2)
            with mpmath.workdps(50):
                al, m = mpmath.mpf(alpha), mpmath.mpf(p.m)
                x, k = mpmath.mpf(lr) / al, (mpmath.mpf(e2) - m ** 2) / (4 * al)
                if sector == "phi":
                    wall, const = x * (x + 1) / 4, k + 0.25 + x * (x - 2) / 4
                else:
                    wall, const = x * (x - 1) / 4, k + x * x / 4
                assert abs(c_wall - wall) <= 2 * wavefunction.EPS * abs(wall)
                assert (abs(c_diff - (const - wall))
                        <= 4 * wavefunction.EPS * (abs(k) + x + 1))


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


@pytest.mark.parametrize("grid_size", [100.5, 64.0])
@pytest.mark.parametrize("sector", ["natural", "h0", "grid"])
def test_a_fractional_grid_size_is_a_type_error(sector, grid_size):
    # 100.5 put a point at rho = 1, and the build then blamed a Jacobi
    # overflow; chebyshev_grid(100.5) returned 101 points, the last rho = 1
    with pytest.raises(TypeError):
        if sector == "natural":
            natural_solution(REF, 1, 0, grid_size=grid_size)
        elif sector == "grid":
            chebyshev_grid(grid_size)
        else:
            unnatural_solution(UNNAT, 1, sector, grid_size=grid_size)


@pytest.mark.parametrize("size", [0, -2])
def test_a_grid_of_no_points_is_refused_before_the_cache(size):
    # an empty grid must not take one of the slots that real sizes use
    before = wavefunction._chebyshev_grid.cache_info().currsize
    with pytest.raises(ValueError, match=f"size must be >= 1, got {size}"):
        chebyshev_grid(size)
    assert wavefunction._chebyshev_grid.cache_info().currsize == before


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


def _wall_factors(size):
    """The grid's cached factors and the expressions the builds once formed."""
    grid = wavefunction._chebyshev_grid(size)
    q = 1.0 - grid.rho
    p = np.sqrt(q)
    return grid[1:], (q, grid.rho * q, p, np.power(p, 3), np.multiply(q, 4.0))


def test_every_wall_factor_is_read_only():
    natural_solution(REF, 1, 0, grid_size=64)
    factors, _ = _wall_factors(64)
    for factor in factors:
        with pytest.raises(ValueError, match="read-only"):
            factor[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            factor *= 2.0


def test_builds_of_one_size_share_the_factor_objects(monkeypatch):
    grids = []
    system = wavefunction._natural_system

    def spy(*args):
        grids.append(args[6])
        return system(*args)
    monkeypatch.setattr(wavefunction, "_natural_system", spy)
    natural_solution(REF, 3, 2, grid_size=64)
    natural_solution(REF._replace(alpha=0.3), 1, 0, grid_size=64)
    assert len(grids) == 2 and grids[0] is grids[1]
    assert all(x is y for x, y in
               zip(grids[0], wavefunction._chebyshev_grid(64), strict=True))


def test_builds_at_many_sizes_keep_the_factor_cache_bounded():
    for size in range(200, 200 + 2 * wavefunction.GRID_CACHE_SIZE):
        natural_solution(REF, 1, 0, grid_size=size, tol=math.inf)
    info = wavefunction._chebyshev_grid.cache_info()
    assert info.currsize <= info.maxsize == wavefunction.GRID_CACHE_SIZE


@pytest.mark.parametrize("size", [8, 64, 2048])
def test_builds_in_every_sector_leave_the_factors_bit_equal(size):
    # each factor is the expression the builds formed, and stays so after
    # passing, failing and raising builds of every sector
    factors, fresh = _wall_factors(size)
    before = [x.tobytes() for x in factors]
    assert before == [x.tobytes() for x in fresh]
    for alpha in (0.1, 2e-3, 1e-8):
        for n in (0, 3, 20):
            for build in (lambda p: natural_solution(p, n, 2, size),
                          lambda p: unnatural_solution(p, n, "phi", size),
                          lambda p: unnatural_solution(p, n, "h0", size)):
                try:
                    build(UNNAT._replace(alpha=alpha))
                except DkpError:
                    pass
    assert [x.tobytes() for x in factors] == before


def _arrays(sol):
    return [sol.rho_grid, sol.primary, *sol.secondary.values()]


def test_builds_at_alternating_grid_sizes_do_not_cross_talk():
    wavefunction._chebyshev_grid.cache_clear()
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
    info = wavefunction._chebyshev_grid.cache_info()
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
    lambda p: unnatural_solution(p._replace(lambda0=0.0), 0, "phi"),
]


@pytest.mark.parametrize("build", BUILDS)
def test_nan_residual_fails_the_residual_gate(build, monkeypatch):
    # every sampled component, and so the residual, is NaN: the polynomial
    # and its derivatives feed every build
    def nan_poly(a, b, n, rho, k=0):
        return np.full_like(rho, np.nan)
    monkeypatch.setattr(wavefunction, "_poly", nan_poly)
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
    # at alpha = 1e-6, n = 20 the hypergeometric terms reach ~2e7, so their
    # rounding alone exceeds the 1e-8 gate: the build still fails, but not on
    # the grid
    p = ModelParams(m=1.0, alpha=1e-6, lambda0=0.0, lambda_r=1.0)
    with pytest.raises(ResidualFloor, match="rounding") as info:
        unnatural_solution(p, 20, which)
    assert not isinstance(info.value, GridTooCoarse)


@pytest.mark.parametrize("which,alpha,tol", [("phi", 1e-6, 1e-11),
                                             ("h0", 1e-5, 1e-12)])
def test_the_ground_state_floor_is_named(which, alpha, tol):
    # at n = 0, P' = P'' = 0 and c_diff - 1/4 - 3b/2 cancels to rounding: its
    # two products set the scale, where their difference alone was blamed
    # on the grid
    p = ModelParams(m=1.0, alpha=alpha, lambda0=0.0, lambda_r=1.0)
    with pytest.raises(ResidualFloor, match="hypergeometric"):
        unnatural_solution(p, 0, which, tol=tol)


def _off_by(real, rel):
    """``real`` with the level it returns scaled by 1 + rel."""
    def wrong(*args):
        lev = real(*args)
        return lev._replace(value=lev.value * (1 + rel))
    return wrong


@pytest.mark.parametrize("alpha", [1.0, 0.1, 2e-3])
@pytest.mark.parametrize("sector", ["natural", "phi", "h0"])
def test_a_wrong_energy_is_not_mistaken_for_the_floor(sector, alpha,
                                                       monkeypatch):
    monkeypatch.setattr(wavefunction, "level", _off_by(wavefunction.level, 1e-6))
    equation = "closure" if sector == "natural" else "hypergeometric"
    for n in (0, 3):
        with pytest.raises(GridTooCoarse, match=equation) as info:
            if sector == "natural":
                natural_solution(REF._replace(alpha=alpha), n, 2)
            else:
                unnatural_solution(UNNAT._replace(alpha=alpha), n, sector)
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


_UNDERFLOW = "underflows to 0 at every grid point"
_BEYOND_THE_FLOAT_RANGE = [
    (1e-30, 2, _UNDERFLOW, "natural"), (1e-30, 2, _UNDERFLOW, "h0"),
    (1e-60, 2, _UNDERFLOW, "natural"), (1e-60, 2, _UNDERFLOW, "h0"),
    (1e-60, 4, "P_4 or its derivatives overflow", "natural"),
    (1e-60, 4, _UNDERFLOW, "h0"),
    (1e-100, 2, "P_2 or its derivatives overflow", "natural"),
    (1e-100, 2, _UNDERFLOW, "h0"),
]


@pytest.mark.parametrize("alpha,n,cause,sector", [
    pytest.param(*case, id="-".join(map(str, case)))
    for case in _BEYOND_THE_FLOAT_RANGE])
def test_a_sample_beyond_the_float_range_is_unsupported(sector, alpha, n,
                                                        cause):
    # far below the documented alpha range the weight rho^a (1-rho)^b
    # underflows at every grid point, and the Jacobi values overflow: the
    # audit used to pass an all-zero sample, or to blame the grid for a NaN
    # residual after numpy's overflow warnings.  h0 forms no term of size
    # b^2 |F|, so its weight underflows before anything overflows.
    params = ModelParams(1.0, alpha, 0.5 if sector == "natural" else 0.0, 1.0)
    build = (lambda: natural_solution(params, n, 0)) if sector == "natural" \
        else (lambda: unnatural_solution(params, n, sector))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedRegime, match=cause):
            build()
