"""The reference sweep and the checks behind ``dkp-eup verify``.

Worst values are taken with np.max, which, unlike the builtin max,
propagates a NaN, so that a NaN anywhere fails its check.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import algebra, oracle, spectrum
from .model import ModelParams

REFERENCE_LAMBDA0 = (0.0, 0.5)
REFERENCE_ALPHAS = (0.05, 0.1, 0.2)
REFERENCE_J = (0, 1, 2)
REFERENCE_NMAX = 4
UNNATURAL_ALPHAS = (0.05, 0.1)
CLOSURE_TOL = 1e-9

# (params, sector, J) of every cell of the reference sweep
NATURAL_CELLS = tuple(
    (ModelParams(m=1.0, alpha=al, lambda0=l0, lambda_r=1.0), "natural", J)
    for l0 in REFERENCE_LAMBDA0 for al in REFERENCE_ALPHAS for J in REFERENCE_J)
UNNATURAL_CELLS = tuple(
    (ModelParams(m=1.0, alpha=al, lambda0=0.0, lambda_r=1.0), sector, 0)
    for al in UNNATURAL_ALPHAS for sector in ("phi", "h0"))


class CheckResult(NamedTuple):
    """One check's worst measured value against ``tol``, and its failures."""

    name: str
    worst: float
    tol: float
    failures: tuple[str, ...]     # the messages ``dkp-eup verify`` reports

    @property
    def passed(self) -> bool:
        return not self.failures


def analytic_levels(params: ModelParams, sector: str, J: int,
                    mutate: str | None = None) -> list[float]:
    """Closed-form E_n, n = 0..REFERENCE_NMAX.  ``mutate="jj-term"`` is a
    test hook that misweights the rotational J(J+1) term by 10 percent."""
    levels = [spectrum.level(params, sector, n, J).value
              for n in range(REFERENCE_NMAX + 1)]
    if mutate == "jj-term":
        levels = [(e * e + 0.1 * params.alpha * J * (J + 1)) ** 0.5
                  for e in levels]
    return levels


def check_algebra() -> CheckResult:
    """The 64 trilinear identities and the projector diagonal, exactly."""
    mats = algebra.build_matrices()
    report = algebra.verify_algebra(mats)
    projector_ok = algebra.build_projector(mats).diagonal() == [1] * 4 + [0] * 6
    failures = []
    if not report.passed:
        failures.append(f"algebra: {len(report.violations)} violated triples")
    if not projector_ok:
        failures.append("algebra: projector diagonal mismatch")
    violated = len(report.violations) + (not projector_ok)
    return CheckResult("algebra", float(violated), 0.0, tuple(failures))


def check_commutators() -> CheckResult:
    """The three deformed commutation relations at alpha = 0.1."""
    report = algebra.check_deformed_commutators(alpha=0.1)
    worst = (report.worst_position_position, report.worst_position_momentum,
             report.worst_momentum_momentum)
    failures = () if report.passed else (
        "commutators: residuals xx={:.2e} xp={:.2e} pp={:.2e}".format(*worst),)
    return CheckResult("commutators", float(np.max(worst)), report.tolerance,
                       failures)


def check_closure(mutate: str | None = None) -> CheckResult:
    """Quantization closure: B recomputed at every natural level equals -n."""
    worst = float(np.max([
        abs(spectrum.abc(params, J, e).B + n)
        for params, sector, J in NATURAL_CELLS
        for n, e in enumerate(analytic_levels(params, sector, J, mutate))]))
    failures = () if worst <= CLOSURE_TOL else (
        f"closure: |B + n| = {worst:.3e} > 1e-9",)
    return CheckResult("closure", worst, CLOSURE_TOL, failures)


def check_oracle(cells, grid_size: int, tol: float,
                 mutate: str | None = None) -> CheckResult:
    """Closed-form levels of each (params, sector, J) cell against the
    independent eigensolver at ``grid_size``, relative tolerance ``tol``."""
    reports, failures = [], []
    for params, sector, J in cells:
        rep = oracle.compare(params, oracle.Sector(sector, J),
                             analytic_levels(params, sector, J, mutate),
                             grid_size, tol)
        reports.append(rep)
        if not rep.passed:
            where = (f"lambda0={params.lambda0}, alpha={params.alpha}"
                     if sector == "natural" else f"alpha={params.alpha}")
            failures.append(f"oracle: {rep.summary()} ({where})")
    return CheckResult("oracle", float(np.max([r.worst for r in reports])), tol,
                       tuple(failures))
