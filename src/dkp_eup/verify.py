"""The reference sweep and the checks behind ``dkp-eup verify``.

Worst values are taken with ``model.max_or_nan``, which, unlike the builtin
max, keeps a NaN, so that a NaN anywhere fails its check.  Only the oracle
check loads numpy: each check imports the modules it runs.
"""
from __future__ import annotations

from typing import NamedTuple

from . import spectrum
from .errors import AlgebraInconsistent
from .model import ModelParams, max_or_nan

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
    levels = spectrum.levels(params, sector, REFERENCE_NMAX, J)
    if mutate == "jj-term":
        levels = [(e * e + 0.1 * params.alpha * J * (J + 1)) ** 0.5
                  for e in levels]
    return levels


def check_algebra() -> CheckResult:
    """The 64 trilinear identities and the projector diagonal, exactly."""
    from . import algebra
    mats = algebra.build_matrices()
    violated = len(algebra.verify_algebra(mats).violations)
    try:
        diagonal = algebra.build_projector(mats).diagonal()
        projector = ([] if diagonal == [1] * 4 + [0] * 6
                     else ["projector diagonal mismatch"])
    except AlgebraInconsistent as exc:    # P is not a projector at all
        projector = [str(exc)]
    failures = [f"{violated} violated triples"] * (violated > 0) + projector
    return CheckResult("algebra", float(violated + len(projector)), 0.0,
                       tuple(f"algebra: {failure}" for failure in failures))


def check_commutators() -> CheckResult:
    """The three deformed commutation relations at alpha = 0.1, exactly."""
    from . import algebra
    report = algebra.check_deformed_commutators(alpha=0.1)
    worst = (report.worst_position_position, report.worst_position_momentum,
             report.worst_momentum_momentum)
    failures = () if report.passed else (
        "commutators: residuals xx={:.2e} xp={:.2e} pp={:.2e}".format(*worst),)
    return CheckResult("commutators", max_or_nan(worst), 0.0, failures)


def check_closure(mutate: str | None = None) -> CheckResult:
    """Quantization closure: B recomputed at every natural level equals -n."""
    worst = max_or_nan(
        abs(spectrum.abc(params, J, e).B + n)
        for params, sector, J in NATURAL_CELLS
        for n, e in enumerate(analytic_levels(params, sector, J, mutate)))
    if worst <= CLOSURE_TOL:
        return CheckResult("closure", worst, CLOSURE_TOL, ())
    from decimal import Decimal    # the shortest digits of CLOSURE_TOL: 1e-9
    return CheckResult("closure", worst, CLOSURE_TOL, (
        f"closure: |B + n| = {worst:.3e} > {Decimal(repr(CLOSURE_TOL)):e}",))


def check_oracle(cells, grid_size: int, tol: float,
                 mutate: str | None = None) -> CheckResult:
    """Closed-form levels of each (params, sector, J) cell against the
    independent eigensolver at ``grid_size``, relative tolerance ``tol``."""
    from . import oracle
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
    return CheckResult("oracle", max_or_nan(r.worst for r in reports), tol,
                       tuple(failures))
