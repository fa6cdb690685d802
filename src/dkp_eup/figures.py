"""Reference figure data sets, emitted as byte-stable CSV + SVG pairs.

Fixed inputs m = 1, lambda_r = 1 everywhere.  Where the source text leaves a
sweep set open, the values below are the package defaults (flag-overridable
through the CLI):

* fig1: alpha = 0, J = 0, lambda0 in {0, 0.5, 0.8, 1.0}, n = 0..20 -- the
  lambda0 = lambda_r series is a constant line sqrt(m^2 + lambda_r).
* fig2: lambda0 = 0.5, J = 0, alpha in {0, 0.05, 0.1, 0.2}, n = 0..20.
* fig3: level spacing for the fig2 parameter sets, n = 0..200, approaching
  2 sqrt(alpha) for each deformed series.
* fig4: unnatural-parity sectors, lambda0 = 0, alpha in {0.05, 0.1},
  n = 0..20; the scalar-sector energy dominates the longitudinal one.
"""
from __future__ import annotations

import os
from typing import NamedTuple

from .model import UNNATURAL_SECTORS, ModelParams, require_valid
from .spectrum import level_spacings, levels
from .svgplot import write_svg

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4")

FIG1_LAMBDA0 = (0.0, 0.5, 0.8, 1.0)
FIG2_ALPHA = (0.0, 0.05, 0.1, 0.2)
FIG4_ALPHA = (0.05, 0.1)
FIG12_NMAX = 20
FIG3_NMAX = 200
FIG4_NMAX = 20


class FigureData(NamedTuple):
    fig_id: str
    header: list
    rows: list          # list of tuples, first entry n
    series: list        # (name, xs, ys) for the SVG
    x_label: str
    y_label: str
    title: str


def _table(fig_id: str, n_max: int, columns: list, y_label: str,
           title: str, extra_series=()) -> FigureData:
    """FigureData from columns of (CSV header, SVG series name, values), n = 0..n_max."""
    ns = list(range(n_max + 1))
    header = ["n"] + [head for head, _, _ in columns]
    rows = [(n, *(vals[i] for _, _, vals in columns)) for i, n in enumerate(ns)]
    series = [(name, ns, vals) for _, name, vals in columns]
    return FigureData(fig_id, header, rows, series + list(extra_series),
                      "n", y_label, title)


def fig1_data(lambda0_values=FIG1_LAMBDA0) -> FigureData:
    sweep = [require_valid(ModelParams(1.0, 0.0, l0, 1.0)) for l0 in lambda0_values]
    cols = [(f"E[lambda0={p.lambda0:g}]", f"lambda0={p.lambda0:g}",
             levels(p, "natural", FIG12_NMAX)) for p in sweep]
    return _table("fig1", FIG12_NMAX, cols, "E", "undeformed levels vs n")


def fig2_data(alpha_values=FIG2_ALPHA) -> FigureData:
    sweep = [require_valid(ModelParams(1.0, al, 0.5, 1.0)) for al in alpha_values]
    cols = [(f"E[alpha={p.alpha:g}]", f"alpha={p.alpha:g}",
             levels(p, "natural", FIG12_NMAX)) for p in sweep]
    return _table("fig2", FIG12_NMAX, cols, "E", "levels vs n for several deformations")


def fig3_data(alpha_values=FIG2_ALPHA) -> FigureData:
    sweep = [require_valid(ModelParams(1.0, al, 0.5, 1.0)) for al in alpha_values]
    cols = [(f"dE[alpha={p.alpha:g}]", f"alpha={p.alpha:g}",
             level_spacings(p, FIG3_NMAX, 0)) for p in sweep]
    # horizontal asymptotes 2 sqrt(alpha) for the deformed curves (SVG only)
    asymptotes = [(f"2 sqrt({al:g})", [0, FIG3_NMAX], [2.0 * al ** 0.5] * 2, "dashed")
                  for al in alpha_values if al > 0]
    return _table("fig3", FIG3_NMAX, cols, "dE",
                  "level spacing vs n (plateaus at 2 sqrt(alpha))", asymptotes)


def fig4_data(alpha_values=FIG4_ALPHA) -> FigureData:
    sweep = [require_valid(ModelParams(1.0, al, 0.0, 1.0)) for al in alpha_values]
    cols = [(f"E_{s}[alpha={p.alpha:g}]", f"E_{s}[alpha={p.alpha:g}]",
             levels(p, s, FIG4_NMAX)) for p in sweep for s in UNNATURAL_SECTORS]
    return _table("fig4", FIG4_NMAX, cols, "E", "unnatural-parity levels vs n")


_BUILDERS = dict(zip(FIGURE_IDS, (fig1_data, fig2_data, fig3_data, fig4_data)))


def build_figure(fig_id: str, lambda0_set=None, alpha_set=None) -> FigureData:
    """Build one figure; a sweep set of None is the package default.

    fig1 sweeps lambda0, the others sweep alpha.  An empty sweep set, or a
    value whose parameters ``model.validate`` rejects, raises ValueError
    (every builder passes its parameters through ``model.require_valid``).
    """
    if fig_id not in _BUILDERS:
        raise ValueError(f"unknown figure id {fig_id!r}")
    name, sweep = (("lambda0", lambda0_set) if fig_id == "fig1"
                   else ("alpha", alpha_set))
    if sweep is None:
        return _BUILDERS[fig_id]()
    if not len(sweep):
        raise ValueError(f"empty {name} sweep set for {fig_id}")
    return _BUILDERS[fig_id](tuple(sweep))


def write_csv(data: FigureData, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(data.header) + "\n")
        for row in data.rows:
            fh.write(",".join(
                str(v) if isinstance(v, int) else f"{v:.12g}" for v in row) + "\n")


def write_figure(data: FigureData, out_dir) -> tuple[str, str]:
    """Write <fig>.csv and <fig>.svg into out_dir, made if missing; returns
    the two paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{data.fig_id}.csv")
    svg_path = os.path.join(out_dir, f"{data.fig_id}.svg")
    write_csv(data, csv_path)
    write_svg(svg_path, data.series, data.x_label, data.y_label, data.title)
    return csv_path, svg_path
