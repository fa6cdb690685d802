import hashlib
import math
import pathlib

import pytest

from dkp_eup import figures, svgplot
from dkp_eup.model import ModelParams
from dkp_eup.spectrum import energy_natural_limit


def test_fig2_alpha_zero_column_is_the_limit_formula():
    data = figures.fig2_data()
    assert data.header[1] == "E[alpha=0]"
    p = ModelParams(m=1.0, alpha=0.0, lambda0=0.5, lambda_r=1.0)
    for row in data.rows:
        n = row[0]
        assert row[1] == energy_natural_limit(p, n, 0).value


def test_fig1_constant_series_at_equal_couplings():
    data = figures.fig1_data()
    assert all(row[-1] == pytest.approx(math.sqrt(2.0), abs=1e-14)
               for row in data.rows)


def test_fig3_rows_exclude_asymptote_series():
    data = figures.fig3_data(alpha_values=(0.0, 0.1))
    assert len(data.rows[0]) == 3          # n plus two spacing columns
    names = [s[0] for s in data.series]
    assert "2 sqrt(0.1)" in names          # drawn, not tabulated


def test_fig4_alpha_override():
    data = figures.fig4_data(alpha_values=(0.07,))
    assert data.header == ["n", "E_phi[alpha=0.07]", "E_h0[alpha=0.07]"]
    assert all(row[1] > row[2] for row in data.rows)


def test_unknown_figure_id():
    with pytest.raises(ValueError):
        figures.build_figure("fig9")


@pytest.mark.parametrize("fig_id,sweep,violated", [
    ("fig1", {"lambda0_set": (0.5, 1.5)}, "lambdaR >= lambda0"),
    ("fig1", {"lambda0_set": (-0.5,)}, "lambda0 >= 0"),
    ("fig2", {"alpha_set": (-0.1,)}, "alpha >= 0"),
    ("fig3", {"alpha_set": (math.inf,)}, "alpha finite"),
    ("fig4", {"alpha_set": (0.1, -1.0)}, "alpha >= 0"),
])
def test_a_sweep_value_that_validate_rejects_raises(fig_id, sweep, violated):
    with pytest.raises(ValueError, match=violated):
        figures.build_figure(fig_id, **sweep)


@pytest.mark.parametrize("fig_id,sweep", [("fig1", "lambda0_set"),
                                          ("fig3", "alpha_set")])
def test_an_empty_sweep_set_raises_and_none_is_the_default(fig_id, sweep):
    with pytest.raises(ValueError, match="empty"):
        figures.build_figure(fig_id, **{sweep: ()})
    assert figures.build_figure(fig_id, **{sweep: None}) \
        == figures.build_figure(fig_id)


def test_a_single_abscissa_series_draws_finite_and_byte_stable(tmp_path):
    # one x value: the x range is widened as the y range is
    svgs = []
    for name in ("a.svg", "b.svg"):
        svgplot.write_svg(tmp_path / name, [("one", [2.0], [3.0])],
                          "n", "E", "one point")
        svgs.append((tmp_path / name).read_bytes())
    assert svgs[0] == svgs[1]
    assert b"nan" not in svgs[0] and b"inf" not in svgs[0]


@pytest.mark.parametrize("xs,ys", [
    ([0.0, 1.0], [1e17, 1e17]), ([0.0, 1.0], [-1e17, -1e17]),
    ([0.0, 1.0], [1e300, 1e300]), ([0.0, 1.0], [-1e308, -1e308]),
    ([1e17], [3.0])], ids=["1e17", "-1e17", "1e300", "-1e308", "x-1e17"])
def test_a_constant_series_beyond_2_53_draws_finite(tmp_path, xs, ys):
    # lo + 1.0 == lo there: widening by 1 left an empty range, and the
    # ticks took log10(0)
    svgplot.write_svg(tmp_path / "c.svg", [("c", xs, ys)], "x", "y", "")
    svg = (tmp_path / "c.svg").read_bytes()
    assert b"nan" not in svg and b"inf" not in svg


def test_csv_floats_carry_12_significant_digits(tmp_path):
    path = tmp_path / "fig2.csv"
    figures.write_csv(figures.fig2_data(), path)
    cell = path.read_text().splitlines()[1].split(",")[2]
    assert len(cell.replace(".", "").replace("-", "").lstrip("0")) == 12


def test_figures_match_the_pinned_digests(tmp_path):
    pinned = pathlib.Path(__file__).resolve().parents[1] / "bench" / "figures.sha256"
    want = dict(reversed(line.split()) for line in pinned.read_text().splitlines())
    for fig in figures.FIGURE_IDS:
        figures.write_figure(figures.build_figure(fig), tmp_path)
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.iterdir()}
    assert got == want
