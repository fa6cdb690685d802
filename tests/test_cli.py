import json
import re

import pytest

from dkp_eup import algebra, cli
from dkp_eup.errors import ComplexEnergy


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_constant_line(capsys):
    code, out, _ = run(capsys, "spectrum", "--m", "1", "--alpha", "0",
                       "--lambda0", "1", "--lambdaR", "1", "--J", "0",
                       "--n-max", "20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,J,parity,branch,E"
    assert len(lines) == 22
    energies = {line.split(",")[4] for line in lines[1:]}
    assert energies == {"1.41421356237"}


def test_spectrum_monotone_for_deformed_case(capsys):
    code, out, _ = run(capsys, "spectrum", "--alpha", "0.1", "--n-max", "15")
    assert code == 0
    values = [float(line.split(",")[4]) for line in out.strip().splitlines()[1:]]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_spectrum_output_is_byte_stable(capsys):
    args = ("spectrum", "--alpha", "0.05", "--lambda0", "0.5", "--n-max", "9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_unnatural_sector_rejects_nonzero_lambda0(capsys):
    code, _, err = run(capsys, "spectrum", "--sector", "phi",
                       "--lambda0", "0.5")
    assert code == 2
    assert "lambda0" in err


def test_invalid_parameters_exit_2_and_echo(capsys):
    code, _, err = run(capsys, "spectrum", "--lambda0", "2", "--lambdaR", "1")
    assert code == 2
    assert "lambdaR >= lambda0" in err
    assert "lambda0=2" in err


def test_no_real_spectrum_exit_3(capsys, monkeypatch):
    def boom(*a, **k):
        raise ComplexEnergy(-1.0)
    monkeypatch.setattr(cli.spectrum, "energy_natural", boom)
    code, _, err = run(capsys, "spectrum", "--alpha", "0.1")
    assert code == 3
    assert "no real spectrum" in err


def test_spacing_command(capsys):
    code, out, _ = run(capsys, "spacing", "--alpha", "0.04", "--n-max", "3")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,J,spacing"
    assert all(float(r.split(",")[2]) > 0 for r in rows[1:])


def test_wavefunction_command(tmp_path, capsys):
    out_file = tmp_path / "wf.csv"
    code, _, err = run(capsys, "wavefunction", "--n", "1", "--J", "0",
                       "--grid-size", "128", "--out", str(out_file))
    assert code == 0
    assert out_file.exists()
    header = out_file.read_text().splitlines()[0]
    assert header.startswith("rho,r,F0")
    assert "residual" in err


def test_verify_only_algebra(capsys):
    code, out, _ = run(capsys, "verify", "--only", "algebra")
    assert code == 0
    assert "PASS algebra" in out


def test_verify_only_commutators(capsys):
    code, out, _ = run(capsys, "verify", "--only", "commutators")
    assert code == 0
    assert "PASS commutators" in out


def test_verify_commutators_fails_on_an_undeformed_momentum(capsys,
                                                          monkeypatch):
    # -i d_j instead of -i w d_j breaks the [X,P] and [P,P] relations
    monkeypatch.setattr(algebra, "momentum", lambda j: tuple(
        {(0, 0, 0, 0): -1j} if l == j + 1 else {} for l in range(4)))
    code, out, _ = run(capsys, "verify", "--only", "commutators")
    assert code == 1
    assert out.startswith("FAIL commutators")
    failures = json.loads(out.strip().splitlines()[-1])["failures"]
    assert len(failures) == 1
    assert re.fullmatch(r"commutators: residuals xx=0\.00e\+00 "
                        r"xp=\S+e[+-]\d\d pp=\S+e[+-]\d\d", failures[0])


def test_verify_closure_clean_and_mutated(capsys):
    code, out, _ = run(capsys, "verify", "--only", "closure")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--only", "closure",
                       "--mutate", "jj-term")
    assert code == 1
    failures = json.loads(out.strip().splitlines()[-1])["failures"]
    assert any("closure" in f for f in failures)


def test_verify_oracle_small_grid(capsys):
    code, out, _ = run(capsys, "verify", "--only", "oracle",
                       "--grid-size", "1024", "--tol", "1e-4")
    assert code == 0
    assert "PASS oracle" in out


def test_figures_emits_all_pairs(tmp_path, capsys):
    code, _, err = run(capsys, "figures", "--out-dir", str(tmp_path))
    assert code == 0
    for fig in ("fig1", "fig2", "fig3", "fig4"):
        assert (tmp_path / f"{fig}.csv").exists()
        assert (tmp_path / f"{fig}.svg").exists()


def test_figures_single_fig_byte_stable(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, _, _ = run(capsys, "figures", "--out-dir", str(d),
                         "--fig", "fig2")
        assert code == 0
    assert (d1 / "fig2.csv").read_bytes() == (d2 / "fig2.csv").read_bytes()
    assert (d1 / "fig2.svg").read_bytes() == (d2 / "fig2.svg").read_bytes()


def test_figures_sweep_sets_are_overridable(tmp_path, capsys):
    code, _, _ = run(capsys, "figures", "--out-dir", str(tmp_path),
                     "--fig", "fig1", "--lambda0-set", "0,0.25")
    assert code == 0
    header = (tmp_path / "fig1.csv").read_text().splitlines()[0]
    assert header == "n,E[lambda0=0],E[lambda0=0.25]"
    code, _, _ = run(capsys, "figures", "--out-dir", str(tmp_path),
                     "--fig", "fig3", "--alpha-set", "0.1")
    assert code == 0
    header = (tmp_path / "fig3.csv").read_text().splitlines()[0]
    assert header == "n,dE[alpha=0.1]"


def test_fig3_svg_has_dashed_asymptotes(tmp_path, capsys):
    run(capsys, "figures", "--out-dir", str(tmp_path), "--fig", "fig3")
    svg = (tmp_path / "fig3.svg").read_text()
    assert "stroke-dasharray" in svg
    assert "2 sqrt(0.1)" in svg


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0\nlambda0 = 1\nlambdaR = 1\nn_max = 2\n")
    # config drives everything not given on the command line
    code, out, _ = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 0
    assert out.strip().splitlines()[1].endswith("1.41421356237")
    # explicit flag wins over the config value
    code, out, _ = run(capsys, "spectrum", "--config", str(cfg),
                       "--lambda0", "0.5")
    assert code == 0
    assert not out.strip().splitlines()[1].endswith("1.41421356237")


def test_bad_config_line_is_invalid_input(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha 0.1\n")
    code, _, err = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 2
    assert "bad config line" in err


@pytest.mark.parametrize("argv", [
    ("spectrum", "--alpha", "nan"),
    ("spectrum", "--alpha", "inf"),
    ("spacing", "--lambda0", "nan"),
    ("spectrum", "--n-max", "-3"),
    ("spacing", "--n-max", "-1"),
])
def test_non_finite_parameters_and_negative_n_max_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "nan" in err or "inf" in err or "n_max" in err


@pytest.mark.parametrize("argv", [
    ("spectrum", "--lambdaR", "1e200", "--lambda0", "0"),
    ("spectrum", "--m", "1e200"),
    ("spectrum", "--alpha", "0", "--lambdaR", "1e200", "--lambda0", "0"),
    ("spectrum", "--sector", "phi", "--lambda0", "0", "--lambdaR", "1e308"),
    ("spectrum", "--sector", "h0", "--lambda0", "0", "--alpha", "1e308",
     "--branch", "minus"),
    ("spacing", "--m", "1e200"),
])
def test_overflowing_parameters_exit_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""          # in particular no inf or nan
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflows the float range" in err


def test_negative_n_max_from_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = -3\n")
    code, out, err = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "n_max" in err
