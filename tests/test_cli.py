import json
import re
from pathlib import Path

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


def _complex_e2(*a, **k):
    raise ComplexEnergy(-1.0)


# the series commands reach the E^2 kernel, not the energy_* functions
def test_no_real_spectrum_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(cli.spectrum, "_e2", _complex_e2)
    code, _, err = run(capsys, "spectrum", "--alpha", "0.1")
    assert code == 3
    assert "no real spectrum" in err


def test_no_real_spacing_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(cli.spectrum, "_e2", _complex_e2)
    code, _, err = run(capsys, "spacing", "--alpha", "0.1")
    assert code == 3
    assert "no real spectrum" in err


@pytest.mark.parametrize("command", ["spectrum", "spacing"])
def test_out_writes_the_stdout_bytes_to_the_file(command, tmp_path, capsys):
    args = (command, "--alpha", "0.1", "--n-max", "5")
    code, out, _ = run(capsys, *args)
    path = tmp_path / f"{command}.csv"
    code_out, printed, _ = run(capsys, *args, "--out", str(path))
    assert code == code_out == 0
    assert printed == ""
    assert path.read_bytes() == out.encode()


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


def test_h0_wavefunction_below_x_one_half(tmp_path, capsys):
    # lambdaR/alpha = 1/3: the build uses the wall exponent of the spectrum
    out_file = tmp_path / "h0.csv"
    code, _, err = run(capsys, "wavefunction", "--sector", "h0", "--lambda0",
                       "0", "--alpha", "3", "--lambdaR", "1", "--n", "1",
                       "--out", str(out_file))
    assert code == 0, err
    lines = out_file.read_text().splitlines()
    assert lines[0] == "rho,r,H0,weight"
    assert len(lines) == 1 + 2048
    assert "E = 5.83095189485" in err


def test_an_undeformed_wavefunction_exits_2_naming_the_sector(tmp_path, capsys):
    # no eigenfunction has an alpha = 0 form, so no limit formula is named
    out_file = tmp_path / "wf.csv"
    code, out, err = run(capsys, "wavefunction", "--alpha", "0",
                         "--out", str(out_file))
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert err == ("error: the deformed natural sector requires alpha > 0, "
                   "got alpha = 0.0\n")
    assert not out_file.exists()


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


@pytest.mark.parametrize("grid_size", ["2", "3", "4"])
def test_verify_grid_below_the_level_count_exits_2_naming_both(capsys,
                                                               grid_size):
    code, out, err = run(capsys, "verify", "--only", "oracle",
                         "--grid-size", grid_size)
    assert (code, out) == (2, "")
    assert err == (f"error: 5 levels need a grid of at least 5 cells, "
                   f"got grid_size {grid_size}\n")


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


def test_a_constant_figure_is_finite_and_byte_stable(tmp_path, capsys):
    # lambda0 = lambdaR: every level is sqrt(2), so the y range is widened
    svgs = []
    for d in (tmp_path / "a", tmp_path / "b"):
        code, _, _ = run(capsys, "figures", "--out-dir", str(d),
                         "--fig", "fig1", "--lambda0-set", "1")
        assert code == 0
        svgs.append((d / "fig1.svg").read_bytes())
    assert svgs[0] == svgs[1]
    assert b"nan" not in svgs[0] and b"inf" not in svgs[0]


def test_unknown_figure_id_is_invalid_input_and_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, _, err = run(capsys, "figures", "--out-dir", str(out_dir),
                       "--fig", "fig9")
    assert code == cli.EXIT_INVALID
    assert "unknown figure id 'fig9'" in err
    assert not out_dir.exists()


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


@pytest.mark.parametrize("flag,value,violated", [
    ("--lambda0-set", "1.5", "lambdaR >= lambda0"),
    ("--lambda0-set", "-0.5", "lambda0 >= 0"),
    ("--alpha-set", "-0.1", "alpha >= 0"),
    ("--alpha-set", "0.1,nan", "alpha finite"),
])
def test_an_invalid_sweep_value_exits_2_naming_the_constraint(tmp_path, capsys,
                                                              flag, value,
                                                              violated):
    # every sweep value is validated like the spectrum flags: 1.5 used to
    # exit 3 as "no real spectrum", -0.5 drew a curve, and -0.1 blamed the
    # alpha = 0 limit formula
    out_dir = tmp_path / "figs"
    code, out, err = run(capsys, "figures", "--out-dir", str(out_dir),
                         f"{flag}={value}")
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert err.startswith("error: invalid parameters")
    assert violated in err
    assert "limit formula" not in err
    assert not out_dir.exists()        # built before anything is written


@pytest.mark.parametrize("flag", ["--alpha-set", "--lambda0-set"])
@pytest.mark.parametrize("value", [",", "", " , "])
def test_an_empty_sweep_set_is_a_usage_error_naming_the_flag(tmp_path, capsys,
                                                             flag, value):
    # it used to draw the default sweep without a word
    with pytest.raises(SystemExit) as info:
        cli.main(["figures", "--out-dir", str(tmp_path / "figs"),
                  f"{flag}={value}"])
    assert info.value.code == 2
    assert f"argument {flag}: no value in" in capsys.readouterr().err
    assert not (tmp_path / "figs").exists()


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


@pytest.mark.parametrize("argv", [
    ("wavefunction", "--grid-size", "0"),
    ("wavefunction", "--grid-size", "1"),
    ("wavefunction", "--grid-size", "-5"),
    ("verify", "--grid-size", "0"),
], ids=" ".join)
def test_grid_size_below_2_exits_2_naming_it(tmp_path, capsys, argv):
    if argv[0] == "wavefunction":
        argv += ("--out", str(tmp_path / "wf.csv"))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: grid_size must be >= 2, got {argv[2]}\n"
    assert not (tmp_path / "wf.csv").exists()


def config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_config_ints_and_choices_are_parsed_like_their_flags(tmp_path, capsys):
    cfg = config(tmp_path, "J = 2\nsector = phi\nbranch = minus\n"
                           "lambda0 = 0\nn_max = 1\n")
    assert run(capsys, "spectrum", "--config", cfg) == run(
        capsys, "spectrum", "--J", "2", "--sector", "phi", "--branch", "minus",
        "--lambda0", "0", "--n-max", "1")
    out_file = tmp_path / "wf.csv"
    cfg = config(tmp_path, "grid_size = 128\n")
    code, _, _ = run(capsys, "wavefunction", "--config", cfg, "--out", str(out_file))
    assert code == 0
    assert len(out_file.read_text().splitlines()) == 1 + 128


def test_config_float_set_is_parsed_like_its_flag(tmp_path, capsys):
    cfg = config(tmp_path, "alpha_set = 0.1, 0.2\nfig = fig3\n")
    code, _, _ = run(capsys, "figures", "--config", cfg, "--out-dir", str(tmp_path))
    assert code == 0
    header = (tmp_path / "fig3.csv").read_text().splitlines()[0]
    assert header == "n,dE[alpha=0.1],dE[alpha=0.2]"


def test_flag_beats_config_and_foreign_keys_are_ignored(tmp_path, capsys):
    cfg = config(tmp_path, "J = 2\nn_max = 1\nsector = phi\nfunc = x\n"
                           "config = y\ncommand = verify\n")
    code, out, _ = run(capsys, "spacing", "--config", cfg, "--J", "1")
    assert (code, out) == run(capsys, "spacing", "--J", "1", "--n-max", "1")[:2]


def test_tol_0_fails_the_oracle_from_flag_and_config(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--only", "oracle", "--tol", "0")
    assert code == 1
    assert out.startswith("FAIL oracle")
    cfg = config(tmp_path, "tol = 0\n")
    code, out, _ = run(capsys, "verify", "--only", "oracle", "--config", cfg)
    assert code == 1
    assert out.startswith("FAIL oracle")


def test_grid_size_0_from_config_exits_2(tmp_path, capsys):
    cfg = config(tmp_path, "grid_size = 0\n")
    code, _, err = run(capsys, "wavefunction", "--config", cfg,
                       "--out", str(tmp_path / "wf.csv"))
    assert code == 2
    assert "grid_size" in err


@pytest.mark.parametrize("line", ["alpha = abc", "J = 1.5", "branch = foo"])
def test_config_value_of_the_wrong_type_is_a_usage_error(tmp_path, capsys, line):
    cfg = config(tmp_path, line + "\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["spectrum", "--config", cfg])
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err


# --- pinned stdout ----------------------------------------------------------
# The expected text was recorded from the CLI as it stood before argparse
# took over the defaults; a difference is a change of output.  Elapsed times
# and the oracle's worst_rel digits (LAPACK rounding varies by CPU) are
# masked.  The wavefunction CSVs are not pinned, since numpy's vectorised
# libm may differ by CPU, and the figures are pinned by bench/figures.sha256.

PINNED_ARGV = [
    ("spectrum",),
    ("spectrum", "--branch", "minus"),
    ("spectrum", "--J", "2", "--n-max", "5", "--alpha", "0.05"),
    ("spectrum", "--alpha", "0"),
    ("spectrum", "--alpha", "0", "--branch", "minus", "--J", "1"),
    ("spectrum", "--sector", "phi", "--lambda0", "0"),
    ("spectrum", "--sector", "phi", "--lambda0", "0", "--branch", "minus"),
    ("spectrum", "--sector", "h0", "--lambda0", "0"),
    ("spectrum", "--sector", "h0", "--lambda0", "0", "--branch", "minus"),
    # lambdaR/alpha = 1/3 < 1/2, where the h0 wall exponent has two roots
    ("spectrum", "--sector", "h0", "--alpha", "3", "--lambda0", "0",
     "--lambdaR", "1", "--n-max", "5"),
    ("spectrum", "--sector", "phi", "--alpha", "3", "--lambda0", "0",
     "--lambdaR", "1", "--n-max", "5"),
    ("spacing",),
    ("spacing", "--alpha", "0.04", "--n-max", "20", "--J", "1"),
    ("spacing", "--alpha", "0"),
    ("spacing", "--alpha", "0.2", "--J", "4", "--n-max", "200"),
    ("spectrum", "--sector", "phi", "--lambda0", "0", "--J", "3", "--n-max", "20"),
    ("spectrum", "--alpha", "0", "--lambda0", "1", "--n-max", "3"),
    ("spacing", "--m", "1e8"),   # exit 2: E_1 - E_0 has lost its digits
    ("verify",),
    ("verify", "--mutate", "jj-term"),
]
PINNED_FILE = Path(__file__).parent / "data" / "cli_stdout.json"


def masked_stdout(capsys, argv) -> dict:
    code, out, _ = run(capsys, *argv)
    out = re.sub(r"\(\d+\.\d+ s\)", "(* s)", out)
    return {"code": code, "stdout": re.sub(r"worst_rel=\S+", "worst_rel=*", out)}


@pytest.mark.parametrize("argv", PINNED_ARGV, ids=" ".join)
def test_stdout_is_pinned(capsys, argv):
    pinned = json.loads(PINNED_FILE.read_text(encoding="utf-8"))
    assert masked_stdout(capsys, argv) == pinned[" ".join(argv)]
