"""Command-line front end: spectra, spacing, wavefunctions, verification, figures.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 no real spectrum for the requested parameters.

Each flag's type and default are stated once, in ``build_parser``.  Flag
values override a ``--config`` file (plain ``key = value`` lines, each parsed
exactly like its flag), which overrides the defaults.

Only ``wavefunction`` and the oracle check of ``verify`` import numpy, and
only ``figures`` the figure and SVG modules, each inside its command or
check, so the closed-form commands and the other checks start without them;
no command imports scipy.
"""
from __future__ import annotations

import argparse
import sys
import time

from . import spectrum
from .errors import ComplexEnergy, ComplexExponent, ComplexShift, DkpError
from .model import SECTORS, Branch, ModelParams, require_index, require_valid

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_NO_SPECTRUM = 3


def _parse(argv: list[str]) -> argparse.Namespace:
    """Flags over ``--config`` lines over the defaults of ``build_parser``:
    a line ``key = value`` for one of the command's own flags is parsed as
    ``--key=value`` ahead of the user's flags; other keys are ignored."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        own = vars(args).keys() - {"command", "func", "config"}
        flags = []
        with open(args.config, encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line and "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, _, val = (part.strip() for part in line.partition("="))
                if key in own:
                    flags.append(f"--{key.replace('_', '-')}={val}")
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + flags + argv[at:])
    require_index("n_max", getattr(args, "n_max", 0))
    return args


def _params(args) -> ModelParams:
    """The model parameters of the command line; invalid ones raise."""
    return require_valid(ModelParams(m=args.m, alpha=args.alpha,
                                     lambda0=args.lambda0,
                                     lambda_r=args.lambdaR))


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--m", type=float, default=1.0, help="mass (natural units)")
    p.add_argument("--alpha", type=float, default=0.1, help="deformation parameter")
    p.add_argument("--lambda0", type=float, default=0.5, help="time-component coupling")
    p.add_argument("--lambdaR", type=float, default=1.0, help="radial coupling")
    p.add_argument("--J", type=int, default=0)
    p.add_argument("--out")


def _write_lines(path, lines):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(args) -> int:
    branch = Branch.PLUS if args.branch == "plus" else Branch.MINUS
    values = spectrum.levels(_params(args), args.sector, args.n_max, args.J, branch)
    J, parity = (args.J, "natural") if args.sector == "natural" else (0, "unnatural")
    _write_lines(args.out, ["n,J,parity,branch,E"] + [
        f"{n},{J},{parity},{args.branch},{e:.12g}" for n, e in enumerate(values)])
    return EXIT_OK


def cmd_spacing(args) -> int:
    spacings = spectrum.level_spacings(_params(args), args.n_max, args.J)
    _write_lines(args.out, ["n,J,spacing"] + [
        f"{n},{args.J},{d:.12g}" for n, d in enumerate(spacings)])
    return EXIT_OK


def cmd_wavefunction(args) -> int:
    from . import wavefunction
    params = _params(args)
    # None: the builders' DEFAULT_GRID_SIZE, not imported into build_parser
    grid = {} if args.grid_size is None else {"grid_size": args.grid_size}
    if args.sector == "natural":
        sol = wavefunction.natural_solution(params, args.n, args.J, **grid)
    else:
        sol = wavefunction.unnatural_solution(params, args.n, args.sector, **grid)
    wavefunction.write_csv(sol, args.out)
    print(f"wrote {args.out} (E = {sol.energy:.12g}, "
          f"residual = {sol.residual_sup:.3e})", file=sys.stderr)
    return EXIT_OK


# --- verification suite -----------------------------------------------------

VERIFY_CHECKS = ("algebra", "commutators", "closure", "oracle")


def cmd_verify(args) -> int:
    import json

    from . import verify
    cells = verify.NATURAL_CELLS + verify.UNNATURAL_CELLS
    run = {"algebra": verify.check_algebra,
           "commutators": verify.check_commutators,
           "closure": lambda: verify.check_closure(args.mutate),
           "oracle": lambda: verify.check_oracle(cells, args.grid_size, args.tol,
                                                 args.mutate)}
    failures: list[str] = []
    for check in VERIFY_CHECKS if args.only is None else (args.only,):
        t0 = time.perf_counter()
        result = run[check]()
        failures += result.failures
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {check} ({time.perf_counter() - t0:.2f} s)")
    if failures:
        print(json.dumps({"failures": failures}))
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _float_set(text: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"no value in {text!r}")
    return values


def cmd_figures(args) -> int:
    from . import figures
    ids = figures.FIGURE_IDS if args.fig == "all" else (args.fig,)
    # every figure is built before any is written: a bad sweep writes nothing
    built = [figures.build_figure(fig_id, args.lambda0_set, args.alpha_set)
             for fig_id in ids]
    for data in built:
        csv_path, svg_path = figures.write_figure(data, args.out_dir)
        print(f"wrote {csv_path} {svg_path}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkp-eup",
        description="Bound states of the deformed spin-one wave equation "
                    "with nonminimal vector coupling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form energy levels as CSV")
    _add_param_flags(p)
    p.add_argument("--n-max", dest="n_max", type=int, default=10)
    p.add_argument("--sector", choices=SECTORS, default="natural")
    p.add_argument("--branch", choices=("plus", "minus"), default="plus")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("spacing", help="level spacing E_{n+1} - E_n as CSV")
    _add_param_flags(p)
    p.add_argument("--n-max", dest="n_max", type=int, default=10)
    p.set_defaults(func=cmd_spacing)

    p = sub.add_parser("wavefunction", help="sampled radial solution as CSV")
    _add_param_flags(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--sector", choices=SECTORS, default="natural")
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.set_defaults(func=cmd_wavefunction, out="wavefunction.csv")

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", choices=VERIFY_CHECKS)
    p.add_argument("--grid-size", dest="grid_size", type=int, default=4096)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--mutate", choices=("jj-term",),
                   help="test hook: corrupt the analytic J(J+1) term")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("figures", help="emit reference figures (CSV + SVG)")
    p.add_argument("--out-dir", dest="out_dir", default="figures")
    p.add_argument("--fig", default="all",
                   help="one figure id (fig1, fig2, ...), or all")
    p.add_argument("--lambda0-set", dest="lambda0_set", type=_float_set,
                   help="comma-separated lambda0 sweep for fig1")
    p.add_argument("--alpha-set", dest="alpha_set", type=_float_set,
                   help="comma-separated alpha sweep for fig2/fig3/fig4")
    p.set_defaults(func=cmd_figures)

    for p in sub.choices.values():
        p.add_argument("--config", help="key = value config file")
    return parser


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except (ComplexEnergy, ComplexExponent, ComplexShift) as exc:
        print(f"no real spectrum: {exc}", file=sys.stderr)
        return EXIT_NO_SPECTRUM
    except (DkpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
