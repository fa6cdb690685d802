"""The closed-form commands, the package import and every verification
check but the oracle stay off numpy and scipy, and the eigenfunctions and the
oracle off scipy."""
import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import dkp_eup

SRC = pathlib.Path(dkp_eup.__file__).parent

# the public names of the package, numpy-backed ones included
PUBLIC_API = {
    "AlgebraInconsistent", "Branch", "ComplexEnergy", "ComplexExponent",
    "ComplexShift", "DivergentNorm", "DkpError", "EnergyLevel", "Formula",
    "GridTooCoarse", "HypergeomData", "ModelParams", "NonConvergence",
    "NonFiniteParameter", "OutOfDomain", "Parity", "QuantumNumbers",
    "RadialSolution", "ResidualFloor", "UnsupportedRegime", "ValidationReport",
    "abc", "count_nodes", "deformed_norm", "energy_natural", "energy_natural_limit",
    "energy_unnatural_h0", "energy_unnatural_phi", "errors", "evaluate_primary",
    "exponents", "level", "level_spacing", "minimum_momentum_uncertainty",
    "model", "natural_solution", "spectrum", "unnatural_solution",
    "validate", "wavefunction", "xi_zeta",
}


def _fresh(code: str) -> list[str]:
    """The words ``code`` prints in a fresh interpreter on this source tree."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    ).stdout.split()


def _loaded_after(code: str, watched=("numpy", "scipy")) -> set[str]:
    """Which of the ``watched`` modules a fresh interpreter holds after
    ``code``."""
    return set(_fresh(f"import sys\n{code}\n"
                      f"print(*({set(watched)!r} & set(sys.modules)))"))


def _cli_code(argv: list[str], code: int = 0) -> str:
    """Code that runs ``dkp-eup ARGV`` quietly and asserts it exits ``code``."""
    return ("import contextlib, io\nfrom dkp_eup import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == {code}")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n-max", "3"],
    ["spacing", "--n-max", "3"],
    ["figures", "--out-dir", "{tmp}"],
])
def test_closed_form_commands_load_no_numpy_or_scipy(argv, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert _loaded_after(_cli_code(argv)) == set()


# dataclasses imports inspect, ast, dis and tokenize; the figure modules
# serve only the figures command
COLD_PATH_EXTRAS = ("dataclasses", "inspect", "dkp_eup.figures",
                    "dkp_eup.svgplot")


@pytest.mark.parametrize("argv, loaded", [
    (None, set()),
    (["spectrum", "--n-max", "3"], set()),
    (["spacing", "--n-max", "3"], set()),
    (["figures", "--out-dir", "{tmp}"], {"dkp_eup.figures", "dkp_eup.svgplot"}),
])
def test_closed_form_path_loads_only_what_it_uses(argv, loaded, tmp_path):
    code = ("import dkp_eup" if argv is None else
            _cli_code([arg.format(tmp=tmp_path) for arg in argv]))
    assert _loaded_after(code, COLD_PATH_EXTRAS) == loaded


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    # records are typing.NamedTuple: no class is built by exec at import
    assert "dataclasses" not in _imports(path)[1]


@pytest.mark.parametrize("code", [
    "import dkp_eup.wavefunction",
    "import contextlib, io\nfrom dkp_eup import cli\n"
    "with contextlib.redirect_stderr(io.StringIO()):\n"
    "    assert cli.main(['wavefunction', '--n', '3', '--out', {out!r}]) == 0",
])
def test_eigenfunctions_load_numpy_but_no_scipy(code, tmp_path):
    assert _loaded_after(code.format(out=str(tmp_path / "wf.csv"))) == {"numpy"}


@pytest.mark.parametrize("argv, code, loaded", [
    (["verify", "--only", "algebra"], 0, set()),
    (["verify", "--only", "commutators"], 0, set()),
    (["verify", "--only", "closure"], 0, set()),
    (["verify", "--only", "closure", "--mutate", "jj-term"], 1, set()),
    (["verify", "--only", "oracle"], 0, {"numpy"}),
])
def test_only_the_oracle_check_loads_numpy(argv, code, loaded):
    assert _loaded_after(_cli_code(argv, code)) == loaded


def test_verification_loads_no_sparse_solver():
    # the oracle runs on numpy alone: no scipy module, sparse or other,
    # adds to the set-up time of a verification run
    loaded = _fresh("import sys\nimport dkp_eup.verify\n"
                    "print(*[m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert loaded == []


def test_importing_builds_no_grid():
    # grids are built on first use, so an import pays for none of them
    sizes = _fresh("from dkp_eup import wavefunction, oracle\n"
                   "print(*[f.cache_info().currsize for f in (\n"
                   "    wavefunction._chebyshev_grid, oracle._grid)])")
    assert sizes == ["0", "0"]


def test_package_import_loads_no_numpy():
    assert _loaded_after("import dkp_eup") == set()


def test_public_names_survive_the_lazy_import():
    from dkp_eup import wavefunction
    assert set(dkp_eup.__all__) == PUBLIC_API
    assert set(dkp_eup.__all__) <= set(dir(dkp_eup))
    assert set(_fresh("import dkp_eup\n"
                      "print(*[n for n in dir(dkp_eup) if n[0] != '_'])")) == PUBLIC_API
    assert dkp_eup.natural_solution is wavefunction.natural_solution
    assert dkp_eup.wavefunction is wavefunction
    namespace: dict = {}
    exec("from dkp_eup import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_API


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dkp_eup.no_such_name


def _traced_names() -> list[str]:
    """``module.name`` of every function the benchmark worker traces, read
    with ast: importing the worker would edit sys.path."""
    tree = ast.parse((SRC.parents[1] / "bench" / "worker.py").read_text())
    traced = next(node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [ast.unparse(t) for t in node.targets] == ["TRACED"])
    return [f"{module}.{name}"
            for module, names in ast.literal_eval(traced).items()
            for name in names]


@pytest.mark.parametrize("name", _traced_names() + [
    "oracle.Sector.natural", "oracle.Sector.phi", "oracle.Sector.h0",
    "cli.main"])
def test_every_name_the_benchmark_calls_exists(name):
    # a removed function would fail the traced benchmark runs, not tier-1
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"dkp_eup.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)


def _imports(path: pathlib.Path) -> tuple[set[str], set[str]]:
    """(package-relative modules, absolute top-level modules) a file imports."""
    package, absolute = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            package |= ({node.module} if node.module else
                        {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            absolute |= {alias.name.split(".")[0] for alias in node.names}
    return package, absolute


STDLIB_ONLY = {"model", "errors", "spectrum", "figures", "svgplot", "algebra",
               "verify"}
# third-party imports allowed beyond the standard library, by module
THIRD_PARTY = {**dict.fromkeys(STDLIB_ONLY, set()), "wavefunction": {"numpy"},
               "oracle": {"numpy"}}
# numpy-backed package modules imported inside the one function that runs them
LAZY = {"verify": {"oracle"}}


@pytest.mark.parametrize("module", sorted(THIRD_PARTY))
def test_closed_form_layer_imports_only_the_standard_library(module):
    package, absolute = _imports(SRC / f"{module}.py")
    assert package <= STDLIB_ONLY | LAZY.get(module, set())
    assert absolute <= (set(sys.stdlib_module_names) | {"__future__"}
                        | THIRD_PARTY[module])


# what model.require_finite, model.require_index, model.require_alpha and
# model.finite say
GUARDS = {"walks the ModelParams fields": r"\._asdict\(|\._fields\b",
          "writes a bound check": r"must be >= .*got",
          "writes an alpha bound": r"must be finite and",
          "writes an overflow check": r"overflows the float range",
          "spells a sector tuple": r"""["']phi["'],\s*["']h0["']""",
          "writes a sector check": r"is not one of",
          "writes an alpha regime check": r"requires alpha > 0, got",
          "writes a lambda0 regime check": r"requires lambda0 = 0, got",
          "writes a discriminant check": r"raise ComplexExponent"}


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "model.py"}),
                         ids=lambda p: p.stem)
def test_every_input_guard_is_written_once_in_model(path):
    text = path.read_text()
    assert [what for what, pattern in GUARDS.items()
            if re.search(pattern, text)] == []
