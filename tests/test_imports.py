"""The closed-form commands and the package import stay off numpy and scipy,
and the eigenfunctions off scipy."""
import ast
import os
import pathlib
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
    "model", "natural_solution", "residual_first_order", "spectrum",
    "unnatural_solution", "validate", "wavefunction", "xi_zeta",
}


def _fresh(code: str) -> list[str]:
    """The words ``code`` prints in a fresh interpreter on this source tree."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    ).stdout.split()


def _loaded_after(code: str) -> set[str]:
    """Which of numpy and scipy a fresh interpreter holds after ``code``."""
    return set(_fresh(f"import sys\n{code}\n"
                      "print(*({'numpy', 'scipy'} & set(sys.modules)))"))


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n-max", "3"],
    ["spacing", "--n-max", "3"],
    ["figures", "--out-dir", "{tmp}"],
])
def test_closed_form_commands_load_no_numpy_or_scipy(argv, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = ("import contextlib, io\nfrom dkp_eup import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0")
    assert _loaded_after(code) == set()


@pytest.mark.parametrize("code", [
    "import dkp_eup.wavefunction",
    "import contextlib, io\nfrom dkp_eup import cli\n"
    "with contextlib.redirect_stderr(io.StringIO()):\n"
    "    assert cli.main(['wavefunction', '--n', '3', '--out', {out!r}]) == 0",
])
def test_eigenfunctions_load_numpy_but_no_scipy(code, tmp_path):
    assert _loaded_after(code.format(out=str(tmp_path / "wf.csv"))) == {"numpy"}


def test_verification_loads_no_sparse_solver():
    # the oracle needs only scipy.linalg; scipy.sparse would add to the
    # set-up time of every verification run
    loaded = _fresh("import sys\nimport dkp_eup.verify\n"
                    "print(*[m for m in sys.modules if m.startswith('scipy.')])")
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.sparse")]


def test_package_import_loads_no_numpy():
    assert _loaded_after("import dkp_eup") == set()


def test_public_names_survive_the_lazy_import():
    from dkp_eup import wavefunction
    assert set(dkp_eup.__all__) == PUBLIC_API
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


STDLIB_ONLY = {"model", "errors", "spectrum", "figures", "svgplot"}
# third-party imports allowed beyond the standard library, by module
THIRD_PARTY = {**dict.fromkeys(STDLIB_ONLY, set()), "wavefunction": {"numpy"}}


@pytest.mark.parametrize("module", sorted(THIRD_PARTY))
def test_closed_form_layer_imports_only_the_standard_library(module):
    package, absolute = _imports(SRC / f"{module}.py")
    assert package <= STDLIB_ONLY
    assert absolute <= (set(sys.stdlib_module_names) | {"__future__"}
                        | THIRD_PARTY[module])
