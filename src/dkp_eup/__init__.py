"""Bound states of the deformed spin-one wave equation with nonminimal
vector coupling: exact matrix algebra, closed-form spectra, explicit
eigenfunctions, and an independent numerical eigensolver for cross-checks.

The closed-form layer imports only the standard library.  The eigenfunction
names load ``wavefunction``, and with it numpy, on first use.
"""

from .errors import (AlgebraInconsistent, ComplexEnergy, ComplexExponent,
                     ComplexShift, DivergentNorm, DkpError, GridTooCoarse,
                     NonConvergence, NonFiniteParameter, OutOfDomain,
                     ResidualFloor, UnsupportedRegime)
from .model import (Branch, ModelParams, Parity, QuantumNumbers,
                    ValidationReport, minimum_momentum_uncertainty, validate,
                    xi_zeta)
from .spectrum import (EnergyLevel, Formula, HypergeomData, abc,
                       energy_natural, energy_natural_limit,
                       energy_unnatural_h0, energy_unnatural_phi, exponents,
                       level, level_spacing)

__version__ = "0.1.0"

_LAZY = ("wavefunction", "RadialSolution", "count_nodes", "deformed_norm",
         "evaluate_primary", "natural_solution", "unnatural_solution")

__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 | set(_LAZY))


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module
        module = import_module(f"{__name__}.wavefunction")
        return module if name == "wavefunction" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
