"""Bound states of the deformed spin-one wave equation with nonminimal
vector coupling: exact matrix algebra, closed-form spectra, explicit
eigenfunctions, and an independent numerical eigensolver for cross-checks."""

from .errors import (AlgebraInconsistent, BadC, ComplexEnergy, ComplexExponent,
                     ComplexShift, DivergentNorm, DkpError, GridTooCoarse,
                     NonConvergence, OutOfDomain, UnsupportedRegime)
from .model import (Branch, ModelParams, Parity, QuantumNumbers,
                    ValidationReport, minimum_momentum_uncertainty, validate,
                    xi_zeta)
from .spectrum import (EnergyLevel, Formula, HypergeomData, abc,
                       energy_natural, energy_natural_limit,
                       energy_unnatural_h0, energy_unnatural_phi, exponents,
                       level, level_spacing)
from .wavefunction import (RadialSolution, count_nodes, deformed_norm,
                           evaluate_primary, gauss2f1_terminating,
                           natural_solution, residual_first_order,
                           terminating_series_coefficients,
                           unnatural_solution)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
