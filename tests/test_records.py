"""Every record of the package is an immutable ``typing.NamedTuple``: it
rejects assignment, copies with ``_replace`` and prints as it always has."""
import importlib

import pytest

from dkp_eup import algebra, figures, oracle, spectrum, verify, wavefunction
from dkp_eup.model import ModelParams, QuantumNumbers, validate

REF = ModelParams(1.0, 0.1, 0.5, 1.0)
MODULES = ("algebra", "figures", "model", "oracle", "spectrum", "verify",
           "wavefunction")


def _comparison():
    e0 = spectrum.level(REF, "natural", 0).value
    return oracle.compare(REF, oracle.Sector.natural(0), [e0], 64, 1.0)


# one instance of each record, built on demand
RECORDS = {
    "ModelParams": lambda: REF,
    "QuantumNumbers": lambda: QuantumNumbers(1, 2),
    "ValidationReport": lambda: validate(REF),
    "EnergyLevel": lambda: spectrum.level(REF, "natural", 0),
    "HypergeomData": lambda: spectrum.abc(
        REF, 0, spectrum.level(REF, "natural", 0).value),
    "FigureData": lambda: figures.build_figure("fig1"),
    "CheckResult": verify.check_algebra,
    "Sector": lambda: oracle.Sector.natural(1),
    "DiscretizedProblem": lambda: oracle.discretize(
        REF, oracle.Sector.natural(0), 16),
    "ComparisonRow": lambda: _comparison().rows[0],
    "ComparisonReport": _comparison,
    "DkpMatrixSet": algebra.build_matrices,
    "AlgebraReport": lambda: algebra.verify_algebra(algebra.build_matrices()),
    "ProjectorMatrix": lambda: algebra.build_projector(algebra.build_matrices()),
    "CommutatorReport": lambda: algebra.check_deformed_commutators(0.1),
    "RadialSolution": lambda: wavefunction.natural_solution(REF, 0, 0),
}


def test_every_record_is_listed():
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"dkp_eup.{name}")
        found |= {cls.__name__ for cls in vars(module).values()
                  if isinstance(cls, type) and issubclass(cls, tuple)
                  and cls.__module__ == module.__name__
                  and not cls.__name__.startswith("_")}
    assert found == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_rejects_assignment(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_replace_returns_a_new_equal_record(name):
    record = RECORDS[name]()
    copy = record._replace()
    assert copy is not record and type(copy) is type(record)
    assert all(new is old for new, old in zip(copy, record))
    marker = object()
    changed = record._replace(**{record._fields[-1]: marker})
    assert changed[-1] is marker and record[-1] is not marker
    assert all(new is old for new, old in zip(changed[:-1], record[:-1]))


def test_repr_is_unchanged():
    assert repr(REF) == "ModelParams(m=1.0, alpha=0.1, lambda0=0.5, lambda_r=1.0)"
    level = spectrum.EnergyLevel(QuantumNumbers(0, 1), 2.5,
                                 spectrum.Formula.NATURAL_DEFORMED)
    assert repr(level) == (
        "EnergyLevel(qn=QuantumNumbers(n=0, J=1, parity=<Parity.NATURAL: "
        "'natural'>, branch=<Branch.PLUS: 1>), value=2.5, "
        "formula=<Formula.NATURAL_DEFORMED: 'natural-deformed'>)")


def test_replace_validates_quantum_numbers():
    qn = QuantumNumbers(1, 2)
    assert qn._replace(n=3) == QuantumNumbers(3, 2)
    with pytest.raises(ValueError, match="n must be >= 0"):
        qn._replace(n=-1)
