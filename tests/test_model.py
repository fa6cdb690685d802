import math

import pytest

from dkp_eup.model import (Branch, ModelParams, Parity, QuantumNumbers,
                           minimum_momentum_uncertainty, validate, xi_zeta)

REF = ModelParams(m=1.0, alpha=0.1, lambda0=0.5, lambda_r=1.0)


def test_reference_params_pass_with_positive_discriminant():
    # D = 1 + 4[(10)(11) - 25] = 341, computed directly
    assert REF.discriminant() == pytest.approx(341.0, abs=1e-12)
    assert validate(REF).passed


def test_undeformed_boundary_case_lambda0_equals_lambda_r():
    assert validate(ModelParams(m=1.0, alpha=0.0, lambda0=1.0, lambda_r=1.0)).passed


def test_coupling_order_violation_reported():
    report = validate(ModelParams(m=1.0, alpha=0.1, lambda0=2.0, lambda_r=1.0))
    assert not report.passed
    assert "lambdaR >= lambda0" in report.violations


def test_negative_lambda0_rejected():
    report = validate(ModelParams(m=1.0, alpha=0.1, lambda0=-0.5, lambda_r=1.0))
    assert "lambda0 >= 0" in report.violations


@pytest.mark.parametrize("field,value,expected", [
    ("m", 0.0, "m > 0"),
    ("m", -1.0, "m > 0"),
    ("alpha", -0.1, "alpha >= 0"),
])
def test_basic_domain_violations(field, value, expected):
    kwargs = dict(m=1.0, alpha=0.1, lambda0=0.5, lambda_r=1.0)
    kwargs[field] = value
    assert expected in validate(ModelParams(**kwargs)).violations


def test_negative_discriminant_reported():
    # D < 0 needs lambda0 > lambda_r, so both violations appear together
    p = ModelParams(m=1.0, alpha=0.1, lambda0=1.5, lambda_r=1.0)
    report = validate(p)
    assert "discriminant >= 0" in report.violations
    assert "lambdaR >= lambda0" in report.violations


@pytest.mark.parametrize("alpha", [1e-6, 0.05, 0.3, 2.0, 50.0])
@pytest.mark.parametrize("lambda0", [0.0, 0.5, 1.0])
def test_discriminant_at_least_one_on_valid_domain(alpha, lambda0):
    # identity: for lambda_r >= lambda0 >= 0, x(x+1) - y^2 >= x so D >= 1
    p = ModelParams(m=1.0, alpha=alpha, lambda0=lambda0, lambda_r=1.0)
    assert p.discriminant() >= 1.0 - 1e-12


def test_validate_is_pure():
    before = (REF.m, REF.alpha, REF.lambda0, REF.lambda_r)
    validate(REF)
    validate(REF)
    assert (REF.m, REF.alpha, REF.lambda0, REF.lambda_r) == before


def test_xi_zeta_low_J_values():
    assert xi_zeta(0) == (1.0, 0.0)
    xi, zeta = xi_zeta(1)
    assert xi == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
    assert zeta == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)


@pytest.mark.parametrize("J", list(range(0, 40)) + [100, 1000])
def test_xi_zeta_unit_circle_identity(J):
    xi, zeta = xi_zeta(J)
    assert abs(xi * xi + zeta * zeta - 1.0) <= 1e-15


def test_quantum_number_invariants():
    QuantumNumbers(0, 0, Parity.UNNATURAL)  # allowed
    with pytest.raises(ValueError):
        QuantumNumbers(-1, 0)
    with pytest.raises(ValueError):
        QuantumNumbers(0, -2)
    with pytest.raises(ValueError):
        QuantumNumbers(0, 1, Parity.UNNATURAL)


def test_branch_enum_signs():
    assert Branch.PLUS.value == 1
    assert Branch.MINUS.value == -1


def test_minimum_momentum_uncertainty():
    assert minimum_momentum_uncertainty(0.04) == pytest.approx(0.1)
    assert minimum_momentum_uncertainty(0.0) == 0.0
    with pytest.raises(ValueError):
        minimum_momentum_uncertainty(-1.0)


@pytest.mark.parametrize("field,label", [("m", "m"), ("alpha", "alpha"),
                                         ("lambda0", "lambda0"),
                                         ("lambda_r", "lambdaR")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(field, label, value):
    kwargs = dict(m=1.0, alpha=0.1, lambda0=0.5, lambda_r=1.0)
    kwargs[field] = value
    assert f"{label} finite" in validate(ModelParams(**kwargs)).violations
