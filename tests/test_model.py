import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkp_eup import algebra, oracle, spectrum
from dkp_eup.model import (Branch, ModelParams, Parity, QuantumNumbers,
                           max_or_nan, minimum_momentum_uncertainty, validate,
                           xi_zeta)

REF = ModelParams(m=1.0, alpha=0.1, lambda0=0.5, lambda_r=1.0)


def assert_real_wall_exponent(p, J):
    """The two owners of "D >= 0" both find a real wall exponent at ``p``:
    the formulas' b = 1/4 + sqrt(D)/4 is at least 1/2 (D >= 1) up to
    rounding, and the oracle's constants raise no ComplexExponent."""
    _, b = spectrum.exponents(p, "natural", J)
    assert b >= 0.5 * (1.0 - 4e-16)
    oracle._sector_constants(p, oracle.Sector.natural(J))


def test_reference_params_pass_with_positive_discriminant():
    # D = 1 + 4[(10)(11) - 25] = 341, computed directly; sigma = 2(a + b)
    assert validate(REF).passed
    _, b = spectrum.exponents(REF, "natural", 0)
    _, sigma, _ = oracle._sector_constants(REF, oracle.Sector.natural(0))
    assert b == pytest.approx(0.25 + math.sqrt(341.0) / 4.0, rel=1e-15)
    assert sigma == pytest.approx(1.5 + math.sqrt(341.0) / 2.0, rel=1e-15)


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
    # D < 0 needs lambda0 > lambda_r, which the coupling order names alone
    p = ModelParams(m=1.0, alpha=0.1, lambda0=1.5, lambda_r=1.0)
    assert validate(p).violations == ("lambdaR >= lambda0",)


@pytest.mark.parametrize("alpha", [1e-6, 0.05, 0.3, 2.0, 50.0])
@pytest.mark.parametrize("lambda0", [0.0, 0.5, 1.0])
def test_discriminant_at_least_one_on_valid_domain(alpha, lambda0):
    # identity: for lambda_r >= lambda0 >= 0, x(x+1) - y^2 >= x so D >= 1
    p = ModelParams(m=1.0, alpha=alpha, lambda0=lambda0, lambda_r=1.0)
    assert_real_wall_exponent(p, 0)


@settings(max_examples=300, deadline=None)
@given(m=st.floats(1e-3, 10.0), log_alpha=st.floats(-8.0, 1.0),
       lambda_r=st.floats(0.0, 10.0), ratio=st.floats(0.0, 1.0),
       J=st.integers(0, 20))
def test_every_parameter_validate_passes_has_a_real_wall_exponent(
        m, log_alpha, lambda_r, ratio, J):
    # validate keeps no discriminant clause: its coupling order implies D >= 1
    p = ModelParams(m, 10.0 ** log_alpha, ratio * lambda_r, lambda_r)
    assert validate(p).passed
    assert_real_wall_exponent(p, J)


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
    with pytest.raises(ValueError, match="J must be >= 0, got -1"):
        xi_zeta(-1)


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
    # (1.5, 2.5) constructed, and every level goes through this constructor
    for n, J in [(1.5, 2.5), (1.5, 2), (1, 1.5), (1, 2.0)]:
        with pytest.raises(TypeError):
            QuantumNumbers(n, J)


@pytest.mark.parametrize("field,value", [
    ("parity", "natural"), ("parity", "unnatural"), ("parity", None),
    ("branch", "plus"), ("branch", 1), ("branch", None)])
def test_quantum_numbers_take_only_enum_members(field, value):
    with pytest.raises(TypeError, match=f"{field} must be a {field.title()}"):
        QuantumNumbers(0, 0, **{field: value})
    with pytest.raises(TypeError, match=f"{field} must be a {field.title()}"):
        QuantumNumbers(0, 0)._replace(**{field: value})


def test_branch_enum_signs():
    assert Branch.PLUS.value == 1
    assert Branch.MINUS.value == -1


def test_minimum_momentum_uncertainty():
    assert minimum_momentum_uncertainty(0.04) == pytest.approx(0.1)
    assert minimum_momentum_uncertainty(0.0) == 0.0
    with pytest.raises(ValueError):
        minimum_momentum_uncertainty(-1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_minimum_momentum_uncertainty_rejects_a_non_finite_alpha(alpha):
    # NaN and inf used to come back as NaN and inf
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        minimum_momentum_uncertainty(alpha)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_both_alpha_bounds_keep_their_messages(alpha):
    # the commutator check needs alpha > 0, the momentum spread alpha >= 0
    with pytest.raises(ValueError) as positive:
        algebra.check_deformed_commutators(alpha)
    assert str(positive.value) == f"alpha must be finite and > 0, got {alpha}"
    if alpha != 0.0:
        with pytest.raises(ValueError) as non_negative:
            minimum_momentum_uncertainty(alpha)
        assert str(non_negative.value) == (
            f"alpha must be finite and >= 0, got {alpha}")


@pytest.mark.parametrize("values, largest", [
    ([1.0, 3.0, 2.0], 3.0), ([math.nan, 1.0], math.nan),
    ([1.0, math.nan, 2.0], math.nan), ([2.0, math.inf, math.nan], math.nan)])
def test_max_or_nan_keeps_a_nan_wherever_it_stands(values, largest):
    result = max_or_nan(values)
    assert result == largest or math.isnan(result) and math.isnan(largest)


@pytest.mark.parametrize("J", [1.5, 2.0, math.nan, math.inf])
def test_xi_zeta_rejects_a_non_integral_J(J):
    # 1.5 gave (0.79, 0.61) and NaN gave (nan, nan)
    with pytest.raises(TypeError):
        xi_zeta(J)


@pytest.mark.parametrize("field,label", [("m", "m"), ("alpha", "alpha"),
                                         ("lambda0", "lambda0"),
                                         ("lambda_r", "lambdaR")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(field, label, value):
    kwargs = dict(m=1.0, alpha=0.1, lambda0=0.5, lambda_r=1.0)
    kwargs[field] = value
    assert f"{label} finite" in validate(ModelParams(**kwargs)).violations
