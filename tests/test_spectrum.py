import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dkp_eup import cli, spectrum
from dkp_eup.errors import (ComplexEnergy, ComplexExponent, ComplexShift,
                            DkpError, NonFiniteParameter, UnsupportedRegime)
from dkp_eup.model import Branch, ModelParams
from dkp_eup.spectrum import (abc, energy_natural, energy_natural_limit,
                              energy_unnatural_h0, energy_unnatural_phi,
                              exponents, level, level_spacing, level_spacings,
                              levels)

REF = ModelParams(m=1.0, alpha=0.1, lambda0=0.5, lambda_r=1.0)
EPS = Fraction(math.ulp(1.0))


def naive_natural_energy(p: ModelParams, n: int, J: int) -> float:
    """Independent evaluation through the unrearranged textbook expression.

    Deliberately a different algebraic path than the library's stable form,
    so agreement is a real double-entry check.
    """
    ra = p.lambda_r / p.alpha
    r0 = p.lambda0 / p.alpha
    d = 1.0 + 4.0 * (ra * (ra + 1.0) - r0 * r0)
    bracket = n + (2 * J + 3) / 4.0 + 0.25 * math.sqrt(d)
    e2 = (p.m ** 2 + 4.0 * p.alpha * bracket ** 2 - p.alpha * J * (J + 1)
          - (p.lambda_r ** 2 - p.lambda0 ** 2) / p.alpha)
    return math.sqrt(e2)


def test_exponent_a_is_half_of_J_plus_one():
    for J in range(5):
        a, _ = exponents(REF, "natural", J)
        assert a == (J + 1) / 2.0


def test_exponent_b_reference_value():
    # b = 1/4 + sqrt(341)/4 evaluated directly
    _, b = exponents(REF, "natural", 0)
    assert b == pytest.approx(0.25 + 0.25 * math.sqrt(341.0), abs=1e-14)
    assert b == pytest.approx(4.866546328154847, abs=1e-12)


def test_exponent_b_unit_coupling_ratio():
    # lambda0 = lambda_r = alpha gives D = 1 + 4[1*2 - 1] = 5
    p = ModelParams(m=1.0, alpha=0.3, lambda0=0.3, lambda_r=0.3)
    _, b = exponents(p, "natural", 0)
    assert b == pytest.approx((1.0 + math.sqrt(5.0)) / 4.0, abs=1e-14)


def test_exponents_raise_below_real_threshold():
    p = ModelParams(m=1.0, alpha=0.1, lambda0=1.5, lambda_r=1.0)
    with pytest.raises(ComplexExponent):
        exponents(p, "natural", 0)
    with pytest.raises(UnsupportedRegime):
        exponents(ModelParams(1.0, 0.0, 0.5, 1.0), "natural", 0)


def test_an_unknown_sector_has_no_exponents():
    with pytest.raises(UnsupportedRegime, match="unknown sector 'bogus'"):
        exponents(REF, "bogus")


@pytest.mark.parametrize("sector", ["natural", "phi", "h0"])
def test_a_negative_J_is_rejected_by_name(sector):
    # natural J = -3 gave a = -1.0, and abc served J = -1; exponents is the
    # one place every build and abc decide (a, b)
    params = REF if sector == "natural" else REF._replace(lambda0=0.0)
    with pytest.raises(ValueError, match="J must be >= 0, got -3"):
        exponents(params, sector, -3)
    with pytest.raises(TypeError):  # natural J = 1.5 gave a = 1.25
        exponents(params, sector, 1.5)
    with pytest.raises(ValueError, match="J must be >= 0, got -1"):
        abc(REF, -1, energy_natural(REF, 0, 0).value)


def test_numpy_integer_quantum_numbers_pass():
    n, J = np.int64(2), np.int64(3)
    assert level(REF, "natural", n, J).value == level(REF, "natural", 2, 3).value
    assert exponents(REF, "natural", J) == exponents(REF, "natural", 3)


def test_abc_sum_identity():
    data = abc(REF, 2, 2.5)
    assert data.A + data.B == pytest.approx(2.0 * (data.a + data.b), rel=1e-14)
    assert data.C == 0.5 + 2.0 * data.a
    assert data._fields == ("a", "b", "A", "B", "C")
    # ground states at lambda0 = lambdaR, where B = -n = 0 exactly; a former
    # audit field, b (b - 1/2) - (x^2 + x - y^2)/4, overflowed on both
    for alpha, coupling in ((1e-3, 1e154), (1e-100, 1e100)):
        p = ModelParams(1.0, alpha, coupling, coupling)
        assert abc(p, 0, energy_natural(p, 0, 0).value).B == 0.0


@settings(max_examples=300, deadline=None)
@given(log_alpha=st.floats(-8.0, 1.0), lambda_r=st.floats(0.0, 10.0),
       ratio=(st.sampled_from([0.0, 0.5, 1.0 - 1e-12, 1.0])
              | st.floats(0.0, 1.0)),
       J=st.integers(0, 10 ** 7))
def test_the_exponents_solve_their_indicial_equations(log_alpha, lambda_r,
                                                      ratio, J):
    # the root selection that kills the singular terms of the reduced
    # equation: a (a - 1/2) = J (J+1)/4 exactly, and
    # b (b - 1/2) = (x^2 + x - y^2)/4, x = lr/alpha, y = l0/alpha, within
    # 8 eps of its terms (measured worst 3.8 eps over 200,000 draws); the
    # right sides are exact rationals of the float inputs
    alpha = 10.0 ** log_alpha
    p = ModelParams(1.0, alpha, ratio * lambda_r, lambda_r)
    a, b = exponents(p, "natural", J)
    assert a * (a - 0.5) == J * (J + 1) / 4.0
    x, y = (Fraction(v) / Fraction(alpha) for v in (p.lambda_r, p.lambda0))
    lhs = Fraction(b) * (Fraction(b) - Fraction(1, 2))
    scale = (x * x + x + y * y) / 4 + Fraction(1, 16)
    assert abs(lhs - (x * x + x - y * y) / 4) <= 8 * EPS * scale


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("J", range(4))
def test_quantization_closure(n, J):
    level = energy_natural(REF, n, J)
    data = abc(REF, J, level.value)
    assert abs(data.B + n) < 1e-9


def test_reference_energy_against_naive_formula():
    level = energy_natural(REF, 0, 0)
    assert level.value == pytest.approx(naive_natural_energy(REF, 0, 0), rel=1e-13)
    assert level.value == pytest.approx(2.240519537270967, abs=1e-12)
    assert level.value ** 2 == pytest.approx(5.019927796892908, abs=1e-11)


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2, 1.0])
@pytest.mark.parametrize("n,J", [(0, 0), (1, 0), (3, 2), (7, 1)])
def test_stable_form_matches_naive_form(alpha, n, J):
    p = ModelParams(m=1.0, alpha=alpha, lambda0=0.5, lambda_r=1.0)
    assert energy_natural(p, n, J).value == pytest.approx(
        naive_natural_energy(p, n, J), rel=1e-12)


@pytest.mark.parametrize("alpha", [1e-6, 1e-3, 0.1])
def test_stable_form_against_50_digit_arithmetic(alpha):
    """Cancellation-free evaluation: relative error ~1e-15 even at tiny alpha."""
    from decimal import Decimal, getcontext
    getcontext().prec = 50
    n, J = 3, 1
    m, l0, lr = Decimal(1), Decimal("0.5"), Decimal(1)
    a = Decimal(repr(alpha))
    q = lr * lr - l0 * l0 + a * lr + a * a / 4
    beta = Decimal(n) + Decimal(2 * J + 3) / 4
    e2 = (m * m + lr + a / 4 + 4 * a * beta * beta + 4 * beta * q.sqrt()
          - a * Decimal(J * (J + 1)))
    expected = float(e2.sqrt())
    p = ModelParams(m=1.0, alpha=alpha, lambda0=0.5, lambda_r=1.0)
    assert energy_natural(p, n, J).value == pytest.approx(expected, rel=1e-12)


def test_branch_antisymmetry():
    plus = energy_natural(REF, 2, 1, Branch.PLUS).value
    minus = energy_natural(REF, 2, 1, Branch.MINUS).value
    assert minus == -plus
    assert energy_unnatural_phi(ModelParams(1, 0.1, 0.0, 1.0), 1,
                                Branch.MINUS).value == pytest.approx(
        -energy_unnatural_phi(ModelParams(1, 0.1, 0.0, 1.0), 1).value)
    assert energy_natural_limit(ModelParams(1, 0, 0.5, 1.0), 1, 0,
                                Branch.MINUS).value < 0


def test_lambda0_sign_invariance():
    flipped = ModelParams(m=1.0, alpha=0.1, lambda0=-0.5, lambda_r=1.0)
    for n in (0, 3):
        for J in (0, 2):
            assert energy_natural(flipped, n, J).value == \
                energy_natural(REF, n, J).value


def test_energy_squared_monotone_in_n():
    values = [energy_natural(REF, n, 1).value ** 2 for n in range(12)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # quadratic growth: second difference constant 8*alpha
    second = [values[i + 2] - 2 * values[i + 1] + values[i]
              for i in range(len(values) - 2)]
    assert all(s == pytest.approx(8.0 * REF.alpha, rel=1e-9) for s in second)


def test_alpha_zero_routes_are_separate():
    with pytest.raises(UnsupportedRegime):
        energy_natural(ModelParams(1.0, 0.0, 0.5, 1.0), 0, 0)


def test_limit_constant_line_at_equal_couplings():
    p = ModelParams(m=1.0, alpha=0.0, lambda0=1.0, lambda_r=1.0)
    for n in range(0, 21, 5):
        assert energy_natural_limit(p, n, 0).value == pytest.approx(
            math.sqrt(2.0), abs=1e-14)


def test_limit_reference_value():
    p = ModelParams(m=1.0, alpha=0.0, lambda0=0.5, lambda_r=1.0)
    expected = math.sqrt(2.0 + 3.0 * math.sqrt(0.75))
    assert energy_natural_limit(p, 0, 0).value == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(2.14431, abs=5e-6)


def test_limit_strictly_increasing_in_n_below_equal_couplings():
    p = ModelParams(m=1.0, alpha=0.0, lambda0=0.5, lambda_r=1.0)
    values = [energy_natural_limit(p, n, 0).value for n in range(10)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_limit_raises_when_couplings_inverted():
    with pytest.raises(ComplexEnergy):
        energy_natural_limit(ModelParams(1.0, 0.0, 1.2, 1.0), 0, 0)


@pytest.mark.parametrize("J", [0, 1, 2])
@pytest.mark.parametrize("n", [0, 2])
def test_deformed_energy_converges_to_limit_first_order(J, n):
    limit = energy_natural_limit(ModelParams(1.0, 0.0, 0.5, 1.0), n, J).value
    errors = []
    for alpha in (4e-3, 2e-3, 1e-3):
        p = ModelParams(m=1.0, alpha=alpha, lambda0=0.5, lambda_r=1.0)
        errors.append(abs(energy_natural(p, n, J).value - limit))
    assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.4)
    assert errors[1] / errors[2] == pytest.approx(2.0, abs=0.4)


@pytest.mark.parametrize("lambda0,lambda_r,n,J", [
    (0.5, 1.0, 0, 0), (0.5, 1.0, 1, 0), (0.5, 1.0, 0, 1), (0.5, 1.0, 1, 1),
    (0.0, 2.0, 0, 0), (0.0, 2.0, 1, 1), (3.0, 10.0, 0, 0), (3.0, 10.0, 1, 1)])
def test_closed_form_richardson_reaches_the_limit_formula(lambda0, lambda_r,
                                                          n, J):
    # the weights (8, -6, 1)/3 on alpha = (a, 2a, 4a), a = 1e-3, cancel the
    # first two orders of the approach to the limit; what is left is the
    # O(a^3) truncation, measured worst 7.3e-9 (0.5, 1.0, n 1, J 1).  With
    # the oracle meeting these levels in test_oracle, the limit formula is
    # checked from deformed eigensolves alone
    es = [energy_natural(ModelParams(1.0, k * 1e-3, lambda0, lambda_r),
                         n, J).value for k in (1, 2, 4)]
    extrap = (8.0 * es[0] - 6.0 * es[1] + es[2]) / 3.0
    limit = energy_natural_limit(ModelParams(1.0, 0.0, lambda0, lambda_r),
                                 n, J).value
    assert extrap == pytest.approx(limit, rel=9e-8)


def test_level_spacing_reference_plateau():
    p = ModelParams(m=1.0, alpha=0.04, lambda0=0.5, lambda_r=1.0)
    assert abs(level_spacing(p, 10_000, 0) - 2.0 * math.sqrt(0.04)) < 1e-4


def test_level_spacing_positive_and_envelope():
    for n in (0, 10, 100, 1000):
        gap = level_spacing(REF, n, 0)
        assert gap > 0
        if n >= 100:
            assert abs(gap - 2.0 * math.sqrt(REF.alpha)) < \
                10.0 * math.sqrt(REF.alpha) / n


def test_level_spacing_vanishes_without_deformation():
    p = ModelParams(m=1.0, alpha=0.0, lambda0=0.5, lambda_r=1.0)
    assert level_spacing(p, 2000, 0) < level_spacing(p, 10, 0) < \
        level_spacing(p, 0, 0)
    assert level_spacing(p, 100_000, 0) < 1e-2


@pytest.mark.parametrize("n", [10 ** 8, 10 ** 16])
@pytest.mark.parametrize("alpha", [0.0, 1e-6, 0.1, 10.0])
def test_level_spacing_raises_once_its_digits_are_lost(alpha, n):
    # E_{n+1} - E_n near 2 sqrt(alpha) n: at alpha 0.1 it read 0.6323 at
    # n = 1e12 (for 0.63246) and 0.0 at n = 1e16
    with pytest.raises(UnsupportedRegime, match="lost its digits"):
        level_spacing(REF._replace(alpha=alpha), n, 0)


def test_level_spacing_is_exactly_0_only_on_the_flat_spectrum(capsys):
    flat = ModelParams(m=1.0, alpha=0.0, lambda0=1.0, lambda_r=1.0)
    for n in (0, 200, 10 ** 16):
        assert level_spacing(flat, n, 0) == 0.0
    # a gap lr^2 - l0^2 of 2e-6 spaces the levels by ~3.8e-10 at n = 1e16
    with pytest.raises(UnsupportedRegime, match="lost its digits"):
        level_spacing(flat._replace(lambda0=0.999999), 10 ** 16, 0)
    assert cli.main(["spacing", "--alpha", "0", "--lambda0", "1",
                     "--lambdaR", "1", "--n-max", "2"]) == 0
    assert capsys.readouterr().out == "n,J,spacing\n0,0,0\n1,0,0\n2,0,0\n"


@pytest.mark.parametrize("alpha", [0.0, 1e-6, 0.1, 10.0])
def test_level_spacing_returns_the_difference_of_its_levels(alpha):
    p = REF._replace(alpha=alpha)
    for J in (0, 4):
        for n in (0, 1, 10, 200, 10 ** 4, 10 ** 6, 10 ** 7):
            want = (level(p, "natural", n + 1, J).value
                    - level(p, "natural", n, J).value)
            assert level_spacing(p, n, J) == want


def test_unnatural_phi_reference_value():
    p = ModelParams(m=1.0, alpha=0.1, lambda0=0.0, lambda_r=1.0)
    # E^2 = 1 + 4 + 4*0.1*0.5*11.5 = 7.3 by direct substitution
    assert energy_unnatural_phi(p, 0).value == pytest.approx(
        math.sqrt(7.3), abs=1e-14)


def test_unnatural_h0_reference_value():
    p = ModelParams(m=1.0, alpha=0.1, lambda0=0.0, lambda_r=1.0)
    # E^2 = 1 + 4*0.1*0.5*10.5 = 3.1
    assert energy_unnatural_h0(p, 0).value == pytest.approx(
        math.sqrt(3.1), abs=1e-14)


def test_unnatural_requires_zero_lambda0_and_deformation():
    with pytest.raises(UnsupportedRegime):
        energy_unnatural_phi(REF, 0)
    with pytest.raises(UnsupportedRegime):
        energy_unnatural_h0(ModelParams(1.0, 0.0, 0.0, 1.0), 0)


def test_phi_dominates_h0_at_every_n():
    p = ModelParams(m=1.0, alpha=0.1, lambda0=0.0, lambda_r=1.0)
    for n in range(12):
        assert energy_unnatural_phi(p, n).value > energy_unnatural_h0(p, n).value


def test_phi_small_deformation_expansion():
    # 4a(n+1/2)(n+3/2+lr/a) -> (4n+2) lr as a -> 0
    p = ModelParams(m=1.0, alpha=1e-9, lambda0=0.0, lambda_r=1.0)
    for n in (0, 3):
        expected = math.sqrt(1.0 + 4.0 + (4 * n + 2) * 1.0)
        assert energy_unnatural_phi(p, n).value == pytest.approx(
            expected, abs=1e-7)


def test_h0_massless_ground_state():
    p = ModelParams(m=0.0, alpha=0.1, lambda0=0.0, lambda_r=1.0)
    assert energy_unnatural_h0(p, 0).value == pytest.approx(
        math.sqrt(0.1 + 2.0), abs=1e-14)


def test_level_routes_each_sector_and_records_the_route():
    from dkp_eup.spectrum import Formula, level
    unnat = ModelParams(m=1.0, alpha=0.1, lambda0=0.0, lambda_r=1.0)
    cases = [(REF, "natural", Formula.NATURAL_DEFORMED, energy_natural(REF, 2, 1)),
             (ModelParams(1.0, 0.0, 0.5, 1.0), "natural", Formula.NATURAL_LIMIT,
              energy_natural_limit(ModelParams(1.0, 0.0, 0.5, 1.0), 2, 1)),
             (unnat, "phi", Formula.UNNATURAL_PHI, energy_unnatural_phi(unnat, 2)),
             (unnat, "h0", Formula.UNNATURAL_H0, energy_unnatural_h0(unnat, 2))]
    for params, sector, formula, want in cases:
        got = level(params, sector, 2, 1)
        assert got.formula is formula
        assert got == want
    assert level(REF, "natural", 0, 0, Branch.MINUS).value < 0
    with pytest.raises(UnsupportedRegime):
        level(REF, "vector", 0)


UNNAT = ModelParams(m=1.0, alpha=0.1, lambda0=0.0, lambda_r=1.0)
ENTRY_POINTS = {
    "energy_natural": lambda p: energy_natural(p, 1, 1),
    "energy_natural_limit": lambda p: energy_natural_limit(p, 1, 1),
    "energy_unnatural_phi": lambda p: energy_unnatural_phi(p, 1),
    "energy_unnatural_h0": lambda p: energy_unnatural_h0(p, 1),
    "exponents": lambda p: exponents(p, "natural", 1),
    "exponents_phi": lambda p: exponents(p, "phi"),
    "exponents_h0": lambda p: exponents(p, "h0"),
    "abc": lambda p: abc(p, 1, 2.0),
    "level_spacing": lambda p: level_spacing(p, 1, 1),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["m", "alpha", "lambda0", "lambda_r"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_parameter_is_rejected_by_name(entry, field, value):
    params = UNNAT._replace(**{field: value})
    with pytest.raises(NonFiniteParameter, match=f"parameter {field} = {value} "):
        ENTRY_POINTS[entry](params)


@pytest.mark.parametrize("energy", [math.nan, math.inf])
def test_non_finite_energy_is_rejected_by_abc(energy):
    with pytest.raises(NonFiniteParameter, match="parameter energy"):
        abc(REF, 0, energy)


@pytest.mark.parametrize("entry,field,value,quantity", [
    ("energy_natural", "lambda_r", 1e200, r"Q = lr\^2"),
    ("energy_natural", "alpha", 1e200, r"Q = lr\^2"),
    ("energy_natural", "m", 1e200, r"E\^2"),
    ("energy_natural_limit", "lambda_r", 1e200, r"lr\^2 - l0\^2"),
    ("energy_natural_limit", "m", 1e200, r"E\^2"),
    ("energy_unnatural_phi", "m", 1e200, r"E\^2"),
    ("energy_unnatural_phi", "lambda_r", 1e308, r"E\^2"),   # a sum overflows
    ("energy_unnatural_h0", "alpha", 1e308, r"E\^2"),
    ("exponents", "lambda_r", 1e200, r"Q = lr\^2"),
    ("exponents", "alpha", 1e-320, "wall exponent b"),
    ("exponents_phi", "alpha", 1e-320, "wall exponent b"),  # lr/alpha
    ("exponents_h0", "alpha", 1e-320, "wall exponent b"),
    ("abc", "m", 1e200, "shift radicand"),
    ("abc", "alpha", 1e-170, "shift radicand"),   # alpha^2 underflows to 0
    ("level_spacing", "m", 1e200, r"E\^2"),
])
def test_overflow_is_rejected_naming_the_quantity(entry, field, value, quantity):
    params = UNNAT._replace(**{field: value})
    with pytest.raises(UnsupportedRegime, match=f"^{quantity}.* overflows"):
        ENTRY_POINTS[entry](params)


@pytest.mark.parametrize("entry", ["energy_natural", "exponents", "abc",
                                   "level_spacing"])
def test_underflowed_alpha_still_raises_complex_exponent(entry):
    # lambda0 > lambda_r leaves no real wall exponent; at alpha = 1e-170,
    # alpha^2 underflows to 0 and D = 4Q/alpha^2 is beyond the float range
    params = ModelParams(m=1.0, alpha=1e-170, lambda0=1.5, lambda_r=1.0)
    with pytest.raises(ComplexExponent) as info:
        ENTRY_POINTS[entry](params)
    assert info.value.discriminant == -math.inf


LIMIT = REF._replace(alpha=0.0)
QUANTUM_NUMBER_ENTRIES = {
    "energy_natural-n": lambda v: energy_natural(REF, v, 0),
    "energy_natural-J": lambda v: energy_natural(REF, 0, v),
    "energy_natural_limit-n": lambda v: energy_natural_limit(LIMIT, v, 0),
    "energy_natural_limit-J": lambda v: energy_natural_limit(LIMIT, 0, v),
    "energy_unnatural_phi-n": lambda v: energy_unnatural_phi(UNNAT, v),
    "energy_unnatural_h0-n": lambda v: energy_unnatural_h0(UNNAT, v),
    "level-n": lambda v: level(REF, "natural", v, 0),
    "level-J": lambda v: level(REF, "natural", 0, v),
    "level_limit-n": lambda v: level(LIMIT, "natural", v, 0),
    "level_phi-n": lambda v: level(UNNAT, "phi", v),
    "level_h0-n": lambda v: level(UNNAT, "h0", v),
    "level_spacing-n": lambda v: level_spacing(REF, v, 0),
    "level_spacing-J": lambda v: level_spacing(REF, 0, v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(QUANTUM_NUMBER_ENTRIES))
def test_a_non_finite_quantum_number_is_a_type_error(entry, value):
    # the quantum numbers are checked before any arithmetic, as for n = 2.5;
    # NaN and inf n or J used to reach E^2 and be named an overflow
    with pytest.raises(TypeError):
        QUANTUM_NUMBER_ENTRIES[entry](value)


BRANCH_ENTRIES = {
    "energy_natural": lambda b: energy_natural(REF, 0, 0, b),
    "energy_natural_limit": lambda b: energy_natural_limit(LIMIT, 0, 0, b),
    "energy_unnatural_phi": lambda b: energy_unnatural_phi(UNNAT, 0, b),
    "energy_unnatural_h0": lambda b: energy_unnatural_h0(UNNAT, 0, b),
    "level": lambda b: level(REF, "natural", 1, 0, b),
}


@pytest.mark.parametrize("branch", ["plus", 1, None])
@pytest.mark.parametrize("entry", sorted(BRANCH_ENTRIES))
def test_a_branch_that_is_not_a_branch_is_a_type_error(entry, branch):
    # any value but Branch.PLUS used to select the minus branch: "plus", 1
    # and None gave -2.2405 for E_{0;0} and -3.1166 for level n = 1
    with pytest.raises(TypeError, match="branch must be a Branch"):
        BRANCH_ENTRIES[entry](branch)


def test_a_negative_shift_radicand_raises_complex_shift():
    # E = 0 lies below every level: (E^2 - m^2)/(4 alpha) = -2.5
    with pytest.raises(ComplexShift) as info:
        abc(ModelParams(1.0, 0.1, 1.0, 1.0), 0, 0.0)
    assert info.value.radicand == pytest.approx(-2.5, rel=1e-12)


def test_a_negative_closed_form_e2_raises_complex_energy():
    # h0 at lambdaR = -5: E^2 = 1 + 4 (0.1) (1/4) + 4 (1/2) (-5) = -8.9
    with pytest.raises(ComplexEnergy) as info:
        energy_unnatural_h0(ModelParams(1.0, 0.1, 0.0, -5.0), 0)
    assert info.value.radicand == pytest.approx(-8.9, rel=1e-12)


def test_huge_parameters_with_a_representable_level_still_evaluate():
    level = energy_unnatural_phi(UNNAT._replace(lambda_r=1e200), 0)
    assert level.value == pytest.approx(math.sqrt(6e200), rel=1e-12)


# --- properties over the whole closed-form domain ---------------------------

MASSES = st.floats(1e-3, 10.0)
COUPLINGS = st.floats(0.0, 10.0)
DEFORMED = st.floats(-8.0, 1.0).map(lambda x: 10.0 ** x)
DOMAIN = st.builds(ModelParams, m=MASSES,
                   alpha=st.one_of(st.just(0.0), DEFORMED),
                   lambda0=st.one_of(st.just(0.0), COUPLINGS),
                   lambda_r=COUPLINGS)
SECTORS = st.sampled_from(["natural", "phi", "h0"])
LEVEL_N = st.integers(0, 500)
LEVEL_J = st.integers(0, 60)


@settings(max_examples=400, deadline=None)
@given(params=DOMAIN, sector=SECTORS, n=LEVEL_N, J=LEVEL_J)
def test_every_level_and_spacing_is_finite_and_positive_or_typed(
        params, sector, n, J):
    try:
        assert 0 < level(params, sector, n, J).value < math.inf
    except DkpError:
        pass
    try:
        gap = level_spacing(params, n, J)
    except DkpError:
        return
    # at alpha = 0 and lambda0 = lambda_r every level is sqrt(m^2 + lr)
    assert (0 < gap if params.alpha > 0 else 0 <= gap) and gap < math.inf


@settings(max_examples=200, deadline=None)
@given(m=MASSES, alpha=DEFORMED, lambda_r=COUPLINGS, n=LEVEL_N)
def test_phi_lies_above_h0(m, alpha, lambda_r, n):
    # E_phi^2 - E_h0^2 = 4 lr + 4 alpha (n + 1/2)
    p = ModelParams(m=m, alpha=alpha, lambda0=0.0, lambda_r=lambda_r)
    assert level(p, "phi", n).value > level(p, "h0", n).value


@settings(max_examples=200, deadline=None)
@given(m=MASSES, alpha=st.floats(-8.0, -4.0).map(lambda x: 10.0 ** x),
       lambda_r=COUPLINGS, ratio=st.floats(0.0, 1.0), n=LEVEL_N, J=LEVEL_J)
def test_deformed_level_approaches_the_alpha_zero_limit(m, alpha, lambda_r,
                                                        ratio, n, J):
    # E^2(alpha) - E^2(0) = alpha (1/4 + 4 beta^2 - J(J+1))
    #     + 4 beta (sqrt(Q) - sqrt(Q0)),  Q - Q0 = alpha lr + alpha^2/4
    p = ModelParams(m=m, alpha=alpha, lambda0=ratio * lambda_r,
                    lambda_r=lambda_r)
    e2 = level(p, "natural", n, J).value ** 2
    e2_limit = level(p._replace(alpha=0.0), "natural", n, J).value ** 2
    beta = n + (2 * J + 3) / 4.0
    bound = (alpha * (0.25 + 4.0 * beta * beta + J * (J + 1))
             + 4.0 * beta * math.sqrt(alpha * lambda_r + alpha * alpha / 4.0))
    assert abs(e2 - e2_limit) <= bound + 1e-12 * e2


ANY_FLOAT = st.one_of(COUPLINGS, DEFORMED, st.floats())


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["spectrum", "spacing"]), sector=SECTORS,
       m=st.one_of(MASSES, ANY_FLOAT), alpha=st.one_of(st.just(0.0), ANY_FLOAT),
       lambda0=st.one_of(st.just(0.0), ANY_FLOAT), lambda_r=ANY_FLOAT,
       n_max=LEVEL_N, J=LEVEL_J)
def test_cli_stdout_never_prints_nan_or_inf(capsys, command, sector, m, alpha,
                                            lambda0, lambda_r, n_max, J):
    argv = [command, f"--m={m!r}", f"--alpha={alpha!r}",
            f"--lambda0={lambda0!r}", f"--lambdaR={lambda_r!r}",
            f"--n-max={n_max}", f"--J={J}"]
    if command == "spectrum":
        argv.append(f"--sector={sector}")
    capsys.readouterr()
    code = cli.main(argv)
    out = capsys.readouterr().out.lower()
    assert code in (cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_NO_SPECTRUM)
    assert "nan" not in out and "inf" not in out
    assert len(out.splitlines()) == (n_max + 2 if code == cli.EXIT_OK else 0)


def _outcome(compute):
    """The bits of each value ``compute`` returns, or the type and message of
    what it raises."""
    try:
        return [value.hex() for value in compute()]
    except Exception as exc:  # compared, not handled: any difference fails
        return type(exc), str(exc)


# m = 1e8 loses the spacing's digits at n = 0; m = 1e200 overflows E^2
SERIES_MASSES = st.one_of(MASSES, st.sampled_from([1e8, 1e200, math.nan, math.inf]))


@settings(max_examples=150, deadline=None)
@given(m=SERIES_MASSES, alpha=st.one_of(st.just(0.0), DEFORMED),
       lambda0=st.one_of(st.just(0.0), COUPLINGS), lambda_r=COUPLINGS,
       sector=SECTORS, n_max=st.integers(0, 200), J=st.integers(0, 20),
       branch=st.sampled_from(Branch))
def test_the_series_are_the_per_level_loops_bit_for_bit(m, alpha, lambda0, lambda_r,
                                                         sector, n_max, J, branch):
    p = ModelParams(m=m, alpha=alpha, lambda0=lambda0, lambda_r=lambda_r)
    ns = range(n_max + 1)
    assert _outcome(lambda: levels(p, sector, n_max, J, branch)) == _outcome(
        lambda: [level(p, sector, n, J, branch).value for n in ns])
    assert _outcome(lambda: level_spacings(p, n_max, J)) == _outcome(
        lambda: [level_spacing(p, n, J) for n in ns])


@pytest.mark.parametrize("sector", ["natural", "phi", "h0", "nope"])
@pytest.mark.parametrize("J, branch", [(-1, Branch.PLUS), (2.0, Branch.MINUS),
                                       (0, 1), (-1, "plus"), (3, Branch.MINUS)])
def test_the_series_reject_what_the_per_level_loops_reject(sector, J, branch):
    for p in (REF, REF._replace(alpha=0.0), UNNAT, UNNAT._replace(alpha=0.0)):
        assert _outcome(lambda: levels(p, sector, 3, J, branch)) == _outcome(
            lambda: [level(p, sector, n, J, branch).value for n in range(4)])
        assert _outcome(lambda: level_spacings(p, 3, J)) == _outcome(
            lambda: [level_spacing(p, n, J) for n in range(4)])


def test_level_spacings_compute_each_level_once_up_to_the_first_failure(monkeypatch):
    kernel, evaluated = spectrum._e2, []

    def counted(params, formula, J):
        e2 = kernel(params, formula, J)
        return lambda n: evaluated.append(n) or e2(n)
    monkeypatch.setattr(spectrum, "_e2", counted)
    assert len(level_spacings(REF, 200, 0)) == 201
    assert evaluated == list(range(202))
    evaluated.clear()
    with pytest.raises(UnsupportedRegime, match="E_1 - E_0 .* lost its digits"):
        level_spacings(REF._replace(m=1e8), 200, 0)
    assert evaluated == [0, 1]
