import math

from dkp_eup import spectrum, verify


def test_reference_checks_pass():
    for result in (verify.check_algebra(), verify.check_commutators(),
                   verify.check_closure()):
        assert result.passed, result.failures
        assert result.worst <= result.tol


def test_jj_term_mutation_fails_closure_and_oracle():
    closure = verify.check_closure("jj-term")
    assert not closure.passed
    assert closure.failures == (f"closure: |B + n| = {closure.worst:.3e} > 1e-9",)
    oracle = verify.check_oracle(verify.NATURAL_CELLS[:3], 1024, 1e-5, "jj-term")
    # J = 0 carries no rotational term, so only J = 1 and 2 fail
    assert len(oracle.failures) == 2


def test_nan_fails_the_closure_check(monkeypatch):
    real_abc = spectrum.abc

    def nan_at_j1(params, J, energy):
        data = real_abc(params, J, energy)
        return data._replace(B=math.nan) if J == 1 else data

    monkeypatch.setattr(spectrum, "abc", nan_at_j1)
    result = verify.check_closure()
    assert math.isnan(result.worst)
    assert not result.passed
