import json
import math

from dkp_eup import algebra, cli, spectrum, verify


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


def test_a_corrupted_beta_entry_fails_the_algebra_check(monkeypatch):
    # one more unit in beta^0[0, 7] breaks 20 triples; P still projects
    mats = algebra.build_matrices()
    b0 = dict(mats.beta[0])
    b0[0, 7] = (1, 0)     # was 0
    corrupt = mats._replace(beta=(b0, *mats.beta[1:]))
    monkeypatch.setattr(algebra, "build_matrices", lambda: corrupt)
    result = verify.check_algebra()
    assert result.failures == ("algebra: 20 violated triples",)
    assert result.worst == 20.0


def test_permuted_components_fail_only_the_projector_diagonal(monkeypatch):
    # a similarity keeps every identity, but moves P's unit diagonal
    # entries off the (scalar, F) components: here the cyclic shift of
    # every index by one
    mats = algebra.build_matrices()
    corrupt = mats._replace(beta=tuple(
        {((r + 1) % 10, (c + 1) % 10): v for (r, c), v in b.items()}
        for b in mats.beta))
    monkeypatch.setattr(algebra, "build_matrices", lambda: corrupt)
    result = verify.check_algebra()
    assert result.failures == ("algebra: projector diagonal mismatch",)
    assert result.worst == 1.0


def test_a_beta_set_without_a_projector_fails_the_algebra_check(
        monkeypatch, capsys):
    # beta^1 replaced by beta^0: P is not idempotent, which is a failed
    # check (exit 1), not invalid input (exit 2)
    mats = algebra.build_matrices()
    corrupt = mats._replace(beta=(mats.beta[0], mats.beta[0], *mats.beta[2:]))
    monkeypatch.setattr(algebra, "build_matrices", lambda: corrupt)
    result = verify.check_algebra()
    assert result.failures == (
        "algebra: 19 violated triples",
        "algebra: beta^mu beta_mu - 2 is not a projector")
    assert result.worst == 20.0
    assert cli.main(["verify", "--only", "algebra"]) == cli.EXIT_VERIFY_FAIL
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FAIL algebra (")
    assert json.loads(out[1]) == {"failures": list(result.failures)}


def test_the_closure_failure_states_closure_tol(monkeypatch):
    monkeypatch.setattr(verify, "CLOSURE_TOL", 2.5e-3)
    closure = verify.check_closure("jj-term")
    assert closure.tol == 2.5e-3
    assert closure.failures == (
        f"closure: |B + n| = {closure.worst:.3e} > 2.5e-3",)
