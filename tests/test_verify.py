import pytest

import algraph.reduct
import algraph.thin
import algraph.verify
from algraph.subpower import term_slice
from algraph.verify import (
    Analysis,
    check_as_connectivity,
    check_good_op,
    check_identities_suite,
    check_reduct,
    check_thin,
    check_uniform,
    idempotent_algebra,
)


def test_check_thin_raises_programming_errors(algs, monkeypatch):
    """Only a VerificationError is a theorem failure; other exceptions
    are bugs and propagate."""

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(algraph.verify, "find_thin_majority", broken)
    with pytest.raises(TypeError, match="bug"):
        check_thin(Analysis(algs["M2"]))


@pytest.mark.parametrize(
    "check",
    [check_uniform, check_identities_suite, check_good_op, check_thin, check_as_connectivity],
)
def test_capped_synthesis_is_unknown(check, monkeypatch):
    """A synthesis that gave up on a capped term slice is inconclusive."""
    alg = idempotent_algebra(3, "binary", 3)  # its f-merge falls back to the slice
    monkeypatch.setattr(algraph.thin, "term_slice", lambda *args: ([], "capped"))
    rep = check(Analysis(alg))
    assert rep.status == "unknown", rep.detail
    assert "slice capped" in rep.detail["error"]


def test_synthesis_error_names_the_failed_condition(monkeypatch):
    """The error names a condition that the first f candidate fails; the
    first strict edge (0, 1) is one it meets."""
    alg = idempotent_algebra(3, "binary", 3)
    monkeypatch.setattr(algraph.thin, "term_slice", lambda *args: ([], "complete"))
    rep = check_uniform(Analysis(alg))
    assert rep.status == "fail", rep.detail
    assert "first failure: ((0, 2), 'f-semilattice')" in rep.detail["error"]


def test_check_reduct_builds_slices_once(algs, monkeypatch):
    calls = []

    def counting(alg, arity, budget):
        calls.append(arity)
        return term_slice(alg, arity, budget)

    monkeypatch.setattr(algraph.verify, "term_slice", counting)
    monkeypatch.setattr(algraph.reduct, "term_slice", counting)
    rep = check_reduct(Analysis(algs["S3chain"]))
    assert rep.status == "pass"
    assert len(rep.detail["edges"]) >= 2
    assert sorted(calls) == [2, 3]
