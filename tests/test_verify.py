import itertools

import numpy as np
import pytest

import algraph.edges
import algraph.reduct
import algraph.thin
import algraph.verify
from algraph.core import UNKNOWN, Algebra, OpTable, VerificationError
from algraph.edges import all_subuniverses
from algraph.subpower import ClosureBudget, term_slice
from algraph.verify import (
    THEOREMS,
    Analysis,
    check_as_connectivity,
    check_connectedness,
    check_good_op,
    check_identities_suite,
    check_reduct,
    check_thin,
    check_tolerance_classes,
    check_uniform,
    count_idempotent_algebras,
    enumerate_and_verify,
    idempotent_algebra,
    run_suite,
    worst_status,
)
from oracles import naive_close

MAIN_SUITES = tuple(t for t in THEOREMS if t != "reduct")


def test_suite_frame_skips_type1_except_tolerance_classes(algs):
    reports = {r.theorem: r for r in run_suite(algs["P2"], "all")}
    assert list(reports) == list(THEOREMS)
    tolerance = reports.pop("tolerance-classes")
    assert tolerance.status == "pass"
    for rep in reports.values():
        assert (rep.status, rep.detail) == ("skipped", {"reason": "algebra admits type 1"})


def test_suite_frame_appends_algebra_to_failures(algs, monkeypatch):
    monkeypatch.setattr(algraph.verify, "graph_connected_hereditary", lambda graph: ("fail", (0, 1)))
    rep = check_connectedness(Analysis(algs["S2"]))
    assert rep.status == "fail"
    assert list(rep.detail) == ["carrier", "algebra"]
    assert rep.detail["carrier"] == [0, 1]


def test_condition_matrix_evaluated_once(algs, monkeypatch):
    """uniform, identities and thin share the matrix recorded at synthesis."""
    calls = []
    real = algraph.thin.unified_conditions

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(algraph.thin, "unified_conditions", counting)
    reports = run_suite(algs["RPS"], ("uniform", "identities", "thin"))
    assert [r.status for r in reports] == ["pass"] * 3
    assert len(calls) == 1


def test_check_tolerance_classes_raises_programming_errors(algs, monkeypatch):
    """Only a VerificationError from link_tolerance refutes the claim."""

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(algraph.verify, "link_tolerance", broken)
    with pytest.raises(TypeError, match="bug"):
        check_tolerance_classes(Analysis(algs["S2"]))


def test_check_tolerance_classes_capped_relation_is_unknown(algs, monkeypatch):
    """A relation cut by the budget leaves its pair undecided, not passed;
    a definite failure elsewhere still fails."""
    capped = Analysis(algs["S2"], ClosureBudget(max_elements=2))
    rep = check_tolerance_classes(capped)
    assert (rep.status, rep.detail) == ("unknown", {"capped_pair": [0, 1]})
    assert check_tolerance_classes(Analysis(algs["S2"])).status == "pass"
    monkeypatch.setattr(algraph.verify, "is_class_subuniverse", lambda alg, cls: False)
    assert check_tolerance_classes(capped).status == "fail"


def test_check_tolerance_classes_links_each_subdirect_pair_once(populations, monkeypatch):
    """Sg{(a,b),(b,a)} is its own converse, so only its first coordinate is
    linked: one call per pair whose relation is subdirect."""
    calls = _recording(monkeypatch, algraph.verify, "link_tolerance")
    for anas in populations.values():
        for ana in anas:
            alg, n = ana.alg, ana.alg.size
            calls.clear()
            assert check_tolerance_classes(Analysis(alg)).status == "pass"
            subdirect = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if {u for u, _ in naive_close(alg, 2, [(a, b), (b, a)])} == set(range(n))
            ]
            assert [(rel.generators, i) for _, rel, i in calls] == [
                ([(a, b), (b, a)], 0) for a, b in subdirect
            ], alg.name


def test_tolerance_classes_above_the_enumeration_limit(monkeypatch):
    """Above the size limit of ``all_tolerances`` the pair relations still
    run: the suite is unknown and names the limit, or fails on a link."""
    x, y = np.indices((6, 6))
    chain = Algebra("chain6", 6, [OpTable("join", 2, 6, np.maximum(x, y).reshape(-1))])
    reports = {r.theorem: r for r in run_suite(chain, MAIN_SUITES)}
    tolerance = reports.pop("tolerance-classes")
    assert (tolerance.status, tolerance.detail) == (
        "unknown",
        {"reason": "tolerances not enumerated: limited to size 5"},
    )
    assert {r.status for r in reports.values()} == {"pass"}

    def broken(alg, rel, i):
        raise VerificationError("broken")

    # in x - y + z mod 6, Sg{(a,b),(b,a)} is subdirect when b - a is a unit
    x, y, z = np.indices((6, 6, 6))
    z6 = Algebra("Z6A", 6, [OpTable("m", 3, 6, ((x - y + z) % 6).reshape(-1))])
    monkeypatch.setattr(algraph.verify, "link_tolerance", broken)
    rep = check_tolerance_classes(Analysis(z6))
    assert rep.status == "fail"
    assert [(f["pair"], f["coord"]) for f in rep.detail["failures"]] == [
        ([a, b], 0) for a in range(6) for b in range(a + 1, 6) if b - a in (1, 5)
    ]


def test_check_thin_raises_programming_errors(algs, monkeypatch):
    """Only a VerificationError is a theorem failure; other exceptions
    are bugs and propagate."""

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(algraph.verify, "thin_counterpart", broken)
    with pytest.raises(TypeError, match="bug"):
        check_thin(Analysis(algs["M2"]))


@pytest.mark.parametrize(
    "check",
    [check_uniform, check_identities_suite, check_good_op, check_thin, check_as_connectivity],
)
def test_capped_synthesis_is_unknown(check, monkeypatch):
    """A synthesis that gave up on a capped term slice is inconclusive."""
    alg = idempotent_algebra(3, "binary", 3)  # its f-merge falls back to the slice
    monkeypatch.setattr(algraph.thin, "closure_search", lambda *args: UNKNOWN)
    rep = check(Analysis(alg))
    assert rep.status == "unknown", rep.detail
    assert "slice capped" in rep.detail["error"]


@pytest.mark.parametrize("hit, status", [(UNKNOWN, "unknown"), (None, "fail")])
def test_good_f_refusal(hit, status, algs, monkeypatch):
    """RPS's f, g and h come from candidates.  With no f' candidate, the
    term search alone decides: a capped one is inconclusive, a complete one
    that finds nothing refutes."""
    monkeypatch.setattr(algraph.thin, "_good_f_candidates", lambda f: iter(()))
    monkeypatch.setattr(algraph.thin, "closure_search", lambda *args: hit)
    rep = check_good_op(Analysis(algs["RPS"]))
    assert rep.status == status, rep.detail
    capped = " (slice capped)" if hit is UNKNOWN else ""
    assert rep.detail["error"] == f"no binary term operation is good for thin semilattice edges{capped}"
    assert ("algebra" in rep.detail) == (status == "fail")


@pytest.mark.parametrize("name", ["M2", "A2", "Z3A"])
def test_capped_thin_search_is_not_a_counterexample(name, algs, monkeypatch):
    """A capped thin-edge search may have missed the arcs that a path needs,
    so a missing path is unknown, not a failure with a counterexample."""
    monkeypatch.setattr(algraph.thin, "find_term", lambda *args: UNKNOWN)
    reports = {r.theorem: r for r in run_suite(algs[name], ("thin", "as-connectivity"))}
    assert reports["thin"].status == "unknown"
    assert reports["as-connectivity"].status == "unknown", reports["as-connectivity"].detail
    assert "algebra" not in reports["as-connectivity"].detail


def test_synthesis_error_names_the_failed_condition(monkeypatch):
    """The error names a condition that the first f candidate fails; the
    first strict edge (0, 1) is one it meets."""
    alg = idempotent_algebra(3, "binary", 3)
    monkeypatch.setattr(algraph.thin, "closure_search", lambda *args: None)
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


def _recording(monkeypatch, module, name):
    """Replace ``module.<name>`` by a wrapper; returns its argument list."""
    calls, fn = [], getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("name", ["Z3A", "S3chain", "RPS"])
def test_run_suite_builds_each_subalgebra_once(name, algs, monkeypatch):
    """The type-1 gate and the edge graph of one analysis share one table of
    carrier records: one induced subalgebra and one lattice per subuniverse."""
    alg = algs[name]
    induced = _recording(monkeypatch, algraph.edges, "subalgebra_induced")
    lattices = _recording(monkeypatch, algraph.edges, "all_congruences")
    run_suite(alg, MAIN_SUITES)
    carriers = all_subuniverses(alg, min_size=2)
    assert sorted(carrier for _, carrier in induced) == sorted(carriers)
    assert len(lattices) == len(carriers)


def test_check_reduct_builds_each_reduct_subalgebra_once(algs, monkeypatch):
    """The reduct's gate and its edge graph share one table of records."""
    ana = Analysis(algs["S3chain"])
    ana.taylor()  # the base algebra's gate and graph, before counting
    ana.graph()
    induced = _recording(monkeypatch, algraph.edges, "subalgebra_induced")
    rep = check_reduct(ana)
    assert rep.status == "pass"
    reducts = {}
    for red, carrier in induced:
        reducts.setdefault(id(red), (red, []))[1].append(carrier)
    assert len(reducts) == len(rep.detail["edges"])
    for red, carriers in reducts.values():
        assert sorted(carriers) == sorted(all_subuniverses(red, min_size=2))


def test_enumeration_gates_each_algebra_once(monkeypatch):
    gated = _recording(monkeypatch, algraph.verify, "omits_type1")
    res = enumerate_and_verify(2, "binary", ("connectedness",))
    assert res["counts"]["taylor"] > 0
    assert sorted(alg.name for alg, *_ in gated) == [f"b2_{i}" for i in range(res["counts"]["algebras"])]


@pytest.mark.parametrize(
    "size, signature", [(2, "binary"), (2, "ternary"), (2, "binary+ternary"), (3, "binary")]
)
def test_idempotent_algebra_matches_product_order(size, signature):
    """The index-th algebra fills the off-diagonal cells of its operations,
    first operation first and each in table order, with the index-th tuple
    of ``itertools.product``; the diagonal is x."""
    arities = (2, 3) if signature == "binary+ternary" else ((2,) if signature == "binary" else (3,))
    cells = [
        (ar, pos)
        for ar in arities
        for pos, args in enumerate(itertools.product(range(size), repeat=ar))
        if len(set(args)) > 1
    ]
    fill = list(itertools.product(range(size), repeat=len(cells)))
    assert count_idempotent_algebras(size, signature) == len(fill)
    for index, digits in enumerate(fill):
        want = {ar: [args[0] for args in itertools.product(range(size), repeat=ar)] for ar in arities}
        for (ar, pos), d in zip(cells, digits):
            want[ar][pos] = d
        alg = idempotent_algebra(size, signature, index)
        assert alg.name == f"{signature[0]}{size}_{index}"
        assert [(op.name, op.arity, op.values.tolist()) for op in alg.ops] == [
            ({2: "f", 3: "g"}[ar], ar, want[ar]) for ar in arities
        ]


@pytest.mark.parametrize("cap", [2, 3, 4, 6, 10, 30])
def test_capped_fixtures_never_fail(cap, algs):
    """A cap leaves answers unknown; it never turns one into a counterexample."""
    for alg in algs.values():
        reports = run_suite(alg, "all", ClosureBudget(max_elements=cap))
        assert [(r.theorem, r.detail) for r in reports if r.status == "fail"] == [], alg.name


def test_capped_graph_suites_are_unknown(algs):
    """With a pair of unknown type the trimmed graph, the uniform matrix and
    the absence of reduct edges decide nothing."""
    reports = {r.theorem: r for r in run_suite(algs["M2"], "all", ClosureBudget(max_elements=3))}
    assert reports["thin"].status == "unknown"
    assert reports["uniform"].status == "unknown"
    assert (reports["reduct"].status, reports["reduct"].detail) == (
        "unknown",
        {"reason": "no qualifying edge"},
    )


def test_is_thin_runs_once_per_ordered_pair_and_kind(algs, monkeypatch):
    """The thin suite reads the thin edges that as-connectivity uses."""
    calls = []
    original = algraph.thin.is_thin

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(algraph.thin, "is_thin", counting)
    reports = run_suite(algs["Z3A"], ("thin", "as-connectivity"))
    assert [r.status for r in reports] == ["pass", "pass"]
    assert len(calls) == 2 * 3 * 2


def _break_identities(monkeypatch):
    """Make ``enforce_identities`` refuse every f, g, h it is given."""
    monkeypatch.setattr(algraph.thin, "_failed_identity", lambda f, g, h: "f(x,f(x,y)) = f(x,y)")


def test_worst_status_order():
    assert worst_status([]) == "pass"
    assert worst_status(["pass", "skipped"]) == "skipped"
    assert worst_status(["skipped", "unknown", "pass"]) == "unknown"
    assert worst_status(iter(["unknown", "fail", "skipped"])) == "fail"


def test_verification_error_is_the_suites_failure(algs, monkeypatch):
    """A broken claim fails its own suite; the suites before it still report."""
    _break_identities(monkeypatch)
    connected, identities = run_suite(algs["S2"], ("connectedness", "identities"))
    assert connected.status == "pass"
    assert identities.status == "fail"
    assert list(identities.detail) == ["error", "algebra"]
    assert identities.detail["error"] == "identity f(x,f(x,y)) = f(x,y) does not hold"


def test_verification_error_does_not_abort_a_sweep(monkeypatch):
    _break_identities(monkeypatch)
    res = enumerate_and_verify(2, "binary", "identities")
    counts = res["counts"]
    assert counts["taylor"] == 2 and counts["fail"] == 2
    assert [f["reports"][0]["status"] for f in res["failures"]] == ["fail", "fail"]
