import itertools

import numpy as np
import pytest

from algraph.congruence import all_congruences
from algraph.core import (
    UNKNOWN,
    Algebra,
    AlgebraError,
    OpTable,
    argument_grids,
    evaluate_term,
    flat_index,
    product_algebra,
    quotient_algebra,
    subalgebra_induced,
    term_table,
)
from algraph.edges import (
    AFFINE,
    MAJORITY,
    SEMILATTICE,
    affine_certificates,
    all_subuniverses,
    classify_pair,
    edge_graph,
    edges_connect,
    graph_connected_hereditary,
    has_siggers_term,
    is_strictly_simple,
    is_tolerance_free,
    majority_witness,
    omits_type1,
    semilattice_witness,
    type1_divisor,
    verify_simple_case4,
)
from algraph.subpower import DEFAULT_BUDGET, ClosureBudget, extract_term, find_term, generate_subuniverse
from algraph.verify import idempotent_algebra, iter_idempotent_algebras
from oracles import affine_certificate_tables, brute_type1, is_type1_divisor


def test_semilattice_witness(algs):
    s2 = algs["S2"]
    t = semilattice_witness(s2, 0, 1)
    assert t is not None
    table = term_table(s2, t, 2)
    assert table(0, 1) == 1 and table(1, 0) == 1
    assert semilattice_witness(algs["M2"], 0, 1) is None
    assert semilattice_witness(algs["A2"], 0, 1) is None


def test_majority_witness(algs):
    t = majority_witness(algs["M2"], 0, 1)
    table = term_table(algs["M2"], t, 3)
    for a, b in ((0, 1), (1, 0)):
        assert table(a, b, b) == b and table(b, a, b) == b and table(b, b, a) == b
    assert majority_witness(algs["S2"], 0, 1) is None
    assert majority_witness(algs["Z3A"], 0, 1) is None


def _pointed_type(Q, a, b):
    """Q's tables relabelled by a -> 0, b -> 1 and the rest in order: equal
    for isomorphic quotients with the pair in the same place."""
    order = np.array([a, b] + [x for x in range(Q.size) if x not in (a, b)])
    relabel = np.argsort(order)
    return Q.size, tuple(
        relabel[op.values[flat_index(order[argument_grids(Q.size, op.arity)], Q.size)]].tobytes()
        for op in Q.ops
    )


def _visited_quotients(populations):
    """(Q, abar, bbar) for the quotients ``classify_pair`` searches over the
    populations, the first of each pointed isomorphism type."""
    seen = set()
    for anas in populations.values():
        for ana in anas:
            alg = ana.alg
            for a in range(alg.size):
                for b in range(a + 1, alg.size):
                    su = generate_subuniverse(alg, 1, [(a,), (b,)], derivations=False)
                    sub, carrier = subalgebra_induced(alg, sorted(x for (x,) in su.elements()))
                    a_loc, b_loc = carrier.index(a), carrier.index(b)
                    for theta in all_congruences(sub):
                        if theta.same(a_loc, b_loc):
                            continue
                        Q, bmap = quotient_algebra(sub, theta)
                        key = _pointed_type(Q, bmap[a_loc], bmap[b_loc])
                        if key not in seen:
                            seen.add(key)
                            yield Q, bmap[a_loc], bmap[b_loc]


def _full_closure_term(Q, k, gens, target):
    """The term of the target in the finished closure, searched without a
    target, or None when the closure lacks it."""
    full = generate_subuniverse(Q, k, gens)
    assert full.is_complete()
    idx = full.find(target)
    return None if idx is None else extract_term(full, idx)


def test_witness_searches_match_full_closure(populations):
    """On the quotients that classify_pair searches, a search that stops at
    the target's first derivation gives the finished closure's term, and
    majority_witness, which may refute on a projection, is None exactly
    when the 6-coordinate closure lacks the target."""
    for Q, a, b in _visited_quotients(populations):
        for gens, target in (([(a, b), (b, a)], (b, b)), ([(b, a), (a, b)], (a, a))):
            want = str(_full_closure_term(Q, 2, gens, target))
            assert str(find_term(Q, 2, gens, target, ClosureBudget())) == want, (Q.name, target)
        gens = [(a, b, b, b, a, a), (b, a, b, a, b, a), (b, b, a, a, a, b)]
        want = str(_full_closure_term(Q, 6, gens, (b, b, b, a, a, a)))
        assert str(majority_witness(Q, a, b)) == want, (Q.name, a, b)


def test_capped_majority_projection_is_never_refutation(algs):
    """A projection closure cut by the budget decides nothing on its own."""
    assert majority_witness(algs["S2"], 0, 1) is None  # refuted by (a,a,a)
    generators_only = ClosureBudget(max_elements=3)
    assert majority_witness(algs["S2"], 0, 1, generators_only) is UNKNOWN
    for alg in algs.values():
        if alg.name == "P2":
            continue  # projections only: every closure is complete at its generators
        for a in range(alg.size):
            for b in range(alg.size):
                if a != b:
                    assert majority_witness(alg, a, b, generators_only) is UNKNOWN


def test_affine_certificates(algs):
    cert, capped = affine_certificates(algs["Z3A"])
    assert cert is not None and not capped
    assert list(cert.maltsev.values) == list(algs["Z3A"].ops[0].values)
    mal = term_table(algs["Z3A"], cert.term, 3)
    assert list(mal.values) == list(cert.maltsev.values)

    cert2, _ = affine_certificates(algs["A2"])
    assert cert2.maltsev(1, 0, 0) == 1

    assert affine_certificates(algs["S2"]) == (None, False)
    assert affine_certificates(algs["M2"]) == (None, False)


def _affine_algebra(name, q, arity, value):
    args = itertools.product(range(q), repeat=arity)
    return Algebra(name, q, [OpTable("t", arity, q, [value(*x) % q for x in args])])


def _assert_certificate(alg, want):
    """alg has one affine certificate, whose table is ``want`` and whose
    term evaluates to it."""
    cert, capped = affine_certificates(alg)
    assert cert is not None and not capped, alg.name
    assert cert.maltsev.values.tolist() == want
    assert term_table(alg, cert.term, 3).values.tolist() == want


def test_affine_certificates_match_oracle(populations):
    """On the quotients classify_pair searches, a certificate is found
    exactly when the group-labelling oracle finds one, with its table."""
    for Q, _, _ in _visited_quotients(populations):
        cert, capped = affine_certificates(Q)
        assert not capped
        want = {tuple(cert.maltsev.values.tolist())} if cert is not None else set()
        assert affine_certificate_tables(Q) == want, Q.name


def test_affine_certificate_noncommuting_coefficients():
    """V4nc is Z2^2 with t = Ax + By + (I+A+B)z for the non-commuting
    matrices A = [[1,1],[0,1]], B = [[0,0],[1,0]]: t does not commute with
    itself, yet x+y+z is a term operation commuting with it."""

    def apply(m, v):
        bits = [(v >> 1) & 1, v & 1]
        return sum(((m[i][0] * bits[0] + m[i][1] * bits[1]) % 2) << (1 - i) for i in range(2))

    A, B, C = [[1, 1], [0, 1]], [[0, 0], [1, 0]], [[0, 1], [1, 0]]
    v4nc = _affine_algebra("V4nc", 4, 3, lambda x, y, z: apply(A, x) ^ apply(B, y) ^ apply(C, z))
    _assert_certificate(v4nc, [x ^ y ^ z for x, y, z in itertools.product(range(4), repeat=3)])


def test_affine_certificate_needs_commutation():
    """x y^-1 z on S3 passes the term condition and is a Maltsev term, but
    does not commute with itself: no certificate."""
    perms = list(itertools.permutations(range(3)))

    def mul(u, v):
        return tuple(u[v[i]] for i in range(3))

    def inv(u):
        return tuple(sorted(range(3), key=lambda i: u[i]))

    vals = [
        perms.index(mul(mul(x, inv(y)), z)) for x, y, z in itertools.product(perms, repeat=3)
    ]
    s3 = Algebra("S3m", 6, [OpTable("t", 3, 6, vals)])
    assert affine_certificates(s3) == (None, False)


@pytest.mark.parametrize("q", [9, 11])
def test_affine_certificate_beyond_size_8(q):
    alg = _affine_algebra(f"Z{q}", q, 2, lambda x, y: 2 * x - y)
    _assert_certificate(alg, [(x - y + z) % q for x, y, z in itertools.product(range(q), repeat=3)])


# certificate term of every pair, as the group-labelling enumeration found it
AFFINE_TERMS = {
    "Z4": (
        4,
        3,
        lambda x, y, z: x + y + 3 * z,
        {(0, 2): "(t x0 x1 x2)", (1, 3): "(t x0 x1 x2)"},
        "(t x0 x2 x1)",
    ),
    "Z5": (5, 2, lambda x, y: 2 * x + 4 * y, {}, "(t (t x1 x0) (t x0 x2))"),
}


@pytest.mark.parametrize("name", sorted(AFFINE_TERMS))
def test_affine_terms_pinned(name):
    q, arity, value, special, default = AFFINE_TERMS[name]
    graph = edge_graph(_affine_algebra(name, q, arity, value))
    terms = {pair: str(e.witnesses[AFFINE]) for pair, e in graph.edges.items()}
    assert terms == {pair: special.get(pair, default) for pair in itertools.combinations(range(q), 2)}


def test_classify_fixture_pairs(algs):
    e = classify_pair(algs["S2"], 0, 1)
    assert e.types == {SEMILATTICE} and e.strict == "strictly-semilattice"
    assert e.theta[SEMILATTICE].is_equality()
    assert e.semilattice_orientations == {"ab"}

    e = classify_pair(algs["M2"], 0, 1)
    assert e.types == {MAJORITY} and e.strict == "strictly-majority"

    for name in ("A2", "Z3A"):
        e = classify_pair(algs[name], 0, 1)
        assert e.types == {AFFINE} and e.strict == "strictly-affine"

    e = classify_pair(algs["P2"], 0, 1)
    assert e.types == frozenset() and e.strict is None and not e.is_edge()


def _pair_content(e, labels):
    """Orientation-free classification of a pair, with the elements of its
    theta blocks renamed by ``labels``."""
    theta = {
        t: sorted(sorted(labels[x] for x in block) for block in e.theta_blocks(t))
        for t in e.theta
    }
    return e.types, e.unknown_types, e.strict, theta


def test_classification_symmetric(algs):
    for name in ("S2", "M2", "A2", "RPS", "Z3A", "S3chain"):
        alg = algs[name]
        same = list(range(alg.size))
        for a in range(alg.size):
            for b in range(a + 1, alg.size):
                assert _pair_content(classify_pair(alg, a, b), same) == _pair_content(
                    classify_pair(alg, b, a), same
                )


def _assert_subgraphs_are_restrictions(ana):
    alg, full = ana.alg, ana.graph()
    same = list(range(alg.size))
    for carrier in all_subuniverses(alg, min_size=2):
        if len(carrier) == alg.size:
            continue
        sub, labels = subalgebra_induced(alg, carrier)
        for (x, y), e in edge_graph(sub).edges.items():
            whole = full.edge(labels[x], labels[y])
            assert _pair_content(e, labels) == _pair_content(whole, same), (alg.name, carrier, x, y)


def test_subalgebra_graph_is_restriction(populations):
    """The edge graph of a subalgebra equals the restriction of the whole
    graph: the reference for reading subgraphs instead of classifying."""
    for anas in populations.values():
        for ana in anas:
            _assert_subgraphs_are_restrictions(ana)


def _witnesses(kind, e, theta):
    """Does the quotient of Sg{a,b} by theta witness ``kind`` on the pair?"""
    Q, bmap = quotient_algebra(e.sub, theta)
    ab, bb = bmap[e.a_loc], bmap[e.b_loc]
    if kind == SEMILATTICE:
        return semilattice_witness(Q, ab, bb) is not None or semilattice_witness(Q, bb, ab) is not None
    if kind == MAJORITY:
        return majority_witness(Q, ab, bb) is not None
    return affine_certificates(Q)[0] is not None


def test_theta_minimality(algs):
    """theta[t] is the first congruence of Sg{a,b}, in ``all_congruences``
    order, that separates a from b and witnesses t: so no strictly finer
    congruence witnesses t, and among the minimal ones it is the first."""
    alg = algs["S3chain"]
    e = classify_pair(alg, 0, 2)
    theta = e.theta[SEMILATTICE]
    assert theta.is_equality()  # 0,2 generate {0,2} and the equality witnesses

    products = [
        product_algebra([algs["S2"], algs["S2"]]),
        product_algebra([algs["S3chain"], algs["S2"]]),
    ]
    for a in [algs[name] for name in ("S2", "M2", "A2", "Z3A", "RPS", "S3chain")] + products:
        for x in range(a.size):
            for y in range(x + 1, a.size):
                e = classify_pair(a, x, y)
                for kind, theta in e.theta.items():
                    assert not theta.same(e.a_loc, e.b_loc) and _witnesses(kind, e, theta)
                    cons = all_congruences(e.sub)
                    for before in cons[: cons.index(theta)]:
                        if not before.same(e.a_loc, e.b_loc):
                            assert not _witnesses(kind, e, before), (a.name, x, y, kind)


def test_capped_pair_carrier_leaves_types_unknown(algs):
    """Sg(a,b) is closed whatever the budget; the capped witness searches
    leave every type of every pair of Z3A unknown."""
    graph = edge_graph(algs["Z3A"], ClosureBudget(max_elements=2))
    for e in graph.edges.values():
        assert e.carrier == (0, 1, 2)
        assert e.types == frozenset()
        assert e.unknown_types == {SEMILATTICE, MAJORITY, AFFINE}


def test_edge_graph_fixtures(algs, pipelines):
    g = pipelines["RPS"].graph
    assert len(g.edge_list()) == 3
    assert all(e.types == {SEMILATTICE} for e in g.edge_list())
    assert g.connected()

    g2 = edge_graph(algs["P2"])
    assert not g2.edge_list()
    assert not g2.connected()


def _maltsev_algebra(q):
    return _affine_algebra(f"Z{q}A", q, 3, lambda x, y, z: x - y + z)


def _counting(monkeypatch, name):
    """Replace ``algraph.edges.<name>`` by a wrapper; returns its call list."""
    import algraph.edges

    calls, fn = [], getattr(algraph.edges, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(algraph.edges, name, counted)
    return calls


@pytest.mark.parametrize("alg", [_maltsev_algebra(3), _maltsev_algebra(5)], ids=["Z3A", "Z5A"])
def test_edge_graph_builds_each_carrier_once(monkeypatch, alg):
    """Every pair of a simple algebra generates the whole algebra, whose one
    separating congruence is the equality: one lattice and one affine
    certificate serve all of its pairs."""
    certs = _counting(monkeypatch, "affine_certificates")
    lattices = _counting(monkeypatch, "all_congruences")
    graph = edge_graph(alg)
    assert all(e.types == {AFFINE} for e in graph.edges.values())
    assert len(certs) == 1 and len(lattices) == 1


def test_edge_graph_z7a_shares_one_certificate():
    alg = _maltsev_algebra(7)
    graph = edge_graph(alg)
    assert len(graph.edges) == 21
    assert all(e.strict == "strictly-affine" for e in graph.edges.values())
    certs = {id(e.affine_cert) for e in graph.edges.values()}
    assert len(certs) == 1
    cert = graph.edges[(0, 1)].affine_cert
    assert cert.maltsev.values.tolist() == alg.ops[0].values.tolist()
    assert term_table(alg, cert.term, 3).values.tolist() == alg.ops[0].values.tolist()


def _edge_fields(e):
    """Every field of an EdgeInfo, as plain data."""
    cert = e.affine_cert
    return (
        (e.a, e.b, e.carrier, e.a_loc, e.b_loc),
        (e.types, e.unknown_types, e.strict, e.semilattice_orientations),
        {t: tuple(p.block_id) for t, p in e.theta.items()},
        {t: str(w) for t, w in e.witnesses.items()},
        None if cert is None else (cert.maltsev.values.tolist(), str(cert.term)),
        [(op.name, op.arity, op.values.tolist()) for op in e.sub.ops],
    )


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, ClosureBudget(max_elements=3)], ids=["default", "cap3"])
def test_edge_graph_matches_lone_pairs(populations, budget):
    """The carrier records shared inside ``edge_graph`` change nothing: each
    pair reads as ``classify_pair`` alone gives it, with or without a cap."""
    checked = 0
    for anas in populations.values():
        for ana in anas:
            alg = ana.alg
            graph = ana.graph() if budget is DEFAULT_BUDGET else edge_graph(alg, budget)
            for (a, b), e in graph.edges.items():
                assert _edge_fields(e) == _edge_fields(classify_pair(alg, a, b, budget)), (alg.name, a, b)
            checked += 1
    assert checked >= 400


def test_shared_records_keep_each_budgets_certificate(algs):
    """A records table filled under a cap does not hand its capped affine
    certificate to a later call at another budget."""
    alg, carriers = algs["Z3A"], {}
    edge_graph(alg, ClosureBudget(max_elements=2), carriers)
    shared = edge_graph(alg, DEFAULT_BUDGET, carriers)
    fresh = edge_graph(alg)
    assert shared.edges.keys() == fresh.edges.keys()
    for key, e in fresh.edges.items():
        assert _edge_fields(shared.edges[key]) == _edge_fields(e), key


def _hereditary_over_every_subuniverse(graph):
    """``graph_connected_hereditary`` walking every subuniverse, singletons
    included, in ``all_subuniverses`` order."""
    for carrier in all_subuniverses(graph.alg, min_size=1):
        inside = set(carrier)
        infos = [e for e in graph.edges.values() if e.a in inside and e.b in inside]
        if any(e.unknown_types for e in infos):
            return "unknown", carrier
        if not edges_connect(carrier, [e for e in infos if e.is_edge()]):
            return "fail", carrier
    return "pass", None


@pytest.mark.parametrize(
    "budget, outcomes",
    [(DEFAULT_BUDGET, {"pass", "fail"}), (ClosureBudget(max_elements=3), {"fail", "unknown"})],
    ids=["default", "cap3"],
)
def test_graph_connected_hereditary_walks_pair_carriers(populations, budget, outcomes):
    """The first bad subuniverse is 2-generated, so walking the pair
    carriers answers as walking every subuniverse does."""
    seen = set()
    for anas in populations.values():
        for ana in anas:
            graph = ana.graph() if budget is DEFAULT_BUDGET else edge_graph(ana.alg, budget)
            got = graph_connected_hereditary(graph)
            assert got == _hereditary_over_every_subuniverse(graph), ana.alg.name
            seen.add(got[0])
    assert seen == outcomes


def test_graph_connected_hereditary(algs):
    assert graph_connected_hereditary(edge_graph(algs["S3chain"])) == ("pass", None)
    assert graph_connected_hereditary(edge_graph(algs["P2"])) == ("fail", (0, 1))
    # a capped search leaves M2's only pair untyped: unknown, not fail
    capped = edge_graph(algs["M2"], ClosureBudget(max_elements=3))
    assert not capped.connected()
    assert graph_connected_hereditary(capped) == ("unknown", (0, 1))
    one = Algebra("one", 1, [OpTable("f", 1, 1, [0])])
    assert graph_connected_hereditary(edge_graph(one)) == ("pass", None)
    assert edge_graph(one).connected()


def test_siggers_fixtures(algs):
    assert has_siggers_term(algs["S2"]) is True
    assert has_siggers_term(algs["Z3A"]) is True
    assert has_siggers_term(algs["P2"]) is False
    assert omits_type1(algs["P2"]) is False
    assert type1_divisor(algs["P2"]) is not None
    assert omits_type1(algs["RPS"]) is True


def test_siggers_agrees_with_divisor_test():
    """The direct 4-ary term search never contradicts the divisor test.

    A modest budget keeps the runtime down; UNKNOWN results are allowed,
    definite ones must agree.
    """
    budget = ClosureBudget(max_elements=30_000, max_work=2_000_000)
    for alg in iter_idempotent_algebras(2, "binary"):
        assert has_siggers_term(alg, budget) is omits_type1(alg)
    checked = 0
    for idx in range(0, 729, 13):
        alg = idempotent_algebra(3, "binary", idx)
        res = has_siggers_term(alg, budget)
        if res is not UNKNOWN:
            assert res is omits_type1(alg), f"disagreement at index {idx}"
            checked += 1
    assert checked >= 43  # the size-3 answers decided at this budget


def test_type1_divisor_matches_brute_oracle():
    """``omits_type1`` agrees with a search over every subset and partition,
    and each divisor it reports is a congruence with a projection-only
    quotient."""
    sizes = [(2, "binary"), (2, "ternary"), (2, "binary+ternary"), (3, "binary")]
    algebras = [alg for size, sig in sizes for alg in iter_idempotent_algebras(size, sig)]
    taylor = []
    for alg in algebras:
        divisor = type1_divisor(alg)
        assert (divisor is None) is (brute_type1(alg) is None) is omits_type1(alg), alg.name
        if divisor is None:
            taylor.append(alg.name)
            continue
        carrier, theta = divisor
        blocks = [[carrier[x] for x in block] for block in theta.blocks()]
        assert is_type1_divisor(alg, carrier, blocks), alg.name
    assert len([t for t in taylor if t.startswith("b3")]) == 331


def test_strictly_simple_and_tolerance_free(algs):
    assert is_strictly_simple(algs["Z3A"])
    assert is_strictly_simple(algs["S2"])
    assert not is_strictly_simple(algs["S3chain"])
    assert not is_strictly_simple(algs["RPS"])  # 2-element subalgebras
    assert is_tolerance_free(algs["Z3A"])
    assert not is_tolerance_free(algs["S3chain"])


def test_verify_simple_case4(algs):
    rep = verify_simple_case4(algs["M2"], 0, 1)
    assert rep["status"] == "pass" and rep["disjunct"] == "witness"
    rep = verify_simple_case4(algs["RPS"], 0, 1)
    assert rep["status"] == "pass" and rep["disjunct"] == "hypergraph"
    rep = verify_simple_case4(algs["S3chain"], 0, 1)
    assert rep["status"] == "skipped"
    rep = verify_simple_case4(algs["Z3A"], 0, 1)
    assert rep["status"] == "skipped"  # affine certificate present


def test_negative_control_coherent(algs):
    p2 = algs["P2"]
    assert has_siggers_term(p2) is False
    assert not edge_graph(p2).connected()


def test_classify_rejects_equal_elements(algs):
    with pytest.raises(AlgebraError):
        classify_pair(algs["S2"], 1, 1)
