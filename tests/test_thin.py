import hashlib
import itertools

import numpy as np
import pytest

from algraph.core import Algebra, AlgebraError, OpTable, UNKNOWN, VerificationError, projection
from algraph.edges import (
    AFFINE,
    MAJORITY,
    SEMILATTICE,
    STRICT_AFFINE,
    STRICT_MAJORITY,
    STRICT_SEMILATTICE,
)
from algraph.thin import (
    ThinEdge,
    UnifiedOps,
    _CONDITIONS,
    _failed_identity,
    _stack,
    all_thin_edges,
    check_identities,
    cond_h_affine,
    enforce_identities,
    find_thin_affine,
    find_thin_majority,
    good_f,
    is_thin,
    synth_unified,
    thin_counterpart,
    thin_semilattice_edges,
    unified_conditions,
    verify_thick_thin,
    witness_majority_triple,
    witness_mixed,
)


def table(vals, arity, size, name="f"):
    return OpTable(name, arity, size, vals)


def test_synth_s2(pipelines):
    p = pipelines["S2"]
    assert list(p.ops.f.values) == [0, 1, 1, 1]
    assert list(p.ops.g.values) == [0, 1, 1, 1, 1, 1, 1, 1]  # x or y or z
    assert list(p.ops.h.values) == [0, 1, 1, 1, 1, 1, 1, 1]


def test_synth_m2(pipelines):
    p = pipelines["M2"]
    assert list(p.ops.f.values) == [0, 0, 1, 1]  # first projection
    assert list(p.ops.g.values) == [0, 0, 0, 1, 0, 1, 1, 1]  # median
    assert list(p.ops.h.values) == [0, 0, 0, 0, 1, 1, 1, 1]  # first projection


def test_synth_a2_z3a(pipelines):
    p = pipelines["A2"]
    assert list(p.ops.f.values) == [0, 0, 1, 1]
    assert list(p.ops.g.values) == [0, 0, 0, 0, 1, 1, 1, 1]
    assert list(p.ops.h.values) == [0, 1, 1, 0, 1, 0, 0, 1]  # x+y+z mod 2
    z = pipelines["Z3A"]
    assert list(z.ops.h.values) == [(x - y + z) % 3 for x in range(3) for y in range(3) for z in range(3)]


# sha256 (first 16 hex digits) over the name and values of f, g, h and f'
# of every Taylor algebra, in enumeration order: pruning synthesis
# candidates must leave every synthesized table unchanged
REFERENCE_TABLES = {
    "fixtures": "ad5242d01434c0a6",
    "b2": "945345d386018c5b",
    "t2": "782138ad7ffd0f18",
    "b3": "ae6e743a28a46ef1",
}


def test_synthesized_tables_match_reference(populations):
    """f, g, h and f' are the tables the full candidate lists produced."""
    digests = {}
    for tag, anas in populations.items():
        h = hashlib.sha256()
        for ana in anas:
            if not ana.taylor():
                continue
            ops = ana.unified()
            for t in (ops.f, ops.g, ops.h, ana.fprime()):
                h.update(ana.alg.name.encode())
                h.update(t.values.tobytes())
        digests[tag] = h.hexdigest()[:16]
    assert digests == REFERENCE_TABLES


def _loop_block(e, kind):
    """The block (0 for a's, 1 for b's) of each element of the edge's two
    theta blocks."""
    return {y: i for i, x in enumerate((e.a, e.b)) for y in e.block_of(kind, x)}


def _loop_values(t, blk, args):
    """Blocks of t's values over the argument tuples."""
    return {blk.get(t(*a)) for a in args}


def _loop_f_semilattice(t, f, e):
    blk = _loop_block(e, SEMILATTICE)
    pairs = [(x, y) for x in blk for y in blk if blk[x] != blk[y]]
    return _loop_values(t, blk, pairs) in ({0}, {1})


def _loop_proj1(kind):
    def check(t, f, e):
        blk = _loop_block(e, kind)
        return all(
            blk.get(t(*a)) == blk[a[0]] for a in itertools.product(blk, repeat=t.arity)
        )

    return check


def _loop_g_majority(t, f, e):
    blk = _loop_block(e, MAJORITY)
    return all(
        blk.get(t(*a)) == sorted(blk[x] for x in a)[1]
        for a in itertools.product(blk, repeat=3)
        if len({blk[x] for x in a}) == 2
    )


def _loop_sl_composition(t, f, e):
    blk = _loop_block(e, SEMILATTICE)
    act = {}
    for x, y in itertools.product(blk, repeat=2):
        act.setdefault((blk[x], blk[y]), set()).add(blk.get(f(x, y)))
    if any(len(v) != 1 or None in v for v in act.values()):
        return False
    act = {key: v.pop() for key, v in act.items()}
    return all(
        blk.get(t(x, y, z)) == act[blk[x], act[blk[y], blk[z]]]
        for x, y, z in itertools.product(blk, repeat=3)
    )


def _loop_h_affine(h, f, e):
    """cond_h_affine evaluated tuple by tuple."""
    bid = e.theta[AFFINE].block_id
    reps = sorted(set(bid))
    label = {x: reps.index(bid[i]) for i, x in enumerate(e.carrier)}
    mal = e.affine_cert.maltsev
    return all(
        h(x, y, z) in label and label[h(x, y, z)] == mal(label[x], label[y], label[z])
        for x, y, z in itertools.product(e.carrier, repeat=3)
    )


_LOOPS = {
    (STRICT_SEMILATTICE, "f"): _loop_f_semilattice,
    (STRICT_MAJORITY, "f"): _loop_proj1(MAJORITY),
    (STRICT_AFFINE, "f"): _loop_proj1(AFFINE),
    (STRICT_SEMILATTICE, "g"): _loop_sl_composition,
    (STRICT_MAJORITY, "g"): _loop_g_majority,
    (STRICT_AFFINE, "g"): _loop_proj1(AFFINE),
    (STRICT_SEMILATTICE, "h"): _loop_sl_composition,
    (STRICT_MAJORITY, "h"): _loop_proj1(MAJORITY),
    (STRICT_AFFINE, "h"): _loop_h_affine,
}


def test_vectorised_conditions_match_loops(pipelines):
    """Every condition of the matrix, applied to a stack of tables, gives the
    mask its tuple-by-tuple form gives table by table.  The stack holds the
    unified table, one-cell mutations of it (which pass some conditions and
    fail others) and random tables."""
    rng = np.random.default_rng(0)
    covered, passed = set(), 0
    for p in pipelines.values():
        n = p.alg.size
        for (strict, which), (_, check) in _CONDITIONS.items():
            edges = [e for e in p.edges if e.strict == strict]
            if not edges:
                continue
            covered.add((strict, which))
            unified = getattr(p.ops, which)
            tables = [unified.values.copy() for _ in range(12)]
            for vals in tables[1:]:
                vals[rng.integers(0, vals.size)] = rng.integers(0, n)
            tables += [rng.integers(0, n, unified.values.size) for _ in range(8)]
            stack = np.array(tables, dtype=np.uint8).reshape(-1, *unified.table().shape)
            for e in edges:
                mask = check(stack, p.ops.f, e)
                want = [_LOOPS[strict, which](table(t, unified.arity, n), p.ops.f, e) for t in tables]
                assert mask.tolist() == want, (p.alg.name, strict, which, (e.a, e.b))
                passed += sum(want)
    assert covered == set(_CONDITIONS) and passed > 0
    z3 = pipelines["Z3A"]
    assert all(cond_h_affine(_stack(z3.ops.h), e)[0] for e in z3.edges)


def test_condition_matrix_recorded(pipelines):
    p = pipelines["RPS"]
    ok, matrix, first = unified_conditions(p.alg, p.edges, p.ops.f, p.ops.g, p.ops.h)
    assert ok and first is None
    assert all(matrix.values())
    assert len(matrix) == 3 * len(p.edges)


def test_enforce_identities_noop_when_already_good(pipelines):
    for name in ("S2", "A2", "M2"):
        p = pipelines[name]
        again = enforce_identities(p.ops, p.alg)
        assert np.array_equal(again.f.values, p.ops.f.values)
        assert np.array_equal(again.h.values, p.ops.h.values)
        assert check_identities(again)


def test_enforce_identities_period_two():
    # f(0,-) swaps 1 and 2: iterating the squared map restores absorption
    vals = [0, 2, 1, 1, 1, 1, 2, 2, 2]
    f = table(vals, 2, 3)
    alg = Algebra("period2", 3, [f])
    ops = UnifiedOps(f=f, g=projection(3, 3, 0), h=projection(3, 3, 0), edges=(), provenance={})
    assert not check_identities(ops)
    fixed = enforce_identities(ops, alg)
    assert check_identities(fixed)
    t = fixed.f.table()
    x, y = np.indices((3, 3))
    assert np.array_equal(t[x, t[x, y]], t[x, y])


def test_enforce_identities_repairs_f_g_and_h():
    """f(0, -), y -> g(0, y, y) and x -> h(x, 0, 0) each swap 1 and 2, so
    all three absorption identities fail; one call iterates all three maps."""
    f = [0, 2, 1, 1, 1, 1, 2, 2, 2]
    g = [args[0] for args in itertools.product(range(3), repeat=3)]
    h = list(g)
    g[0 * 9 + 1 * 3 + 1], g[0 * 9 + 2 * 3 + 2] = 2, 1  # g(0,1,1) = 2, g(0,2,2) = 1
    h[1 * 9 + 0 * 3 + 0], h[2 * 9 + 0 * 3 + 0] = 2, 1  # h(1,0,0) = 2, h(2,0,0) = 1
    f, g, h = table(f, 2, 3, "f"), table(g, 3, 3, "g"), table(h, 3, 3, "h")
    ops = UnifiedOps(f=f, g=g, h=h, edges=(), provenance={})
    p2, p3 = projection(3, 2, 0), projection(3, 3, 0)
    assert _failed_identity(f, p3, p3) == "f(x,f(x,y)) = f(x,y)"
    assert _failed_identity(p2, g, p3) == "g(x,g(x,y,y),g(x,y,y)) = g(x,y,y)"
    assert _failed_identity(p2, p3, h) == "h(h(x,y,y),y,y) = h(x,y,y)"
    fixed = enforce_identities(ops, Algebra("broken", 3, [f, g, h]))
    assert _failed_identity(fixed.f, fixed.g, fixed.h) is None
    for old, new in ((f, fixed.f), (g, fixed.g), (h, fixed.h)):
        assert not np.array_equal(old.values, new.values)


def test_good_f_examples(pipelines):
    assert list(pipelines["S2"].fprime.values) == [0, 1, 1, 1]
    assert list(pipelines["M2"].fprime.values) == [0, 0, 1, 1]  # vacuously good
    rps = pipelines["RPS"]
    t = rps.fprime.table()
    for a in range(3):
        for b in range(3):
            c = t[a, b]
            assert c == a or (t[a, c] == c and t[c, a] == c)


def test_thin_semilattice_edges(pipelines):
    assert [(t.src, t.dst) for t in thin_semilattice_edges(pipelines["S2"].alg, pipelines["S2"].fprime)] == [(0, 1)]
    assert thin_semilattice_edges(pipelines["M2"].alg, pipelines["M2"].fprime) == []
    rps = pipelines["RPS"]
    assert {(t.src, t.dst) for t in thin_semilattice_edges(rps.alg, rps.fprime)} == {(0, 1), (1, 2), (2, 0)}


def test_find_thin_majority(pipelines):
    p = pipelines["M2"]
    thin = find_thin_majority(p.graph, 0, 1, p.ops)
    assert isinstance(thin, ThinEdge)
    assert (thin.src, thin.dst) == (0, 1)
    assert thin.witness(0, 1, 1) == 1 and thin.witness(1, 0, 1) == 1 and thin.witness(1, 1, 0) == 1
    # symmetric orientation
    rev = is_thin(MAJORITY, p.graph, 1, 0, p.ops)
    assert isinstance(rev, ThinEdge)
    # the reversed orientation is read from the stored pair (0, 1)
    back = find_thin_majority(p.graph, 1, 0, p.ops)
    assert (back.src, back.dst) == (1, 0)
    # non-majority edge: absent by contract
    a2 = pipelines["A2"]
    assert find_thin_majority(a2.graph, 0, 1, a2.ops) is None


def test_find_thin_affine(pipelines):
    a2 = pipelines["A2"]
    thin = find_thin_affine(a2.graph, 0, 1, a2.ops)
    assert isinstance(thin, ThinEdge)
    assert thin.witness(1, 0, 0) == 1 and thin.witness(0, 0, 1) == 1
    z3 = pipelines["Z3A"]
    thin3 = find_thin_affine(z3.graph, 0, 1, z3.ops)
    assert isinstance(thin3, ThinEdge)
    assert thin3.witness(1, 0, 0) == 1 and thin3.witness(0, 0, 1) == 1
    back = find_thin_affine(z3.graph, 2, 0, z3.ops)
    assert (back.src, back.dst) == (2, 0)
    assert back.witness(0, 2, 2) == 0 and back.witness(2, 2, 0) == 0
    s2 = pipelines["S2"]
    assert find_thin_affine(s2.graph, 0, 1, s2.ops) is None


def _outcome(find, *args):
    """A thin-edge search's answer, comparable across searches: the edge's
    kind, ends, witness table, term and theta blocks, or the raised error."""
    try:
        res = find(*args)
    except VerificationError as ex:
        return "raised", str(ex)
    if isinstance(res, ThinEdge):
        return res.kind, res.src, res.dst, res.witness.values.tobytes(), str(res.witness_term), res.theta_blocks
    return res


def test_thin_counterpart_agrees_with_search(populations):
    """Reading all_thin_edges' answers gives what searching again gives, for
    every strict majority and affine edge in both orientations."""
    finders = {STRICT_MAJORITY: (MAJORITY, find_thin_majority), STRICT_AFFINE: (AFFINE, find_thin_affine)}
    checked = 0
    for ana in populations["fixtures"] + populations["b3"]:
        if not ana.taylor():
            continue
        graph, ops = ana.graph(), ana.unified()
        thin, undecided = ana.thin()
        assert undecided == frozenset()
        for e in graph.edge_list():
            if e.strict not in finders:
                continue
            kind, find = finders[e.strict]
            for src, dst in ((e.a, e.b), (e.b, e.a)):
                assert _outcome(thin_counterpart, graph, thin, undecided, src, dst, kind) == _outcome(
                    find, graph, src, dst, ops
                ), (ana.alg.name, src, dst)
                checked += 1
    assert checked > 40


def test_all_thin_edges_fixtures(pipelines):
    m2 = pipelines["M2"]
    assert {(t.kind, t.src, t.dst) for t in m2.thin} == {(MAJORITY, 0, 1), (MAJORITY, 1, 0)}
    a2 = pipelines["A2"]
    assert {(t.kind, t.src, t.dst) for t in a2.thin} == {(AFFINE, 0, 1), (AFFINE, 1, 0)}
    z3 = pipelines["Z3A"]
    assert {(t.src, t.dst) for t in z3.thin} == {(a, b) for a in range(3) for b in range(3) if a != b}


def test_witness_majority_triple(ternary_pipelines):
    m2 = ternary_pipelines["M2t"]
    arcs = {(t.src, t.dst): t for t in m2.thin if t.kind == MAJORITY}
    t = witness_majority_triple(arcs[(0, 1)], arcs[(0, 1)], arcs[(0, 1)])
    assert t is not UNKNOWN
    t2 = witness_majority_triple(arcs[(0, 1)], arcs[(1, 0)], arcs[(0, 1)])
    assert t2 is not UNKNOWN
    with pytest.raises(AlgebraError, match="majority"):
        a2 = ternary_pipelines["A2t"]
        aff = [x for x in a2.thin if x.kind == AFFINE][0]
        witness_majority_triple(aff, arcs[(0, 1)], arcs[(0, 1)])


def test_witness_mixed_kinds(ternary_pipelines):
    m2 = ternary_pipelines["M2t"]
    a2 = ternary_pipelines["A2t"]
    s2 = ternary_pipelines["S2t"]
    z3 = ternary_pipelines["Z3At"]
    maj = [t for t in m2.thin if t.kind == MAJORITY and (t.src, t.dst) == (0, 1)][0]
    aff = [t for t in a2.thin if t.kind == AFFINE and (t.src, t.dst) == (0, 1)][0]
    aff3 = [t for t in z3.thin if t.kind == AFFINE and (t.src, t.dst) == (0, 1)][0]
    sl = [t for t in s2.thin if t.kind == SEMILATTICE][0]

    assert witness_mixed("majority-semilattice", maj, sl) is not UNKNOWN
    assert witness_mixed("affine-affine", aff, aff3) is not UNKNOWN
    assert witness_mixed("affine-semilattice", aff, sl) is not UNKNOWN
    assert witness_mixed("affine-majority", aff3, maj) is not UNKNOWN
    with pytest.raises(AlgebraError, match="kinds"):
        witness_mixed("affine-majority", maj, aff)
    with pytest.raises(AlgebraError, match="unknown mixed witness kind"):
        witness_mixed("semilattice-semilattice", sl, sl)
    with pytest.raises(AlgebraError, match="identical signatures"):
        s2bin = pipelines_unused = None
        from algraph.fixtures import S2
        from algraph.edges import edge_graph
        from algraph.thin import enforce_identities as ei, synth_unified as su, good_f as gf
        alg = S2()
        g = edge_graph(alg)
        ops = ei(su(alg, g.edge_list()), alg)
        fp = gf(alg, ops)
        sl_bin = thin_semilattice_edges(alg, fp)[0]
        witness_mixed("majority-semilattice", maj, sl_bin)


def test_verify_thick_thin(pipelines):
    for name in ("S2", "RPS", "S3chain"):
        p = pipelines[name]
        assert verify_thick_thin(p.alg, p.edges, p.fprime) == []


def test_witness_tables_reevaluate_exactly(pipelines):
    for name in ("M2", "A2", "Z3A"):
        p = pipelines[name]
        for t in p.thin:
            if t.witness is None:
                continue
            if t.kind == MAJORITY:
                b, a = t.dst, t.src
                assert t.witness(a, b, b) == b
                assert t.witness(b, a, b) == b
                assert t.witness(b, b, a) == b
            if t.kind == AFFINE:
                b, a = t.dst, t.src
                assert t.witness(b, a, a) == b
                assert t.witness(a, a, b) == b
