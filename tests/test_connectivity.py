import pytest

from algraph.connectivity import (
    build_oriented_graph,
    components,
    depth_and_sdistance,
    export_dot,
    max_elements,
    path_query,
    verify_as_connectivity,
    verify_going_maximal,
)
from algraph.core import Algebra, AlgebraError, OpTable
from algraph.subpower import ClosureBudget, generate_subuniverse
from algraph.thin import ThinEdge
from oracles import brute_distances

# the arc kinds each filter admits, spelled out apart from the package's table
ADMITTED = {
    "s": {"semilattice"},
    "as": {"semilattice", "affine"},
    "sm": {"semilattice", "majority"},
    "all": {"semilattice", "majority", "affine"},
}


def test_build_filters(pipelines):
    rps = pipelines["RPS"]
    g = build_oriented_graph(rps.alg, rps.thin, "s")
    assert g.arc_set() == {(0, 1), (1, 2), (2, 0)}
    m2 = pipelines["M2"]
    assert build_oriented_graph(m2.alg, m2.thin, "s").arc_set() == set()
    assert build_oriented_graph(m2.alg, m2.thin, "sm").arc_set() == {(0, 1), (1, 0)}
    a2 = pipelines["A2"]
    assert build_oriented_graph(a2.alg, a2.thin, "as").arc_set() == {(0, 1), (1, 0)}
    with pytest.raises(AlgebraError, match="kind filter"):
        build_oriented_graph(rps.alg, rps.thin, "zz")


def test_components_and_order(pipelines):
    rps = pipelines["RPS"]
    co = components(build_oriented_graph(rps.alg, rps.thin, "s"))
    assert co.component == (0, 0, 0)  # one cycle component
    s3 = pipelines["S3chain"]
    co = components(build_oriented_graph(s3.alg, s3.thin, "s"))
    assert co.component == (0, 1, 2)
    assert co.below(0, 2) and co.below(1, 2) and not co.below(2, 0)
    assert co.maximal_components() == [2]


def test_filter_monotonicity(pipelines):
    for p in pipelines.values():
        s = build_oriented_graph(p.alg, p.thin, "s").arc_set()
        as_ = build_oriented_graph(p.alg, p.thin, "as").arc_set()
        sm = build_oriented_graph(p.alg, p.thin, "sm").arc_set()
        alla = build_oriented_graph(p.alg, p.thin, "all").arc_set()
        assert s <= as_ <= alla and s <= sm <= alla


def test_component_order_consistent(pipelines):
    # a <= b implies component(a) <= component(b)
    for p in pipelines.values():
        g = build_oriented_graph(p.alg, p.thin, "s")
        co = components(g)
        for (a, b) in g.arc_set():
            assert co.below(co.component_of(a), co.component_of(b))


def test_max_elements(pipelines):
    assert max_elements(pipelines["S3chain"].alg, pipelines["S3chain"].thin, "s") == [2]
    assert max_elements(pipelines["RPS"].alg, pipelines["RPS"].thin, "s") == [0, 1, 2]
    assert max_elements(pipelines["A2"].alg, pipelines["A2"].thin, "as") == [0, 1]


def test_max_nonempty(pipelines):
    for p in pipelines.values():
        assert max_elements(p.alg, p.thin, "s")


def test_path_query(pipelines):
    s3 = pipelines["S3chain"]
    path = path_query(s3.alg, s3.thin, "s", 0, 2)
    assert path is not None
    verts, kinds = path
    assert verts[0] == 0 and verts[-1] == 2
    assert all(k == "semilattice" for k in kinds)
    m2 = pipelines["M2"]
    verts, kinds = path_query(m2.alg, m2.thin, "sm", 0, 1)
    assert verts == [0, 1] and kinds == ["majority"]
    assert path_query(m2.alg, m2.thin, "s", 0, 1) is None
    assert path_query(m2.alg, m2.thin, "s", 0, 0) == ([0], [])


def test_path_query_is_breadth_first():
    """0 -> 1 -> 5 is shorter than 0 -> 2 -> 3 -> 5; a depth-first search
    that tries the last-found vertex first would take the long way."""
    alg = Algebra("P6", 6, [OpTable("p", 2, 6, [x for x in range(6) for _ in range(6)])])
    arcs = ((0, 1), (0, 2), (1, 5), (2, 3), (3, 5))
    thin = [ThinEdge(alg, "semilattice", u, v, None, None, None) for u, v in arcs]
    verts, kinds = path_query(alg, thin, "s", 0, 5)
    assert verts == [0, 1, 5] and kinds == ["semilattice"] * 2


def test_depth(pipelines):
    s3 = pipelines["S3chain"]
    depth = depth_and_sdistance(s3.alg, s3.thin)
    # 0 <= 2 directly, so the shortest distance to the only maximal
    # component is one step; maximal elements have depth 0
    assert depth == {0: 1, 1: 1, 2: 0}
    rps = pipelines["RPS"]
    assert depth_and_sdistance(rps.alg, rps.thin) == {0: 0, 1: 0, 2: 0}


def test_as_connectivity(pipelines):
    for name in ("RPS", "A2", "M2", "Z3A", "S3chain", "S2"):
        rep = verify_as_connectivity(pipelines[name].alg, pipelines[name].thin)
        assert rep["status"] == "pass", (name, rep)


def test_going_maximal(pipelines):
    z3 = pipelines["Z3A"]
    full = generate_subuniverse(z3.alg, 2, [(x, y) for x in range(3) for y in range(3)])
    rep = verify_going_maximal(z3.alg, full, 0, 1, z3.thin)
    assert rep["status"] == "pass"
    assert rep["chain"][0] == 0
    # non-simple algebra: skipped
    s3 = pipelines["S3chain"]
    full3 = generate_subuniverse(s3.alg, 2, [(x, y) for x in range(3) for y in range(3)])
    assert verify_going_maximal(s3.alg, full3, 0, 1, s3.thin)["status"] == "skipped"
    # capped relation: skipped
    capped = generate_subuniverse(
        z3.alg, 2, [(0, 1), (1, 0)], ClosureBudget(max_elements=2)
    )
    assert verify_going_maximal(z3.alg, capped, 0, 1, z3.thin)["status"] == "skipped"


def test_export_dot(pipelines):
    rps = pipelines["RPS"]
    dot = export_dot(build_oriented_graph(rps.alg, rps.thin, "s"))
    assert "0 -> 1 [style=solid" in dot
    assert dot.startswith("digraph")
    empty = build_oriented_graph(Algebra("E", 2, [OpTable("p", 2, 2, [0, 0, 1, 1])]), [], "all")
    assert export_dot(empty).count("->") == 0
    mixed = pipelines["A2"]
    dotm = export_dot(build_oriented_graph(mixed.alg, mixed.thin, "all"))
    assert "style=dotted" in dotm  # affine arcs


def test_connectivity_matches_brute_reachability(populations):
    """Components (labels and order), maximal elements, depths and shortest
    paths agree with reachability computed by set unions over the arcs, on
    every Taylor algebra of the populations and under every kind filter."""
    checked = 0
    for anas in populations.values():
        for ana in anas:
            if not ana.taylor():
                continue
            alg, (thin, _) = ana.alg, ana.thin()
            n = alg.size
            for kind, admitted in ADMITTED.items():
                arcs = {(t.src, t.dst, t.kind) for t in thin if t.kind in admitted}
                dist = brute_distances(n, {(u, v) for u, v, _ in arcs})
                label = [min(v for v in dist[u] if u in dist[v]) for u in range(n)]
                order = {(label[u], label[v]) for u in range(n) for v in dist[u] if label[u] != label[v]}
                co = components(build_oriented_graph(alg, thin, kind))
                case = (alg.name, kind)
                assert list(co.component) == label and co.order == order, case
                maximal = [u for u in range(n) if all(u in dist[v] for v in dist[u])]
                assert max_elements(alg, thin, kind) == maximal, case
                for a in range(n):
                    for b in range(n):
                        path = path_query(alg, thin, kind, a, b)
                        if b not in dist[a]:
                            assert path is None, (case, a, b)
                            continue
                        verts, kinds = path
                        assert verts[0] == a and verts[-1] == b, (case, a, b)
                        assert len(verts) == len(kinds) + 1 == dist[a][b] + 1, (case, a, b)
                        assert all(step in arcs for step in zip(verts, verts[1:], kinds)), (case, a, b)
                if kind == "s":
                    depth = {}
                    for v in range(n):
                        # one distance per maximal component that v reaches
                        to_comp = {}
                        for m in maximal:
                            if m in dist[v]:
                                to_comp[label[m]] = min(to_comp.get(label[m], n), dist[v][m])
                        depth[v] = max(to_comp.values()) if to_comp else None
                    assert depth_and_sdistance(alg, thin) == depth, case
            checked += 1
    assert checked >= 400
