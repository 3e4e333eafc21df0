#!/usr/bin/env python3
# Thin (directed) edges and the connectivity of their oriented graphs.
#
# A thin semilattice edge a -> b has f(a,b) = f(b,a) = b on the elements
# themselves.  Thin majority and affine edges are directed pairs with
# witness operations found by membership searches, e.g. a ternary g' with
# g'(a,b,b) = g'(b,a,b) = g'(b,b,a) = b.  Maximal elements live in the
# maximal strongly connected components of the semilattice graph, and any
# two of them are joined by a directed path of thin edges.

from algraph import (
    Analysis,
    build_oriented_graph,
    components,
    depth_and_sdistance,
    export_dot,
    find_thin_affine,
    find_thin_majority,
    max_elements,
    path_query,
    verify_as_connectivity,
)
from algraph.fixtures import A2, M2, RPS, S3chain, Z3A


def pipeline(alg):
    # One analysis per algebra: the edge graph is built once and the
    # unified operations, f' and the thin edges are read from it.  Each
    # ordered pair is decided once; the thin edges come with the set of
    # (kind, src, dst) triples that a capped search left undecided, which
    # is empty on these fixtures.
    ana = Analysis(alg)
    thin, undecided = ana.thin()
    assert not undecided
    return ana.graph(), ana.unified(), ana.fprime(), thin


for name, alg in (("M2", M2()), ("A2", A2()), ("Z3A", Z3A()), ("S3chain", S3chain())):
    graph, ops, fp, thin = pipeline(alg)
    print(f"{name} thin edges:", sorted((t.kind, t.src, t.dst) for t in thin))
    print("   maximal:", max_elements(alg, thin, "s"),
          " as-maximal:", max_elements(alg, thin, "as"))
    print("   depth table:", depth_and_sdistance(alg, thin))
    print("   pairwise connectivity of maximal elements:",
          verify_as_connectivity(alg, thin)["status"])

# Directed searches yield the witnesses themselves.
m2 = M2()
graph, ops, fp, thin = pipeline(m2)
te = find_thin_majority(graph, 0, 1, ops)
print("thin majority witness g' on M2:", te.witness_term)

z3 = Z3A()
graph3, ops3, fp3, thin3 = pipeline(z3)
ta = find_thin_affine(graph3, 0, 1, ops3)
print("thin affine witness h' on Z3A:", ta.witness_term)

# Paths distinguish the admitted kinds: s-paths, as-paths, sm-paths.
s3 = S3chain()
_, _, _, thin_s3 = pipeline(s3)
print("0 to 2 by semilattice arcs:", path_query(s3, thin_s3, "s", 0, 2))

# DOT export, arc style per kind (solid / dashed / dotted).
rps = RPS()
_, _, _, thin_rps = pipeline(rps)
print(export_dot(build_oriented_graph(rps, thin_rps, "all")))
