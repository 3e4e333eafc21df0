#!/usr/bin/env python3
# One binary f and two ternary g, h behaving correctly on all edges at once.
#
# f is semilattice on semilattice edges and the first projection on the
# others; g is majority on majority edges; h is affine on affine quotients.
# Synthesis iterates the operations into absorption form
# (f(x,f(x,y)) = f(x,y) and friends) and f is further improved so that
# f(a,b) = a or a -> f(a,b) is a thin semilattice edge for every a, b.

from algraph import edge_graph, good_f, synth_unified, thin_semilattice_edges
from algraph.fixtures import A2, M2, RPS, S2

for name, alg in (("S2", S2()), ("M2", M2()), ("A2", A2()), ("RPS", RPS())):
    graph = edge_graph(alg)
    ops = synth_unified(alg, graph.edge_list())
    print(f"{name}: f={list(map(int, ops.f.values))}")
    print(f"     g={list(map(int, ops.g.values))}")
    print(f"     h={list(map(int, ops.h.values))}")
    print("     all edge conditions hold:", all(ops.provenance.values()))

    fp = good_f(alg, ops)
    arcs = [(t.src, t.dst) for t in thin_semilattice_edges(alg, fp)]
    print("     improved f:", list(map(int, fp.values)), " thin arcs:", arcs)

# Reading the results:
#  - S2: f is the join, g and h collapse to x v y v z.
#  - M2: f is the first projection, g is the median, h projects.
#  - A2: f and g project, h is x + y + z mod 2.
#  - RPS: f is the winner operation itself; the thin arcs form the
#    3-cycle 0 -> 1 -> 2 -> 0.
