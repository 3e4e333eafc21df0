#!/usr/bin/env python3
# Classifying pairs of elements into semilattice / majority / affine edges.
#
# A pair (a,b) is an edge when some congruence of the subalgebra it
# generates separates a from b and the quotient carries a term operation
# that is a semilattice, majority, or affine operation on the two blocks.
# The classifier reports all types, the minimal witnessing congruence per
# type, explicit witness terms, and the strict label.

from algraph import (
    classify_pair,
    edge_graph,
    graph_connected_hereditary,
    has_siggers_term,
    is_strictly_simple,
    is_tolerance_free,
    omits_type1,
    type1_divisor,
    verify_simple_case4,
)
from algraph.fixtures import A2, M2, P2, RPS, S2, Z3A

for name, alg in (("S2", S2()), ("M2", M2()), ("A2", A2()), ("Z3A", Z3A())):
    e = classify_pair(alg, 0, 1)
    print(f"{name} (0,1): types={sorted(e.types)} strict={e.strict} "
          f"theta={ {t: p.to_str() for t, p in e.theta.items()} }")
    for t, w in sorted(e.witnesses.items()):
        print(f"   {t} witness: {w}")

# The rock-paper-scissors groupoid: every pair is a semilattice edge,
# because each two-element subset is a subalgebra where the winner acts
# as a join.
g = edge_graph(RPS())
print("RPS edges:", [(e.a, e.b, sorted(e.types)) for e in g.edge_list()])
print("RPS graph connected:", g.connected())

# The projection algebra is the negative control: no edges at all, and a
# two-element quotient whose operations are projections certifies that a
# 4-ary term s with s(y,x,y,z) = s(x,y,z,y) cannot exist.
p2 = P2()
print("P2 edges:", edge_graph(p2).edge_list())
print("P2 omits type 1:", omits_type1(p2), " divisor:", type1_divisor(p2))
print("P2 direct 4-ary term search:", has_siggers_term(p2))

# Connectivity is hereditary: it holds for every induced subalgebra too.
# A subalgebra's graph is the restriction of the whole graph, so the check
# reads the graph built above instead of classifying again.
print("RPS hereditary connectivity:", graph_connected_hereditary(g)[0])

# Refinements used by the structure theory on simple algebras.
print("Z3A strictly simple:", is_strictly_simple(Z3A()),
      " tolerance free:", is_tolerance_free(Z3A()))
print("case-4 dichotomy on M2:", verify_simple_case4(M2(), 0, 1))
print("case-4 dichotomy on RPS:", verify_simple_case4(RPS(), 0, 1))
