#!/usr/bin/env python3
# Congruences (compatible partitions) and tolerances (compatible
# reflexive symmetric relations) of small algebras.

from algraph import (
    Tolerance,
    all_congruences,
    all_tolerances,
    compatible_tolerance_generated,
    generate_subuniverse,
    is_class_subuniverse,
    is_congruence,
    is_connected_tolerance,
    is_simple,
    link_tolerance,
    maximal_congruences,
    principal_congruence,
    tolerance_classes,
)
from algraph.congruence import Partition
from algraph.fixtures import RPS, S2, S3chain, Z3A

s3 = S3chain()

# The 3-chain has exactly four congruences.
print("Con(S3chain):", [c.to_str() for c in all_congruences(s3)])
print("maximal:", [c.to_str() for c in maximal_congruences(s3)])

# Compatibility is checked through unary translations.
print("{{0,1},{2}} congruence?", is_congruence(s3, Partition.from_blocks(3, [[0, 1], [2]])))
print("{{0,2},{1}} congruence?", is_congruence(s3, Partition.from_blocks(3, [[0, 2], [1]])))

# Principal congruences by translation closure; the affine fixture is simple.
print("Cg(0,1) in the chain:", principal_congruence(s3, 0, 1).to_str())
print("Cg(0,1) in Z3A:", principal_congruence(Z3A(), 0, 1).to_str())
print("Z3A simple?", is_simple(Z3A()), " chain simple?", is_simple(s3))

# Tolerances: classes are the maximal cliques, and each class is closed
# under every operation.
t = Tolerance.from_pairs(3, [(0, 1), (1, 2)])
classes = tolerance_classes(t)
print("classes of 01,12:", classes, "closed:", [is_class_subuniverse(s3, c) for c in classes])
print("connected?", is_connected_tolerance(s3, t))

# The compatible tolerance generated by one pair, as a closure in A^2.
print("tolerance generated by (0,1) in RPS is total:",
      compatible_tolerance_generated(RPS(), 0, 1).is_total())
print("all tolerances of the chain:", len(all_tolerances(s3)))

# Link tolerances: pairs coexisting in one coordinate of a binary relation.
s2 = S2()
rel = generate_subuniverse(s2, 2, [(0, 0), (0, 1), (1, 1)])
print("link tolerance of", sorted(rel.as_set()), "is total:",
      link_tolerance(s2, rel, 1).is_total())
