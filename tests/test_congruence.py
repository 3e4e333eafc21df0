import itertools
import random

import numpy as np
import pytest

from algraph.congruence import (
    Partition,
    Tolerance,
    all_congruences,
    all_tolerances,
    compatible_tolerance_generated,
    congruence_generated,
    is_class_subuniverse,
    is_compatible_tolerance,
    is_congruence,
    is_connected_tolerance,
    is_simple,
    link_tolerance,
    maximal_congruences,
    principal_congruence,
    tolerance_classes,
    transitive_closure_partition,
)
from algraph.core import Algebra, AlgebraError, OpTable, VerificationError, product_algebra
from algraph.subpower import ClosureBudget, generate_subuniverse
from algraph.verify import iter_idempotent_algebras
from oracles import _partitions, brute_congruences, brute_link, naive_close


def as_blocksets(parts):
    return {frozenset(frozenset(b) for b in p.blocks()) for p in parts}


def test_partition_normalization():
    p = Partition.from_blocks(4, [[2, 0], [1, 3]])
    assert p.block_id == (0, 1, 0, 1)
    assert p.to_str() == "[[0,2],[1,3]]"
    assert Partition.equality(3).is_equality()
    assert Partition.total(3).is_total()


def test_partition_join_meet_refines():
    p = Partition.from_blocks(4, [[0, 1], [2], [3]])
    q = Partition.from_blocks(4, [[1, 2], [0], [3]])
    assert p.join(q).blocks() == [[0, 1, 2], [3]]
    assert p.meet(q).is_equality()
    assert p.refines(p.join(q))
    assert not p.join(q).refines(p)


def test_is_congruence_examples(algs):
    s3 = algs["S3chain"]
    assert is_congruence(s3, Partition.from_blocks(3, [[0, 1], [2]]))
    assert not is_congruence(s3, Partition.from_blocks(3, [[0, 2], [1]]))
    assert is_congruence(s3, Partition.equality(3))


def test_principal_congruence(algs):
    s3 = algs["S3chain"]
    assert principal_congruence(s3, 0, 1).blocks() == [[0, 1], [2]]
    assert principal_congruence(algs["Z3A"], 0, 1).is_total()
    assert principal_congruence(s3, 2, 2).is_equality()


def test_all_congruences_vs_brute(algs):
    for name in ("S3chain", "RPS", "Z3A", "M2", "A2"):
        alg = algs[name]
        assert as_blocksets(all_congruences(alg)) == brute_congruences(alg)


def test_all_congruences_of_products_vs_brute(algs, ternary_family):
    """Products have lattices with many joins of principal congruences."""
    t = ternary_family
    for pair in (
        (algs["S2"], algs["S2"]),
        (algs["S3chain"], algs["S2"]),
        (t["S2t"], t["M2t"]),
        (t["M2t"], t["A2t"]),
        (t["Z3At"], t["S2t"]),
    ):
        alg = product_algebra(pair)
        assert as_blocksets(all_congruences(alg)) == brute_congruences(alg), alg.name


def test_is_simple_matches_lattice_size(populations):
    for tag, anas in populations.items():
        for ana in anas:
            assert is_simple(ana.alg) == (len(all_congruences(ana.alg)) == 2), (tag, ana.alg.name)


def test_is_congruence_matches_brute_force(algs):
    """is_congruence accepts exactly the brute-force congruences among all
    partitions, on the fixtures and on seeded random 4-element algebras."""
    rng = random.Random(4)
    randoms = []
    for i in range(6):
        arity = 2 if i % 2 else 3
        vals = [
            args[0] if len(set(args)) == 1 else rng.randrange(4)
            for args in itertools.product(range(4), repeat=arity)
        ]
        randoms.append(Algebra(f"r4_{i}", 4, [OpTable("f", arity, 4, vals)]))
    square = product_algebra([algs["S2"], algs["S2"]])  # 4 elements, 7 congruences
    for alg in [*algs.values(), square, *randoms]:
        brute = brute_congruences(alg)
        for blocks in _partitions(alg.size):
            want = frozenset(map(frozenset, blocks)) in brute
            assert is_congruence(alg, Partition.from_blocks(alg.size, blocks)) == want, (alg.name, blocks)


def test_all_congruences_s3chain(algs):
    cons = all_congruences(algs["S3chain"])
    assert [c.to_str() for c in cons] == [
        "[[0],[1],[2]]",
        "[[0,1],[2]]",
        "[[0],[1,2]]",
        "[[0,1,2]]",
    ]


def test_principal_is_least(algs):
    # the principal congruence refines every congruence containing the pair
    for name in ("S3chain", "RPS", "Z3A"):
        alg = algs[name]
        cons = all_congruences(alg)
        for a in range(alg.size):
            for b in range(alg.size):
                p = principal_congruence(alg, a, b)
                for c in cons:
                    if c.same(a, b):
                        assert p.refines(c)


def test_maximal_congruences(algs):
    s3 = algs["S3chain"]
    assert {m.to_str() for m in maximal_congruences(s3)} == {"[[0,1],[2]]", "[[0],[1,2]]"}
    assert [m.to_str() for m in maximal_congruences(algs["Z3A"])] == ["[[0],[1],[2]]"]
    assert [m.is_equality() for m in maximal_congruences(algs["S2"])] == [True]


def test_is_simple(algs):
    assert is_simple(algs["Z3A"])
    assert not is_simple(algs["S3chain"])
    one = Algebra("one", 1, [OpTable("f", 1, 1, [0])])
    assert not is_simple(one)


def test_congruence_generated_multiple_pairs(algs):
    s3 = algs["S3chain"]
    assert congruence_generated(s3, [(0, 1), (1, 2)]).is_total()


def test_link_tolerance(algs):
    s2 = algs["S2"]
    su = generate_subuniverse(s2, 2, [(0, 0), (0, 1), (1, 1)])
    t = link_tolerance(s2, su, 1)
    assert t.is_total()  # first coordinate 0 links 0 and 1

    ident = generate_subuniverse(s2, 2, [(0, 0), (1, 1)])
    assert link_tolerance(s2, ident, 0).is_equality()

    full = generate_subuniverse(s2, 2, [(x, y) for x in range(2) for y in range(2)])
    assert link_tolerance(s2, full, 0).is_total()

    capped = generate_subuniverse(algs["Z3A"], 2, [(0, 1), (1, 0)], ClosureBudget(max_elements=2))
    with pytest.raises(AlgebraError, match="capped"):
        link_tolerance(algs["Z3A"], capped, 0)
    with pytest.raises(AlgebraError, match="out of range"):
        link_tolerance(s2, full, 2)
    ternary = generate_subuniverse(s2, 3, [(0, 1, 1)])
    with pytest.raises(AlgebraError, match="binary"):
        link_tolerance(s2, ternary, 0)
    with pytest.raises(AlgebraError, match="not subdirect"):
        link_tolerance(s2, generate_subuniverse(s2, 2, [(0, 1), (1, 1)]), 1)


def test_link_tolerance_refuses_a_relation_over_another_algebra(algs):
    """A relation over an algebra with RPS's signature but other tables, or
    another size, is refused; one over an equal copy of RPS is accepted."""
    rps = algs["RPS"]
    p3 = Algebra("P3", 3, [OpTable("w", 2, 3, np.indices((3, 3))[0].reshape(-1))])  # first projection
    rel = generate_subuniverse(p3, 2, [(0, 0), (1, 0), (2, 2)])  # links 0 and 1
    with pytest.raises(AlgebraError, match="different algebra"):
        link_tolerance(rps, rel, 0)
    p2 = Algebra("P2", 2, [OpTable("w", 2, 2, [0, 0, 1, 1])])
    with pytest.raises(AlgebraError, match="different algebra"):
        link_tolerance(rps, generate_subuniverse(p2, 2, [(0, 0), (1, 1)]), 0)
    copy = Algebra("RPS copy", 3, rps.ops)
    full = generate_subuniverse(copy, 2, [(a, b) for a in range(3) for b in range(3)])
    assert link_tolerance(rps, full, 0).is_total()


def test_link_tolerance_matches_brute(populations):
    """Both coordinates of every pair relation Sg{(a,b),(b,a)} and of the
    full square, against the link read off the rows of a naive closure; a
    relation that misses an element in coordinate i is refused."""
    checked = 0
    for anas in populations.values():
        for ana in anas:
            alg, n = ana.alg, ana.alg.size
            gens = [[(a, b), (b, a)] for a in range(n) for b in range(a + 1, n)]
            gens.append([(x, y) for x in range(n) for y in range(n)])
            for g in gens:
                rel = generate_subuniverse(alg, 2, g, derivations=False)
                rows = naive_close(alg, 2, g)
                for i in range(2):
                    want = brute_link(rows, n, i)
                    if all(want[u][u] for u in range(n)):
                        assert link_tolerance(alg, rel, i).matrix.tolist() == want, (alg.name, g, i)
                        checked += 1
                    else:
                        with pytest.raises(AlgebraError, match="not subdirect"):
                            link_tolerance(alg, rel, i)
    assert checked > 1000


def test_tolerance_classes(algs):
    assert tolerance_classes(Tolerance.equality(3)) == [[0], [1], [2]]
    assert tolerance_classes(Tolerance.total(3)) == [[0, 1, 2]]
    t = Tolerance.from_pairs(3, [(0, 1), (1, 2)])
    classes = tolerance_classes(t)
    assert classes == [[0, 1], [1, 2]]
    assert all(is_class_subuniverse(algs["S3chain"], c) for c in classes)


def test_is_connected_tolerance(algs):
    s3 = algs["S3chain"]
    assert is_connected_tolerance(s3, Tolerance.total(3))
    assert not is_connected_tolerance(s3, Tolerance.equality(3))
    assert is_connected_tolerance(s3, Tolerance.from_pairs(3, [(0, 1), (1, 2)]))


def test_transitive_closure_of_tolerance_is_congruence():
    # over every enumerated 2-element algebra and every compatible tolerance
    for alg in iter_idempotent_algebras(2, "binary"):
        for t in all_tolerances(alg):
            p = transitive_closure_partition(t)
            assert is_congruence(alg, p)


def test_generated_tolerance(algs):
    t = compatible_tolerance_generated(algs["RPS"], 0, 1)
    assert t.is_total()
    assert is_compatible_tolerance(algs["RPS"], t)
    t2 = compatible_tolerance_generated(algs["S3chain"], 0, 1)
    assert is_compatible_tolerance(algs["S3chain"], t2)
    assert not t2.is_total()
