import itertools
import random

import numpy as np
import pytest

from algraph.core import UNKNOWN, Algebra, AlgebraError, OpTable, Var, evaluate_term, evaluate_term_columns
from algraph.subpower import (
    DEFAULT_BUDGET,
    ClosureBudget,
    extract_term,
    find_term,
    generate_subuniverse,
    member_with_witness,
    term_slice,
)
from oracles import brute_term_tables, naive_close


def test_s2_square_closure(algs):
    su = generate_subuniverse(algs["S2"], 2, [(0, 1), (1, 0)])
    assert su.as_set() == {(0, 1), (1, 0), (1, 1)}
    assert su.status == "complete"


def test_constant_generator_stays_alone(algs):
    for alg in algs.values():
        su = generate_subuniverse(alg, 3, [(1, 1, 1)])
        assert su.as_set() == {(1, 1, 1)}


def test_z3a_pair_generates_all(algs):
    su = generate_subuniverse(algs["Z3A"], 1, [(0,), (1,)])
    assert su.as_set() == {(0,), (1,), (2,)}


def test_membership_three_valued(algs):
    su = generate_subuniverse(algs["S2"], 2, [(0, 1), (1, 0)])
    found, idx = member_with_witness(su, (1, 1))
    assert found is True and su.element(idx) == (1, 1)
    found, idx = member_with_witness(su, (0, 0))
    assert found is False and idx is None
    capped = generate_subuniverse(
        algs["Z3A"], 1, [(0,), (1,)], ClosureBudget(max_elements=2)
    )
    assert capped.status == "capped"
    found, _ = member_with_witness(capped, (2,))
    assert found is UNKNOWN
    with pytest.raises(AlgebraError, match="length"):
        member_with_witness(su, (1, 1, 1))


def test_find_term_three_valued(algs):
    s2 = algs["S2"]
    term = find_term(s2, 2, [(0, 1), (1, 0)], (1, 1), DEFAULT_BUDGET)
    assert evaluate_term(s2, term, (0, 1)) == 1 and evaluate_term(s2, term, (1, 0)) == 1
    assert find_term(s2, 2, [(0, 1), (1, 0)], (0, 0), DEFAULT_BUDGET) is None
    capped = find_term(algs["Z3A"], 1, [(0,), (1,)], (2,), ClosureBudget(max_elements=2))
    assert capped is UNKNOWN


def test_target_search_stops_at_first_hit(algs):
    """A target search returns the rounds before the target plus the target,
    with the derivation the finished closure keeps for it."""
    patterns = (
        [(0, 1, 1), (1, 0, 1), (1, 1, 0)],
        [(0, 1, 1, 1, 0, 0), (1, 0, 1, 0, 1, 0), (1, 1, 0, 0, 0, 1)],
    )
    for name, gens in itertools.product(("S2", "RPS", "Z3A", "S3chain"), patterns):
        alg, k = algs[name], len(gens[0])
        full = generate_subuniverse(alg, k, gens)
        for i in range(len(gens), len(full)):
            target = full.element(i)
            su = generate_subuniverse(alg, k, gens, target=target)
            assert su.status == "capped"
            assert member_with_witness(su, target) == (True, len(su) - 1)
            assert np.array_equal(su.rows[:-1], full.rows[: len(su) - 1])
            assert su.derivations[-1] == full.derivations[i]
            assert extract_term(su, len(su) - 1) == extract_term(full, i)


def test_target_search_first_occurrence_over_several_ops(algs):
    """With a unary and two binary operations, the target's derivation is
    its first occurrence over the operations in order, as in the full
    closure."""
    ops = [OpTable("id", 1, 3, [0, 1, 2]), algs["S3chain"].ops[0], algs["RPS"].ops[0]]
    alg = Algebra("IJW", 3, ops)
    gens = [(0, 1, 2), (1, 2, 0), (2, 2, 1)]
    full = generate_subuniverse(alg, 3, gens)
    for i in range(len(gens), len(full)):
        su = generate_subuniverse(alg, 3, gens, target=full.element(i))
        assert su.derivations[-1] == full.derivations[i]
        assert np.array_equal(su.rows[:-1], full.rows[: len(su) - 1])


# A 4-element idempotent binary algebra whose majority closure on (0, 1)
# has 3629 elements before the round that produces the target.
B4_TABLE = (0, 2, 1, 2, 2, 1, 3, 2, 3, 3, 2, 0, 0, 2, 3, 3)


def test_target_search_streams_only_earlier_rounds(monkeypatch):
    """A target search streams the rounds before the target's round and none
    of that round, so its work does not depend on where the labelling puts
    the target in the round's order."""
    import algraph.subpower as subpower

    streamed = [0]
    blocks = subpower._stream_blocks

    def counting(ranges, chunk):
        for arg_idx in blocks(ranges, chunk):
            if len(ranges) == 2:  # the closure's own pairs, not the target look-up
                streamed[0] += len(arg_idx[0])
            yield arg_idx

    monkeypatch.setattr(subpower, "_stream_blocks", counting)

    def run(perm, **kw):
        table = [0] * 16
        for x, y in itertools.product(range(4), repeat=2):
            table[4 * perm[x] + perm[y]] = perm[B4_TABLE[4 * x + y]]
        alg = Algebra("B4", 4, [OpTable("f", 2, 4, table)])
        a, b = perm[0], perm[1]
        gens = [(a, b, b, b, a, a), (b, a, b, a, b, a), (b, b, a, a, a, b)]
        streamed[0] = 0
        su = generate_subuniverse(alg, 6, gens, **kw)
        return su, streamed[0]

    identity = (0, 1, 2, 3)
    hit, work = run(identity, target=(1, 1, 1, 0, 0, 0))
    assert len(hit) == 3630 and hit.find((1, 1, 1, 0, 0, 0)) == 3629
    rounds = 1
    while len(run(identity, budget=ClosureBudget(max_rounds=rounds))[0]) < len(hit) - 1:
        rounds += 1
    before, before_work = run(identity, budget=ClosureBudget(max_rounds=rounds))
    assert len(before) == len(hit) - 1 and before_work == work
    for perm in ((1, 0, 2, 3), (2, 3, 0, 1), (3, 1, 2, 0)):
        su, perm_work = run(perm, target=(perm[1],) * 3 + (perm[0],) * 3)
        assert len(su) == len(hit) and perm_work == work


def test_extract_term_generator_is_variable(algs):
    su = generate_subuniverse(algs["S2"], 2, [(0, 1), (1, 0)])
    assert extract_term(su, 0) == Var(0)
    assert extract_term(su, 1) == Var(1)


def test_extract_term_reevaluates(algs):
    for name in ("S2", "RPS", "Z3A", "S3chain"):
        alg = algs[name]
        su = generate_subuniverse(alg, 2, [(0, 1), (1, 0)])
        cols = np.asarray(su.generators, dtype=np.uint8)
        for i in range(len(su)):
            term = extract_term(su, i)
            got = evaluate_term_columns(alg, term, cols)
            assert tuple(int(v) for v in got) == su.element(i)


def test_term_slice_oracles(algs):
    tables, status = term_slice(algs["M2"], 2)
    assert status == "complete"
    assert {tuple(int(v) for v in t.values) for t in tables} == brute_term_tables(algs["M2"], 2)
    assert len(tables) == 2  # projections only

    tables, _ = term_slice(algs["S2"], 2)
    assert {tuple(int(v) for v in t.values) for t in tables} == {
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        (0, 1, 1, 1),
    }

    tables, _ = term_slice(algs["A2"], 3)
    assert len(tables) == 4  # x, y, z and x+y+z
    assert {tuple(int(v) for v in t.values) for t in tables} == brute_term_tables(algs["A2"], 3)


def test_term_slice_guard(algs):
    with pytest.raises(AlgebraError, match="k in"):
        term_slice(algs["S2"], 4)


def test_determinism(algs):
    a = generate_subuniverse(algs["RPS"], 2, [(0, 1), (1, 0), (2, 2)])
    b = generate_subuniverse(algs["RPS"], 2, [(0, 1), (1, 0), (2, 2)])
    assert list(a.elements()) == list(b.elements())
    assert a.derivations == b.derivations


def test_monotone_in_generators(algs):
    alg = algs["S3chain"]
    small = generate_subuniverse(alg, 2, [(0, 1)])
    big = generate_subuniverse(alg, 2, [(0, 1), (2, 0)])
    assert small.as_set() <= big.as_set()


def test_oracle_equivalence_randomized():
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randint(2, 3)
        k = rng.randint(1, 3)
        ops = []
        for i in range(rng.randint(1, 2)):
            ar = rng.randint(1, 3)
            vals = [rng.randrange(n) for _ in range(n**ar)]
            for x in range(n):
                idx = 0
                for _ in range(ar):
                    idx = idx * n + x
                vals[idx] = x
            ops.append(OpTable(f"f{i}", ar, n, vals))
        alg = Algebra("rnd", n, ops)
        gens = [
            tuple(rng.randrange(n) for _ in range(k))
            for _ in range(rng.randint(1, 3))
        ]
        su = generate_subuniverse(alg, k, gens)
        assert su.status == "complete"
        assert su.as_set() == naive_close(alg, k, gens)


def test_budget_validation():
    with pytest.raises(AlgebraError):
        ClosureBudget(max_elements=0)
    with pytest.raises(AlgebraError):
        ClosureBudget(max_rounds=0)
