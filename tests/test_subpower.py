import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algraph.subpower as subpower
from algraph.core import UNKNOWN, Algebra, AlgebraError, OpTable, Var, evaluate_term, evaluate_term_columns
from algraph.subpower import (
    DEFAULT_BUDGET,
    ClosureBudget,
    closure_search,
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
    streamed = [0]
    products = subpower._products

    def counting(rk, cols, op_i, ranges, start, stop):
        streamed[0] += stop - start  # the closure's own chunks; the look-up streams none
        return products(rk, cols, op_i, ranges, start, stop)

    monkeypatch.setattr(subpower, "_products", counting)

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


def _random_algebra(data, n: int) -> Algebra:
    ops = []
    for i in range(data.draw(st.integers(1, 2))):
        ar = data.draw(st.integers(1, 3 if n <= 4 else 2))
        vals = data.draw(st.lists(st.integers(0, n - 1), min_size=n**ar, max_size=n**ar))
        for x in range(n):
            vals[sum(x * n**j for j in range(ar))] = x  # idempotent
        ops.append(OpTable(f"f{i}", ar, n, vals))
    return Algebra("rnd", n, ops)


def _closure_bytes(alg, k, gens, **kw):
    su = generate_subuniverse(alg, k, gens, **kw)
    return su, (su.rows.tobytes(), su.derivations, su.status)


def _both_backends(n, k, alg, gens, **kw):
    """The closure under the dense backend where it fits, after checking it
    byte for byte against sorted runs streamed in small chunks."""
    with mock.patch.object(subpower, "_DENSE_KEYS", n**k if n**k <= 1 << 20 else 0):
        su, got = _closure_bytes(alg, k, gens, **kw)
    with mock.patch.multiple(subpower, _DENSE_KEYS=0, _CHUNK=61):
        _, other = _closure_bytes(alg, k, gens, **kw)
    assert got == other
    return su


# largest product count, (rows of A^d)^arity, of an uncapped closure in the
# randomized test: small enough for the brute-force oracle
_ORACLE_PRODUCTS = 1 << 15


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_oracle_equivalence_randomized(data):
    """The key backends and the chunk size change no byte of a closure, and
    an uncapped one is complete and equals the brute-force fixpoint; rows
    too wide for an int64 key too.

    Every example closes generators with at most d distinct coordinates
    under no cap, so the closure has at most n^d rows, and compares it with
    the oracle's closure in A^d spread over the k coordinates; it also
    compares the backends on unrestricted generators under a cap, with or
    without a target."""
    if data.draw(st.integers(0, 2)):
        n, k = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 6))
    else:
        n, k = 3, data.draw(st.integers(40, 48))
    alg = _random_algebra(data, n)
    arity = max(op.arity for op in alg.ops)

    d = 1
    while d < k and n ** ((d + 1) * arity) <= _ORACLE_PRODUCTS:
        d += 1
    d = data.draw(st.integers(1, d))
    spread = data.draw(st.lists(st.integers(0, d - 1), min_size=k, max_size=k))
    narrow_row = st.tuples(*[st.integers(0, n - 1)] * d)
    narrow = data.draw(st.lists(narrow_row, min_size=2, max_size=3, unique=True))
    gens = [tuple(g[c] for c in spread) for g in narrow]
    su = _both_backends(n, k, alg, gens)
    assert su.status == "complete"
    assert su.as_set() == {tuple(g[c] for c in spread) for g in naive_close(alg, d, narrow)}

    row = st.tuples(*[st.integers(0, n - 1)] * k)
    gens = data.draw(st.lists(row, min_size=1, max_size=3))
    caps = [
        ClosureBudget(max_elements=400, max_work=100_000),
        ClosureBudget(max_elements=7),
        ClosureBudget(max_work=50),
    ]
    budget = data.draw(st.sampled_from(caps))
    target = data.draw(st.none() | row)
    su = _both_backends(n, k, alg, gens, budget=budget, target=target)
    if su.is_complete() and target is None and len(su) ** arity * k <= 20_000:
        assert su.as_set() == naive_close(alg, k, gens)


def test_budget_validation():
    with pytest.raises(AlgebraError):
        ClosureBudget(max_elements=0)
    with pytest.raises(AlgebraError):
        ClosureBudget(max_rounds=0)


def test_out_of_range_target_is_an_error(algs):
    z3a = algs["Z3A"]
    gens = [(0, 1), (1, 0)]
    for bad in ((0, 3), (-1, 0), (256, 0)):
        with pytest.raises(AlgebraError, match="target entry out of range"):
            generate_subuniverse(z3a, 2, gens, target=bad)
        with pytest.raises(AlgebraError, match="target entry out of range"):
            find_term(z3a, 2, gens, bad, DEFAULT_BUDGET)


def test_find_is_none_outside_the_power(algs):
    """A row's key is its flat index, so (0, 3) would alias (1, 0): find must
    refuse every tuple outside A^k before it codes it."""
    su = generate_subuniverse(algs["Z3A"], 2, [(0, 1), (1, 0)])
    assert su.find((1, 0)) == 1
    for outside in ((0, 3), (-1, 0), (256, 0), (1,), (1, 0, 0)):
        assert su.find(outside) is None
    wide = generate_subuniverse(algs["Z3A"], 45, [(0, 1, 2) * 15])
    assert wide.find((0, 1, 2) * 15) == 0 and wide.find((0, 1, 3) * 15) is None


def _battery_patterns(a, b):
    return (
        ([(a, b), (b, a)], (b, b)),
        ([(a, b, b), (b, a, b), (b, b, a)], (b, b, b)),
        ([(a, b, b, b, a, a), (b, a, b, a, b, a), (b, b, a, a, a, b)], (b, b, b, a, a, a)),
    )


_BATTERY_CAPS = (
    ClosureBudget(),
    ClosureBudget(max_elements=5),
    ClosureBudget(max_elements=200),
    ClosureBudget(max_work=30),
    ClosureBudget(max_work=150_000),
    ClosureBudget(max_rounds=1),
    ClosureBudget(max_rounds=3),
)


def _battery(algs):
    """Every fixture and B4, on two pairs, with the 2-, 3- and 6-coordinate
    generator patterns of the witness searches, under each cap."""
    for alg in [*algs.values(), Algebra("B4", 4, [OpTable("f", 2, 4, B4_TABLE)])]:
        pairs = [(0, 1)] if alg.size == 2 else [(0, 1), (alg.size - 1, 0)]
        for (a, b), budget in itertools.product(pairs, _BATTERY_CAPS):
            for gens, target in _battery_patterns(a, b):
                yield alg, gens, target, budget


def _battery_digests(algs):
    closures, searches = hashlib.sha256(), hashlib.sha256()
    for alg, gens, target, budget in _battery(algs):
        k = len(gens[0])
        for t in (None, target):
            su = generate_subuniverse(alg, k, gens, budget=budget, target=t)
            closures.update(repr((alg.name, gens, budget, t, su.status, su.derivations)).encode())
            closures.update(np.ascontiguousarray(su.rows).tobytes())
        tgt = np.array(target, dtype=np.uint8)
        for pred in (
            lambda rows: (rows == tgt).all(axis=1),
            lambda rows: (rows == rows[:, :1]).all(axis=1) & (rows[:, 0] == tgt[0]),
        ):
            hit, status = closure_search(alg, k, gens, pred, budget)
            hit = None if hit is None else hit.tolist()
            searches.update(repr((alg.name, gens, budget, hit, status)).encode())
    return closures.hexdigest(), searches.hexdigest()


# Taken from the engine that keyed rows by bytes in a Python set, before the
# integer-coded closure.
_BATTERY_PIN = (
    "4240194a3cb8f8f4bf9e0164440c86e036530623467a09a52fa92e0fa7d64e70",
    "c2e93e8d6b273e37733c767345c91e351195fa7d97420115cd8a39cc3639c09d",
)


@pytest.mark.parametrize(
    "setting",
    [
        {},
        {"_SCAN_ROUND": 0},  # look every target up
        {"_SCAN_ROUND": 1 << 62},  # scan every round
        {"_DENSE_KEYS": 0},  # sorted runs for every key
        {"_CHUNK": 1 << 11},  # 64 chunks to a max_work unit
        {"_CHUNK": 3001},  # chunks that do not divide a max_work unit
        {"_SHORT_KEYS": 0},  # every int key by Horner's rule
        {"_SHORT_KEYS": 1 << 62},  # every int key by one matrix product
    ],
    ids=[
        "default", "lookup", "scan", "runs",
        "small-chunks", "odd-chunks", "horner-keys", "product-keys",
    ],
)
def test_closure_battery_pinned(algs, monkeypatch, setting):
    """Rows, derivations and status of a fixed battery of closures and
    closure searches, with and without a target and under every cap, hash
    to the pin, whichever key backend, chunk size or target rule runs."""
    for name, value in setting.items():
        monkeypatch.setattr(subpower, name, value)
    assert _battery_digests(algs) == _BATTERY_PIN


# An idempotent binary algebra on {0,1,2}: the first round of
# Sg((0,1,2), (1,2,0)) produces (2,1,2) from arguments (0, 1), then (2,2,1)
# from (1, 0); (1,1,2) first appears in the second round.
R3_TABLE = (0, 2, 1, 2, 1, 1, 2, 2, 2)


def test_scanned_round_answers_as_lookup(monkeypatch):
    """A target search finds the target in its round even when a cap would
    cut that round before it, and answers UNKNOWN when a cap cut an earlier
    round, whether the round is scanned or looked up."""
    monkeypatch.setattr(subpower, "_WORK_UNIT", 2)  # max_work checked every 2 tuples
    monkeypatch.setattr(subpower, "_CHUNK", 1)
    alg = Algebra("R3", 3, [OpTable("f", 2, 3, R3_TABLE)])
    gens = [(0, 1, 2), (1, 2, 0)]
    tight = (ClosureBudget(max_elements=3), ClosureBudget(max_work=1))
    for budget in tight:
        assert generate_subuniverse(alg, 3, gens, budget=budget).find((2, 2, 1)) is None
    for scan_round in (0, 1 << 62):
        monkeypatch.setattr(subpower, "_SCAN_ROUND", scan_round)
        for budget in tight:
            su = generate_subuniverse(alg, 3, gens, budget=budget, target=(2, 2, 1))
            assert member_with_witness(su, (2, 2, 1)) == (True, 2)
            assert su.derivations[-1] == (0, (1, 0))
            assert find_term(alg, 3, gens, (1, 1, 2), budget) is UNKNOWN
