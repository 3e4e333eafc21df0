import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algraph.core as core
from algraph.core import (
    Algebra,
    AlgebraError,
    App,
    OpTable,
    ParseError,
    Var,
    argument_grids,
    evaluate_term,
    parse_algebra,
    product_algebra,
    projection,
    quotient_algebra,
    serialize_algebra,
    subalgebra_induced,
    term_table,
)
from algraph.congruence import Partition
from oracles import _partitions, brute_product_tables


def test_parse_s2(algs):
    s2 = algs["S2"]
    assert s2.size == 2
    assert s2.op("join")(0, 1) == 1


def test_parse_projection_accepted():
    alg = parse_algebra("algebra P\nsize 2\nop p 2\n0 0 1 1\n")
    assert alg.op("p")(0, 1) == 0


def test_parse_rejects_non_idempotent():
    with pytest.raises(ParseError, match="not idempotent at x=1"):
        parse_algebra("algebra X\nsize 2\nop f 2\n0 1 1 0\n")


def test_parse_rejects_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_algebra("algebra X\nsize 2\nop f 2\n0 2 1 1\n")


def test_parse_error_reports_position():
    try:
        parse_algebra("algebra X\nsize 2\nop f 2\n0 zap 1 1\n")
    except ParseError as ex:
        assert ex.line == 4 and ex.col == 3
    else:
        pytest.fail("no error raised")


def test_parse_comments_and_layout():
    text = "# header\nalgebra A # name\nsize 2\nop f 2\n0\n1 1\n1\n"
    alg = parse_algebra(text)
    assert alg.op("f")(0, 1) == 1


def test_roundtrip_all_fixtures(algs):
    for alg in algs.values():
        text = serialize_algebra(alg)
        again = parse_algebra(text)
        assert serialize_algebra(again) == text
        assert again.signature() == alg.signature()
        for op, op2 in zip(alg.ops, again.ops):
            assert np.array_equal(op.values, op2.values)


def test_evaluate_op(algs):
    """Calling an OpTable looks up one entry, checking arity and range."""
    assert algs["S2"].op("join")(0, 1) == 1
    assert algs["A2"].op("mal")(1, 0, 0) == 1
    assert algs["RPS"].op("w")(0, 1) == 1
    with pytest.raises(AlgebraError, match="expected 2 arguments"):
        algs["S2"].op("join")(0, 1, 1)
    with pytest.raises(AlgebraError, match="argument 2 out of range"):
        algs["S2"].op("join")(0, 2)


def test_evaluate_term(algs):
    s2 = algs["S2"]
    t = App("join", (Var(0), App("join", (Var(0), Var(1)))))
    assert evaluate_term(s2, t, {0: 0, 1: 1}) == 1
    # idempotency: constant assignment returns the constant
    for c in range(2):
        assert evaluate_term(s2, t, {0: c, 1: c}) == c
    z3 = algs["Z3A"]
    t3 = App("mal", (Var(0), Var(1), Var(2)))
    assert evaluate_term(z3, t3, {0: 0, 1: 1, 2: 2}) == 1
    with pytest.raises(AlgebraError, match="unassigned"):
        evaluate_term(s2, t, {0: 0})
    with pytest.raises(AlgebraError, match="unknown op"):
        evaluate_term(s2, App("meet", (Var(0), Var(1))), {0: 0, 1: 1})


def test_term_table(algs):
    t = App("join", (Var(0), App("join", (Var(0), Var(1)))))
    table = term_table(algs["S2"], t, 2)
    assert list(table.values) == [0, 1, 1, 1]


def test_subalgebra_induced(algs):
    sub, carrier = subalgebra_induced(algs["S3chain"], {0, 1})
    assert carrier == [0, 1]
    assert list(sub.ops[0].values) == [0, 1, 1, 1]

    sub, carrier = subalgebra_induced(algs["RPS"], {0, 1})
    assert list(sub.ops[0].values) == [0, 1, 1, 1]  # winner acts as a join

    with pytest.raises(AlgebraError, match="not closed under mal"):
        subalgebra_induced(algs["Z3A"], {0, 1})


def test_quotient_algebra(algs):
    q, bmap = quotient_algebra(algs["S3chain"], Partition.from_blocks(3, [[0, 1], [2]]))
    assert q.size == 2 and bmap == [0, 0, 1]
    assert list(q.ops[0].values) == [0, 1, 1, 1]

    # equality partition gives an isomorphic copy
    q0, bmap0 = quotient_algebra(algs["RPS"], Partition.equality(3))
    assert bmap0 == [0, 1, 2]
    assert np.array_equal(q0.ops[0].values, algs["RPS"].ops[0].values)

    q1, _ = quotient_algebra(algs["RPS"], Partition.total(3))
    assert q1.size == 1

    with pytest.raises(AlgebraError, match="not compatible"):
        quotient_algebra(algs["S3chain"], Partition.from_blocks(3, [[0, 2], [1]]))


def test_quotient_refusal_names_a_violating_pair(algs):
    """For every partition of the 3-element fixtures that is not a
    congruence, the two tuples named land in different blocks; the others
    quotient, with the block of f(x) read at the blocks of x."""
    refused = 0
    for name in ("RPS", "Z3A", "S3chain"):
        alg = algs[name]
        for blocks in _partitions(3):
            part = Partition.from_blocks(3, blocks)
            block = list(part.block_id)
            try:
                q, bmap = quotient_algebra(alg, part)
            except AlgebraError as ex:
                refused += 1
                op_name, t0, t1 = re.search(r"with (\w+): \w+\((.*?)\) and \w+\((.*?)\)", str(ex)).groups()
                op = alg.op(op_name)
                t0, t1 = (tuple(map(int, t.split(","))) for t in (t0, t1))
                assert [block[x] for x in t0] == [block[x] for x in t1]
                assert block[op(*t0)] != block[op(*t1)]
                continue
            for op, qop in zip(alg.ops, q.ops):
                for args in itertools.product(range(3), repeat=op.arity):
                    assert qop(*(bmap[x] for x in args)) == bmap[op(*args)]
    assert refused > 0


def test_product_algebra(algs):
    s2 = algs["S2"]
    p = product_algebra([s2, s2])
    assert p.size == 4
    # (0,1) join (1,0) = (1,1): encoded 1, 2 -> 3
    assert p.ops[0](1, 2) == 3
    p3 = product_algebra([s2, s2, s2])
    assert p3.size == 8
    with pytest.raises(AlgebraError, match="empty list"):
        product_algebra([])
    with pytest.raises(AlgebraError, match="signature mismatch"):
        product_algebra([s2, algs["M2"]])


def test_projection_table():
    p = projection(3, 2, 1)
    assert all(p(x, y) == y for x in range(3) for y in range(3))


def test_algebra_rejects_non_idempotent_table():
    with pytest.raises(AlgebraError, match="not idempotent at x=0"):
        Algebra("bad", 2, [OpTable("f", 1, 2, [1, 1])])


def test_sub_and_quotient_commute_with_evaluation(algs):
    alg = algs["S3chain"]
    sub, carrier = subalgebra_induced(alg, {0, 1})
    for x in range(2):
        for y in range(2):
            assert carrier[sub.ops[0](x, y)] == alg.ops[0](carrier[x], carrier[y])
    theta = Partition.from_blocks(3, [[0, 1], [2]])
    q, bmap = quotient_algebra(alg, theta)
    for x in range(3):
        for y in range(3):
            assert q.ops[0](bmap[x], bmap[y]) == bmap[alg.ops[0](x, y)]


def test_power_tables_are_the_power_algebra(algs):
    """The operations of A^w on flat codes are those of the direct power."""
    for alg in algs.values():
        for w in range(1, 4):
            if alg.size**w > 255:
                continue
            tables, digits = alg.power_tables(w)
            power = product_algebra([alg] * w)
            for table, op in zip(tables, power.ops):
                assert np.array_equal(table, op.values)
            assert np.array_equal(digits, argument_grids(alg.size, w))
    with pytest.raises(AlgebraError, match="fit a byte"):
        algs["Z3A"].power_tables(6)


@st.composite
def idempotent_algebras(draw, size=None, arities=None):
    """A random idempotent algebra: its size, the arities of its operations
    and their off-diagonal values are drawn."""
    n = draw(st.integers(1, 4)) if size is None else size
    if arities is None:
        arities = draw(st.lists(st.integers(1, 3 if n <= 3 else 2), min_size=1, max_size=3))
    ops = []
    for i, ar in enumerate(arities):
        vals = draw(st.lists(st.integers(0, n - 1), min_size=n**ar, max_size=n**ar))
        for x in range(n):
            vals[sum(x * n**j for j in range(ar))] = x
        ops.append(OpTable(f"o{i}", ar, n, vals))
    return Algebra(draw(st.from_regex(r"[A-Za-z][\w|{},/]{0,8}", fullmatch=True)), n, ops)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(idempotent_algebras(), st.data())
def test_parse_inverts_serialize(alg, data):
    """Parsing the serialized algebra gives it back op for op, however its
    tokens are spaced, broken over lines or commented."""
    tokens = serialize_algebra(alg).split()
    gaps = st.sampled_from([" ", "\t", "\n", " \t ", "\n\n", "  # a comment\n"])
    text = "".join(tok + data.draw(gaps) for tok in tokens)
    for again in (parse_algebra(serialize_algebra(alg)), parse_algebra(text)):
        assert (again.name, again.size) == (alg.name, alg.size)
        assert [(op.name, op.arity, op.values.tolist()) for op in again.ops] == [
            (op.name, op.arity, op.values.tolist()) for op in alg.ops
        ]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_product_matches_brute_force(data):
    """The product of two or three random factors over one signature is the
    brute-force product, element i being the i-th tuple of the factors."""
    arities = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    factors = [data.draw(idempotent_algebras(n, arities)) for n in sizes]
    prod = product_algebra(factors)
    assert prod.size == int(np.prod(sizes))
    assert [op.values.tolist() for op in prod.ops] == brute_product_tables(factors)


def test_shared_subterms_are_evaluated_once(algs, monkeypatch):
    """t <- join(t, u), u <- join(u, t), 18 times from x0, x1: a term of 35
    distinct applications whose tree has about 5 * 10^7 nodes; each distinct
    application costs one look-up in an operation table."""
    t, u = Var(0), Var(1)
    for _ in range(18):
        t = App("join", (t, u))
        u = App("join", (u, t))
    distinct, stack = set(), [t]
    while stack:
        node = stack.pop()
        if isinstance(node, App) and id(node) not in distinct:
            distinct.add(id(node))
            stack.extend(node.args)
    assert len(distinct) == 35
    applications = []

    def counted(index):
        def wrapper(*args):
            applications.append(index)
            assert len(applications) <= len(distinct), "a shared subterm was evaluated twice"
            return index(*args)

        return wrapper

    monkeypatch.setattr(core, "flat_index", counted(core.flat_index))
    monkeypatch.setattr(core, "tuple_index", counted(core.tuple_index))
    for evaluate, want in (
        (lambda: term_table(algs["S2"], t, 2).values.tolist(), [0, 1, 1, 1]),
        (lambda: evaluate_term(algs["S2"], t, (0, 1)), 1),
        (lambda: evaluate_term(algs["S2"], t, {0: 1, 1: 1}), 1),
    ):
        applications.clear()
        assert evaluate() == want


def test_evaluate_term_refuses_values_outside_the_universe(algs):
    """An out-of-range value is refused by the first operation applied to
    it, after the subterms before it; a bare variable returns it."""
    s2 = algs["S2"]
    t = App("join", (Var(0), App("join", (Var(1), Var(2)))))
    with pytest.raises(AlgebraError, match="^op join: argument 5 out of range$"):
        evaluate_term(s2, t, [0, 5, 0])
    with pytest.raises(AlgebraError, match="^unassigned variable x2$"):
        evaluate_term(s2, t, {0: 0, 1: -1})
    with pytest.raises(AlgebraError, match="^op join: argument -1 out of range$"):
        evaluate_term(s2, t, {0: 0, 1: -1, 2: 0})
    with pytest.raises(AlgebraError, match="^term applies join/2 to 1 arguments$"):
        evaluate_term(s2, App("join", (Var(0),)), [0])
    assert evaluate_term(s2, Var(1), [0, 7]) == 7
