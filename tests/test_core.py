import numpy as np
import pytest

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
