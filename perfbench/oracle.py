"""Known answers computed from the input tables by brute force, sharing no
code with algraph: closed subsets, congruences by their direct definition
(as in ``tests/oracles.brute_congruences``) and the type-1 divisor test."""

from __future__ import annotations

import itertools


def _ops(spec):
    name, size, ops = spec
    return size, [(arity, values) for _, arity, values in ops]


def _apply(values, args, size) -> int:
    idx = 0
    for x in args:
        idx = idx * size + x
    return values[idx]


def is_closed(spec, subset) -> bool:
    size, ops = _ops(spec)
    s = set(subset)
    return all(
        _apply(values, args, size) in s
        for arity, values in ops
        for args in itertools.product(sorted(s), repeat=arity)
    )


def generated(spec, gens) -> tuple[int, ...]:
    """Sg(gens) as a sorted tuple, by fixpoint iteration."""
    size, ops = _ops(spec)
    cur = set(gens)
    while True:
        new = {
            _apply(values, args, size)
            for arity, values in ops
            for args in itertools.product(sorted(cur), repeat=arity)
        } - cur
        if not new:
            return tuple(sorted(cur))
        cur |= new


def partitions(elems):
    """All partitions of the list ``elems`` as lists of blocks."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def is_congruence(spec, carrier, blocks) -> bool:
    """Blockwise-equal argument tuples over ``carrier`` have blockwise-equal
    values, for every operation."""
    size, ops = _ops(spec)
    bid = {x: min(b) for b in blocks for x in b}
    for arity, values in ops:
        seen: dict[tuple, int] = {}
        for args in itertools.product(carrier, repeat=arity):
            key = tuple(bid[x] for x in args)
            val = bid[_apply(values, args, size)]
            if seen.setdefault(key, val) != val:
                return False
    return True


def omits_type1(spec) -> bool:
    """No closed subset S with a congruence of >= 2 blocks whose quotient
    has only projection operations."""
    size, ops = _ops(spec)
    for r in range(2, size + 1):
        for carrier in itertools.combinations(range(size), r):
            if not is_closed(spec, carrier):
                continue
            for blocks in partitions(list(carrier)):
                if len(blocks) < 2 or not is_congruence(spec, carrier, blocks):
                    continue
                bid = {x: min(b) for b in blocks for x in b}
                if all(
                    any(
                        all(
                            bid[_apply(values, args, size)] == bid[args[i]]
                            for args in itertools.product(carrier, repeat=arity)
                        )
                        for i in range(arity)
                    )
                    for arity, values in ops
                ):
                    return False
    return True
