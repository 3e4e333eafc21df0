"""Generated subuniverses of finite powers A^k.

The closure runs in breadth-first rounds: each round applies every basic
operation coordinatewise to all argument tuples that touch the frontier
(elements discovered in the previous round), deduplicates the results,
sorts the genuinely new elements lexicographically and appends them.
This makes element order, derivations and extracted terms reproducible.

A search for a target tuple looks for the target among a round's products
before it streams the round, and stops at the round that produces it: the
target is appended alone, with the derivation of its first occurrence in
streaming order.  Extracted terms are the same as from the finished
closure: the derivation kept for a new element is always its first
occurrence in the round, and its parents lie in earlier rounds, whose row
indices do not depend on the current one.  The look-up costs a small part
of a round, so a search's cost does not depend on where in the round's
order, which follows the labelling of the algebra, the target lies.

Tuples are stored as rows of a uint8 matrix; argument combinations are
streamed in fixed-size chunks so memory stays bounded by the chunk size
plus the element store.

``find_term`` is the package's one witness search: membership of a target
tuple, answered by a re-verified term, None, or UNKNOWN under a cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    UNKNOWN,
    Algebra,
    AlgebraError,
    App,
    OpTable,
    TermExpr,
    Var,
    VerificationError,
    argument_grids,
    evaluate_term_columns,
    flat_index,
)

DEFAULT_MAX_ELEMENTS = 4_194_304
_CHUNK = 1 << 17

COMPLETE = "complete"
CAPPED = "capped"


@dataclass(frozen=True)
class ClosureBudget:
    """Resource cap for closure runs; exhausting it is a status, not an error.

    ``max_work`` bounds the total number of argument tuples evaluated, which
    caps runs whose element count stays modest but whose quadratic pair work
    does not.  A target search's look-up of the target in a round evaluates
    prefixes, not argument tuples, and is not counted.  All three caps are
    deterministic.
    """

    max_elements: int = DEFAULT_MAX_ELEMENTS
    max_rounds: int | None = None
    max_work: int | None = None

    def __post_init__(self):
        if self.max_elements < 1:
            raise AlgebraError("max_elements must be positive")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise AlgebraError("max_rounds must be positive")
        if self.max_work is not None and self.max_work < 1:
            raise AlgebraError("max_work must be positive")


DEFAULT_BUDGET = ClosureBudget()


class SubUniverse:
    """A generated subset of A^k with per-element derivations.

    ``derivations[i]`` is None for generators and ``(op_index, parents)``
    otherwise, where ``parents`` indexes earlier elements.  When built with
    ``derivations=False`` the list is None and term extraction is refused.
    """

    __slots__ = ("base", "power", "generators", "rows", "index", "derivations", "status")

    def __init__(self, base: Algebra, power: int, generators, rows, index, derivations, status):
        self.base = base
        self.power = power
        self.generators = generators
        self.rows = rows
        self.index = index
        self.derivations = derivations
        self.status = status

    def __len__(self) -> int:
        return self.rows.shape[0]

    def element(self, i: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.rows[i])

    def elements(self) -> Iterator[tuple[int, ...]]:
        for i in range(len(self)):
            yield self.element(i)

    def find(self, target: Sequence[int]) -> int | None:
        key = np.asarray(target, dtype=np.uint8).tobytes()
        return self.index.get(key)

    def as_set(self) -> set[tuple[int, ...]]:
        return set(self.elements())

    def is_complete(self) -> bool:
        return self.status == COMPLETE


def _stream_blocks(ranges: list[tuple[int, int]], chunk: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Stream the cartesian product of index ranges in row-major order."""
    sizes = [hi - lo for lo, hi in ranges]
    total = 1
    for s in sizes:
        total *= s
    if total == 0:
        return
    strides = []
    acc = 1
    for s in reversed(sizes):
        strides.append(acc)
        acc *= s
    strides.reverse()
    for start in range(0, total, chunk):
        t = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield tuple(
            (t // strides[j]) % sizes[j] + ranges[j][0] for j in range(len(ranges))
        )


def _first_product(
    alg: Algebra, rows: np.ndarray, frontier_lo: int, target: np.ndarray
) -> tuple[int, tuple[int, ...]] | None:
    """``(op index, argument indices)`` of the target's first occurrence in
    the streaming order of the round whose frontier starts at
    ``frontier_lo``, or None when the round does not produce the target.

    For each coordinate c and each value tuple p of all arguments but the
    last, one bit per candidate last argument says whether op(p, row[c])
    equals target[c].  An argument prefix hits where the AND over c of its
    bit rows is not zero, so the round is searched prefix by prefix, not
    tuple by tuple, and nothing is deduplicated.
    """
    count, k = rows.shape
    n = alg.size
    coords = np.arange(k)
    for op_i, op in enumerate(alg.ops):
        r = op.arity
        # ok[p, c, i]: op(p, rows[i, c]) == target[c]
        ok = op.values.reshape(-1, n)[:, rows.T] == target[:, None]
        for first_new in range(r):
            ranges = (
                [(0, frontier_lo)] * first_new
                + [(frontier_lo, count)]
                + [(0, count)] * (r - first_new - 1)
            )
            last_lo = ranges[-1][0]
            bits = np.packbits(ok[:, :, last_lo:], axis=2, bitorder="little")
            # at most _CHUNK bytes of bits per coordinate at a time
            for arg_idx in _stream_blocks(ranges[:-1], max(1, _CHUNK // bits.shape[2])):
                if arg_idx:
                    prefix = flat_index((rows[idx] for idx in arg_idx), n)
                else:  # unary operation: the empty prefix
                    prefix = np.zeros((1, k), dtype=np.int64)
                hits = np.bitwise_and.reduce(bits[prefix, coords], axis=1)
                row = hits.any(axis=1)
                if row.any():
                    q = int(np.argmax(row))
                    last = last_lo + int(np.argmax(np.unpackbits(hits[q], bitorder="little")))
                    return op_i, tuple(int(idx[q]) for idx in arg_idx) + (last,)
    return None


class _ClosureResult:
    __slots__ = ("rows", "index", "derivations", "status", "hit_row")

    def __init__(self, rows, index, derivations, status, hit_row):
        self.rows = rows
        self.index = index
        self.derivations = derivations
        self.status = status
        self.hit_row = hit_row


def _closure(
    alg: Algebra,
    k: int,
    gen_rows: np.ndarray,
    budget: ClosureBudget,
    want_derivations: bool,
    target: np.ndarray | None = None,
    row_predicate: Callable[[np.ndarray], np.ndarray] | None = None,
) -> _ClosureResult:
    """Shared closure loop.

    Stops when the closure is complete, the budget is exhausted (CAPPED),
    at the round that produces the target element (found by
    ``_first_product`` before the round is streamed, and appended alone,
    with its derivation, as the last row, if the element cap leaves room
    for it), or, with ``row_predicate``, as soon as any produced row
    satisfies the predicate (that row is returned as ``hit_row`` without
    being appended).  Early stops report CAPPED: only a naturally finished
    run may claim the set is closed.  The target's derivation and parents
    are those the finished round would have kept, so a term extracted for
    it does not depend on where the run stopped.
    """
    n = alg.size
    cap = budget.max_elements
    work_cap = budget.max_work
    work = 0
    capacity = 1024
    rows = np.empty((capacity, k), dtype=np.uint8)
    index: dict[bytes, int] = {}
    known: set[bytes] = set()
    derivs: list | None = [] if want_derivations else None
    count = 0
    void_dt = np.dtype((np.void, k))
    known_add = known.add

    def grow(need: int):
        nonlocal rows, capacity
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        bigger = np.empty((capacity, k), dtype=np.uint8)
        bigger[:count] = rows[:count]
        rows = bigger

    def append(batch: np.ndarray, batch_derivs) -> None:
        nonlocal count
        grow(count + len(batch))
        rows[count : count + len(batch)] = batch
        for j in range(len(batch)):
            index[batch[j].tobytes()] = count + j
        if derivs is not None:
            derivs.extend(batch_derivs)
        count += len(batch)

    def finish(status, hit_row=None):
        return _ClosureResult(rows[:count], index, derivs, status, hit_row)

    # seed with generators, first occurrence wins, given order kept
    uniq: list[np.ndarray] = []
    for g in gen_rows:
        key = g.tobytes()
        if key not in known:
            known_add(key)
            uniq.append(g)
    append(np.asarray(uniq, dtype=np.uint8).reshape(len(uniq), k), [None] * len(uniq))

    if row_predicate is not None:
        mask = row_predicate(rows[:count])
        if mask.any():
            j = int(np.argmax(mask))
            return finish(CAPPED, hit_row=rows[j].copy())
    if target is not None and target.tobytes() in index:
        return finish(CAPPED)

    frontier_lo = 0
    rounds = 0
    while frontier_lo < count:
        rounds += 1
        if budget.max_rounds is not None and rounds > budget.max_rounds:
            return finish(CAPPED)
        if target is not None:
            hit = _first_product(alg, rows[:count], frontier_lo, target)
            if hit is not None:
                if count < cap:
                    append(target[None, :], [hit])
                return finish(CAPPED)
        new_rows: list[np.ndarray] = []
        new_derivs: list[tuple] = []
        overflow = False
        for op_i, op in enumerate(alg.ops):
            r = op.arity
            table = op.values
            for first_new in range(r):
                ranges = (
                    [(0, frontier_lo)] * first_new
                    + [(frontier_lo, count)]
                    + [(0, count)] * (r - first_new - 1)
                )
                for arg_idx in _stream_blocks(ranges, _CHUNK):
                    work += len(arg_idx[0])
                    out = table[flat_index((rows[idx] for idx in arg_idx), n)]
                    if row_predicate is not None:
                        mask = row_predicate(out)
                        if mask.any():
                            j = int(np.argmax(mask))
                            return finish(CAPPED, hit_row=out[j].copy())
                    keys = np.ascontiguousarray(out).view(void_dt).ravel().tolist()
                    if known.issuperset(keys):
                        if work_cap is not None and work > work_cap:
                            overflow = True
                            break
                        continue
                    for j, key in enumerate(keys):
                        if key in known:
                            continue
                        if count + len(new_rows) >= cap:
                            overflow = True
                            break
                        known_add(key)
                        new_rows.append(out[j].copy())
                        if want_derivations:
                            new_derivs.append((op_i, tuple(int(idx[j]) for idx in arg_idx)))
                    if overflow or (work_cap is not None and work > work_cap):
                        overflow = True
                        break
                if overflow:
                    break
            if overflow:
                break
        if new_rows:
            batch = np.asarray(new_rows, dtype=np.uint8)
            order = np.lexsort(batch.T[::-1])
            prev = count
            append(batch[order], [new_derivs[q] for q in order] if want_derivations else ())
            frontier_lo = prev
        else:
            frontier_lo = count
        if overflow:
            return finish(CAPPED)
    return finish(COMPLETE)


def generate_subuniverse(
    alg: Algebra,
    k: int,
    gens: Sequence[Sequence[int]],
    budget: ClosureBudget = DEFAULT_BUDGET,
    derivations: bool = True,
    target: Sequence[int] | None = None,
) -> SubUniverse:
    """Least closed subset of A^k containing the generators, within budget.

    With ``target`` set, the run stops at the round that produces the
    target: the returned set is the rounds before plus the target (status
    CAPPED), membership of the target is definitive, and the term extracted
    for it is the one the full closure gives.  Status COMPLETE with a target
    means the whole closure lacks it.
    """
    if not gens:
        raise AlgebraError("generate_subuniverse: no generators")
    gen_rows = np.asarray(gens, dtype=np.int64)
    if gen_rows.ndim != 2 or gen_rows.shape[1] != k:
        raise AlgebraError(f"generators must be tuples of length {k}")
    if gen_rows.min() < 0 or gen_rows.max() >= alg.size:
        raise AlgebraError("generator entry out of range")
    if target is not None:
        if len(target) != k:
            raise AlgebraError(f"target must have length {k}")
        target = np.asarray(target, dtype=np.uint8)
    res = _closure(alg, k, gen_rows.astype(np.uint8), budget, derivations, target=target)
    gen_tuples = [tuple(int(v) for v in g) for g in gen_rows]
    return SubUniverse(alg, k, gen_tuples, res.rows, res.index, res.derivations, res.status)


def member_with_witness(su: SubUniverse, target: Sequence[int]):
    """(found, element index); found is UNKNOWN when absent from a capped set."""
    if len(target) != su.power:
        raise AlgebraError(
            f"target length {len(target)} does not match power {su.power}"
        )
    idx = su.find(target)
    if idx is not None:
        return True, idx
    if su.status == CAPPED:
        return UNKNOWN, None
    return False, None


def extract_term(su: SubUniverse, element: int) -> TermExpr:
    """Term over x0..x{m-1} (m = #generators) that evaluates to the element.

    Verified by re-evaluation over the generator columns before returning.
    """
    if su.derivations is None:
        raise AlgebraError("subuniverse was built without derivations")
    if not 0 <= element < len(su):
        raise AlgebraError(f"element index {element} out of range")
    gen_index: dict[int, int] = {}
    for pos, g in enumerate(su.generators):
        i = su.find(g)
        if i is not None and i not in gen_index:
            gen_index[i] = pos

    memo: dict[int, TermExpr] = {}

    def build(i: int) -> TermExpr:
        if i in memo:
            return memo[i]
        d = su.derivations[i]
        if d is None:
            t: TermExpr = Var(gen_index[i])
        else:
            op_i, parents = d
            t = App(su.base.ops[op_i].name, tuple(build(p) for p in parents))
        memo[i] = t
        return t

    term = build(element)
    cols = np.asarray(su.generators, dtype=np.uint8)
    got = evaluate_term_columns(su.base, term, cols)
    if not np.array_equal(got, su.rows[element]):
        raise VerificationError(
            f"extracted term {term} does not re-evaluate to element {element}"
        )
    return term


def find_term(
    alg: Algebra,
    k: int,
    gens: Sequence[Sequence[int]],
    target: Sequence[int],
    budget: ClosureBudget,
):
    """Term t over x0..x{m-1} (m = #generators) with t(gens) = target
    coordinatewise, found as membership of the target in the subpower of
    A^k generated by ``gens``.

    Three-valued: the re-verified term, None when the complete closure lacks
    the target, or UNKNOWN when a cap cut the closure short.
    """
    su = generate_subuniverse(alg, k, gens, budget=budget, target=target)
    found, idx = member_with_witness(su, target)
    if found is True:
        return extract_term(su, idx)
    return UNKNOWN if found is UNKNOWN else None


def term_slice(
    alg: Algebra, k: int, budget: ClosureBudget = DEFAULT_BUDGET
) -> tuple[list[OpTable], str]:
    """All k-ary term operations, as the subuniverse of A^(n^k) generated by
    the projection columns.  k is limited to {1, 2, 3}."""
    if k not in (1, 2, 3):
        raise AlgebraError(f"term_slice supports k in {{1,2,3}}, got {k}")
    n = alg.size
    cols = argument_grids(n, k)
    su = generate_subuniverse(
        alg,
        n**k,
        [tuple(int(v) for v in cols[j]) for j in range(k)],
        budget=budget,
        derivations=False,
    )
    tables = [OpTable(f"s{i}", k, n, su.rows[i]) for i in range(len(su))]
    return tables, su.status


def closure_search(
    alg: Algebra,
    k: int,
    gens: Sequence[Sequence[int]],
    row_predicate: Callable[[np.ndarray], np.ndarray],
    budget: ClosureBudget = DEFAULT_BUDGET,
):
    """Closure with immediate exit on the first row satisfying a predicate.

    Returns (hit_row or None, status); when hit_row is not None the answer
    is definitive regardless of status.  The predicate must map an (m, k)
    uint8 array to a boolean mask of length m.
    """
    gen_rows = np.asarray(gens, dtype=np.uint8).reshape(len(gens), k)
    res = _closure(
        alg, k, gen_rows, budget, want_derivations=False, row_predicate=row_predicate
    )
    return res.hit_row, res.status
