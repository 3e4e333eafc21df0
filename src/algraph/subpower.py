"""Generated subuniverses of finite powers A^k.

The closure runs in breadth-first rounds: each round applies every basic
operation coordinatewise to all argument tuples that touch the frontier
(elements discovered in the previous round), deduplicates the results,
sorts the genuinely new elements lexicographically and appends them.
This makes element order, derivations and extracted terms reproducible.

Rows are integer-coded.  The k coordinates are cut into blocks of at most
w consecutive coordinates, and a block is coded by its flat index, the
first coordinate most significant.  An operation of arity r acts on block
codes through one table of n^(w*r) entries, the operation of the power A^w,
so a product costs one table look-up per block instead of one per
coordinate.  A row's key is its flat index, an int64, while n^k < 2^63, and
otherwise the byte string of its block codes; both order rows
lexicographically.  Keys are held in one of two backends, chosen by n^k: a
dense array of row positions over all n^k keys when n^k <= ``_DENSE_KEYS``,
and otherwise sorted runs of keys, searched with ``searchsorted`` and
merged when they pile up.

The argument tuples of a round are streamed, in row-major order, in chunks
of at most ``_CHUNK`` tuples of each (operation, first frontier argument)
block, cut inside its ``max_work`` units.  2^13 to 2^15 tuples were fastest on 4-element A^6 closures, and 2^17 about
20 % slower: a chunk's int64 temporaries then outgrow the cache.  A chunk
is deduplicated at once: the backend drops the keys already stored or new
in the round and keeps the first occurrence of each remaining one
(``np.minimum.at`` on the dense array, ``np.unique`` on sorted runs), so
the derivation kept for a new row is its first occurrence in streaming
order.  The budget is checked at fixed points that do not depend on the
chunk size (see ``ClosureBudget``), so no answer does.

A search for a target tuple stops at the round that produces it: the target
is appended alone, with the derivation of its first occurrence in streaming
order.  Extracted terms are the same as from the finished closure: the
derivation kept for a new element is always its first occurrence in the
round, and its parents lie in earlier rounds, whose row indices do not
depend on the current one.  A round of fewer than ``_SCAN_ROUND`` argument
tuples is scanned: the target test is folded into each chunk's
deduplication (the target is not stored, so its first occurrence in a chunk
is that of a new key), and after a cap stops the round its remaining chunks
are still tested.  A larger round is first searched by ``_first_product``,
which costs a small part of the round, so the cost of a search does not
depend on where in the round's order, which follows the labelling of the
algebra, the target lies.  The look-up is wasted on every round that lacks
the target, since that round is streamed anyway, and pays only on the
target's round; the bound is where the two balance on the target searches
of the benchmark's workloads, whose total time is flat for bounds from
2^12 to 2^16 and grows above them.  So a search's dependence on the
labelling is at most one round of fewer than 2^14 tuples.  Both rules are
exact and agree: each finds the target's first occurrence in the round's
streaming order, ignores the caps within that round, and drops the round's
other new rows, so they give the same rows, derivations and status.

``find_term`` is the package's one witness search: membership of a target
tuple, answered by a re-verified term, None, or UNKNOWN under a cap.
"""

from __future__ import annotations

import math
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
_CHUNK = 1 << 14  # argument tuples per streamed chunk
_WORK_UNIT = 1 << 17  # max_work is checked at the end of each unit of a block
_DENSE_KEYS = 1 << 16  # largest n^k held in a dense position array
_TABLE_ENTRIES = 1 << 16  # largest block-coded operation table
_SCAN_ROUND = 1 << 14  # rounds with fewer argument tuples are scanned for a target
_SLAB = 1 << 17  # bytes of bit rows per coordinate in one step of a target look-up
_SHORT_KEYS = 512  # chunks keyed by one matrix product below this length

COMPLETE = "complete"
CAPPED = "capped"


@dataclass(frozen=True)
class ClosureBudget:
    """Resource cap for closure runs; exhausting it is a status, not an error.

    ``max_work`` bounds the total number of argument tuples evaluated, which
    caps runs whose element count stays modest but whose quadratic pair work
    does not.  It is checked at the end of each unit of ``_WORK_UNIT``
    argument tuples of an (operation, first frontier argument) block, and at
    the block's end, so a run stops at the end of the unit in which its work
    passes the cap, with that unit's new rows kept.  A unit is streamed in
    chunks of at most ``_CHUNK`` tuples that stop at its end; the check
    points, and so every capped answer, do not depend on the chunk size.
    ``max_elements`` stops a run at the first new row, in streaming order,
    that finds no room.  A target search's look-up of the target in a round
    evaluates prefixes, not argument tuples, and is not counted; neither is
    a scanned round's test for the target after a cap stopped it.  All three
    caps are deterministic.
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
    ``index`` holds the rows' keys: ``find`` codes a tuple and looks its key
    up, and answers None for any tuple outside A^k.
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
        if len(target) != self.power or not all(0 <= v < self.base.size for v in target):
            return None
        return self.index.find(target)

    def as_set(self) -> set[tuple[int, ...]]:
        return set(self.elements())

    def is_complete(self) -> bool:
        return self.status == COMPLETE


class _RowKeys:
    """Block codes and keys of the rows of A^k, and the positions of the
    stored rows by key.

    The blocks have width w or w - 1, the wider first, where w is the
    largest width whose codes fit a byte and whose operation tables have at
    most ``_TABLE_ENTRIES`` entries, and no more than A^k has rows, for
    every operation: a closure too small to repay a table builds none (a
    width-1 table is the operation's own).  The blocks of one width form a
    group, coded together: ``(blocks, width, coordinates, n**width, tables,
    digits)``, where ``tables`` and ``digits`` are
    ``Algebra.power_tables(width)``.  Keys are int64 flat indices when
    ``int_keys``, else byte strings.  An int key is the weighted sum of its
    block codes: one matrix product for chunks under ``_SHORT_KEYS`` rows,
    where numpy's per-call cost dominates, and Horner's rule for longer
    ones, where the product's int64 conversion costs more.  Subclasses hold
    the positions.
    """

    def __init__(self, alg: Algebra, k: int):
        n = alg.size
        r = max(op.arity for op in alg.ops)
        w = 1
        entries = min(_TABLE_ENTRIES, n**k)
        while w < k and n ** (w + 1) <= 256 and n ** ((w + 1) * r) <= entries:
            w += 1
        nb = -(-k // w)
        w = -(-k // nb)
        wide = k - nb * (w - 1)
        self.n, self.k, self.nb = n, k, nb
        self.groups = [
            (blocks, v, coords, n**v, *alg.power_tables(v))
            for blocks, v, coords in (
                (slice(0, wide), w, slice(0, wide * w)),
                (slice(wide, nb), w - 1, slice(wide * w, k)),
            )
            if blocks.start < blocks.stop
        ]
        self.int_keys = n**k < 2**63
        self.void = np.dtype((np.void, nb))
        # the number of codes of each block, and the weights of an int key
        self.sizes = [size for g, _, _, size, *_ in self.groups for _ in range(g.start, g.stop)]
        self.weights = np.array(
            [math.prod(self.sizes[j + 1 :]) for j in range(nb)] if self.int_keys else [], np.int64
        )

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """(nb, m) uint8 block codes of an (m, k) array of rows."""
        m = len(rows)
        out = np.empty((self.nb, m), dtype=np.uint8)
        for blocks, v, coords, *_ in self.groups:
            if v == 1:
                out[blocks] = rows[:, coords].T
                continue
            weights = self.n ** np.arange(v - 1, -1, -1, dtype=np.int64)
            out[blocks] = (rows[:, coords].reshape(m, -1, v) @ weights).T
        return out

    def digits(self, blocks: np.ndarray) -> np.ndarray:
        """(m, k) uint8 rows, a transposed view, of (nb, m) block codes."""
        m = blocks.shape[1]
        out = np.empty((self.k, m), dtype=np.uint8)
        for group, v, coords, _, _, digits in self.groups:
            codes = blocks[group]
            if v == 1:  # a width-1 code is its digit
                out[coords] = codes
                continue
            for i in range(v):  # digit i of every block of the group
                out[coords.start + i : coords.stop : v] = digits[i][codes]
        return out.T

    def keys(self, blocks: np.ndarray) -> np.ndarray:
        """Keys of (nb, m) block codes."""
        if not self.int_keys:
            return np.ascontiguousarray(blocks.T).view(self.void).ravel()
        if blocks.shape[1] < _SHORT_KEYS:
            return self.weights @ blocks
        keys = blocks[0].astype(np.int64)
        for code, size in zip(blocks[1:], self.sizes[1:]):  # Horner's rule
            keys *= size
            keys += code
        return keys

    def key(self, row: Sequence[int]):
        """The key of one row of A^k."""
        if not self.int_keys:
            return self.keys(self.encode(np.asarray([row], dtype=np.int64)))[0]
        key = 0
        for v in row:
            key = key * self.n + int(v)
        return key

    def find(self, row: Sequence[int]) -> int | None:
        """Position of a stored row of A^k, or None."""
        return self.lookup(self.key(row))


class _DenseKeys(_RowKeys):
    """Positions in an array over all n^k keys: -1 absent, -2 new this round."""

    def __init__(self, alg: Algebra, k: int):
        super().__init__(alg, k)
        self.pos = np.full(alg.size**k, -1, dtype=np.int64)

    def first_new(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The keys neither stored nor new, each once, and the index of its
        first occurrence, in the order of those indices."""
        at = (self.pos[keys] == -1).nonzero()[0]
        if at.size > 1:
            # the positions of absent keys serve as scratch: the least index
            # of each key, found without sorting (4-5x faster than np.unique
            # on 5000-16384 keys)
            new = keys[at]
            self.pos[new] = len(keys)  # above every index
            np.minimum.at(self.pos, new, at)
            at = at[self.pos[new] == at]
            self.pos[new] = -1
        return keys[at], at

    def hold(self, keys: np.ndarray) -> None:
        self.pos[keys] = -2

    def commit(self, keys: np.ndarray, positions: np.ndarray) -> None:
        self.pos[keys] = positions

    def lookup(self, key) -> int | None:
        p = int(self.pos[key])
        return p if p >= 0 else None


def _push(runs: list, keys: np.ndarray, positions: np.ndarray | None) -> None:
    """Append a sorted run, then merge the last two runs while the older is
    at most twice as long, so a closure of N rows keeps O(log N) runs."""
    runs.append((keys, positions))
    while len(runs) > 1 and len(runs[-2][0]) <= 2 * len(runs[-1][0]):
        (k1, p1), (k2, p2) = runs.pop(-2), runs.pop()
        merged = np.concatenate([k1, k2])
        order = np.argsort(merged, kind="stable")
        runs.append((merged[order], None if p1 is None else np.concatenate([p1, p2])[order]))


class _RunKeys(_RowKeys):
    """Sorted runs of the stored rows' keys with their positions, and sorted
    runs of the keys new in the current round."""

    def __init__(self, alg: Algebra, k: int):
        super().__init__(alg, k)
        self.runs: list = []
        self.held: list = []

    def first_new(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The keys neither stored nor new, each once, and the index of its
        first occurrence, in the order of those indices."""
        # the runs go from the oldest and longest to the newest, so most
        # keys of a chunk are found, and dropped, in the first runs
        at = np.arange(len(keys))
        for run, _ in self.runs + self.held:
            if not at.size:
                break
            probe = keys[at]
            i = np.minimum(np.searchsorted(run, probe), len(run) - 1)
            at = at[run[i] != probe]
        if at.size > 1:
            at = np.sort(at[np.unique(keys[at], return_index=True)[1]])
        return keys[at], at

    def hold(self, keys: np.ndarray) -> None:
        _push(self.held, np.sort(keys), None)

    def commit(self, keys: np.ndarray, positions: np.ndarray) -> None:
        order = np.argsort(keys, kind="stable")
        self.held = []
        _push(self.runs, keys[order], positions[order])

    def lookup(self, key) -> int | None:
        for run, pos in self.runs:
            i = int(np.searchsorted(run, key))
            if i < len(run) and run[i] == key:
                return int(pos[i])
        return None


def _unravel(ranges: list[tuple[int, int]], t: np.ndarray) -> list[np.ndarray]:
    """Argument indices of the tuples numbered ``t``, in row-major order, of
    the cartesian product of index ranges."""
    idx = []
    for lo, hi in reversed(ranges[1:]):
        t, i = np.divmod(t, hi - lo)
        idx.append(i + lo)
    if ranges:
        idx.append(t + ranges[0][0])  # t < the first range's size: no division
    return idx[::-1]


def _round_chunks(alg: Algebra, count: int, frontier_lo: int):
    """(op index, argument ranges, start, stop, unit end) of each streamed
    chunk of the round whose frontier is rows frontier_lo..count-1, in
    streaming order.  Each work unit of a block is cut into chunks of at
    most ``_CHUNK`` tuples, so no chunk crosses a unit's end; the last chunk
    of a unit has unit end set."""
    for op_i, op in enumerate(alg.ops):
        r = op.arity
        for first_new in range(r):
            ranges = (
                [(0, frontier_lo)] * first_new
                + [(frontier_lo, count)]
                + [(0, count)] * (r - first_new - 1)
            )
            total = (count - frontier_lo) * frontier_lo**first_new * count ** (r - first_new - 1)
            for unit in range(0, total, _WORK_UNIT):
                end = min(unit + _WORK_UNIT, total)
                for start in range(unit, end, _CHUNK):
                    stop = min(start + _CHUNK, end)
                    yield op_i, ranges, start, stop, stop == end


def _products(
    rk: _RowKeys, cols: np.ndarray, op_i: int, ranges: list[tuple[int, int]], start: int, stop: int
) -> np.ndarray:
    """Block codes, (nb, stop - start) uint8, of the products of argument
    tuples start..stop-1, in row-major order, of the index ranges; ``cols[j]``
    holds block j's code of every stored row.

    The argument prefixes of the chunk are broadcast against the whole last
    range, and the chunk is cut from that slab; the last range is the
    frontier or all rows, so at most two partial rows of the slab are
    computed and not kept.
    """
    lo, hi = ranges[-1]
    m = stop - start
    prefix = len(ranges) > 1
    if prefix:
        width = hi - lo
        first = start // width
        args = _unravel(ranges[:-1], np.arange(first, (stop - 1) // width + 1))
        skip = start - first * width
    # blocks are evaluated together while their slabs stay within one chunk:
    # many narrow slabs of wide rows cost one numpy call, not one per block
    per = max(1, _CHUNK // (len(args[0]) * width if prefix else m))
    out = []
    for blocks, _, _, size, tables, _ in rk.groups:
        for j in range(blocks.start, blocks.stop, per):
            part = cols[j : min(j + per, blocks.stop)]
            if prefix:
                pre = part[:, args[0]].astype(np.intp)
                for a in args[1:]:
                    pre = pre * size + part[:, a]
                idx = (pre[:, :, None] * size + part[:, None, lo:hi]).reshape(len(part), -1)
                idx = idx[:, skip : skip + m]
            else:
                idx = part[:, lo + start : lo + stop]
            out.append(tables[op_i][idx])
    return out[0] if len(out) == 1 else np.concatenate(out)


def _derivations(op_i: int, ranges: list[tuple[int, int]], at: np.ndarray) -> list[tuple]:
    """Derivations ``(op_i, argument indices)`` of the argument tuples numbered
    ``at`` in the streaming order of the ranges."""
    args = _unravel(ranges, at)
    return [(op_i, t) for t in zip(*(a.tolist() for a in args))]


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
            total = math.prod(hi - lo for lo, hi in ranges[:-1])
            # at most _SLAB bytes of bits per coordinate at a time
            per = max(1, _SLAB // bits.shape[2])
            for start in range(0, total, per):
                arg_idx = _unravel(ranges[:-1], np.arange(start, min(start + per, total)))
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
    at the round that produces the target element (appended alone, with its
    derivation, as the last row, if the element cap leaves room for it), or,
    with ``row_predicate``, as soon as any produced row of a chunk satisfies
    the predicate (that row is returned as ``hit_row`` without being
    appended).  Early stops report CAPPED: only a naturally finished run may
    claim the set is closed.  The target's derivation and parents are those
    the finished round would have kept, so a term extracted for it does not
    depend on where the run stopped.

    A target search scans a round of fewer than ``_SCAN_ROUND`` argument
    tuples and looks a larger one up with ``_first_product`` first; either
    way the target's round is decided before any cap in it applies (see
    the module docstring).  The predicate sees every chunk before its
    deduplication, up to the end of the ``max_work`` unit in which a cap
    stops the run, so where it hits does not depend on the chunk size.
    """
    n = alg.size
    rk = _DenseKeys(alg, k) if n**k <= _DENSE_KEYS else _RunKeys(alg, k)
    nb = rk.nb
    cap = budget.max_elements
    work_cap = budget.max_work
    work = 0
    capacity = 1024
    rows = np.empty((capacity, k), dtype=np.uint8)
    cols = np.empty((nb, capacity), dtype=np.uint8)
    derivs: list | None = [] if want_derivations else None
    count = 0

    def append(batch: np.ndarray, blocks: np.ndarray, keys: np.ndarray, batch_derivs) -> None:
        nonlocal rows, cols, capacity, count
        m = blocks.shape[1]
        if count + m > capacity:
            while capacity < count + m:
                capacity *= 2
            rows = np.concatenate([rows[:count], np.empty((capacity - count, k), np.uint8)])
            cols = np.concatenate([cols[:, :count], np.empty((nb, capacity - count), np.uint8)], 1)
        rows[count : count + m] = batch
        cols[:, count : count + m] = blocks
        rk.commit(keys, np.arange(count, count + m))
        if derivs is not None:
            derivs.extend(batch_derivs)
        count += m

    def append_target(hit: list) -> None:
        blocks = rk.encode(target[None, :])
        append(target[None, :], blocks, rk.keys(blocks), hit)

    def finish(status, hit_row=None):
        return _ClosureResult(rows[:count], rk, derivs, status, hit_row)

    # seed with generators, first occurrence wins, given order kept
    gen_blocks = rk.encode(gen_rows)
    gen_keys = rk.keys(gen_blocks)
    seen: dict = {}
    for i, key in enumerate(gen_keys.tolist()):
        seen.setdefault(key, i)
    first = list(seen.values())
    if len(first) < len(gen_rows):
        gen_rows, gen_blocks, gen_keys = gen_rows[first], gen_blocks[:, first], gen_keys[first]
    append(gen_rows, gen_blocks, gen_keys, [None] * len(first))

    if row_predicate is not None:
        mask = row_predicate(rows[:count])
        if mask.any():
            j = int(np.argmax(mask))
            return finish(CAPPED, hit_row=rows[j].copy())
    if target is not None:
        target_key = rk.key(target)
        if rk.lookup(target_key) is not None:
            return finish(CAPPED)

    frontier_lo = 0
    rounds = 0
    while frontier_lo < count:
        rounds += 1
        if budget.max_rounds is not None and rounds > budget.max_rounds:
            return finish(CAPPED)
        scan = target is not None and (
            sum(count**op.arity - frontier_lo**op.arity for op in alg.ops) < _SCAN_ROUND
        )
        if target is not None and not scan:
            hit = _first_product(alg, rows[:count], frontier_lo, target)
            if hit is not None:
                if count < cap:
                    append_target([hit])
                return finish(CAPPED)
        room = max(cap - count, 0)
        found: list[tuple] = []  # (keys, block codes, derivations) of new rows, by chunk
        stopped = False
        for op_i, ranges, start, stop, unit_end in _round_chunks(alg, count, frontier_lo):
            blocks = _products(rk, cols, op_i, ranges, start, stop)
            if row_predicate is not None:
                mask = row_predicate(rk.digits(blocks))
                if mask.any():
                    j = int(np.argmax(mask))
                    return finish(CAPPED, hit_row=rk.digits(blocks[:, j : j + 1])[0])
            if stopped and not scan:
                # the predicate sees the rest of the work unit in which a cap stopped the run
                if unit_end:
                    break
                continue
            new, at = rk.first_new(rk.keys(blocks))
            if scan and len(new):  # the target is new: its first occurrence is known
                hit = (new == target_key).nonzero()[0]
                if hit.size:
                    if count < cap:
                        append_target(_derivations(op_i, ranges, start + at[hit[:1]]))
                    return finish(CAPPED)
            if stopped:
                continue  # a scanned round that a cap stopped: the target test only
            work += stop - start
            if len(new) > room:
                new, at = new[:room], at[:room]
                stopped = True
            if len(new):
                room -= len(new)
                rk.hold(new)
                new_derivs = _derivations(op_i, ranges, start + at) if derivs is not None else ()
                found.append((new, blocks[:, at], new_derivs))
            if unit_end and work_cap is not None and work > work_cap:
                stopped = True
            if stopped and not scan and (unit_end or row_predicate is None):
                break
        if found:
            keys = np.concatenate([f[0] for f in found])
            order = np.argsort(keys)
            keys = keys[order]
            blocks = np.concatenate([f[1] for f in found], axis=1)[:, order]
            new_derivs = [d for f in found for d in f[2]]
            if derivs is not None:
                new_derivs = [new_derivs[q] for q in order.tolist()]
            prev = count
            append(rk.digits(blocks), blocks, keys, new_derivs)
            frontier_lo = prev
        else:
            frontier_lo = count
        if stopped:
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
    if k < 1:
        raise AlgebraError("generate_subuniverse: power must be positive")
    if not gens:
        raise AlgebraError("generate_subuniverse: no generators")
    gen_rows = np.asarray(gens, dtype=np.int64)
    if gen_rows.ndim != 2 or gen_rows.shape[1] != k:
        raise AlgebraError(f"generators must be tuples of length {k}")
    if gen_rows.min() < 0 or gen_rows.max() >= alg.size:
        raise AlgebraError("generator entry out of range")
    if target is not None:
        target = np.asarray(target, dtype=np.int64)
        if target.shape != (k,):
            raise AlgebraError(f"target must have length {k}")
        if target.min() < 0 or target.max() >= alg.size:
            raise AlgebraError("target entry out of range")
        target = target.astype(np.uint8)
    res = _closure(alg, k, gen_rows.astype(np.uint8), budget, derivations, target=target)
    gen_tuples = [tuple(g) for g in gen_rows.tolist()]
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
    first: dict[tuple[int, ...], int] = {}
    for pos, g in enumerate(su.generators):
        first.setdefault(g, pos)
    # the closure stores the distinct generators first, in order of first occurrence
    gen_index = dict(enumerate(first.values()))

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
