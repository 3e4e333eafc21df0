"""Congruences and tolerances of finite idempotent algebras.

Partitions are stored as a block-id vector normalized so that each block
is labelled by its least member.  Congruences are read off one
translation table per algebra: every unary translation f(c1,..,x,..,ck)
of every basic operation, one row each.  A partition is a congruence
exactly when every translation maps blocks into blocks, so only n^2 pairs
per translation need examining instead of all tuple pairs.

The congruence lattice is the set of joins of the principal congruences
Cg(a, b), all closed over the one table.  No join is re-checked: Con A is
a sublattice of the equivalence lattice (Burris and Sankappanavar, A
Course in Universal Algebra, section I.5), so the join of two congruences
as equivalence relations is again a congruence.

The tolerance layer reads a binary relation R ⊆ A² as one n x n boolean
matrix (``SubUniverse.matrix``).  The link tolerance of R in its first
coordinate, u ~ v when (u, w) and (v, w) are in R for some w, is the
relational product R·R⁻¹, one boolean matrix product; in the second
coordinate it is R⁻¹·R.  A pair relation R = Sg{(a, b), (b, a)} is its own
converse, since swapping the coordinates is an automorphism of A² that
fixes the generators, so both coordinates give the same tolerance and
only the first is computed.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import Algebra, AlgebraError, VerificationError, argument_grids, flat_index
from .subpower import SubUniverse, generate_subuniverse


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if rx > ry:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True

    def block_id(self) -> tuple[int, ...]:
        # ``union`` roots each class at its least member
        return tuple(self.find(x) for x in range(len(self.parent)))


class Partition:
    """An equivalence relation as a normalized block-id vector."""

    __slots__ = ("size", "block_id")

    def __init__(self, block_id: Sequence[int]):
        n = len(block_id)
        if n == 0:
            raise AlgebraError("empty partition")
        norm = [0] * n
        least: dict[int, int] = {}
        for x in range(n):
            b = block_id[x]
            if not 0 <= b < n:
                raise AlgebraError(f"block id {b} out of range")
            least.setdefault(b, x)
        for x in range(n):
            norm[x] = least[block_id[x]]
        for x in range(n):
            if norm[norm[x]] != norm[x]:
                raise AlgebraError("block ids are not a well-defined labelling")
        self.size = n
        self.block_id = tuple(norm)

    @staticmethod
    def equality(n: int) -> "Partition":
        return Partition(tuple(range(n)))

    @staticmethod
    def total(n: int) -> "Partition":
        return Partition((0,) * n)

    @staticmethod
    def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        bid = [-1] * n
        for block in blocks:
            block = list(block)
            m = min(block)
            for x in block:
                if bid[x] != -1:
                    raise AlgebraError(f"element {x} in two blocks")
                bid[x] = m
        if any(b == -1 for b in bid):
            missing = [x for x in range(n) if bid[x] == -1]
            raise AlgebraError(f"elements {missing} not covered by blocks")
        return Partition(bid)

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> "Partition":
        uf = _UnionFind(n)
        for a, b in pairs:
            uf.union(a, b)
        return Partition(uf.block_id())

    def same(self, x: int, y: int) -> bool:
        return self.block_id[x] == self.block_id[y]

    def block_of(self, x: int) -> list[int]:
        b = self.block_id[x]
        return [y for y in range(self.size) if self.block_id[y] == b]

    def blocks(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for x in range(self.size):
            out.setdefault(self.block_id[x], []).append(x)
        return [out[k] for k in sorted(out)]

    def num_blocks(self) -> int:
        return len(set(self.block_id))

    def is_equality(self) -> bool:
        return all(self.block_id[x] == x for x in range(self.size))

    def is_total(self) -> bool:
        return self.num_blocks() == 1

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        if self.size != other.size:
            raise AlgebraError("partition size mismatch")
        return all(
            other.block_id[x] == other.block_id[self.block_id[x]]
            for x in range(self.size)
        )

    def join(self, other: "Partition") -> "Partition":
        """Least equivalence containing both (transitive closure of the union)."""
        if self.size != other.size:
            raise AlgebraError("partition size mismatch")
        uf = _UnionFind(self.size)
        for x in range(self.size):
            uf.union(x, self.block_id[x])
            uf.union(x, other.block_id[x])
        return Partition(uf.block_id())

    def meet(self, other: "Partition") -> "Partition":
        if self.size != other.size:
            raise AlgebraError("partition size mismatch")
        seen: dict[tuple[int, int], int] = {}
        bid = [0] * self.size
        for x in range(self.size):
            key = (self.block_id[x], other.block_id[x])
            bid[x] = seen.setdefault(key, x)
        return Partition(bid)

    def sort_key(self) -> tuple:
        return (-self.num_blocks(), self.block_id)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.block_id == other.block_id

    def __hash__(self):
        return hash(self.block_id)

    def __repr__(self):
        return f"Partition({self.to_str()})"

    def to_str(self) -> str:
        return "[" + ",".join("[" + ",".join(map(str, b)) + "]" for b in self.blocks()) + "]"


def _translations(alg: Algebra) -> np.ndarray:
    """The translation table: every distinct unary translation of every
    basic operation, one per row.

    Shape (R, n); row r is x -> f(c1, .., x, .., ck) for one operation f,
    one argument position and one assignment c of the other arguments.
    Many operations share translations (a reduct's hundreds of operations
    have at most n^n distinct ones), so each is kept once.
    """
    rows = np.concatenate(
        [
            np.moveaxis(op.table(), pos, -1).reshape(-1, alg.size)
            for op in alg.ops
            for pos in range(op.arity)
        ]
    )
    return np.array(list(set(map(tuple, rows.tolist()))))


def _generate(columns: list[list[int]], pairs: Iterable[tuple[int, int]]) -> Partition:
    """Least congruence containing the pairs; ``columns[x]`` is column x of
    the translation table.  Each newly identified pair (x, y) identifies
    t(x) with t(y) for every translation t, until nothing changes."""
    uf = _UnionFind(len(columns))
    work = [(a, b) for a, b in pairs if uf.union(a, b)]
    while work:
        x, y = work.pop()
        work.extend((u, v) for u, v in zip(columns[x], columns[y]) if uf.union(u, v))
    return Partition(uf.block_id())


def _principals(alg: Algebra) -> Iterator[Partition]:
    """Cg(a, b) for every a < b, all closed over one translation table."""
    columns = _translations(alg).T.tolist()
    n = alg.size
    return (_generate(columns, [(a, b)]) for a in range(n) for b in range(a + 1, n))


def is_congruence(alg: Algebra, p: Partition) -> bool:
    """Does every translation map blocks into blocks?"""
    if p.size != alg.size:
        raise AlgebraError(
            f"partition size {p.size} does not match algebra size {alg.size}"
        )
    bid = np.asarray(p.block_id)
    tb = bid[_translations(alg)]
    # block ids are the least member of each block: every column must
    # equal the column of its block's least member
    return bool((tb == tb[:, bid]).all())


def congruence_generated(alg: Algebra, pairs: Iterable[tuple[int, int]]) -> Partition:
    """Least congruence containing the pairs, by translation closure."""
    n = alg.size
    pairs = list(pairs)
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise AlgebraError(f"pair ({a},{b}) out of range")
    return _generate(_translations(alg).T.tolist(), pairs)


def principal_congruence(alg: Algebra, a: int, b: int) -> Partition:
    """Least congruence identifying a and b."""
    return congruence_generated(alg, [(a, b)])


MAX_LATTICE_SIZE = 12


def all_congruences(alg: Algebra) -> list[Partition]:
    """Every congruence, as the joins of the principal ones.

    Sorted finer-first: by descending block count, then by block-id vector.
    A strictly finer partition has more blocks, so this order extends
    refinement; ``edges.classify_pair`` relies on it to take the first
    witnessing congruence as the minimal one.  Guarded to small algebras;
    the lattice can be exponential in general.
    """
    n = alg.size
    if n > MAX_LATTICE_SIZE:
        raise AlgebraError(f"all_congruences limited to size {MAX_LATTICE_SIZE}")
    # ``found`` holds the joins of every subset of the principal congruences
    # seen so far; a principal already in it changes nothing
    found: set[Partition] = {Partition.equality(n)}
    for p in _principals(alg):
        if p not in found:
            found |= {p.join(q) for q in found}
    return sorted(found, key=Partition.sort_key)


def maximal_congruences(alg: Algebra) -> list[Partition]:
    """Proper congruences maximal under refinement."""
    cons = [p for p in all_congruences(alg) if not p.is_total()]
    out = []
    for p in cons:
        if not any(q is not p and p.refines(q) and p != q for q in cons):
            out.append(p)
    return out


def is_simple(alg: Algebra) -> bool:
    """Exactly two congruences: the algebra has at least two elements and
    every principal congruence is total.  One-element algebras are not
    simple."""
    return alg.size >= 2 and all(p.is_total() for p in _principals(alg))


# ---------------------------------------------------------------------------
# Tolerances


class Tolerance:
    """A reflexive symmetric binary relation as a boolean matrix."""

    __slots__ = ("size", "matrix")

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=bool)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise AlgebraError("tolerance matrix must be square")
        if not np.diagonal(m).all():
            raise AlgebraError("tolerance must be reflexive")
        if not np.array_equal(m, m.T):
            raise AlgebraError("tolerance must be symmetric")
        m = m.copy()
        m.setflags(write=False)
        self.size = m.shape[0]
        self.matrix = m

    @staticmethod
    def equality(n: int) -> "Tolerance":
        return Tolerance(np.eye(n, dtype=bool))

    @staticmethod
    def total(n: int) -> "Tolerance":
        return Tolerance(np.ones((n, n), dtype=bool))

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> "Tolerance":
        m = np.eye(n, dtype=bool)
        for a, b in pairs:
            m[a, b] = m[b, a] = True
        return Tolerance(m)

    def contains(self, a: int, b: int) -> bool:
        return bool(self.matrix[a, b])

    def pairs(self) -> list[tuple[int, int]]:
        return [tuple(map(int, ab)) for ab in np.argwhere(self.matrix)]

    def is_equality(self) -> bool:
        return bool((self.matrix == np.eye(self.size, dtype=bool)).all())

    def is_total(self) -> bool:
        return bool(self.matrix.all())

    def __eq__(self, other):
        return isinstance(other, Tolerance) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash(self.matrix.tobytes())

    def __repr__(self):
        return f"Tolerance(size={self.size}, pairs={sum(1 for a,b in self.pairs() if a<b)})"


def is_compatible_tolerance(alg: Algebra, t: Tolerance) -> bool:
    """True when the pair set is closed under every operation."""
    if t.size != alg.size:
        raise AlgebraError("tolerance size mismatch")
    pairs = np.argwhere(t.matrix)  # (m, 2)
    m = len(pairs)
    for op in alg.ops:
        grids = argument_grids(m, op.arity).astype(np.int64)
        vl = op.values[flat_index((pairs[row, 0] for row in grids), alg.size)]
        vr = op.values[flat_index((pairs[row, 1] for row in grids), alg.size)]
        if not t.matrix[vl, vr].all():
            return False
    return True


def transitive_closure_partition(t: Tolerance) -> Partition:
    return Partition.from_pairs(t.size, t.pairs())


def is_connected_tolerance(alg: Algebra, t: Tolerance) -> bool:
    """Transitive closure is the total relation."""
    return transitive_closure_partition(t).is_total()


def compatible_tolerance_generated(alg: Algebra, a: int, b: int) -> Tolerance:
    """Least compatible reflexive symmetric relation containing (a, b).

    Computed as the subuniverse of A^2 generated by the diagonal plus
    (a,b) and (b,a); that set is automatically reflexive and symmetric.
    """
    gens = [(x, x) for x in range(alg.size)] + [(a, b), (b, a)]
    return Tolerance(generate_subuniverse(alg, 2, gens, derivations=False).matrix())


def link_tolerance(alg: Algebra, rel: SubUniverse, i: int) -> Tolerance:
    """Pairs coexisting in coordinate i of a binary relation R, the other
    coordinate equal: R·R⁻¹ for i = 0 and R⁻¹·R for i = 1.

    Takes binary relations only, over ``alg`` or an algebra with the same
    size, signature and operation tables, complete and subdirect in
    coordinate i; the result is checked to be compatible and a failure
    aborts, since it cannot happen for a compatible relation.
    """
    base = rel.base
    if base is not alg and (
        (base.size, base.signature(), base.ops) != (alg.size, alg.signature(), alg.ops)
    ):
        raise AlgebraError("relation is over a different algebra")
    if not rel.is_complete():
        raise AlgebraError("link tolerance requires a complete relation (got capped)")
    m = rel.matrix()
    if i not in (0, 1):
        raise AlgebraError(f"coordinate {i} out of range for power 2")
    if i == 1:
        m = m.T
    if not m.any(axis=1).all():
        raise AlgebraError(f"relation is not subdirect in coordinate {i}")
    t = Tolerance(m @ m.T)
    if not is_compatible_tolerance(alg, t):
        raise VerificationError("link tolerance is not compatible; engine invariant broken")
    return t


MAX_CLIQUE_SIZE = 12


def tolerance_classes(t: Tolerance) -> list[list[int]]:
    """All maximal cliques of the tolerance graph, lexicographically sorted."""
    if t.size > MAX_CLIQUE_SIZE:
        raise AlgebraError(f"tolerance_classes limited to size {MAX_CLIQUE_SIZE}")
    adj = [set(int(u) for u in np.nonzero(t.matrix[v])[0]) - {v} for v in range(t.size)]
    cliques: list[list[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]):
        if not p and not x:
            cliques.append(sorted(r))
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(t.size)), set())
    return sorted(cliques)


def is_class_subuniverse(alg: Algebra, cls: Sequence[int]) -> bool:
    """Is the class closed under every operation?"""
    s = set(cls)
    for op in alg.ops:
        for args in itertools.product(cls, repeat=op.arity):
            if op(*args) not in s:
                return False
    return True


MAX_TOLERANCE_ENUM = 5


def all_tolerances(alg: Algebra) -> list[Tolerance]:
    """Every compatible tolerance, by filtering all reflexive symmetric
    relations; guarded to very small algebras."""
    n = alg.size
    if n > MAX_TOLERANCE_ENUM:
        raise AlgebraError(f"all_tolerances limited to size {MAX_TOLERANCE_ENUM}")
    offdiag = [(a, b) for a in range(n) for b in range(a + 1, n)]
    out = []
    for bits in range(1 << len(offdiag)):
        pairs = [offdiag[j] for j in range(len(offdiag)) if bits >> j & 1]
        t = Tolerance.from_pairs(n, pairs)
        if is_compatible_tolerance(alg, t):
            out.append(t)
    return out
