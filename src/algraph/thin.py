"""Unified witness operations and thin (directed) edges.

``synth_unified`` produces a single binary f and ternary g, h behaving
correctly on every strict edge at once: f is semilattice on semilattice
edges and the first projection on the others; g is majority on majority
edges, first projection on affine ones and x(yz) on semilattice ones;
h is affine on affine quotients, first projection on majority edges and
x(yz) on semilattice ones.  ``_CONDITIONS`` holds this per-edge condition
matrix, which is the actual contract.  Each operation is the first of its
candidates, in this order, that meets its row of the matrix:

- f: the first projection when no edge is strict semilattice, the
  semilattice witnesses, their merge by ``compose_fold_f``, and the
  ``projectionized`` merge;
- g: ``g_from_f(f)``, the majority witnesses, and
  ``compose_with_f_sym(g_doubleprime(merge), f)`` of their merge;
- h: ``g_from_f(f)`` and the affine witnesses.

One walker, ``_matrix``, evaluates the matrix on single tables: it is
``unified_conditions`` over f, g and h (``enforce_identities`` records it
as ``UnifiedOps.provenance``), and it names the first condition that a
refused row's first candidate fails.  ``_row_mask`` is its vectorised form
for the searches: each condition maps an (m, n, ..., n) stack of tables to
a mask.  One frame, ``_search``, runs the searches for f, g, h and
``good_f``'s f' (f and its iterates, then the binary term operations): the
first passing candidate, else ``closure_search`` closes the projection
columns in A^(n^arity) round by round and returns the first passing table
in stored order, the table a filter over the whole term slice would give.
Else the frame raises the SynthesisError, ``capped`` when the closure was
cut short.

Thin edges refine thick ones to ordered pairs of elements with witness
operations acting on the elements themselves: a <= b when f(a,b)=f(b,a)=b.
Majority and affine thin edges (``is_thin``) differ only in the unified
operation and the argument rows its witness maps to b; they additionally
require the generated-subalgebra conditions, read from the edge graph's
carriers, and an explicit witness term.  ``all_thin_edges`` decides each
ordered pair once, and ``thin_counterpart`` reads its answers.

Every witness term, here and across algebras (``witness_majority_triple``,
``witness_mixed``), comes from ``subpower.find_term``: the term, None when
the complete closure lacks the target, or UNKNOWN when a cap cut it short.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    UNKNOWN,
    Algebra,
    AlgebraError,
    OpTable,
    TermExpr,
    VerificationError,
    argument_grids,
    product_algebra,
    projection,
    term_table,
)
from .edges import (
    AFFINE,
    MAJORITY,
    SEMILATTICE,
    STRICT,
    STRICT_AFFINE,
    STRICT_MAJORITY,
    STRICT_SEMILATTICE,
    EdgeGraph,
    EdgeInfo,
)
from .subpower import (
    ClosureBudget,
    DEFAULT_BUDGET,
    closure_search,
    find_term,
)


class SynthesisError(VerificationError):
    """No operation met the per-edge condition matrix within the budget.

    ``capped`` is set when the round-wise search of the term operations hit
    the closure cap before any round held a passing table: the search was
    cut short, so the error is inconclusive and must not be reported as a
    counterexample.
    """

    def __init__(self, message: str, capped: bool):
        super().__init__(message)
        self.capped = capped


@dataclass(frozen=True)
class UnifiedOps:
    """The unified f, g, h with the edges they were verified against, which
    are strict: ``synth_unified`` keeps the edges, and each has a strict type."""

    f: OpTable
    g: OpTable
    h: OpTable
    edges: tuple[EdgeInfo, ...]
    provenance: dict


@dataclass(frozen=True)
class ThinEdge:
    """Directed edge with element-level witnesses."""

    alg: Algebra
    kind: str  # semilattice | majority | affine
    src: int
    dst: int
    witness: OpTable | None
    witness_term: TermExpr | None
    theta_blocks: tuple[tuple[int, ...], ...] | None


# ---------------------------------------------------------------------------
# Per-edge condition matrix


def _blocks(e: EdgeInfo, kind: str) -> tuple[list[int], list[int]]:
    return e.block_of(kind, e.a), e.block_of(kind, e.b)


def _stack(table: OpTable) -> np.ndarray:
    """A table as a stack of one, the form every condition check takes."""
    return table.table()[None]


def _block_action(stack: np.ndarray, ablk: list[int], bblk: list[int]) -> np.ndarray:
    """The action of each table of an (m, n, ..., n) stack on the two blocks,
    as an (m, 2, ..., 2) array: the entry at a tuple of blocks (0 for
    ``ablk``, 1 for ``bblk``) is the block that holds every value over their
    product, or -1 when neither does."""
    label = np.full(stack.shape[1], -1, dtype=np.int8)
    label[ablk], label[bblk] = 0, 1
    both = np.array(ablk + bblk)
    arity = stack.ndim - 1
    grid = [both.reshape((-1,) + (1,) * (arity - 1 - j)) for j in range(arity)]
    # the labelled table on (ablk + bblk)^arity, each axis then cut at the
    # end of ablk: a product of blocks maps into one block where its least
    # and greatest labels agree
    lo = hi = label[stack[(slice(None), *grid)]]
    for axis in range(1, arity + 1):
        lo = np.minimum.reduceat(lo, [0, len(ablk)], axis=axis)
        hi = np.maximum.reduceat(hi, [0, len(ablk)], axis=axis)
    return np.where(lo == hi, lo, -1)


def cond_f_semilattice(stack: np.ndarray, e: EdgeInfo) -> np.ndarray:
    """f collapses the two theta blocks commutatively into one of them."""
    act = _block_action(stack, *_blocks(e, SEMILATTICE))
    return (act[:, 0, 1] >= 0) & (act[:, 0, 1] == act[:, 1, 0])


def _cond_proj1(stack: np.ndarray, ablk: list[int], bblk: list[int]) -> np.ndarray:
    """The table acts as the first projection on the two-block quotient set."""
    act = _block_action(stack, ablk, bblk)
    return (act == np.indices(act.shape[1:])[0]).reshape(len(stack), -1).all(axis=1)


def cond_g_majority(stack: np.ndarray, e: EdgeInfo) -> np.ndarray:
    """g is the majority operation on the two blocks."""
    act = _block_action(stack, *_blocks(e, MAJORITY)).reshape(len(stack), 8)
    # the majority of the block tuples 001, 010, ..., 110; 000 and 111 are free
    return (act[:, 1:7] == [0, 0, 1, 0, 1, 1]).all(axis=1)


def cond_sl_composition(stack: np.ndarray, f: OpTable, e: EdgeInfo) -> np.ndarray:
    """Ternary table equals x(yz) under f on the two-block quotient set."""
    ablk, bblk = _blocks(e, SEMILATTICE)
    fa = _block_action(_stack(f), ablk, bblk)[0]
    if (fa < 0).any():
        return np.zeros(len(stack), dtype=bool)
    x, y, z = np.indices((2, 2, 2))
    act = _block_action(stack, ablk, bblk)
    return (act == fa[x, fa[y, z]]).reshape(len(stack), -1).all(axis=1)


def cond_h_affine(stack: np.ndarray, e: EdgeInfo) -> np.ndarray:
    """h acts on the whole quotient as the certificate's x-y+z."""
    bid = e.theta[AFFINE].block_id
    reps = sorted(set(bid))
    # quotient label of every element of the carrier, -1 outside it
    quot = np.full(stack.shape[1], -1, dtype=np.int16)
    quot[list(e.carrier)] = [reps.index(r) for r in bid]
    q = quot[list(e.carrier)]
    vals = quot[stack[(slice(None), *np.ix_(e.carrier, e.carrier, e.carrier))]]
    want = e.affine_cert.maltsev.table()[np.ix_(q, q, q)]
    return (vals == want).reshape(len(stack), -1).all(axis=1)


# (strict label, row) -> (condition name, check(stack, f, edge)).  Rows are
# "f", "g" and "h"; a check maps an (m, n, ..., n) stack of tables to a mask
# of length m.  ``f`` is the unified binary operation, which only the
# semilattice compositions of g and h read.
_CONDITIONS = {
    (STRICT_SEMILATTICE, "f"): ("f-semilattice", lambda s, f, e: cond_f_semilattice(s, e)),
    (STRICT_MAJORITY, "f"): ("f-proj1", lambda s, f, e: _cond_proj1(s, *_blocks(e, MAJORITY))),
    (STRICT_AFFINE, "f"): ("f-proj1", lambda s, f, e: _cond_proj1(s, *_blocks(e, AFFINE))),
    (STRICT_SEMILATTICE, "g"): ("g-sl-composition", cond_sl_composition),
    (STRICT_MAJORITY, "g"): ("g-majority", lambda s, f, e: cond_g_majority(s, e)),
    (STRICT_AFFINE, "g"): ("g-proj1", lambda s, f, e: _cond_proj1(s, *_blocks(e, AFFINE))),
    (STRICT_SEMILATTICE, "h"): ("h-sl-composition", cond_sl_composition),
    (STRICT_MAJORITY, "h"): ("h-proj1", lambda s, f, e: _cond_proj1(s, *_blocks(e, MAJORITY))),
    (STRICT_AFFINE, "h"): ("h-affine", lambda s, f, e: cond_h_affine(s, e)),
}


def _row_mask(which: str, stack: np.ndarray, f: OpTable | None, edges: Sequence[EdgeInfo]) -> np.ndarray:
    """Mask of the tables of ``stack`` that meet the whole ``which`` row over
    the strict ``edges``."""
    ok = np.ones(len(stack), dtype=bool)
    for e in edges:
        if ok.any():
            ok[ok] = _CONDITIONS[(e.strict, which)][1](stack[ok], f, e)
    return ok


def _matrix(rows: dict, f: OpTable | None, edges: Sequence[EdgeInfo]) -> dict:
    """``{((a, b), condition name): holds}`` over the strict edges in edge
    order, and for each edge over ``rows`` (``which -> table``) in order."""
    matrix = {}
    for e in edges:
        if e.strict is None:
            continue
        for which, table in rows.items():
            name, check = _CONDITIONS[(e.strict, which)]
            matrix[((e.a, e.b), name)] = bool(check(_stack(table), f, e)[0])
    return matrix


def unified_conditions(alg: Algebra, edges: Sequence[EdgeInfo], f: OpTable, g: OpTable, h: OpTable):
    """Evaluate the whole condition matrix; returns (all_ok, matrix, first_failure)."""
    matrix = _matrix({"f": f, "g": g, "h": h}, f, edges)
    first_fail = next((key for key, holds in matrix.items() if not holds), None)
    return first_fail is None, matrix, first_fail


# ---------------------------------------------------------------------------
# Table combinators used by the constructive merges


def compose_fold_f(outer: OpTable, inner: OpTable) -> OpTable:
    """x,y -> outer(inner(x,y), inner(y,x))."""
    n = outer.size
    t_in = inner.table()
    t_out = outer.table()
    vals = t_out[t_in, t_in.T]
    return OpTable("f", 2, n, vals.reshape(-1))


def projectionized(f: OpTable) -> OpTable:
    """x,y -> f(f(x,y), x)."""
    t = f.table()
    n = f.size
    x = np.arange(n)[:, None].repeat(n, axis=1)
    vals = t[t, x]
    return OpTable("f", 2, n, vals.reshape(-1))


def g_from_f(f: OpTable) -> OpTable:
    """x,y,z -> f(x, f(y,z)) as a ternary table."""
    n = f.size
    t = f.table()
    x, y, z = np.indices((n, n, n))
    vals = t[x, t[y, z]]
    return OpTable("g", 3, n, vals.reshape(-1))


def g_doubleprime(g: OpTable) -> OpTable:
    """x,y,z -> g(x, g(y,x,y), g(z,z,x))."""
    n = g.size
    c = g.table()
    x, y, z = np.indices((n, n, n))
    vals = c[x, c[y, x, y], c[z, z, x]]
    return OpTable("g", 3, n, vals.reshape(-1))


def compose_with_f_sym(table: OpTable, f: OpTable) -> OpTable:
    """x,y,z -> table(f(x,f(y,z)), f(y,f(z,x)), f(z,f(x,y)))."""
    n = table.size
    tf = f.table()
    x, y, z = np.indices((n, n, n))
    u = tf[x, tf[y, z]]
    v = tf[y, tf[z, x]]
    w = tf[z, tf[x, y]]
    vals = table.table()[u, v, w]
    return OpTable(table.name, 3, n, vals.reshape(-1))


# ---------------------------------------------------------------------------
# Synthesis


def _witness_tables(alg: Algebra, edges, kind: str, arity: int) -> list[OpTable]:
    """The ``kind`` witness of each edge as a table, one per edge; the
    candidates are its distinct tables in order (``dict.fromkeys``)."""
    return [term_table(alg, e.witnesses[kind], arity, name=kind[0]) for e in edges]


def _search(
    alg: Algebra, arity: int, candidates, check, budget: ClosureBudget, claim: str, reason=lambda: ""
) -> OpTable:
    """The first of ``candidates``, else of the arity-``arity`` term
    operations in stored order, that passes ``check`` (a mask over a stack
    of tables).  Else raises SynthesisError "no binary (ternary) term
    operation ``claim``", marked " (slice capped)" when the cap cut the
    closure short, and ended by ``reason()``, built only then."""
    for t in candidates:
        if check(_stack(t))[0]:
            return t
    n = alg.size
    shape = (n,) * arity
    hit = closure_search(
        alg, n**arity, argument_grids(n, arity), lambda rows: check(rows.reshape(-1, *shape)), budget
    )
    if hit is None or hit is UNKNOWN:
        capped = hit is UNKNOWN
        raise SynthesisError(
            f"no {'binary' if arity == 2 else 'ternary'} term operation {claim}"
            f"{' (slice capped)' if capped else ''}{reason()}",
            capped,
        )
    return OpTable("s", arity, n, hit)


def _f_candidates(alg: Algebra, edges):
    s_edges = [e for e in edges if e.strict == STRICT_SEMILATTICE]
    if not s_edges:
        yield projection(alg.size, 2, 0, "p0")
    wits = _witness_tables(alg, s_edges, SEMILATTICE, 2)
    yield from dict.fromkeys(wits)
    if wits:
        # constructive merge: fold remaining witnesses over the current candidate
        cur = wits[0]
        for e, wit in zip(s_edges, wits):
            if not cond_f_semilattice(_stack(cur), e)[0]:
                cur = compose_fold_f(wit, cur)
        yield cur
        yield projectionized(cur)


def _majority_merge(alg: Algebra, m_edges, wits: list[OpTable]) -> OpTable:
    """Merge into the first witness the witness of every majority edge it
    fails."""
    x, y = np.indices((alg.size, alg.size))
    perms = ((0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1), (0, 2, 1))
    cur = wits[0]
    for e, wit in zip(m_edges, wits):
        if cond_g_majority(_stack(cur), e)[0]:
            continue
        # permute arguments of cur so that (x,y,y) acts as first projection
        # on this edge, then merge with the edge's own witness
        cube = cur.table()
        ps = np.stack([np.transpose(cube, perm)[x, y, y] for perm in perms])
        ok = _cond_proj1(ps, *_blocks(e, MAJORITY))
        if ok.any():
            cur = OpTable("g", 3, alg.size, ps[np.argmax(ok)][wit.table(), cube].reshape(-1))
    return cur


def _g_candidates(alg: Algebra, edges, f: OpTable):
    yield g_from_f(f)
    m_edges = [e for e in edges if e.strict == STRICT_MAJORITY]
    wits = _witness_tables(alg, m_edges, MAJORITY, 3)
    yield from dict.fromkeys(wits)
    if wits:
        yield compose_with_f_sym(g_doubleprime(_majority_merge(alg, m_edges, wits)), f)


def _h_candidates(alg: Algebra, edges, f: OpTable):
    yield g_from_f(f)
    a_edges = [e for e in edges if e.strict == STRICT_AFFINE]
    yield from dict.fromkeys(_witness_tables(alg, a_edges, AFFINE, 3))


def _synthesize(which: str, alg: Algebra, candidates, f, edges, budget: ClosureBudget) -> OpTable:
    """The first candidate, else term operation, meeting row ``which``; the
    error names the first condition of the row that the first candidate
    fails."""
    candidates = iter(candidates)
    first = next(candidates)

    def first_failure() -> str:
        matrix = _matrix({which: first}, f, edges)
        return f"; first failure: {next((k for k, holds in matrix.items() if not holds), None)}"

    return _search(
        alg,
        2 if which == "f" else 3,
        itertools.chain([first], candidates),
        lambda s: _row_mask(which, s, f, edges),
        budget,
        f"satisfies the {which}-conditions",
        first_failure,
    )


def synth_unified(alg: Algebra, edges: Sequence[EdgeInfo], budget: ClosureBudget = DEFAULT_BUDGET) -> UnifiedOps:
    """Find f, g, h meeting the full condition matrix on the given edges,
    with the absorption identities enforced (``enforce_identities``).

    Each operation is the first of its candidates (listed in the module
    docstring) that meets its row of the matrix, else the first such
    binary/ternary term operation.  Raises SynthesisError when a row cannot
    be met within the budget, naming the first edge and condition that the
    row's first candidate fails, and "(slice capped)" when the search of the
    term operations was cut short.
    """
    edges = tuple(e for e in edges if e.is_edge())
    f = _synthesize("f", alg, _f_candidates(alg, edges), None, edges, budget)
    g = _synthesize("g", alg, _g_candidates(alg, edges, f), f, edges, budget)
    h = _synthesize("h", alg, _h_candidates(alg, edges, f), f, edges, budget)
    # each row was checked against the final f; enforce_identities checks
    # the whole matrix once more after iterating
    return enforce_identities(UnifiedOps(f=f, g=g, h=h, edges=edges, provenance={}), alg)


# ---------------------------------------------------------------------------
# Identity enforcement (iterate to idempotent unary power)


def _iterate_before_idempotent(maps: np.ndarray) -> np.ndarray:
    """Row by row, t^(N-1) of each row map t of ``maps`` (n x n), for the
    least N >= 1 at which every t^N is idempotent."""
    prev = np.broadcast_to(np.arange(maps.shape[1]), maps.shape)
    power = maps
    while not (np.take_along_axis(power, power, axis=1) == power).all():
        prev, power = power, np.take_along_axis(maps, power, axis=1)
    return prev


def enforce_identities(ops: UnifiedOps, alg: Algebra) -> UnifiedOps:
    """Replace f, g, h by iterates satisfying the absorption identities

        f(x, f(x,y)) = f(x,y)
        g(x, g(x,y,y), g(x,y,y)) = g(x,y,y)
        h(h(x,y,y), y, y) = h(x,y,y)

    for all x, y, re-verifying the edge condition matrix afterwards.
    The iterate count is the least N >= 1 whose N-th power of every
    associated unary map is idempotent: y -> f(x, y) and y -> g(x, y, y)
    for each x, and x -> h(x, y, y) for each y.
    """
    n = alg.size
    x = np.arange(n)
    ft, gt, ht = ops.f.table(), ops.g.table(), ops.h.table()
    # fp[x], gp[x] and hp[y] are the (N-1)-th iterates of the maps above:
    # f(x, y) -> f(x, fp[x][y]), g(x, y, z) -> gp[x][g(x, y, z)] and
    # h(x, y, z) -> h(hp[y][x], y, z)
    fp = _iterate_before_idempotent(ft)
    gp = _iterate_before_idempotent(gt[:, x, x])
    hp = _iterate_before_idempotent(ht[:, x, x].T)
    f_new = OpTable("f", 2, n, np.take_along_axis(ft, fp, axis=1).reshape(-1))
    g_new = OpTable("g", 3, n, gp[x[:, None, None], gt].reshape(-1))
    h_new = OpTable("h", 3, n, ht[hp.T[:, :, None], x[:, None], x].reshape(-1))

    failed = _failed_identity(f_new, g_new, h_new)
    if failed is not None:
        raise VerificationError(f"identity {failed} does not hold")
    ok, matrix, first_fail = unified_conditions(alg, ops.edges, f_new, g_new, h_new)
    if not ok:
        raise VerificationError(
            f"edge conditions broken by identity enforcement at {first_fail}"
        )
    return UnifiedOps(f=f_new, g=g_new, h=h_new, edges=ops.edges, provenance=matrix)


def _failed_identity(f: OpTable, g: OpTable, h: OpTable) -> str | None:
    """The first absorption identity that f, g, h fail, or None."""
    n = f.size
    ft, gt, ht = f.table(), g.table(), h.table()
    x, y = np.indices((n, n))
    gxyy, hxyy = gt[x, y, y], ht[x, y, y]
    sides = (
        ("f(x,f(x,y)) = f(x,y)", ft[x, ft[x, y]], ft[x, y]),
        ("g(x,g(x,y,y),g(x,y,y)) = g(x,y,y)", gt[x, gxyy, gxyy], gxyy),
        ("h(h(x,y,y),y,y) = h(x,y,y)", ht[hxyy, y, y], hxyy),
    )
    return next((name for name, lhs, rhs in sides if not np.array_equal(lhs, rhs)), None)


def check_identities(ops: UnifiedOps) -> bool:
    return _failed_identity(ops.f, ops.g, ops.h) is None


# ---------------------------------------------------------------------------
# The good binary operation


def _good_f_candidates(f: OpTable):
    """f and its iterates x,y -> f(x, f(f_i(x,y), x)) until one repeats."""
    n = f.size
    f0 = f.table()
    x = np.indices((n, n))[0]
    cur = f
    yield cur
    for _ in range(n * n + 2):
        nxt = OpTable("f'", 2, n, f0[x, f0[cur.table(), x]].reshape(-1))
        if np.array_equal(nxt.values, cur.values):
            return
        cur = nxt
        yield cur


def good_f(alg: Algebra, ops: UnifiedOps, budget: ClosureBudget = DEFAULT_BUDGET) -> OpTable:
    """Improve f so that f(a,b) = a or (a, f(a,b)) is a thin semilattice edge.

    Tries f and its iterates x,y -> f(x, f(f_i(x,y), x)), then the binary
    term operations, for a table that is good in this sense, keeps the f row
    of the condition matrix and satisfies f(x, f(x,y)) = f(x,y).
    """
    x = np.arange(alg.size)[:, None]

    def check(stack: np.ndarray) -> np.ndarray:
        i = np.arange(len(stack))[:, None, None]
        absorbs = stack[i, x, stack] == stack  # f(a, c) = c for c = f(a, b)
        # c = f(a,b) is a, or f(a,c) = f(c,a) = c
        good = ((stack == x) | (absorbs & (stack[i, stack, x] == stack))).all(axis=(1, 2))
        return good & absorbs.all(axis=(1, 2)) & _row_mask("f", stack, None, ops.edges)

    claim = "is good for thin semilattice edges"
    return _search(alg, 2, _good_f_candidates(ops.f), check, budget, claim).renamed("f'")


# ---------------------------------------------------------------------------
# Thin edges


def thin_semilattice_edges(alg: Algebra, fprime: OpTable) -> list[ThinEdge]:
    """All ordered pairs a -> b with f'(a,b) = f'(b,a) = b."""
    out = []
    t = fprime.table()
    for a in range(alg.size):
        for b in range(alg.size):
            if a != b and t[a, b] == b and t[b, a] == b:
                out.append(
                    ThinEdge(alg, SEMILATTICE, a, b, None, None, None)
                )
    return out


def is_thin(
    kind: str,
    graph: EdgeGraph,
    a: int,
    b: int,
    ops: UnifiedOps,
    budget: ClosureBudget = DEFAULT_BUDGET,
):
    """ThinEdge if (a, b) is a thin ``kind`` edge (majority or affine), None
    if not, UNKNOWN if a capped search left it open.

    Each kind has a unified operation and argument rows: g with (a,b,b),
    (b,a,b), (b,b,a) for majority, h with (b,a,a), (a,a,b) for affine.
    Conditions: (a) the pair is a ``kind`` edge with minimal witnessing
    congruence theta; (b) every c in b's theta-block satisfies
    b in Sg{a, c}, the carrier of the pair (a, c) (c != a, as theta
    separates a from b); (c) the unified operation maps the first row to b;
    (d) a ternary term g' or h' maps every row to b, found as membership of
    (b, ..., b) in the subpower generated by the columns of the rows.
    Every pair is read from ``graph``, in either orientation; only (d)
    searches, under ``budget``.
    """
    alg, e = graph.alg, graph.edge(a, b)
    if kind == MAJORITY:
        op, rows = "g", ((a, b, b), (b, a, b), (b, b, a))
    else:
        op, rows = "h", ((b, a, a), (a, a, b))
    if kind not in e.types:
        return UNKNOWN if kind in e.unknown_types else None
    if getattr(ops, op)(*rows[0]) != b:
        return None
    if any(b not in graph.edge(a, c).carrier for c in e.block_of(kind, b)):
        return None
    term = find_term(alg, len(rows), list(zip(*rows)), (b,) * len(rows), budget)
    if term is None or term is UNKNOWN:
        return term
    table = term_table(alg, term, 3, name=f"{op}'")
    if any(table(*row) != b for row in rows):
        raise VerificationError(f"{kind} thin-edge witness fails its defining equalities")
    return ThinEdge(alg, kind, a, b, table, term, tuple(map(tuple, e.theta_blocks(kind))))


def _find_thin(graph: EdgeGraph, src: int, dst: int, kind: str, decide):
    """First b' in dst's theta-block, in increasing order, whose decision
    ``decide(b')`` for (src, b') is a ThinEdge; UNKNOWN if an earlier is."""
    edge = graph.edge(src, dst)
    if kind not in edge.types:
        return None
    for bprime in sorted(edge.block_of(kind, dst)):
        if bprime == src:
            continue
        res = decide(bprime)
        if isinstance(res, ThinEdge):
            return res
        if res is UNKNOWN:
            return UNKNOWN
    if edge.strict == STRICT[kind]:
        raise VerificationError(f"strict {kind} edge ({src},{dst}) has no thin counterpart")
    return None


def find_thin_majority(
    graph: EdgeGraph, src: int, dst: int, ops: UnifiedOps, budget: ClosureBudget = DEFAULT_BUDGET
):
    """Search b' in dst's theta-block with (src, b') a thin majority edge.

    Every pair is read from ``graph``; (src, dst) may be either orientation
    of a stored pair.  For a strict majority edge a failure contradicts the
    thin-counterpart guarantee and raises; for non-strict majority edges the
    result may be absent.
    """
    return _find_thin(graph, src, dst, MAJORITY, lambda c: is_thin(MAJORITY, graph, src, c, ops, budget))


def find_thin_affine(
    graph: EdgeGraph, src: int, dst: int, ops: UnifiedOps, budget: ClosureBudget = DEFAULT_BUDGET
):
    """Search b' in dst's theta-block with (src, b') a thin affine edge."""
    return _find_thin(graph, src, dst, AFFINE, lambda c: is_thin(AFFINE, graph, src, c, ops, budget))


def all_thin_edges(
    graph: EdgeGraph,
    ops: UnifiedOps,
    fprime: OpTable,
    budget: ClosureBudget = DEFAULT_BUDGET,
) -> tuple[list[ThinEdge], frozenset]:
    """Every thin edge of every kind, over all ordered pairs of ``graph``,
    and the ``(kind, src, dst)`` triples a capped search left undecided, so
    that thin edges may be missing.  The suites decide thin pairs only here."""
    out = thin_semilattice_edges(graph.alg, fprime)
    undecided = set()
    for a, b in itertools.permutations(range(graph.alg.size), 2):
        for kind in (MAJORITY, AFFINE):
            res = is_thin(kind, graph, a, b, ops, budget)
            if isinstance(res, ThinEdge):
                out.append(res)
            elif res is UNKNOWN:
                undecided.add((kind, a, b))
    return out, frozenset(undecided)


def thin_counterpart(graph: EdgeGraph, thin, undecided: frozenset, src: int, dst: int, kind: str):
    """``find_thin_majority`` or ``find_thin_affine`` for ``kind``, read from
    the output ``(thin, undecided)`` of ``all_thin_edges`` without searching."""
    answers = dict.fromkeys(undecided, UNKNOWN) | {(t.kind, t.src, t.dst): t for t in thin}
    return _find_thin(graph, src, dst, kind, lambda c: answers.get((kind, src, c)))


# ---------------------------------------------------------------------------
# Cross-algebra witnesses


def _product_witness(
    claim: str,
    algs: list[Algebra],
    rows: list[tuple[int, ...]],
    target: tuple[int, ...],
    budget: ClosureBudget,
):
    """Term t with t(rows[i]) = target[i] in algs[i] for every i, found by
    membership in the product subalgebra generated by the columns of the
    rows; UNKNOWN if capped, and raises when the complete search finds none."""
    sig = algs[0].signature()
    for a in algs[1:]:
        if a.signature() != sig:
            raise AlgebraError("cross-algebra witnesses need identical signatures")
    sizes = [a.size for a in algs]
    enc_gens = [(int(code),) for code in np.ravel_multi_index(tuple(rows), sizes)]
    enc_target = (int(np.ravel_multi_index(target, sizes)),)
    term = find_term(product_algebra(algs), 1, enc_gens, enc_target, budget)
    if term is UNKNOWN:
        return UNKNOWN
    if term is None:
        raise VerificationError(f"{claim} witness does not exist; claim violated")
    for alg, args, want in zip(algs, rows, target):
        if term_table(alg, term, len(args))(*args) != want:
            raise VerificationError(f"{claim} witness fails t{args} = {want}")
    return term


def witness_majority_triple(
    e1: ThinEdge, e2: ThinEdge, e3: ThinEdge, budget: ClosureBudget = DEFAULT_BUDGET
) -> TermExpr:
    """Term g' with g'(a1,b1,b1)=b1, g'(b2,a2,b2)=b2, g'(b3,b3,a3)=b3 for
    three thin majority edges over same-signature algebras."""
    for e in (e1, e2, e3):
        if e.kind != MAJORITY:
            raise AlgebraError("witness_majority_triple needs thin majority edges")
    (a1, b1), (a2, b2), (a3, b3) = ((e.src, e.dst) for e in (e1, e2, e3))
    rows = [(a1, b1, b1), (b2, a2, b2), (b3, b3, a3)]
    return _product_witness("majority triple", [e1.alg, e2.alg, e3.alg], rows, (b1, b2, b3), budget)


# kind -> (edge kinds, the witness's argument rows in the two algebras as a
# function of the edges a -> b and c -> d); the witness maps them to (b, d)
MIXED_KINDS = {
    "majority-semilattice": ((MAJORITY, SEMILATTICE), lambda a, b, c, d: [(a, b), (d, c)]),
    "affine-affine": ((AFFINE, AFFINE), lambda a, b, c, d: [(b, a, a), (c, c, d)]),
    "affine-semilattice": ((AFFINE, SEMILATTICE), lambda a, b, c, d: [(b, a), (c, d)]),
    "affine-majority": ((AFFINE, MAJORITY), lambda a, b, c, d: [(b, a), (c, d)]),
}


def witness_mixed(kind: str, e1: ThinEdge, e2: ThinEdge, budget: ClosureBudget = DEFAULT_BUDGET):
    """Two-algebra witness terms for mixed thin-edge pairs.

    majority-semilattice: t(a,b)=b and t(d,c)=d
    affine-affine:        h'(b,a,a)=b and h'(c,c,d)=d
    affine-semilattice:   r(b,a)=b and r(c,d)=d
    affine-majority:      t(b,a)=b and t(c,d)=d
    """
    if kind not in MIXED_KINDS:
        raise AlgebraError(f"unknown mixed witness kind {kind!r}")
    (want1, want2), rows = MIXED_KINDS[kind]
    if e1.kind != want1 or e2.kind != want2:
        raise AlgebraError(
            f"{kind} needs edges of kinds ({want1}, {want2}), got ({e1.kind}, {e2.kind})"
        )
    return _product_witness(
        kind, [e1.alg, e2.alg], rows(e1.src, e1.dst, e2.src, e2.dst), (e1.dst, e2.dst), budget
    )


# ---------------------------------------------------------------------------
# Thick edges refine to thin ones


def verify_thick_thin(alg: Algebra, edges: Sequence[EdgeInfo], fprime: OpTable):
    """For every thick semilattice edge and every c in the source block,
    some d in the target block gives a thin edge c <= d.  Returns failures."""
    t = fprime.table()
    failures = []
    for e in edges:
        if SEMILATTICE not in e.types:
            continue
        ablk, bblk = _blocks(e, SEMILATTICE)
        act = _block_action(_stack(fprime), ablk, bblk)[0]
        if (act < 0).any() or act[0, 1] != act[1, 0]:
            failures.append(((e.a, e.b), "f' not semilattice on the thick edge"))
            continue
        target_is_b = act[0, 1] == 1
        src, dst = (ablk, bblk) if target_is_b else (bblk, ablk)
        for c in src:
            if not any(t[c, d] == d and t[d, c] == d for d in dst):
                failures.append(((e.a, e.b), f"no thin edge from {c} into the target block"))
    return failures
