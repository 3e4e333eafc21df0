"""Reducts that keep a thick edge as a subalgebra.

Given an edge of semilattice or strict majority type, the union of the two
blocks of its minimal witnessing congruence is a subset of the universe;
the reduct consists of all binary and ternary term operations preserving
that subset.  The reduct is a first-class algebra, so every other analysis
(edge classification, connectivity, the 4-ary term search) applies to it
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Algebra, AlgebraError, OpTable, argument_grids, flat_index
from .edges import (
    MAJORITY,
    SEMILATTICE,
    STRICT_MAJORITY,
    EdgeInfo,
    EdgeGraph,
    edge_graph,
    omits_type1,
)
from .subpower import ClosureBudget, DEFAULT_BUDGET, term_slice


@dataclass(frozen=True)
class ThickEdgeSubset:
    """Union of the two minimal-congruence blocks of a qualifying edge."""

    elements: tuple[int, ...]
    edge: EdgeInfo
    kind: str  # which edge type the blocks come from

    def as_set(self) -> frozenset[int]:
        return frozenset(self.elements)


@dataclass(frozen=True)
class Reduct:
    """Binary and ternary term operations preserving a thick edge subset."""

    base: Algebra
    subset: ThickEdgeSubset
    algebra: Algebra
    complete: bool


def thick_edge_subset(alg: Algebra, edge: EdgeInfo) -> ThickEdgeSubset:
    """The thick edge as a subset; requires semilattice or strict majority type.

    The semilattice congruence is preferred when both types are present.
    """
    if SEMILATTICE in edge.types:
        kind = SEMILATTICE
    elif MAJORITY in edge.types and edge.strict == STRICT_MAJORITY:
        kind = MAJORITY
    else:
        raise AlgebraError(
            "thick edge subsets need an edge of semilattice or strict majority type"
        )
    ablock = edge.block_of(kind, edge.a)
    bblock = edge.block_of(kind, edge.b)
    return ThickEdgeSubset(tuple(sorted(set(ablock) | set(bblock))), edge, kind)


def _preserves(table_vals: np.ndarray, arity: int, n: int, subset: frozenset[int]) -> bool:
    sub = np.asarray(sorted(subset), dtype=np.int64)
    grid = argument_grids(len(sub), arity).astype(np.int64)
    vals = table_vals[flat_index((sub[row] for row in grid), n)]
    return bool(np.isin(vals, sub).all())


def build_reduct(
    alg: Algebra,
    subset: ThickEdgeSubset,
    budget: ClosureBudget = DEFAULT_BUDGET,
    slices=None,
) -> Reduct:
    """Filter the binary and ternary term slices by subset preservation.

    A slice's tables are distinct rows of one closure, and binary and
    ternary tables differ by arity, so no table repeats; names are b0.. and
    t0.. in canonical (slice) order.  A capped slice yields a reduct marked
    incomplete; downstream verifications must then report unknown rather
    than pass.  ``slices``
    can pass precomputed ((binary, status), (ternary, status)) pairs so
    several edges of one algebra share the slice work.
    """
    sub = subset.as_set()
    if slices is not None:
        (bins, st2), (ters, st3) = slices
    else:
        bins, st2 = term_slice(alg, 2, budget)
        ters, st3 = term_slice(alg, 3, budget)
    complete = st2 == "complete" and st3 == "complete"
    ops: list[OpTable] = []
    bi = ti = 0
    for t in bins:
        if _preserves(t.values, 2, alg.size, sub):
            ops.append(t.renamed(f"b{bi}"))
            bi += 1
    for t in ters:
        if _preserves(t.values, 3, alg.size, sub):
            ops.append(t.renamed(f"t{ti}"))
            ti += 1
    if not ops:
        raise AlgebraError("reduct has no operations; slice was empty")
    algebra = Algebra(f"{alg.name}'", alg.size, ops)
    return Reduct(base=alg, subset=subset, algebra=algebra, complete=complete)


def verify_reduct_claims(
    alg: Algebra,
    reduct: Reduct,
    budget: ClosureBudget = DEFAULT_BUDGET,
    base_graph: EdgeGraph | None = None,
) -> dict:
    """Check that the reduct still has no type-1 divisor and that s-/sm-
    connectivity of the edge graph survives where the base had it.

    Statuses are pass/fail/unknown per claim; an incomplete reduct makes
    everything unknown.
    """
    report: dict = {"subset": list(reduct.subset.elements), "kind": reduct.subset.kind}
    if not reduct.complete:
        report["omits_type1"] = "unknown"
        report["s_connectivity"] = "unknown"
        report["sm_connectivity"] = "unknown"
        return report
    records: dict = {}  # the reduct's records, shared by its gate and its graph
    report["omits_type1"] = "pass" if omits_type1(reduct.algebra, records) else "fail"
    bg = base_graph if base_graph is not None else edge_graph(alg, budget)
    rg = edge_graph(reduct.algebra, budget, records)
    if bg.s_connected():
        report["s_connectivity"] = "pass" if rg.s_connected() else "fail"
    else:
        report["s_connectivity"] = "skipped"
    if bg.sm_connected():
        report["sm_connectivity"] = "pass" if rg.sm_connected() else "fail"
    else:
        report["sm_connectivity"] = "skipped"
    return report
