"""Oriented graphs of thin edges: components, maximal elements, paths.

Three nested arc sets are used: semilattice arcs only (s), semilattice
plus affine (as), semilattice plus majority (sm), and everything (all).
Maximal elements are those in the maximal strongly connected components of
the semilattice graph; as-maximal ones come from the semilattice+affine
graph.

Two traversals answer every question.  ``_distances`` runs a breadth-first
search from every vertex and gives the arc count of a shortest path to each
vertex it reaches, which is cheap on graphs of an algebra's few elements.
``components`` reads it: a vertex's component is labelled by the least
vertex that it reaches and that reaches it, and one component is below
another when some member of the first reaches the second.
``depth_and_sdistance`` reads the distances from each element to the
members of the maximal components.  ``_path`` is one breadth-first search
with back pointers, over thin arcs for ``path_query`` and over
tolerance-adjacent maximal elements for ``verify_going_maximal``; each
caller fixes the order in which the steps out of a vertex are tried, and
that order decides ties between shortest paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .core import Algebra, AlgebraError
from .congruence import is_connected_tolerance, link_tolerance
from .edges import AFFINE, MAJORITY, SEMILATTICE
from .subpower import SubUniverse
from .thin import ThinEdge

KIND_FILTERS = {
    "s": {SEMILATTICE},
    "as": {SEMILATTICE, AFFINE},
    "sm": {SEMILATTICE, MAJORITY},
    "all": {SEMILATTICE, MAJORITY, AFFINE},
}


@dataclass(frozen=True)
class OrientedThinGraph:
    """Directed graph whose arcs are thin edges of the admitted kinds."""

    n: int
    arcs: tuple[ThinEdge, ...]
    kind_filter: str

    def successors(self, v: int) -> list[tuple[int, str]]:
        return [(a.dst, a.kind) for a in self.arcs if a.src == v]

    def arc_set(self) -> set[tuple[int, int]]:
        return {(a.src, a.dst) for a in self.arcs}


@dataclass(frozen=True)
class ComponentOrder:
    """SCC decomposition with the condensation reachability order."""

    component: tuple[int, ...]  # component id per vertex, normalized by least member
    order: frozenset[tuple[int, int]]  # (c1, c2) when c2 reachable from c1

    def component_of(self, v: int) -> int:
        return self.component[v]

    def members(self, cid: int) -> list[int]:
        return [v for v, c in enumerate(self.component) if c == cid]

    def component_ids(self) -> list[int]:
        return sorted(set(self.component))

    def below(self, c1: int, c2: int) -> bool:
        """c1 <= c2 in the reachability order."""
        return c1 == c2 or (c1, c2) in self.order

    def maximal_components(self) -> list[int]:
        ids = self.component_ids()
        return [c for c in ids if not any(d != c and (c, d) in self.order for d in ids)]


def build_oriented_graph(alg: Algebra, thin_edges: Sequence[ThinEdge], kind: str = "all") -> OrientedThinGraph:
    """Filter thin edges by kind: 's', 'as', 'sm', or 'all'."""
    if kind not in KIND_FILTERS:
        raise AlgebraError(f"unknown kind filter {kind!r}; use one of {sorted(KIND_FILTERS)}")
    allowed = KIND_FILTERS[kind]
    arcs = tuple(e for e in thin_edges if e.kind in allowed)
    for e in arcs:
        if e.src == e.dst:
            raise AlgebraError("thin edges connect distinct vertices")
    return OrientedThinGraph(alg.size, arcs, kind)


def _distances(g: OrientedThinGraph) -> list[dict[int, int]]:
    """dist[u][v]: the arc count of a shortest path from u to v, for every v
    that u reaches (u itself at 0), by a breadth-first search from each u."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for a in g.arcs:
        adj[a.src].append(a.dst)
    dist = []
    for u in range(g.n):
        du = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in du:
                        du[w] = du[v] + 1
                        nxt.append(w)
            frontier = nxt
        dist.append(du)
    return dist


def _path(start: int, steps, is_goal):
    """Breadth-first path from ``start`` to the first vertex found that
    passes ``is_goal``; ``steps(v)`` yields (w, label) for the arcs out of v
    in the order they are tried.  Returns (vertices, labels), the trivial
    ([start], []) when start passes, or None."""
    if is_goal(start):
        return [start], []
    prev: dict[int, tuple[int, object] | None] = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w, label in steps(v):
            if w in prev:
                continue
            prev[w] = (v, label)
            if is_goal(w):
                verts, labels = [w], []
                while prev[w] is not None:
                    w, label = prev[w]
                    verts.append(w)
                    labels.append(label)
                return verts[::-1], labels[::-1]
            queue.append(w)
    return None


def components(g: OrientedThinGraph) -> ComponentOrder:
    """Strongly connected components, each labelled by its least member, and
    the reachability order between them."""
    dist = _distances(g)
    cid = tuple(min(v for v in dist[u] if u in dist[v]) for u in range(g.n))
    order = frozenset((cid[u], cid[v]) for u in range(g.n) for v in dist[u] if cid[u] != cid[v])
    return ComponentOrder(cid, order)


def max_elements(alg: Algebra, thin_edges: Sequence[ThinEdge], kind: str = "s") -> list[int]:
    """Elements of the maximal components of the chosen oriented graph."""
    g = build_oriented_graph(alg, thin_edges, kind)
    co = components(g)
    out = []
    for c in co.maximal_components():
        out.extend(co.members(c))
    return sorted(out)


def path_query(
    alg: Algebra, thin_edges: Sequence[ThinEdge], kind: str, a: int, b: int
):
    """Shortest directed path from a to b through admitted kinds.

    Returns (vertices, arc kinds) or None; the trivial path is ([a], [])
    when a == b.  Ties go to the least (vertex, kind) at each step.
    """
    g = build_oriented_graph(alg, thin_edges, kind)
    return _path(a, lambda v: sorted(g.successors(v)), lambda v: v == b)


def depth_and_sdistance(alg: Algebra, thin_edges: Sequence[ThinEdge]) -> dict[int, int]:
    """Depth per element: the greatest, over maximal components of the
    semilattice graph reachable from it, of the shortest semilattice
    distance to that component.  Every element of a finite digraph reaches
    some maximal component, so every element has a depth."""
    g = build_oriented_graph(alg, thin_edges, "s")
    dist = _distances(g)
    co = components(g)
    maximal = co.maximal_components()
    return {
        v: max(min(dist[v][m] for m in co.members(c)) for c in maximal if c in dist[v])
        for v in range(g.n)
    }


def verify_as_connectivity(alg: Algebra, thin_edges: Sequence[ThinEdge]) -> dict:
    """Every ordered pair of maximal elements is joined by a path of thin
    edges (any kind).  Returns a report with failures listed."""
    maxset = max_elements(alg, thin_edges, "s")
    co = components(build_oriented_graph(alg, thin_edges, "as"))
    reach = components(build_oriented_graph(alg, thin_edges, "all"))
    failures = [
        {"a": a, "b": b}
        for a in maxset
        for b in maxset
        if not reach.below(reach.component_of(a), reach.component_of(b))
    ]
    return {
        "maximal": maxset,
        "as_components": sorted(sorted(co.members(c)) for c in co.component_ids()),
        "status": "pass" if not failures else "fail",
        "failures": failures,
    }


def verify_going_maximal(
    alg: Algebra,
    rel: SubUniverse,
    a: int,
    b: int,
    thin_edges: Sequence[ThinEdge],
) -> dict:
    """Chain of tolerance-adjacent maximal elements from a into b's
    semilattice component, with maximal left witnesses.

    Preconditions (simple algebra, maximal endpoints, subdirect square,
    connected link tolerance) are checked; unmet ones give a skipped
    report.  The chain visits distinct maximal elements, so it has at most
    n of them.
    """
    from .congruence import is_simple

    if rel.power != 2:
        return {"status": "skipped", "reason": "relation is not binary"}
    if not rel.is_complete():
        return {"status": "skipped", "reason": "relation capped"}
    if not is_simple(alg):
        return {"status": "skipped", "reason": "algebra not simple"}
    maxset = set(max_elements(alg, thin_edges, "s"))
    if a not in maxset or b not in maxset:
        return {"status": "skipped", "reason": "endpoints not maximal"}
    m = rel.matrix()
    if not (m.any(axis=0).all() and m.any(axis=1).all()):
        return {"status": "skipped", "reason": "relation not subdirect"}
    tol = link_tolerance(alg, rel, 1)
    if not is_connected_tolerance(alg, tol):
        return {"status": "skipped", "reason": "link tolerance not connected"}

    g = build_oriented_graph(alg, thin_edges, "s")
    co = components(g)
    bhat = set(co.members(co.component_of(b)))

    def left_witness(d1: int, d2: int):
        for e in sorted(maxset):
            if m[e, d1] and m[e, d2]:
                return e
        return None

    def steps(v: int):
        # arcs: tolerance-adjacent maximal elements with a maximal left witness
        for w in sorted(maxset):
            e = left_witness(v, w) if tol.contains(v, w) else None
            if e is not None:
                yield w, e

    found = _path(a, steps, bhat.__contains__)
    if found is None:
        return {"status": "fail", "reason": "no chain of maximal elements found", "a": a, "b": b}
    chain, witnesses = found
    return {"status": "pass", "chain": chain, "witnesses": witnesses, "target_component": sorted(bhat)}


_DOT_STYLE = {SEMILATTICE: "solid", MAJORITY: "dashed", AFFINE: "dotted"}


def export_dot(g: OrientedThinGraph, name: str = "thin") -> str:
    """DOT digraph; arc style encodes the kind, vertex order is stable."""
    lines = [f"digraph {name} {{"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for e in sorted(g.arcs, key=lambda e: (e.src, e.dst, e.kind)):
        lines.append(f'  {e.src} -> {e.dst} [style={_DOT_STYLE[e.kind]}, label="{e.kind[0]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
