"""Oriented graphs of thin edges: components, maximal elements, paths.

Three nested arc sets are used: semilattice arcs only (s), semilattice
plus affine (as), semilattice plus majority (sm), and everything (all).
Maximal elements are those in the maximal strongly connected components of
the semilattice graph; as-maximal ones come from the semilattice+affine
graph.
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


def components(g: OrientedThinGraph) -> ComponentOrder:
    """Tarjan SCC (iterative) plus condensation reachability."""
    n = g.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for a in g.arcs:
        adj[a.src].append(a.dst)
    for row in adj:
        row.sort()
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    comps: list[list[int]] = []

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(pi, len(adj[v])):
                w = adj[v][j]
                if index[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc.append(w)
                    if w == v:
                        break
                comps.append(sorted(scc))
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    cid = [0] * n
    for scc in comps:
        label = min(scc)
        for v in scc:
            cid[v] = label
    # condensation reachability by BFS from each component
    comp_adj: dict[int, set[int]] = {min(s): set() for s in comps}
    for a in g.arcs:
        c1, c2 = cid[a.src], cid[a.dst]
        if c1 != c2:
            comp_adj[c1].add(c2)
    order = set()
    for c in comp_adj:
        seen = set()
        dq = deque(comp_adj[c])
        while dq:
            d = dq.popleft()
            if d in seen:
                continue
            seen.add(d)
            dq.extend(comp_adj[d])
        for d in seen:
            order.add((c, d))
    return ComponentOrder(tuple(cid), frozenset(order))


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
    when a == b.
    """
    g = build_oriented_graph(alg, thin_edges, kind)
    if a == b:
        return [a], []
    prev: dict[int, tuple[int, str]] = {}
    seen = {a}
    dq = deque([a])
    while dq:
        v = dq.popleft()
        for w, k in sorted(g.successors(v)):
            if w in seen:
                continue
            prev[w] = (v, k)
            if w == b:
                verts = [b]
                kinds = []
                cur = b
                while cur != a:
                    p, kk = prev[cur]
                    verts.append(p)
                    kinds.append(kk)
                    cur = p
                return list(reversed(verts)), list(reversed(kinds))
            seen.add(w)
            dq.append(w)
    return None


def depth_and_sdistance(alg: Algebra, thin_edges: Sequence[ThinEdge]) -> dict[int, int | None]:
    """Depth per element: the greatest, over maximal components of the
    semilattice graph reachable from it, of the shortest semilattice
    distance to that component.  None marks elements reaching no maximal
    component (possible only with a foreign maximal set)."""
    g = build_oriented_graph(alg, thin_edges, "s")
    co = components(g)
    maximal = co.maximal_components()
    dist_to_comp: dict[int, dict[int, int]] = {c: {} for c in maximal}
    # BFS backwards from each maximal component
    radj: list[list[int]] = [[] for _ in range(g.n)]
    for a in g.arcs:
        radj[a.dst].append(a.src)
    for c in maximal:
        dist = {v: 0 for v in co.members(c)}
        dq = deque(co.members(c))
        while dq:
            v = dq.popleft()
            for w in radj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    dq.append(w)
        dist_to_comp[c] = dist
    out: dict[int, int | None] = {}
    for v in range(g.n):
        ds = [dist_to_comp[c][v] for c in maximal if v in dist_to_comp[c]]
        out[v] = max(ds) if ds else None
    return out


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
    report.  The chain length is bounded by n^2.
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
    rows = {tuple(map(int, r)) for r in rel.rows}
    if {u for u, _ in rows} != set(range(alg.size)) or {v for _, v in rows} != set(range(alg.size)):
        return {"status": "skipped", "reason": "relation not subdirect"}
    tol = link_tolerance(alg, rel, 1)
    if not is_connected_tolerance(alg, tol):
        return {"status": "skipped", "reason": "link tolerance not connected"}

    g = build_oriented_graph(alg, thin_edges, "s")
    co = components(g)
    bhat = set(co.members(co.component_of(b)))

    def left_witness(d1: int, d2: int):
        for e in sorted(maxset):
            if (e, d1) in rows and (e, d2) in rows:
                return e
        return None

    # BFS over maximal elements; arcs = tolerance-adjacent with maximal witness
    start = a
    prev: dict[int, tuple[int, int]] = {}
    seen = {start}
    dq = deque([start])
    limit = alg.size * alg.size
    found = None
    while dq and found is None:
        v = dq.popleft()
        for w in sorted(maxset):
            if w in seen or not tol.contains(v, w):
                continue
            e = left_witness(v, w)
            if e is None:
                continue
            prev[w] = (v, e)
            if w in bhat:
                found = w
                break
            seen.add(w)
            dq.append(w)
    if a in bhat:
        found = a
    if found is None:
        return {"status": "fail", "reason": "no chain of maximal elements found", "a": a, "b": b}
    chain = [found]
    witnesses = []
    cur = found
    while cur != a:
        p, e = prev[cur]
        witnesses.append(e)
        chain.append(p)
        cur = p
    chain.reverse()
    witnesses.reverse()
    if len(chain) > limit:
        return {"status": "fail", "reason": "chain exceeds bound", "a": a, "b": b}
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
