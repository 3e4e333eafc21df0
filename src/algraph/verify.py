"""Verification suites tying the analyses together, plus the enumeration
harness over all small idempotent algebras of a fixed signature.

Each suite checks one structural claim on one algebra and returns a
VerificationReport.  The checks return ``(status, detail)``; one frame
(``_suite``) turns that into the report.  It skips algebras that admit
type 1, reports a VerificationError (a SynthesisError among them) as
``unknown`` when a capped search cut it short and as ``fail`` otherwise, so
one broken claim never aborts the other suites or a sweep, appends the
serialized algebra to every failing detail, so a failure is a replayable
counterexample, and times the run.  ``worst_status`` is the one order of
verdicts: fail > unknown > skipped > pass.

The gate for "no degenerate divisor" used by every suite but
``tolerance-classes`` is the exact divisor test (omits_type1); the direct
4-ary term search is cross-checked against it separately because its
closure may exceed any practical budget on algebras that admit type 1.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .congruence import (
    MAX_TOLERANCE_ENUM,
    all_tolerances,
    is_class_subuniverse,
    link_tolerance,
    tolerance_classes,
)
from .core import (
    UNKNOWN,
    Algebra,
    AlgebraError,
    OpTable,
    VerificationError,
    argument_grids,
    serialize_algebra,
)
from .edges import (
    AFFINE,
    MAJORITY,
    SEMILATTICE,
    STRICT_AFFINE,
    STRICT_MAJORITY,
    EdgeGraph,
    edge_graph,
    edges_connect,
    graph_connected_hereditary,
    omits_type1,
    pair_relation,
)
from .connectivity import verify_as_connectivity
from .reduct import build_reduct, thick_edge_subset, verify_reduct_claims
from .subpower import ClosureBudget, DEFAULT_BUDGET, SubUniverse, term_slice
from .thin import (
    UnifiedOps,
    all_thin_edges,
    check_identities,
    good_f,
    synth_unified,
    thin_counterpart,
    verify_thick_thin,
)

@dataclass(slots=True)
class VerificationReport:
    theorem: str
    status: str  # pass | fail | unknown | skipped
    detail: dict = field(default_factory=dict)
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "status": self.status,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
        }


class Analysis:
    """Lazily computed shared state for one algebra's suites.

    The edge graph is built once, by ``graph()``; the suites, the thin
    edges and the CLI's graph/thin/synth commands read pairs, reversed
    pairs and subalgebra graphs from it instead of classifying again.  The
    gate ``taylor()``, the graph and ``relation()`` share one records table
    (carrier records and pair relations).  A synthesis that raised is
    raised again by every later ``unified()``, not run again.
    """

    def __init__(self, alg: Algebra, budget: ClosureBudget = DEFAULT_BUDGET):
        self.alg = alg
        self.budget = budget
        self._records: dict = {}
        self._graph: EdgeGraph | None = None
        self._unified: UnifiedOps | VerificationError | None = None
        self._fprime: OpTable | None = None
        self._thin: tuple[list, frozenset] | None = None
        self._taylor: bool | None = None

    def taylor(self) -> bool:
        if self._taylor is None:
            self._taylor = omits_type1(self.alg, self._records)
        return self._taylor

    def graph(self) -> EdgeGraph:
        if self._graph is None:
            self._graph = edge_graph(self.alg, self.budget, self._records)
        return self._graph

    def relation(self, a: int, b: int) -> SubUniverse:
        """Sg{(a,b),(b,a)} in A^2, the relation the graph classifies (a, b) from."""
        return pair_relation(self.alg, a, b, self.budget, self._records)

    def unified(self) -> UnifiedOps:
        if self._unified is None:
            try:
                self._unified = synth_unified(self.alg, self.graph().edge_list(), self.budget)
            except VerificationError as ex:
                self._unified = ex
        if isinstance(self._unified, VerificationError):
            raise self._unified
        return self._unified

    def fprime(self) -> OpTable:
        if self._fprime is None:
            self._fprime = good_f(self.alg, self.unified(), self.budget)
        return self._fprime

    def thin(self) -> tuple[list, frozenset]:
        """The thin edges, and the ``(kind, src, dst)`` triples a capped
        search left undecided; a non-empty set may hide thin edges."""
        if self._thin is None:
            self._thin = all_thin_edges(self.graph(), self.unified(), self.fprime(), self.budget)
        return self._thin


def worst_status(statuses: Iterable[str]) -> str:
    """The gravest of the statuses, fail > unknown > skipped > pass; pass
    when there are none."""
    return max(statuses, key=("pass", "skipped", "unknown", "fail").index, default="pass")


# suite name -> suite, in definition order; ``_suite`` fills it
_SUITES: dict = {}


def _suite(theorem: str, gated: bool):
    """The frame of every suite around ``check(ana, ...) -> (status, detail)``,
    entered into ``_SUITES`` under ``theorem``.

    With ``gated``, an algebra admitting type 1 is skipped.  A
    VerificationError is ``unknown`` when it is ``capped`` (a search of the
    term operations hit its cap), else ``fail``.  A failing detail gets the
    replayable algebra as its last key, and the report the wall time of the
    whole run.
    """

    def frame(check):
        @functools.wraps(check)
        def run(ana: Analysis) -> VerificationReport:
            t0 = time.time()
            if gated and not ana.taylor():
                status, detail = "skipped", {"reason": "algebra admits type 1"}
            else:
                try:
                    status, detail = check(ana)
                except VerificationError as ex:
                    status, detail = ("unknown" if ex.capped else "fail"), {"error": str(ex)}
            if status == "fail":
                detail["algebra"] = serialize_algebra(ana.alg)
            return VerificationReport(theorem, status, detail, time.time() - t0)

        _SUITES[theorem] = run
        return run

    return frame


@_suite("connectedness", gated=True)
def check_connectedness(ana: Analysis):
    """Edge-graph connectivity for the algebra and every induced subalgebra.

    The graph is built once; each subalgebra's graph is its restriction.
    """
    status, carrier = graph_connected_hereditary(ana.graph())
    return status, ({} if carrier is None else {"carrier": list(carrier)})


@_suite("uniform", gated=True)
def check_uniform(ana: Analysis):
    """Unified f, g, h meeting the whole per-edge condition matrix, as
    recorded in ``UnifiedOps.provenance``: ``enforce_identities`` refuses a
    matrix with a false entry, and a row that no operation meets is the
    frame's SynthesisError.  The matrix covers only the classified edges:
    with a pair of unknown type, the suite is ``unknown``."""
    matrix = ana.unified().provenance
    # the keys recur across algebras: one string each
    detail = {"conditions": {sys.intern(f"{k[0]}:{k[1]}"): v for k, v in sorted(matrix.items())}}
    return ("unknown" if ana.graph().has_unknown() else "pass"), detail


@_suite("identities", gated=True)
def check_identities_suite(ana: Analysis):
    """Absorption identities of f, g, h hold for all arguments."""
    return ("pass" if check_identities(ana.unified()) else "fail"), {}


@_suite("good-op", gated=True)
def check_good_op(ana: Analysis):
    """f(a,b) = a or (a, f(a,b)) is a thin semilattice edge, for all a,b."""
    t = ana.fprime().table()
    for a in range(ana.alg.size):
        for b in range(ana.alg.size):
            c = int(t[a, b])
            if c != a and not (t[a, c] == c and t[c, a] == c):
                return "fail", {"pair": [a, b]}
    return "pass", {}


@_suite("thin", gated=True)
def check_thin(ana: Analysis):
    """Thin counterparts for strict majority and affine edges, the
    thick-to-thin property for semilattice edges, and connectivity of the
    graph without non-trivially witnessed semilattice edges.  The graph is
    only known to be disconnected when no pair has a type left unknown."""
    alg = ana.alg
    graph = ana.graph()
    thin, undecided = ana.thin()
    failures = []
    unknown = False
    for e in graph.edge_list():
        kind = {STRICT_MAJORITY: MAJORITY, STRICT_AFFINE: AFFINE}.get(e.strict)
        if kind is None:
            continue
        # (b, a) classifies like (a, b): both orientations read the stored pair
        for src, dst in ((e.a, e.b), (e.b, e.a)):
            try:
                res = thin_counterpart(graph, thin, undecided, src, dst, kind)
            except VerificationError as ex:
                failures.append({"edge": [src, dst], "claim": f"thin-{kind}", "error": str(ex)})
                continue
            unknown |= res is UNKNOWN
    for fail in verify_thick_thin(alg, graph.edge_list(), ana.fprime()):
        failures.append({"edge": list(fail[0]), "claim": "thick-to-thin", "error": fail[1]})
    # dropping semilattice edges with nontrivial witness keeps the graph connected
    kept = [
        e
        for e in graph.edge_list()
        if e.types != {SEMILATTICE} or e.theta[SEMILATTICE].is_equality()
    ]
    if not edges_connect(range(alg.size), kept):
        if graph.has_unknown():
            unknown = True
        else:
            failures.append({"claim": "trimmed-graph-connectivity", "error": "disconnected"})
    if failures:
        return "fail", {"failures": failures}
    return ("unknown" if unknown else "pass"), {}


@_suite("as-connectivity", gated=True)
def check_as_connectivity(ana: Analysis):
    """All ordered pairs of maximal elements joined by thin-edge paths.

    A missing path is ``unknown`` when a capped search may have missed a
    thin edge."""
    thin, undecided = ana.thin()
    rep = verify_as_connectivity(ana.alg, thin)
    status = "unknown" if rep["status"] == "fail" and undecided else rep["status"]
    return status, {"maximal": rep["maximal"], "failures": rep["failures"]}


@_suite("reduct", gated=True)
def check_reduct(ana: Analysis):
    """Reduct claims for qualifying edges."""
    alg = ana.alg
    graph = ana.graph()
    edges = [e for e in graph.edge_list() if SEMILATTICE in e.types or e.strict == STRICT_MAJORITY]
    if not edges:
        return ("unknown" if graph.has_unknown() else "skipped"), {"reason": "no qualifying edge"}
    slices = (term_slice(alg, 2, ana.budget), term_slice(alg, 3, ana.budget))
    results = []
    for e in edges:
        subset = thick_edge_subset(alg, e)
        red = build_reduct(alg, subset, ana.budget, slices=slices)
        rep = verify_reduct_claims(alg, red, ana.budget, base_graph=graph)
        rep["edge"] = [e.a, e.b]
        rep["ops"] = len(red.algebra.ops)
        results.append(rep)
    claims = (rep[c] for rep in results for c in ("omits_type1", "s_connectivity", "sm_connectivity"))
    return worst_status(s for s in claims if s != "skipped"), {"edges": results}


@_suite("tolerance-classes", gated=False)
def check_tolerance_classes(ana: Analysis):
    """Classes of every tolerance are subuniverses; link tolerances of
    pair-generated subdirect binary relations are compatible.  The relation
    of a pair is Sg{(a,b),(b,a)}, read from ``Analysis.relation``: the one
    the edge graph classifies the pair from, so it is closed once for both.
    Unless something fails, the suite is ``unknown`` when the algebra is too
    large to enumerate its tolerances (the detail names the limit) or when a
    relation cut short by the budget leaves its pair undecided (it names the
    first such pair)."""
    alg = ana.alg
    failures = []
    detail = {}
    if alg.size > MAX_TOLERANCE_ENUM:
        detail["reason"] = f"tolerances not enumerated: limited to size {MAX_TOLERANCE_ENUM}"
    else:
        for t in all_tolerances(alg):
            for cls in tolerance_classes(t):
                if not is_class_subuniverse(alg, cls):
                    failures.append({"claim": "class-subuniverse", "class": cls})
    # (a, b) and (b, a) generate the same relation, which is its own converse:
    # link the first coordinate of the graph's relation of each pair only
    for a in range(alg.size):
        for b in range(a + 1, alg.size):
            rel = ana.relation(a, b)
            if not rel.is_complete():
                detail.setdefault("capped_pair", [a, b])
                continue
            if not rel.matrix().any(axis=1).all():
                continue
            try:
                link_tolerance(alg, rel, 0)
            except VerificationError as ex:
                failures.append(
                    {"claim": "link-tolerance", "pair": [a, b], "coord": 0, "error": str(ex)}
                )
    if failures:
        return "fail", {"failures": failures}
    return ("unknown" if detail else "pass"), detail


THEOREMS = tuple(_SUITES)


def run_suite(alg: Algebra, which="all", budget: ClosureBudget = DEFAULT_BUDGET) -> list[VerificationReport]:
    """Run theorem suites sharing one analysis.

    ``which`` is a suite name, "all", or a sequence of names.
    """
    return _run_suites(Analysis(alg, budget), which)


def _run_suites(ana: Analysis, which) -> list[VerificationReport]:
    if which == "all":
        names = THEOREMS
    elif isinstance(which, str):
        names = (which,)
    else:
        names = tuple(which)
    for name in names:
        if name not in _SUITES:
            raise AlgebraError(f"unknown theorem suite {name!r}; known: {THEOREMS}")
    return [_SUITES[name](ana) for name in names]


# ---------------------------------------------------------------------------
# Enumeration of small idempotent algebras


SIGNATURES = {
    "binary": ((2,),),
    "ternary": ((3,),),
    "binary+ternary": ((2, 3),),
}


def count_idempotent_algebras(size: int, signature: str) -> int:
    return math.prod(size ** (size**ar - size) for ar in SIGNATURES[signature][0])


def idempotent_algebra(size: int, signature: str, index: int) -> Algebra:
    """The index-th idempotent algebra: the base-``size`` digits of ``index``,
    most significant first, fill the off-diagonal cells of each operation in
    turn, in table order."""
    if signature not in SIGNATURES:
        raise AlgebraError(f"unknown signature {signature!r}; known: {sorted(SIGNATURES)}")
    if size not in (2, 3):
        raise AlgebraError("enumeration supports sizes 2 and 3")
    arities = SIGNATURES[signature][0]
    total = count_idempotent_algebras(size, signature)
    if not 0 <= index < total:
        raise AlgebraError(f"index {index} out of range [0, {total})")
    free = sum(size**ar - size for ar in arities)
    digits = [index // size**i % size for i in reversed(range(free))]
    ops = []
    for ar in arities:
        grids = argument_grids(size, ar)
        off = (grids != grids[0]).any(axis=0)
        vals = grids[0].astype(np.int64)
        vals[off] = digits[: size**ar - size]
        del digits[: size**ar - size]
        ops.append(OpTable({2: "f", 3: "g"}[ar], ar, size, vals))
    return Algebra(f"{signature[0]}{size}_{index}", size, ops)


def iter_idempotent_algebras(size: int, signature: str, limit: int | None = None) -> Iterator[Algebra]:
    total = count_idempotent_algebras(size, signature)
    stop = total if limit is None else min(limit, total)
    for i in range(stop):
        yield idempotent_algebra(size, signature, i)


def _verify_one(args):
    size, signature, index, which, budget = args
    ana = Analysis(idempotent_algebra(size, signature, index), budget)
    if not ana.taylor():
        return index, "type1", []
    reports = _run_suites(ana, which)
    return index, "taylor", [r.to_json() for r in reports]


def enumerate_and_verify(
    size: int,
    signature: str,
    which: str = "all",
    limit: int | None = None,
    budget: ClosureBudget = DEFAULT_BUDGET,
    parallel: int = 1,
) -> dict:
    """Run a theorem suite over every enumerated algebra without a type-1
    divisor; aggregates counts and collects failing algebras."""
    total = count_idempotent_algebras(size, signature)
    stop = total if limit is None else min(limit, total)
    jobs = ((size, signature, i, which, budget) for i in range(stop))
    counts = {"algebras": stop, "taylor": 0, "pass": 0, "fail": 0, "unknown": 0, "skipped": 0}
    failures = []
    unknowns = []

    def consume(result):
        index, kind, reports = result
        if kind == "type1":
            return
        counts["taylor"] += 1
        worst = worst_status(rep["status"] for rep in reports)
        counts[worst] += 1
        if worst == "fail":
            failures.append({"index": index, "reports": reports})
        elif worst == "unknown":
            unknowns.append({"index": index, "reports": reports})

    if parallel > 1:
        import multiprocessing as mp

        with mp.Pool(parallel) as pool:
            for result in pool.imap(_verify_one, jobs, chunksize=8):
                consume(result)
    else:
        for job in jobs:
            consume(_verify_one(job))
    return {
        "size": size,
        "signature": signature,
        "theorem": which,
        "counts": counts,
        "failures": failures,
        "unknowns": unknowns,
    }
