"""Classification of element pairs into semilattice / majority / affine edges.

A pair (a, b) is an edge when some congruence theta of the subalgebra
generated by {a, b} separates a from b and the quotient carries a term
operation behaving as a semilattice, majority, or affine operation on the
blocks of a and b.  Witness operations are found as membership targets in
small generated subpowers of the quotient, so every reported witness comes
with an explicit term that re-evaluates to the claimed behavior.

An affine quotient has x-y+z of an abelian group as a term operation
commuting with its basic operations.  Such a quotient is abelian, and an
abelian algebra has at most one Maltsev term operation (Freese-McKenzie,
*Commutator Theory for Congruence Modular Varieties*), so
``affine_certificates`` decides it from one candidate.  The term condition
refutes, because operations commuting with x-y+z are affine maps, which
satisfy it.  A missing Maltsev term refutes, because x-y+z would be one.  A
Maltsev term m commuting with every basic operation certifies, because it
then commutes with itself, so it is x-y+z for the group x+y := m(x,0,y).

The standing assumption on input algebras (idempotent, no degenerate
two-element projection-only quotient anywhere) is checked two ways:

* ``type1_divisor`` / ``omits_type1``: exact and fast, by scanning all
  quotients of subalgebras (the carrier records below) for an algebra whose
  basic operations are all projections.  For finite idempotent algebras this
  is equivalent to a 4-ary term s with s(y,x,y,z) = s(x,y,z,y).
* ``has_siggers_term``: the direct search for that 4-ary term, three-valued
  because its closure can be huge; used to cross-validate the first check.

A pair's classification depends only on ``(Sg(a,b), a, b)``: the carrier,
the congruences, the quotients and the witness searches all live inside
Sg(a,b).  Two consequences are used throughout the package instead of
classifying again.  The edge graph of a subalgebra is the restriction of
the whole algebra's graph to its carrier (``graph_connected_hereditary``),
and (b, a) classifies exactly like (a, b), so ``EdgeGraph`` stores each
unordered pair once and reversed pairs are read from it.  Only
``semilattice_orientations`` and ``witnesses`` are stated for the stored
orientation (a < b).

Pairs that generate the same carrier share what depends on the carrier
alone.  A record per carrier (``_record``) holds the induced subalgebra,
its congruences, and the quotient and affine certificate of each
congruence, each built on first use; in a simple algebra every pair
generates the whole algebra, so these are built once, not once per pair.

Each pair is read from one closed relation, R = Sg{(a,b),(b,a)} in A^2
(``pair_relation``), closed once under the budget and with derivations:

* its first coordinates are Sg(a, b), the carrier;
* its image in Q^2, for Q = Sg(a,b)/theta, is Sg{(abar,bbar),(bbar,abar)},
  so the semilattice orientation "ab" holds at theta exactly when some row
  of R has both coordinates in b's theta-block ("ba": in a's block), and no
  search in Q decides it; the witness term is read from R's derivations at
  the equality (``quotient_algebra`` numbers its blocks by least member, so
  the search in Q would keep the same ones), and otherwise comes from one
  search in Q for the witnessing orientation, "ab" first;
* a semilattice witness s for "ab" makes s(s(x,y),z) send (a,b,b), (b,a,b)
  and (b,b,a) to b, so ``majority_witness`` skips that half-test ("ba":
  the other half), which could only have refuted.

R has at most n^2 rows, so an element cap cuts it short only below that
size.  A capped R decides nothing: the carrier is then closed in A^1
without the budget and both semilattice searches run in Q at each
congruence, so every capped answer is what those searches give.  The
tolerance suite links the same relation.

The records of one algebra, the carrier records under their carriers and
the pair relations under ``(a, b, budget)``, live in a dict the caller
passes, which an ``Analysis`` shares between its type-1 gate, its edge
graph and its tolerance suite; a lone call makes its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .congruence import (
    Partition,
    all_congruences,
    compatible_tolerance_generated,
    is_class_subuniverse,
    is_simple,
)
from .core import (
    UNKNOWN,
    Algebra,
    AlgebraError,
    OpTable,
    TermExpr,
    VerificationError,
    argument_grids,
    evaluate_term_columns,
    product_algebra,
    quotient_algebra,
    subalgebra_induced,
    tuple_index,
)
from .subpower import (
    ClosureBudget,
    DEFAULT_BUDGET,
    SubUniverse,
    closure_search,
    extract_term,
    find_term,
    generate_subuniverse,
)

SEMILATTICE = "semilattice"
MAJORITY = "majority"
AFFINE = "affine"
EDGE_TYPES = (SEMILATTICE, MAJORITY, AFFINE)

STRICT_SEMILATTICE = "strictly-semilattice"
STRICT_MAJORITY = "strictly-majority"
STRICT_AFFINE = "strictly-affine"
STRICT = {SEMILATTICE: STRICT_SEMILATTICE, MAJORITY: STRICT_MAJORITY, AFFINE: STRICT_AFFINE}


@dataclass(frozen=True)
class AffineCertificate:
    """x-y+z of an abelian group as a term operation of a quotient:
    ``maltsev`` is its table, commuting with every basic operation, and
    ``term`` a term evaluating to it."""

    maltsev: OpTable
    term: TermExpr


@dataclass(frozen=True)
class EdgeInfo:
    """Classification result for an unordered pair."""

    a: int
    b: int
    carrier: tuple[int, ...]
    sub: Algebra
    a_loc: int
    b_loc: int
    types: frozenset[str]
    unknown_types: frozenset[str]
    theta: dict
    witnesses: dict
    affine_cert: AffineCertificate | None
    semilattice_orientations: frozenset[str]
    strict: str | None

    def is_edge(self) -> bool:
        return bool(self.types)

    def theta_blocks(self, kind: str) -> list[list[int]]:
        """Blocks of the minimal witnessing congruence, in original labels."""
        p = self.theta[kind]
        return [[self.carrier[x] for x in block] for block in p.blocks()]

    def block_of(self, kind: str, x: int) -> list[int]:
        """Original-label block of original element x under theta[kind]."""
        loc = self.carrier.index(x)
        p = self.theta[kind]
        return [self.carrier[y] for y in p.block_of(loc)]


def semilattice_witness(Q: Algebra, abar: int, bbar: int, budget: ClosureBudget = DEFAULT_BUDGET):
    """Binary term f with f(abar,bbar) = f(bbar,abar) = bbar, or None/UNKNOWN.

    Found as membership of (bbar,bbar) in the subpower generated by
    (abar,bbar) and (bbar,abar); the term is over Q's signature.
    """
    if abar == bbar:
        raise AlgebraError("witness search requires distinct elements")
    return find_term(Q, 2, [(abar, bbar), (bbar, abar)], (bbar, bbar), budget)


def majority_witness(
    Q: Algebra,
    abar: int,
    bbar: int,
    budget: ClosureBudget = DEFAULT_BUDGET,
    orientations: frozenset[str] = frozenset(),
):
    """Ternary term g that is a majority operation on {abar, bbar}, or None/UNKNOWN.

    The six non-diagonal argument patterns over the pair are stacked into a
    single 6-coordinate membership target.  The two 3-coordinate halves are
    closed first: projecting a member of a subpower onto some coordinates
    gives a member of the projected subpower, so when a complete half lacks
    its target, (b,b,b) or (a,a,a), no majority term exists and the answer
    None is exact.  A capped half decides nothing; the full search runs.

    ``orientations`` are semilattice orientations known to hold on the pair
    in Q (``classify_pair`` passes those it read at the same congruence).  A
    witness s for "ab" makes s(s(x,y),z) send (a,b,b), (b,a,b) and (b,b,a)
    to b, so the first half holds its target and is not closed; "ba" settles
    the second half the same way.  A skipped half could only have refuted,
    so the answer does not change.
    """
    if abar == bbar:
        raise AlgebraError("witness search requires distinct elements")
    a, b = abar, bbar
    gens = [(a, b, b, b, a, a), (b, a, b, a, b, a), (b, b, a, a, a, b)]
    target = (b, b, b, a, a, a)
    for half, settled_by in ((slice(0, 3), "ab"), (slice(3, 6), "ba")):
        if settled_by in orientations:
            continue
        proj = generate_subuniverse(
            Q, 3, [g[half] for g in gens], budget=budget, derivations=False, target=target[half]
        )
        if proj.is_complete() and proj.find(target[half]) is None:
            return None
    return find_term(Q, 6, gens, target, budget)


def _term_condition(alg: Algebra) -> bool:
    """Does every basic operation satisfy the term condition in each argument?

    f(..x@i..c) = f(..y@i..c) must imply f(..x@i..d) = f(..y@i..d): which
    values of the i-th argument f identifies may not depend on the others.
    """
    q = alg.size
    for op in alg.ops:
        for i in range(op.arity):
            rows = np.moveaxis(op.table(), i, 0).reshape(q, -1)
            eq = rows[:, None, :] == rows[None, :, :]
            if not (eq == eq[:, :, :1]).all():
                return False
    return True


def _commutes(alg: Algebra, m: OpTable) -> bool:
    """Does every basic operation f commute with the ternary table m?

    f(m(x1,y1,z1), .., m(xr,yr,zr)) = m(f(x), f(y), f(z)) is checked for one
    tuple x at a time, over all tuples y, z at once.
    """
    q = alg.size
    mt = m.table()
    wide = mt.astype(np.intp)
    for op in alg.ops:
        r = op.arity
        f = op.values
        m_of_f = mt[:, f[:, None], f[None, :]]  # m(u, f(y), f(z)) for every u
        for i, x in enumerate(itertools.product(range(q), repeat=r)):
            # m(x_j, y_j, z_j) on axes y_j = j and z_j = r + j
            args = 0
            for j, xj in enumerate(x):
                shape = [1] * (2 * r)
                shape[j] = shape[r + j] = q
                args = args * q + wide[xj].reshape(shape)
            if not np.array_equal(f[args].reshape(q**r, q**r), m_of_f[f[i]]):
                return False
    return True


def affine_certificates(Q: Algebra, budget: ClosureBudget = DEFAULT_BUDGET):
    """The affine certificate of a quotient, x-y+z of an abelian group as a
    term operation commuting with every basic operation: (certificate or
    None, capped flag).  There is at most one (Freese-McKenzie: an abelian
    algebra has at most one Maltsev term operation), decided exactly by

    1. the term condition on the basic operations, which every affine map
       sum(a_i x_i) + c, so every operation commuting with x-y+z, satisfies;
    2. a Maltsev term m, m(x,y,y) = x = m(y,y,x); x-y+z would be one;
    3. m commuting with every basic operation: the term operation m then
       commutes with itself, so it is x-y+z for x+y := m(x,0,y).

    The certificate's term is m's table searched in the q^3-coordinate
    subpower generated by the projection columns.
    """
    q = Q.size
    if q < 2:
        raise AlgebraError("affine certificate needs at least 2 elements")
    if not _term_condition(Q):
        return None, False
    pairs = [(x, y) for x in range(q) for y in range(q)]
    triples = [(x, y, y) for x, y in pairs] + [(y, y, x) for x, y in pairs if x != y]
    target = [x for x, _ in pairs] + [x for x, y in pairs if x != y]
    m = find_term(Q, len(triples), list(zip(*triples)), target, budget)
    if m is None or m is UNKNOWN:
        return None, m is UNKNOWN
    cols = argument_grids(q, 3)
    mal = OpTable("mal", 3, q, evaluate_term_columns(Q, m, cols))
    if not _commutes(Q, mal):
        return None, False
    gens = [tuple(int(v) for v in cols[j]) for j in range(3)]
    term = find_term(Q, q**3, gens, tuple(int(v) for v in mal.values), budget)
    if term is UNKNOWN:
        return None, True
    if term is None:
        raise VerificationError("Maltsev term operation missing from the ternary term slice")
    return AffineCertificate(mal, term), False


@dataclass
class _CarrierRecord:
    """What every question about one carrier shares: the induced
    subalgebra, its congruences in ``all_congruences`` order, the quotient
    ``(Q, block map)`` per congruence index and the ``affine_certificates``
    result per index and budget, each built on first use."""

    sub: Algebra
    congruences: list[Partition]
    quotients: dict[int, tuple[Algebra, list[int]]] = field(default_factory=dict)
    certificates: dict[tuple[int, ClosureBudget], tuple] = field(default_factory=dict)

    def quotient(self, i: int) -> tuple[Algebra, list[int]]:
        if i not in self.quotients:
            self.quotients[i] = quotient_algebra(self.sub, self.congruences[i])
        return self.quotients[i]

    def certificate(self, i: int, budget: ClosureBudget) -> tuple:
        if (i, budget) not in self.certificates:
            self.certificates[i, budget] = affine_certificates(self.quotient(i)[0], budget)
        return self.certificates[i, budget]


def _record(alg: Algebra, carrier: tuple[int, ...], records: dict) -> _CarrierRecord:
    """The record of a sorted carrier in ``records``, built on first use."""
    if carrier not in records:
        sub, _ = subalgebra_induced(alg, carrier)
        records[carrier] = _CarrierRecord(sub, all_congruences(sub))
    return records[carrier]


def pair_relation(
    alg: Algebra, a: int, b: int, budget: ClosureBudget = DEFAULT_BUDGET, records: dict | None = None
) -> SubUniverse:
    """R = Sg{(a,b),(b,a)} in A^2, with derivations, closed under the budget
    once per records table: it is kept in ``records`` under ``(a, b,
    budget)`` (a fresh dict when None)."""
    records = {} if records is None else records
    key = (a, b, budget)
    if key not in records:
        records[key] = generate_subuniverse(alg, 2, [(a, b), (b, a)], budget)
    return records[key]


def _pair_carrier(alg: Algebra, a: int, b: int) -> tuple[int, ...]:
    """Sg(a, b) as a sorted tuple."""
    su = generate_subuniverse(alg, 1, [(a,), (b,)], derivations=False)
    return tuple(sorted(x for (x,) in su.elements()))


def _orientations(
    rel: SubUniverse, carrier: tuple[int, ...], theta: Partition, a_loc: int, b_loc: int
) -> frozenset[str]:
    """The semilattice orientations at theta, read from R's image in Q^2:
    "ab" holds when some row of R lies in b's theta-block in both
    coordinates, "ba" when one lies in a's."""
    bid = np.asarray(theta.block_id)
    blocks = bid[np.searchsorted(carrier, rel.rows)]
    return frozenset(o for o, x in (("ab", b_loc), ("ba", a_loc)) if (blocks == bid[x]).all(axis=1).any())


def _read_witness(
    rel: SubUniverse,
    Q: Algebra,
    theta: Partition,
    abar: int,
    bbar: int,
    orients: frozenset[str],
    budget: ClosureBudget,
):
    """The semilattice witness of the first of the orientations read from R,
    "ab" first: R's own term at the equality, else one search in Q."""
    if "ab" not in orients:
        return semilattice_witness(Q, bbar, abar, budget)
    if not theta.is_equality():
        return semilattice_witness(Q, abar, bbar, budget)
    _, b = rel.generators[0]
    return extract_term(rel, rel.find((b, b)))


def classify_pair(
    alg: Algebra,
    a: int,
    b: int,
    budget: ClosureBudget = DEFAULT_BUDGET,
    records: dict | None = None,
) -> EdgeInfo:
    """Full edge classification of a pair: types, minimal witnessing
    congruences, witnesses, strictness.

    The congruences of Sg(a,b) that separate a from b are tried finer-first,
    in the order of ``all_congruences``.  A strictly finer congruence has
    more blocks, so it comes earlier: the first congruence that witnesses a
    type is minimal among its witnessing ones, and the least of them in that
    order.  A type is not searched again once witnessed, and the walk stops
    when all three are.  A type is unknown when it stayed unwitnessed and
    some search for it was capped.

    The pair is read from R = Sg{(a,b),(b,a)} (``pair_relation``).  When R
    is complete, its first coordinates are the carrier, the semilattice
    orientations at each congruence are read from its image in Q^2, and the
    orientations read are passed to ``majority_witness``, whose half-tests
    they settle.  The witness term is R's own at the equality for "ab", and
    otherwise comes from one search in Q for the witnessing orientation, "ab"
    first: the same terms as searching both orientations in Q gives.  A
    capped R decides nothing: the carrier is closed in A^1 without the
    budget, and both semilattice searches run at each congruence; the
    witness searches, which keep the budget, decide what a cap leaves open.

    ``records`` holds the pair relations and, per carrier, the record its
    pairs share (subalgebra, congruences, quotients, affine certificates);
    ``edge_graph`` passes one dict for all pairs of an algebra, and None
    starts an empty one, so a lone call builds everything itself.
    """
    if a == b:
        raise AlgebraError("classify_pair requires distinct elements")
    records = {} if records is None else records
    rel = pair_relation(alg, a, b, budget, records)
    exact = rel.is_complete()
    carrier = tuple(np.unique(rel.rows[:, 0]).tolist()) if exact else _pair_carrier(alg, a, b)
    rec = _record(alg, carrier, records)
    a_loc, b_loc = carrier.index(a), carrier.index(b)

    found: dict[str, tuple[Partition, object]] = {}
    capped: set[str] = set()
    sl_orients: frozenset[str] = frozenset()
    for i, theta in enumerate(rec.congruences):
        if len(found) == len(EDGE_TYPES):
            break
        if theta.same(a_loc, b_loc):
            continue
        Q, bmap = rec.quotient(i)
        abar, bbar = bmap[a_loc], bmap[b_loc]

        orients = _orientations(rel, carrier, theta, a_loc, b_loc) if exact else frozenset()
        if SEMILATTICE not in found:
            if exact:
                term = _read_witness(rel, Q, theta, abar, bbar, orients, budget) if orients else None
            else:
                to_b = semilattice_witness(Q, abar, bbar, budget)
                to_a = semilattice_witness(Q, bbar, abar, budget)
                hits = {o: w for o, w in (("ab", to_b), ("ba", to_a)) if w is not None and w is not UNKNOWN}
                orients = frozenset(hits)
                term = next(iter(hits.values()), None)
                if not hits and (to_b is UNKNOWN or to_a is UNKNOWN):
                    capped.add(SEMILATTICE)
            if orients:
                found[SEMILATTICE] = (theta, term)
                sl_orients = orients

        if MAJORITY not in found:
            mj = majority_witness(Q, abar, bbar, budget, orients)
            if mj is UNKNOWN:
                capped.add(MAJORITY)
            elif mj is not None:
                found[MAJORITY] = (theta, mj)

        if AFFINE not in found:
            cert, cut = rec.certificate(i, budget)
            if cert is not None:
                found[AFFINE] = (theta, cert)
            elif cut:
                capped.add(AFFINE)

    kinds = [t for t in EDGE_TYPES if t in found]
    affine_cert = found[AFFINE][1] if AFFINE in found else None
    return EdgeInfo(
        a=a,
        b=b,
        carrier=carrier,
        sub=rec.sub,
        a_loc=a_loc,
        b_loc=b_loc,
        types=frozenset(kinds),
        unknown_types=frozenset(capped - found.keys()),
        theta={t: found[t][0] for t in kinds},
        witnesses={t: affine_cert.term if t == AFFINE else found[t][1] for t in kinds},
        affine_cert=affine_cert,
        semilattice_orientations=sl_orients,
        strict=STRICT[kinds[0]] if kinds else None,
    )


class EdgeGraph:
    """Undirected graph on the universe with EdgeInfo labels."""

    def __init__(self, alg: Algebra, edges: dict[tuple[int, int], EdgeInfo]):
        self.alg = alg
        self.edges = edges

    def edge(self, a: int, b: int) -> EdgeInfo | None:
        return self.edges.get((min(a, b), max(a, b)))

    def is_edge(self, a: int, b: int) -> bool:
        e = self.edge(a, b)
        return e is not None and e.is_edge()

    def edge_list(self) -> list[EdgeInfo]:
        return [e for e in self.edges.values() if e.is_edge()]

    def has_unknown(self) -> bool:
        return any(e.unknown_types for e in self.edges.values())

    def connected(self, type_filter=None, strict_majority_only: bool = False) -> bool:
        """Undirected connectivity via edges whose types meet the filter.

        ``type_filter`` is a set of admissible types; with
        ``strict_majority_only``, majority edges count only when strict.
        """
        def admissible(e: EdgeInfo) -> bool:
            if type_filter is None:
                return True
            types = e.types & type_filter
            if strict_majority_only and e.strict != STRICT_MAJORITY:
                types = types - {MAJORITY}
            return bool(types)

        return edges_connect(range(self.alg.size), filter(admissible, self.edge_list()))

    def s_connected(self) -> bool:
        return self.connected({SEMILATTICE})

    def sm_connected(self) -> bool:
        return self.connected({SEMILATTICE, MAJORITY}, strict_majority_only=True)


def edges_connect(nodes: Sequence[int], edges: Iterable[EdgeInfo]) -> bool:
    """Do the edges join all of ``nodes`` into one component (union-find)?"""
    if len(nodes) <= 1:
        return True
    p = Partition.from_pairs(max(nodes) + 1, ((e.a, e.b) for e in edges))
    return all(p.same(x, nodes[0]) for x in nodes)


def edge_graph(alg: Algebra, budget: ClosureBudget = DEFAULT_BUDGET, records: dict | None = None) -> EdgeGraph:
    """Classify every unordered pair once, stored as (a, b) with a < b; pairs
    generating one carrier share its record in ``records`` (fresh if None)."""
    edges = {}
    records = {} if records is None else records
    for a in range(alg.size):
        for b in range(a + 1, alg.size):
            edges[(a, b)] = classify_pair(alg, a, b, budget, records)
    return EdgeGraph(alg, edges)


MAX_SUBUNIVERSE_ENUM = 12


def all_subuniverses(alg: Algebra, min_size: int = 1) -> list[tuple[int, ...]]:
    """All closed subsets, by checking every subset; guarded to small sizes."""
    n = alg.size
    if n > MAX_SUBUNIVERSE_ENUM:
        raise AlgebraError(f"subuniverse enumeration limited to size {MAX_SUBUNIVERSE_ENUM}")
    return [
        sub
        for r in range(max(min_size, 1), n + 1)
        for sub in itertools.combinations(range(n), r)
        if is_class_subuniverse(alg, sub)
    ]


def graph_connected_hereditary(graph: EdgeGraph) -> tuple[str, tuple[int, ...] | None]:
    """Connectivity of the edge graph of the algebra and of every subalgebra.

    A subalgebra's graph is the restriction of ``graph`` to its carrier, so
    nothing is classified again.  Returns ("unknown", carrier) or ("fail",
    carrier) for the first subuniverse, by size and then lexicographically,
    whose restriction has a pair of unknown type or is disconnected (unknown
    checked first), else ("pass", None).  Only the pair carriers Sg(a, b)
    are walked: if a subuniverse B has a pair (x, y) of unknown type, or x,
    y not joined inside B, then Sg(x, y), a subset of B, has the same
    defect, so the first bad subuniverse is 2-generated.
    """
    for carrier in sorted({e.carrier for e in graph.edges.values()}, key=lambda c: (len(c), c)):
        inside = set(carrier)
        infos = [e for e in graph.edges.values() if e.a in inside and e.b in inside]
        if any(e.unknown_types for e in infos):
            return "unknown", carrier
        if not edges_connect(carrier, [e for e in infos if e.is_edge()]):
            return "fail", carrier
    return "pass", None


# ---------------------------------------------------------------------------
# Standing assumption: omitting type 1


def _is_projection_only(alg: Algebra) -> bool:
    for op in alg.ops:
        grids = argument_grids(alg.size, op.arity)
        if not any(np.array_equal(op.values, grids[j]) for j in range(op.arity)):
            return False
    return True


def type1_divisor(alg: Algebra, records: dict | None = None):
    """A (carrier, partition) whose quotient has only projections, or None.

    A nontrivial such divisor is exactly the obstruction to having a 4-ary
    term s with s(y,x,y,z) = s(x,y,z,y) in a finite idempotent algebra.
    Subuniverses and congruences are walked in enumeration order, each read
    from its record in ``records`` (a fresh dict when None).
    """
    for carrier in all_subuniverses(alg, min_size=2):
        rec = _record(alg, carrier, {} if records is None else records)
        for i, theta in enumerate(rec.congruences):
            if theta.num_blocks() >= 2 and _is_projection_only(rec.quotient(i)[0]):
                return carrier, theta
    return None


def omits_type1(alg: Algebra, records: dict | None = None) -> bool:
    return type1_divisor(alg, records) is None


def has_siggers_term(alg: Algebra, budget: ClosureBudget = DEFAULT_BUDGET):
    """Search for a 4-ary term s with s(y,x,y,z) = s(x,y,z,y): True/False/UNKNOWN.

    Runs the closure of four generators in (AxA)^(n^3), one coordinate per
    argument triple (x,y,z), the two sides of each generator being the two
    argument patterns; a term exists exactly when some closure element is
    diagonal in every coordinate.  Stops at the first round that appends
    such an element.
    """
    n = alg.size
    if n == 1:
        return True
    pair = product_algebra([alg, alg], name=f"{alg.name}^2")
    coords = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]

    gens = [
        [tuple_index((y, x), n) for (x, y, z) in coords],
        [tuple_index((x, y), n) for (x, y, z) in coords],
        [tuple_index((y, z), n) for (x, y, z) in coords],
        [tuple_index((z, y), n) for (x, y, z) in coords],
    ]
    diagonal = np.zeros(n * n, dtype=bool)
    diagonal[[tuple_index((i, i), n) for i in range(n)]] = True

    def predicate(rows: np.ndarray) -> np.ndarray:
        return diagonal[rows].all(axis=1)

    hit = closure_search(pair, len(coords), gens, predicate, budget)
    if hit is UNKNOWN:
        return UNKNOWN
    return hit is not None


# ---------------------------------------------------------------------------
# Simplicity refinements


def is_strictly_simple(alg: Algebra) -> bool:
    """Simple, and every proper subalgebra is one-element.

    Proper subalgebras are all singletons exactly when every pair generates
    the whole algebra, which avoids enumerating all subsets.
    """
    if not is_simple(alg):
        return False
    n = alg.size
    for a in range(n):
        for b in range(a + 1, n):
            if len(_pair_carrier(alg, a, b)) != n:
                return False
    return True


def is_tolerance_free(alg: Algebra) -> bool:
    """Every compatible tolerance is the equality or the total relation.

    Checked through the compatible tolerance generated by each pair: the
    algebra is tolerance free exactly when each of these is total.
    """
    for a in range(alg.size):
        for b in range(a + 1, alg.size):
            t = compatible_tolerance_generated(alg, a, b)
            if not t.is_total():
                return False
    return True


def _hypergraph_connected(alg: Algebra, a: int, b: int) -> bool:
    """Are a, b connected in the hypergraph of proper subalgebras?"""
    proper = (c for c in all_subuniverses(alg, min_size=2) if len(c) < alg.size)
    return Partition.from_pairs(alg.size, ((c[0], x) for c in proper for x in c[1:])).same(a, b)


def verify_simple_case4(alg: Algebra, a: int, b: int, budget: ClosureBudget = DEFAULT_BUDGET) -> dict:
    """Either the pair is connected through proper subalgebras, or a
    semilattice/majority witness exists directly on {a, b}.

    Gated on the algebra being simple, tolerance free, non-affine and
    without type-1 divisor.  The claim is only guaranteed when the pair
    additionally generates the whole algebra; that flag is reported, and
    a double failure without it counts as skipped, not as a counterexample.
    """
    if not is_simple(alg):
        return {"status": "skipped", "reason": "algebra is not simple"}
    if not is_tolerance_free(alg):
        return {"status": "skipped", "reason": "algebra is not tolerance free"}
    cert, capped = affine_certificates(alg, budget)
    if cert is not None:
        return {"status": "skipped", "reason": "algebra has an affine certificate"}
    if capped:
        return {"status": "unknown", "reason": "affine check capped"}
    if not omits_type1(alg):
        return {"status": "skipped", "reason": "algebra has a type-1 divisor"}
    pair_generates = len(_pair_carrier(alg, a, b)) == alg.size
    if _hypergraph_connected(alg, a, b):
        return {"status": "pass", "disjunct": "hypergraph", "pair_generates": pair_generates}
    sl = semilattice_witness(alg, a, b, budget)
    if sl is UNKNOWN:
        return {"status": "unknown", "reason": "semilattice search capped"}
    sl2 = semilattice_witness(alg, b, a, budget)
    if sl2 is UNKNOWN:
        return {"status": "unknown", "reason": "semilattice search capped"}
    mj = majority_witness(alg, a, b, budget)
    if mj is UNKNOWN:
        return {"status": "unknown", "reason": "majority search capped"}
    if sl is not None or sl2 is not None or mj is not None:
        return {"status": "pass", "disjunct": "witness", "pair_generates": pair_generates}
    if not pair_generates:
        return {"status": "skipped", "reason": "algebra is not generated by the pair"}
    return {"status": "fail", "reason": "no disjunct holds", "pair": (a, b)}
