"""Independent brute-force oracles for the test suite.

Everything here is deliberately written with plain Python sets and loops,
sharing no code path with the package's closure engine, so that agreement
between the two is meaningful.
"""

import itertools


def naive_close(alg, k, gens):
    """Fixpoint closure of tuples under all operations, as a set."""
    cur = {tuple(g) for g in gens}
    changed = True
    while changed:
        changed = False
        new = set()
        for op in alg.ops:
            for args in itertools.product(sorted(cur), repeat=op.arity):
                val = tuple(op(*[a[j] for a in args]) for j in range(k))
                if val not in cur:
                    new.add(val)
        if new:
            cur |= new
            changed = True
    return cur


def brute_term_tables(alg, k):
    """All k-ary term operations as value tuples, by composing tables.

    Starts from the projections and repeatedly substitutes known tables
    into every basic operation until nothing new appears.
    """
    n = alg.size
    args = list(itertools.product(range(n), repeat=k))
    tables = set()
    for j in range(k):
        tables.add(tuple(a[j] for a in args))
    changed = True
    while changed:
        changed = False
        for op in alg.ops:
            for combo in itertools.product(sorted(tables), repeat=op.arity):
                new = tuple(
                    op(*[combo[i][pos] for i in range(op.arity)])
                    for pos in range(len(args))
                )
                if new not in tables:
                    tables.add(new)
                    changed = True
    return tables


def _partitions(n):
    """All partitions of {0..n-1} as lists of sorted blocks."""
    if n == 0:
        return [[]]
    out = []

    def rec(i, blocks):
        if i == n:
            out.append([sorted(b) for b in blocks])
            return
        for b in blocks:
            b.append(i)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        rec(i + 1, blocks)
        blocks.pop()

    rec(1, [[0]])
    return out


def brute_congruences(alg):
    """All congruences by filtering every partition with the direct
    definition: blockwise-equal argument tuples have blockwise-equal values."""
    n = alg.size
    out = []
    for blocks in _partitions(n):
        bid = {}
        for b in blocks:
            for x in b:
                bid[x] = min(b)
        ok = True
        for op in alg.ops:
            for a1 in itertools.product(range(n), repeat=op.arity):
                for a2 in itertools.product(range(n), repeat=op.arity):
                    if all(bid[x] == bid[y] for x, y in zip(a1, a2)):
                        if bid[op(*a1)] != bid[op(*a2)]:
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(frozenset(b) for b in blocks))
    return set(out)


def table_is_semilattice_on(table2, n, a, b):
    """Is the binary value-tuple a semilattice operation on {a, b}?"""
    def at(x, y):
        return table2[x * n + y]

    return (
        at(a, b) == at(b, a)
        and at(a, b) in (a, b)
        and at(a, a) == a
        and at(b, b) == b
    )


def table_is_majority_on(table3, n, a, b):
    def at(x, y, z):
        return table3[(x * n + y) * n + z]

    for x, y in ((a, b), (b, a)):
        if not (at(x, x, y) == x and at(x, y, x) == x and at(y, x, x) == x):
            return False
    return True


def affine_certificate_tables(alg):
    """The x-y+z tables of Z_q, under every labelling of {0..q-1}, that
    commute with every operation and are term operations; q <= 3, where
    every abelian group is cyclic."""
    q = alg.size
    assert q <= 3
    triples = list(itertools.product(range(q), repeat=3))
    commuting = set()
    for lab in itertools.permutations(range(q)):
        inv = {v: i for i, v in enumerate(lab)}
        mal = {t: lab[(inv[t[0]] - inv[t[1]] + inv[t[2]]) % q] for t in triples}
        if all(
            op(*[mal[col] for col in zip(xs, ys, zs)]) == mal[(op(*xs), op(*ys), op(*zs))]
            for op in alg.ops
            for xs in itertools.product(range(q), repeat=op.arity)
            for ys in itertools.product(range(q), repeat=op.arity)
            for zs in itertools.product(range(q), repeat=op.arity)
        ):
            commuting.add(tuple(mal[t] for t in triples))
    if not commuting:
        return set()
    terms = naive_close(alg, len(triples), [[t[j] for t in triples] for j in range(3)])
    return commuting & terms


def brute_distances(n, arcs):
    """dist[u][v]: the least k such that v is among the vertices u reaches in
    at most k arcs, for every v that u reaches.  The sets reached in at most
    k arcs grow by unions over the arcs until a round adds nothing."""
    within = [{u} for u in range(n)]
    dist = [{u: 0} for u in range(n)]
    k = 0
    while True:
        k += 1
        grown = [set(s) for s in within]
        for u, v in arcs:
            grown[u] |= within[v]
        if grown == within:
            return dist
        for u in range(n):
            for v in grown[u] - within[u]:
                dist[u][v] = k
        within = grown


def brute_link(rows, n, i):
    """The link of a relation in coordinate i, as an n x n list of bools:
    u ~ v when some two rows have u and v in coordinate i and agree in
    every other coordinate."""
    rows = [tuple(r) for r in rows]
    linked = {
        (r[i], s[i])
        for r in rows
        for s in rows
        if all(r[j] == s[j] for j in range(len(r)) if j != i)
    }
    return [[(u, v) in linked for v in range(n)] for u in range(n)]


def _closed(alg, subset):
    s = set(subset)
    return all(
        op(*args) in s for op in alg.ops for args in itertools.product(subset, repeat=op.arity)
    )


def is_type1_divisor(alg, carrier, blocks):
    """Is ``blocks``, a partition of the closed ``carrier`` into at least two
    blocks, a congruence whose quotient has only projections?  Read off the
    tables: argument tuples with the same blocks give values in one block,
    and for each operation some argument position always lands in the
    value's block."""
    if len(blocks) < 2 or not _closed(alg, carrier):
        return False
    bid = {x: i for i, b in enumerate(blocks) for x in b}
    for op in alg.ops:
        value = {}
        for args in itertools.product(carrier, repeat=op.arity):
            key = tuple(bid[x] for x in args)
            if value.setdefault(key, bid[op(*args)]) != bid[op(*args)]:
                return False
        if not any(all(v == key[j] for key, v in value.items()) for j in range(op.arity)):
            return False
    return True


def brute_type1(alg):
    """The first type-1 divisor (carrier, blocks) over every subset of size
    at least 2 and every partition of it, or None."""
    n = alg.size
    for r in range(2, n + 1):
        for carrier in itertools.combinations(range(n), r):
            for blocks in _partitions(r):
                blocks = [[carrier[i] for i in b] for b in blocks]
                if is_type1_divisor(alg, carrier, blocks):
                    return carrier, blocks
    return None


def brute_product_tables(algs):
    """The value lists of the direct product's operations, element i being
    the i-th tuple of ``itertools.product`` over the factors' universes."""
    elems = list(itertools.product(*[range(a.size) for a in algs]))
    index = {e: i for i, e in enumerate(elems)}
    tables = []
    for oi, op in enumerate(algs[0].ops):
        values = []
        for args in itertools.product(elems, repeat=op.arity):
            image = tuple(_apply(a.ops[oi], [x[j] for x in args]) for j, a in enumerate(algs))
            values.append(index[image])
        tables.append(values)
    return tables


def _apply(op, args):
    """One entry of a flat table, leftmost argument most significant."""
    flat = 0
    for x in args:
        flat = flat * op.size + x
    return int(op.values[flat])
