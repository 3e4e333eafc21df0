"""Finite idempotent algebras as flat operation tables.

The universe of an algebra of size n is always {0, ..., n-1}.  A k-ary
operation is stored as a flat value array of length n**k in row-major
order with the leftmost argument most significant:

    index(x1, ..., xk) = x1*n**(k-1) + x2*n**(k-2) + ... + xk

This encoding is the single wire format used everywhere, including the
``.alg`` text format.  All objects here are immutable after construction
and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np


class AlgebraError(ValueError):
    """Invalid algebra data: bad table, bad arguments, failed precondition."""


class ParseError(AlgebraError):
    """Syntax or validation error in an ``.alg`` stream, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class VerificationError(RuntimeError):
    """A self-check that must hold by construction failed (abort, do not guess)."""


class _Unknown:
    """Singleton for inconclusive results of capped closures.

    Deliberately not usable as a boolean: code must compare with
    ``is UNKNOWN`` instead of truth-testing a three-valued result.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNKNOWN"

    def __bool__(self):
        raise TypeError("three-valued result: compare with `is UNKNOWN`")


UNKNOWN = _Unknown()


def tuple_index(args: Sequence[int], size: int) -> int:
    """Flat index of an argument tuple, leftmost argument most significant."""
    idx = 0
    for x in args:
        idx = idx * size + x
    return idx


def flat_index(columns: Iterable[np.ndarray], size: int) -> np.ndarray:
    """Flat indices of argument columns, the first column most significant:
    the vectorised ``tuple_index``.  Folds in place into one int64 copy of
    the first column; the columns themselves are not modified."""
    columns = iter(columns)
    flat = next(columns).astype(np.int64)
    for col in columns:
        flat *= size
        flat += col
    return flat


def argument_grids(size: int, arity: int) -> np.ndarray:
    """(arity, size**arity) array whose column j is the j-th argument tuple."""
    grids = np.indices((size,) * arity).reshape(arity, -1)
    return grids.astype(np.uint8)


class OpTable:
    """A finitary operation on {0..n-1} stored as a flat value array."""

    __slots__ = ("name", "arity", "size", "values")

    def __init__(self, name: str, arity: int, size: int, values):
        if arity < 1:
            raise AlgebraError(f"op {name}: arity must be >= 1, got {arity}")
        if size < 1:
            raise AlgebraError(f"op {name}: size must be >= 1, got {size}")
        if size > 255:
            raise AlgebraError(f"op {name}: size {size} exceeds supported maximum 255")
        vals = np.asarray(values, dtype=np.int64)
        if vals.shape != (size**arity,):
            raise AlgebraError(
                f"op {name}: expected {size**arity} values for arity {arity}, "
                f"size {size}, got {vals.size}"
            )
        if vals.size and (vals.min() < 0 or vals.max() >= size):
            bad = int(np.argmax((vals < 0) | (vals >= size)))
            raise AlgebraError(
                f"op {name}: value {int(vals[bad])} at index {bad} out of range [0, {size})"
            )
        table = vals.astype(np.uint8)
        table.setflags(write=False)
        self.name = name
        self.arity = arity
        self.size = size
        self.values = table

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise AlgebraError(
                f"op {self.name}: expected {self.arity} arguments, got {len(args)}"
            )
        for x in args:
            if not 0 <= x < self.size:
                raise AlgebraError(f"op {self.name}: argument {x} out of range")
        return int(self.values[tuple_index(args, self.size)])

    def table(self) -> np.ndarray:
        """The values reshaped to one axis per argument."""
        return self.values.reshape((self.size,) * self.arity)

    def is_idempotent(self) -> bool:
        diag = tuple(range(self.size))
        return bool(np.all(self.table()[(diag,) * self.arity] == np.arange(self.size)))

    def idempotency_violation(self) -> int | None:
        """Smallest x with f(x,...,x) != x, or None."""
        diag = self.table()[(tuple(range(self.size)),) * self.arity]
        bad = np.nonzero(diag != np.arange(self.size))[0]
        return int(bad[0]) if bad.size else None

    def key(self) -> tuple:
        """Hashable identity of the table contents (name excluded)."""
        return (self.arity, self.size, self.values.tobytes())

    def renamed(self, name: str) -> "OpTable":
        return OpTable(name, self.arity, self.size, self.values)

    def __eq__(self, other):
        return isinstance(other, OpTable) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"OpTable({self.name!r}, arity={self.arity}, size={self.size})"


def projection(size: int, arity: int, pos: int, name: str | None = None) -> OpTable:
    """The projection onto argument ``pos`` (0-based)."""
    if not 0 <= pos < arity:
        raise AlgebraError(f"projection position {pos} out of range for arity {arity}")
    vals = argument_grids(size, arity)[pos]
    return OpTable(name or f"p{pos}", arity, size, vals)


class Algebra:
    """A named universe size with a nonempty list of idempotent operations."""

    __slots__ = ("name", "size", "ops", "_by_name", "_powers")

    def __init__(self, name: str, size: int, ops: Sequence[OpTable]):
        if size < 1:
            raise AlgebraError(f"algebra {name}: size must be >= 1")
        if not ops:
            raise AlgebraError(f"algebra {name}: needs at least one operation")
        by_name: dict[str, OpTable] = {}
        for op in ops:
            if op.size != size:
                raise AlgebraError(
                    f"algebra {name}: op {op.name} has size {op.size}, expected {size}"
                )
            x = op.idempotency_violation()
            if x is not None:
                raise AlgebraError(
                    f"algebra {name}: op {op.name} is not idempotent at x={x}"
                )
            if op.name in by_name:
                raise AlgebraError(f"algebra {name}: duplicate op name {op.name}")
            by_name[op.name] = op
        self.name = name
        self.size = size
        self.ops = tuple(ops)
        self._by_name = by_name
        self._powers: dict[int, tuple[list[np.ndarray], np.ndarray]] = {}

    def op(self, name: str) -> OpTable:
        try:
            return self._by_name[name]
        except KeyError:
            raise AlgebraError(f"algebra {self.name}: unknown op {name}") from None

    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((op.name, op.arity) for op in self.ops)

    def power_tables(self, w: int) -> tuple[list[np.ndarray], np.ndarray]:
        """The operations of the power A^w, w-tuples coded by their flat
        index, each as a flat table like ``OpTable.values``; and the (w, n**w)
        digits of every code.  Codes must fit a byte: n**w <= 256.  Cached."""
        if w not in self._powers:
            n = self.size
            if n**w > 256:
                raise AlgebraError(f"power_tables: {n}**{w} codes do not fit a byte")
            tables = []
            for op in self.ops:
                r, base = op.arity, op.table()
                table = base
                for _ in range(w - 1):  # append one coordinate to every argument
                    m = table.shape[0]
                    wider = table.reshape((m, 1) * r) * n + base.reshape((1, n) * r)
                    table = wider.reshape((m * n,) * r)
                tables.append(table.ravel())
            digits = argument_grids(n, w)
            for array in (*tables, digits):
                array.setflags(write=False)
            self._powers[w] = (tables, digits)
        return self._powers[w]

    def arities(self) -> tuple[int, ...]:
        return tuple(sorted({op.arity for op in self.ops}))

    def renamed(self, name: str) -> "Algebra":
        return Algebra(name, self.size, self.ops)

    def __repr__(self):
        sig = ", ".join(f"{n}/{a}" for n, a in self.signature())
        return f"Algebra({self.name!r}, size={self.size}, ops=[{sig}])"


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    """Variable x_index in a term."""

    index: int

    def __str__(self):
        return f"x{self.index}"


@dataclass(frozen=True)
class App:
    """Application of a named operation to subterms."""

    op: str
    args: tuple

    def __str__(self):
        inner = " ".join(str(a) for a in self.args)
        return f"({self.op} {inner})"


TermExpr = Var | App


def evaluate_term(alg: Algebra, term: TermExpr, assignment: Mapping[int, int] | Sequence[int]) -> int:
    """Evaluate a term under a variable assignment (total on the term's variables)."""
    if isinstance(term, Var):
        try:
            return assignment[term.index]
        except (KeyError, IndexError):
            raise AlgebraError(f"unassigned variable x{term.index}") from None
    op = alg.op(term.op)
    if len(term.args) != op.arity:
        raise AlgebraError(
            f"term applies {op.name}/{op.arity} to {len(term.args)} arguments"
        )
    vals = [evaluate_term(alg, a, assignment) for a in term.args]
    return op(*vals)


def evaluate_term_columns(alg: Algebra, term: TermExpr, columns: np.ndarray) -> np.ndarray:
    """Evaluate a term coordinatewise; row j of ``columns`` is the value of x_j."""
    if isinstance(term, Var):
        if term.index >= columns.shape[0]:
            raise AlgebraError(f"unassigned variable x{term.index}")
        return columns[term.index]
    op = alg.op(term.op)
    if len(term.args) != op.arity:
        raise AlgebraError(
            f"term applies {op.name}/{op.arity} to {len(term.args)} arguments"
        )
    parts = (evaluate_term_columns(alg, a, columns) for a in term.args)
    return op.values[flat_index(parts, alg.size)]


def term_table(alg: Algebra, term: TermExpr, arity: int, name: str = "t") -> OpTable:
    """Materialize a term as an operation table of the given arity."""
    cols = argument_grids(alg.size, arity)
    vals = evaluate_term_columns(alg, term, cols)
    return OpTable(name, arity, alg.size, vals)


# ---------------------------------------------------------------------------
# Elementary constructions


def subalgebra_induced(alg: Algebra, carrier: Iterable[int]) -> tuple[Algebra, list[int]]:
    """Relabel a closed subset as an algebra on {0..m-1}.

    Returns the induced algebra and the sorted carrier (new label i is
    carrier[i]).  Raises if the carrier is not closed, reporting a witness.
    """
    elems = sorted(set(carrier))
    if not elems:
        raise AlgebraError(f"algebra {alg.name}: empty carrier")
    for x in elems:
        if not 0 <= x < alg.size:
            raise AlgebraError(f"algebra {alg.name}: carrier element {x} out of range")
    inv = {x: i for i, x in enumerate(elems)}
    m = len(elems)
    new_ops = []
    for op in alg.ops:
        grid = argument_grids(m, op.arity)
        args_old = np.asarray(elems, dtype=np.uint8)[grid]
        vals_old = op.values[flat_index(args_old, alg.size)]
        outside = ~np.isin(vals_old, elems)
        if outside.any():
            j = int(np.argmax(outside))
            witness = tuple(int(args_old[i, j]) for i in range(op.arity))
            raise AlgebraError(
                f"algebra {alg.name}: carrier not closed under {op.name}: "
                f"{op.name}{witness} = {int(vals_old[j])}"
            )
        new_vals = np.array([inv[int(v)] for v in vals_old], dtype=np.uint8)
        new_ops.append(OpTable(op.name, op.arity, m, new_vals))
    return Algebra(f"{alg.name}|{{{','.join(map(str, elems))}}}", m, new_ops), elems


def quotient_algebra(alg: Algebra, theta) -> tuple[Algebra, list[int]]:
    """Factor algebra modulo a congruence.

    ``theta`` is any partition object exposing ``block_id`` (length-n array
    where block_id[x] is the least member of x's block).  Blocks are numbered
    by least member; well-definedness is re-verified over all representative
    tuples and a violating pair is reported if found.
    """
    bid = list(theta.block_id)
    if len(bid) != alg.size:
        raise AlgebraError(
            f"algebra {alg.name}: partition of size {len(bid)} does not match"
        )
    reps = sorted(set(bid))
    rep_label = {r: i for i, r in enumerate(reps)}
    block_map = [rep_label[bid[x]] for x in range(alg.size)]
    bm = np.asarray(block_map, dtype=np.uint8)
    m = len(reps)
    new_ops = []
    for op in alg.ops:
        grid = argument_grids(alg.size, op.arity)
        val_blocks = bm[op.values[flat_index(grid, alg.size)]]
        # all argument tuples with the same block pattern must agree blockwise
        pattern = flat_index((bm[row] for row in grid), m)
        order = np.argsort(pattern, kind="stable")
        ps, vs = pattern[order], val_blocks[order]
        starts = np.r_[True, ps[1:] != ps[:-1]]
        group_first = np.maximum.accumulate(np.where(starts, np.arange(ps.size), 0))
        disagree = vs != vs[group_first]
        if disagree.any():
            j = int(np.argmax(disagree))
            i0, i1 = int(order[group_first[j]]), int(order[j])
            t0 = tuple(int(grid[r, i0]) for r in range(op.arity))
            t1 = tuple(int(grid[r, i1]) for r in range(op.arity))
            raise AlgebraError(
                f"algebra {alg.name}: partition not compatible with {op.name}: "
                f"{op.name}{t0} and {op.name}{t1} land in different blocks"
            )
        new_vals = np.empty(m**op.arity, dtype=np.uint8)
        rep_grid = argument_grids(m, op.arity)
        rep_args = np.asarray(reps, dtype=np.uint8)[rep_grid]
        new_vals[:] = bm[op.values[flat_index(rep_args, alg.size)]]
        new_ops.append(OpTable(op.name, op.arity, m, new_vals))
    return Algebra(f"{alg.name}/theta", m, new_ops), block_map


def product_algebra(algs: Sequence[Algebra], name: str | None = None) -> Algebra:
    """Direct product; universe is mixed-radix tuples, leftmost factor most significant."""
    if not algs:
        raise AlgebraError("product of empty list of algebras")
    sig = algs[0].signature()
    for a in algs[1:]:
        if a.signature() != sig:
            raise AlgebraError(
                f"product: signature mismatch between {algs[0].name} and {a.name}"
            )
    sizes = [a.size for a in algs]
    total = 1
    for s in sizes:
        total *= s
    if total > 255:
        raise AlgebraError(f"product size {total} exceeds supported maximum 255")
    # decode each product element into per-factor digits
    digits = np.empty((len(algs), total), dtype=np.int64)
    rest = np.arange(total)
    for j in range(len(algs) - 1, -1, -1):
        digits[j] = rest % sizes[j]
        rest //= sizes[j]
    new_ops = []
    for oi, (opname, arity) in enumerate(sig):
        grid = argument_grids(total, arity).astype(np.int64)
        vals = np.zeros(total**arity, dtype=np.int64)
        for j, a in enumerate(algs):
            flat = flat_index((digits[j][row] for row in grid), a.size)
            vals = vals * a.size + a.ops[oi].values[flat]
        new_ops.append(OpTable(opname, arity, total, vals))
    return Algebra(name or "x".join(a.name for a in algs), total, new_ops)


def product_encode(sizes: Sequence[int], elems: Sequence[int]) -> int:
    """Encode a tuple of factor elements into a product element."""
    code = 0
    for s, e in zip(sizes, elems):
        code = code * s + e
    return code


# ---------------------------------------------------------------------------
# .alg text format


def parse_algebra(text: str) -> Algebra:
    """Parse the ``.alg`` format.

    Grammar (UTF-8, '#' starts a line comment)::

        algebra NAME
        size N
        op NAME ARITY
        <N**ARITY integers, whitespace separated, line breaks insignificant>
        op ...
    """
    tokens: list[tuple[str, int, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        i = 0
        while i < len(line):
            if line[i].isspace():
                i += 1
                continue
            j = i
            while j < len(line) and not line[j].isspace():
                j += 1
            tokens.append((line[i:j], ln, i + 1))
            i = j
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expect: str | None = None) -> tuple[str, int, int]:
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1] if tokens else ("", 1, 1)
            raise ParseError("unexpected end of input", last[1], last[2])
        tok = tokens[pos]
        pos += 1
        if expect is not None and tok[0] != expect:
            raise ParseError(f"expected '{expect}', got '{tok[0]}'", tok[1], tok[2])
        return tok

    def take_int(what: str) -> tuple[int, int, int]:
        tok, ln, col = take()
        try:
            return int(tok), ln, col
        except ValueError:
            raise ParseError(f"expected {what}, got '{tok}'", ln, col) from None

    take("algebra")
    name, _, _ = take()
    take("size")
    size, ln, col = take_int("size")
    if size < 1:
        raise ParseError(f"size must be >= 1, got {size}", ln, col)
    ops = []
    while peek() is not None:
        take("op")
        opname, _, _ = take()
        arity, ln, col = take_int("arity")
        if arity < 1:
            raise ParseError(f"arity must be >= 1, got {arity}", ln, col)
        count = size**arity
        values = []
        for _ in range(count):
            v, ln, col = take_int("table value")
            if not 0 <= v < size:
                raise ParseError(
                    f"op {opname}: value {v} out of range [0, {size})", ln, col
                )
            values.append(v)
        table = OpTable(opname, arity, size, values)
        x = table.idempotency_violation()
        if x is not None:
            raise ParseError(f"op {opname} is not idempotent at x={x}", ln, col)
        ops.append(table)
    if not ops:
        raise ParseError("algebra has no operations", 1, 1)
    return Algebra(name, size, ops)


def serialize_algebra(alg: Algebra) -> str:
    """Emit the ``.alg`` format deterministically (ops in order, 16 values/line)."""
    lines = [f"algebra {alg.name}", f"size {alg.size}"]
    for op in alg.ops:
        lines.append(f"op {op.name} {op.arity}")
        vals = op.values
        for i in range(0, len(vals), 16):
            lines.append(" ".join(str(int(v)) for v in vals[i : i + 16]))
    return "\n".join(lines) + "\n"
