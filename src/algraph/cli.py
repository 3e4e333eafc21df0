"""Command line surface.

Subcommands: check, edges, graph, thin, synth, slice, reduct, verify,
enumerate.
Reports go to stdout or --json PATH with a stable field order, DOT files
via --dot.  Exit codes: 0 all pass, 1 failure, 2 usage/parse error,
3 unknown results present.  The closure cap can be set with --cap or the
ALG_CAP environment variable, and the cap on argument tuples evaluated per
closure with --max-work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .connectivity import build_oriented_graph, export_dot, verify_as_connectivity
from .core import (
    UNKNOWN,
    Algebra,
    AlgebraError,
    ParseError,
    VerificationError,
    parse_algebra,
    serialize_algebra,
)
from .edges import edge_graph, has_siggers_term, omits_type1
from .reduct import build_reduct, thick_edge_subset, verify_reduct_claims
from .subpower import ClosureBudget, DEFAULT_MAX_ELEMENTS, term_slice
from .verify import (
    THEOREMS,
    Analysis,
    enumerate_and_verify,
    run_suite,
    worst_status,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


def _budget(args) -> ClosureBudget:
    cap = getattr(args, "cap", None)
    if cap is None:
        env = os.environ.get("ALG_CAP")
        try:
            cap = int(env) if env else DEFAULT_MAX_ELEMENTS
        except ValueError:
            raise AlgebraError(f"ALG_CAP must be an integer, got {env!r}") from None
    return ClosureBudget(max_elements=cap, max_work=getattr(args, "max_work", None))


def _load(path: str) -> Algebra:
    text = Path(path).read_text()
    return parse_algebra(text)


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2)
    if getattr(args, "json", None):
        Path(args.json).write_text(text + "\n")
    else:
        print(text)


def _status_exit(statuses) -> int:
    return {"fail": EXIT_FAIL, "unknown": EXIT_UNKNOWN}.get(worst_status(statuses), EXIT_PASS)


def _edge_payload(graph) -> list[dict]:
    out = []
    for (a, b), e in sorted(graph.edges.items()):
        entry = {
            "a": a,
            "b": b,
            "types": sorted(e.types),
            "strict": e.strict,
            "theta": {t: e.theta_blocks(t) for t in sorted(e.theta)},
            "witnesses": {t: str(w) for t, w in sorted(e.witnesses.items())},
        }
        if e.unknown_types:
            entry["unknown_types"] = sorted(e.unknown_types)
        out.append(entry)
    return out


def _thin_payload(args, alg: Algebra, thin, witness: bool = False) -> list[dict]:
    """The thin edges sorted by (from, to, kind), with their witness terms
    when asked; the graph of all of them goes to --dot when given."""
    if args.dot:
        Path(args.dot).write_text(export_dot(build_oriented_graph(alg, thin, "all"), name=alg.name))
    out = []
    for t in sorted(thin, key=lambda t: (t.src, t.dst, t.kind)):
        entry = {"kind": t.kind, "from": t.src, "to": t.dst}
        if witness:
            entry["witness"] = str(t.witness_term) if t.witness_term is not None else None
        out.append(entry)
    return out


def cmd_check(args) -> int:
    alg = _load(args.file)
    budget = _budget(args)
    taylor = omits_type1(alg)
    sig = has_siggers_term(alg, budget)
    payload = {
        "algebra": alg.name,
        "size": alg.size,
        "ops": [f"{n}/{a}" for n, a in alg.signature()],
        "idempotent": True,  # enforced by the parser
        "omits_type1": taylor,
        "siggers_search": "yes" if sig is True else ("no" if sig is False else "unknown"),
    }
    _emit(args, payload)
    if sig is not UNKNOWN and (sig is True) != taylor:
        return EXIT_FAIL  # the two checks can never disagree
    return EXIT_PASS if sig is not UNKNOWN else EXIT_UNKNOWN


def cmd_edges(args) -> int:
    alg = _load(args.file)
    graph = edge_graph(alg, _budget(args))
    payload = {"algebra": alg.name, "pairs": _edge_payload(graph)}
    _emit(args, payload)
    return EXIT_UNKNOWN if graph.has_unknown() else EXIT_PASS


def cmd_graph(args) -> int:
    alg = _load(args.file)
    ana = Analysis(alg, _budget(args))
    graph, (thin, capped) = ana.graph(), ana.thin()
    rep = verify_as_connectivity(alg, thin)
    payload = {
        "algebra": alg.name,
        "pairs": _edge_payload(graph),
        "thin_edges": _thin_payload(args, alg, thin),
        "maximal": rep["maximal"],
        "as_components": rep["as_components"],
    }
    _emit(args, payload)
    return EXIT_UNKNOWN if capped or graph.has_unknown() else EXIT_PASS


def cmd_thin(args) -> int:
    alg = _load(args.file)
    ana = Analysis(alg, _budget(args))
    fp, (thin, capped) = ana.fprime(), ana.thin()
    payload = {
        "algebra": alg.name,
        "good_f": [int(v) for v in fp.values],
        "thin_edges": _thin_payload(args, alg, thin, witness=True),
    }
    _emit(args, payload)
    return EXIT_UNKNOWN if capped or ana.graph().has_unknown() else EXIT_PASS


def cmd_synth(args) -> int:
    alg = _load(args.file)
    ops = Analysis(alg, _budget(args)).unified()
    unified = Algebra(f"{alg.name}_unified", alg.size, [ops.f, ops.g, ops.h])
    payload = {
        "algebra": alg.name,
        "f": [int(v) for v in ops.f.values],
        "g": [int(v) for v in ops.g.values],
        "h": [int(v) for v in ops.h.values],
        "conditions": {f"{k[0]}:{k[1]}": v for k, v in sorted(ops.provenance.items())},
        "alg_format": serialize_algebra(unified),
    }
    if args.alg:
        Path(args.alg).write_text(serialize_algebra(unified))
    _emit(args, payload)
    return EXIT_PASS


def cmd_slice(args) -> int:
    alg = _load(args.file)
    tables, status = term_slice(alg, args.arity, _budget(args))
    named = [t.renamed(f"s{i}") for i, t in enumerate(tables)]
    sliced = Algebra(f"{alg.name}_slice{args.arity}", alg.size, named)
    payload = {
        "algebra": alg.name,
        "arity": args.arity,
        "count": len(tables),
        "status": status,
    }
    if args.alg:
        Path(args.alg).write_text(serialize_algebra(sliced))
    else:
        payload["alg_format"] = serialize_algebra(sliced)
    _emit(args, payload)
    return EXIT_UNKNOWN if status != "complete" else EXIT_PASS


def cmd_reduct(args) -> int:
    alg = _load(args.file)
    budget = _budget(args)
    try:
        a, b = (int(x) for x in args.edge.split(","))
    except ValueError:
        print("--edge expects 'a,b'", file=sys.stderr)
        return EXIT_USAGE
    graph = edge_graph(alg, budget)
    info = graph.edge(a, b)
    if info is None or not info.is_edge():
        print(f"pair ({a},{b}) is not an edge", file=sys.stderr)
        return EXIT_FAIL
    subset = thick_edge_subset(alg, info)
    red = build_reduct(alg, subset, budget)
    rep = verify_reduct_claims(alg, red, budget, base_graph=graph)
    payload = {
        "algebra": alg.name,
        "edge": [a, b],
        "subset": list(subset.elements),
        "ops": len(red.algebra.ops),
        "complete": red.complete,
        "claims": rep,
    }
    if args.alg:
        Path(args.alg).write_text(serialize_algebra(red.algebra))
    _emit(args, payload)
    statuses = [rep["omits_type1"], rep["s_connectivity"], rep["sm_connectivity"]]
    return _status_exit(statuses)


def cmd_verify(args) -> int:
    alg = _load(args.file)
    reports = run_suite(alg, args.theorem, _budget(args))
    payload = {
        "algebra": alg.name,
        "reports": [r.to_json() for r in reports],
    }
    _emit(args, payload)
    return _status_exit([r.status for r in reports])


def cmd_enumerate(args) -> int:
    budget = _budget(args)
    agg = enumerate_and_verify(
        args.size,
        args.signature,
        args.theorem,
        limit=args.limit,
        budget=budget,
        parallel=args.parallel,
    )
    if args.failures and agg["failures"]:
        outdir = Path(args.failures)
        outdir.mkdir(parents=True, exist_ok=True)
        from .verify import idempotent_algebra

        for f in agg["failures"]:
            alg = idempotent_algebra(args.size, args.signature, f["index"])
            (outdir / f"{alg.name}.alg").write_text(serialize_algebra(alg))
    _emit(args, agg)
    return _status_exit(s for s, n in agg["counts"].items() if n and s not in ("algebras", "taylor"))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="algraph",
        description="Edge structure and connectivity analysis of finite idempotent algebras",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, file=True):
        if file:
            sp.add_argument("file", help="path to an .alg file")
        sp.add_argument("--json", help="write the JSON report here instead of stdout")
        sp.add_argument(
            "--cap",
            type=int,
            help=f"closure element cap (default: ALG_CAP, else {DEFAULT_MAX_ELEMENTS})",
        )
        sp.add_argument(
            "--max-work",
            type=int,
            help="cap on argument tuples evaluated per closure (default: no limit)",
        )

    sp = sub.add_parser("check", help="idempotency and type-omission status")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("edges", help="classify every pair of elements")
    common(sp)
    sp.set_defaults(func=cmd_edges)

    sp = sub.add_parser("graph", help="edge classification plus the oriented thin graph")
    common(sp)
    sp.add_argument("--dot", help="write the thin graph in DOT format here")
    sp.set_defaults(func=cmd_graph)

    sp = sub.add_parser("thin", help="thin edges under the improved binary operation")
    common(sp)
    sp.add_argument("--dot", help="write the thin graph in DOT format here")
    sp.set_defaults(func=cmd_thin)

    sp = sub.add_parser("synth", help="synthesize the unified operations f, g, h")
    common(sp)
    sp.add_argument("--alg", help="also write f, g, h as an .alg file here")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("slice", help="dump all term operations of one arity")
    common(sp)
    sp.add_argument("--arity", type=int, default=2, choices=(1, 2, 3))
    sp.add_argument("--alg", help="write the slice as an .alg file here")
    sp.set_defaults(func=cmd_slice)

    sp = sub.add_parser("reduct", help="build and verify a thick-edge reduct")
    common(sp)
    sp.add_argument("--edge", required=True, help="the edge as 'a,b'")
    sp.add_argument("--alg", help="write the reduct as an .alg file here")
    sp.set_defaults(func=cmd_reduct)

    sp = sub.add_parser("verify", help="run verification suites")
    common(sp)
    sp.add_argument(
        "--theorem",
        default="all",
        choices=THEOREMS + ("all",),
        help="which suite to run (default all)",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("enumerate", help="sweep all idempotent algebras of a signature")
    common(sp, file=False)
    sp.add_argument("--size", type=int, required=True, choices=(2, 3))
    sp.add_argument(
        "--signature", default="binary", choices=("binary", "ternary", "binary+ternary")
    )
    sp.add_argument(
        "--theorem", default="all", choices=THEOREMS + ("all",), help="suite to run"
    )
    sp.add_argument("--limit", type=int, help="only the first K algebras")
    sp.add_argument("--parallel", type=int, default=1, help="worker processes")
    sp.add_argument("--failures", help="directory for replayable .alg failure files")
    sp.set_defaults(func=cmd_enumerate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as ex:
        print(f"cannot read file: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except AlgebraError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_UNKNOWN if ex.capped else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
