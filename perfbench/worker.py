"""One fresh interpreter of the benchmark: set-up timing or a measured run.

    python3 perfbench/worker.py setup   --workload W --seed S
    python3 perfbench/worker.py measure --workload W --seed S --seconds T
        [--rounds N] [--limit N] [--trace --spans PATH]

Prints one JSON object.  ``run.py`` starts it with ``src`` on PYTHONPATH.
The measured loop is closed: one caller, one thread, and the next input
starts only after the previous verdict returns.  A verdict is the type-1
gate (``omits_type1``) plus, for a Taylor algebra, the workload's suites
(``run_suite``) or, on ``edges4``, ``edge_graph``.  Whole rounds of the
workload's population run while the previous round's time still fits in
``--seconds`` (at least one round).  Before the first verdict and after
each verdict, outside the timed region, the kernel of ``calibrate.py`` takes
a sample of the host's speed.  Checks against known answers run after the
timed loop.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import oracle
import workloads

SUITES = {"sweep3": workloads.MAIN_SUITES, "affine": workloads.AFFINE_SUITES}


def to_algebra(spec):
    from algraph.core import Algebra, OpTable

    name, size, ops = spec
    return Algebra(name, size, [OpTable(op, arity, size, values) for op, arity, values in ops])


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    import algraph  # noqa: F401
    import algraph.cli  # noqa: F401

    t1 = time.perf_counter()
    [to_algebra(s) for s in workloads.round_inputs(args.workload, args.seed, 0)]
    t2 = time.perf_counter()
    import calibrate

    calibrate.stream()  # allocates the buffers, untimed
    return {"import_s": t1 - t0, "inputs_s": t2 - t1, "cal_s": calibrate.sample()}


def _verdict(workload, alg):
    """The timed call sequence; returns the raw outputs for the checks."""
    from algraph.edges import edge_graph, omits_type1
    from algraph.verify import run_suite

    if not omits_type1(alg):
        return False, None
    if workload == "edges4":
        return True, edge_graph(alg)
    return True, run_suite(alg, SUITES[workload])


def _more_rounds(args, done: int, wall: float, last: float) -> bool:
    if args.rounds is not None:
        return done < args.rounds
    return done == 0 or wall + last <= args.seconds


def run_rounds(args, tracer=None) -> dict:
    import calibrate  # after algraph: it imports numpy, which set-up times

    rounds, verdicts, wall, last = [], [], 0.0, 0.0
    cal = [calibrate.sample()]  # the host speed before the first verdict
    while _more_rounds(args, len(rounds), wall, last):
        specs = workloads.round_inputs(args.workload, args.seed, len(rounds))[: args.limit]
        algs = [to_algebra(s) for s in specs]
        start = time.perf_counter()
        for spec, alg in zip(specs, algs):
            if tracer is not None:
                tracer.input = f"{len(rounds)}/{spec[0]}"
            t0 = time.perf_counter()
            try:
                taylor, out = _verdict(args.workload, alg)
                error = None
            except Exception:  # a raising verdict is a failed verdict; keep going
                taylor, out, error = None, None, traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            verdicts.append((spec, alg, taylor, out, error, t1 - t0))
            cal.append(calibrate.sample(t1 - t0))
            start += time.perf_counter() - t1  # the sample is not loop time
        last = time.perf_counter() - start
        wall += last
        rounds.append(workloads.inputs_digest(specs))
    return {"rounds": rounds, "verdicts": verdicts, "cal_s": cal, "wall_s": wall}


def _edge_content(graph) -> list:
    out = []
    for (a, b), e in sorted(graph.edges.items()):
        out.append(
            [
                a,
                b,
                sorted(e.types),
                sorted(e.unknown_types),
                e.strict,
                {t: sorted(sorted(blk) for blk in e.theta_blocks(t)) for t in sorted(e.types)},
            ]
        )
    return out


def check_verdict(workload, spec, alg, taylor, out, error) -> tuple[str, dict]:
    """('ok' | 'unknown' | 'wrong' | 'raised', decision content)."""
    from algraph.edges import AFFINE, STRICT_AFFINE, edge_graph

    content = {"input": spec[0], "taylor": taylor}
    if error is not None:
        content["error"] = error.splitlines()[-1]
        return "raised", content
    if taylor != oracle.omits_type1(spec):
        return "wrong", content
    if not taylor:
        return "ok", content
    if workload == "edges4":
        graph = out
    else:
        content["suites"] = {r.theorem: r.status for r in out}
        statuses = set(content["suites"].values())
        if statuses - {"pass", "unknown"}:
            return "wrong", content
        if "unknown" in statuses:
            return "unknown", content
        if workload == "sweep3":
            return "ok", content
        graph = edge_graph(alg)  # affine: the edges are checked too, untimed
    content["edges"] = _edge_content(graph)
    if graph.has_unknown():
        return "unknown", content
    if not graph.connected():
        return "wrong", content
    for e in graph.edge_list():
        if tuple(e.carrier) != oracle.generated(spec, (e.a, e.b)):
            return "wrong", content
        for t in e.types:
            blocks = e.theta_blocks(t)
            if not oracle.is_congruence(spec, e.carrier, blocks):
                return "wrong", content
            if any(e.a in blk and e.b in blk for blk in blocks):
                return "wrong", content
    if workload == "affine":
        if any(e.types != {AFFINE} or e.strict != STRICT_AFFINE for e in graph.edges.values()):
            return "wrong", content
    return "ok", content


def cmd_measure(args) -> dict:
    import algraph  # noqa: F401
    import algraph.cli  # noqa: F401

    tracer = None
    if args.trace:
        from tracer import Tracer

        with Tracer() as tracer:
            run = run_rounds(args, tracer)
    else:
        run = run_rounds(args)
    from calibrate import BUFFER_MB

    # the kernel's buffers are resident from before the first verdict on
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - BUFFER_MB
    outcomes, contents, times, gated = {}, [], [], []
    for spec, alg, taylor, out, error, seconds in run["verdicts"]:
        state, content = check_verdict(args.workload, spec, alg, taylor, out, error)
        outcomes[state] = outcomes.get(state, 0) + 1
        contents.append(content)
        times.append(seconds)
        gated.append(taylor is False)  # has type 1: the gate was the whole verdict
        if state != "ok":
            print(f"{spec[0]}: {state} {json.dumps(content)[:400]}", file=sys.stderr)
    contents.sort(key=lambda c: c["input"])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": run["rounds"],
        "attempted": len(run["verdicts"]),
        "outcomes": outcomes,
        "wall_s": run["wall_s"],
        "verdict_s": times,
        "gated": gated,
        "cal_s": run["cal_s"],
        "peak_rss_mb": peak_rss_mb,
        "digest": hashlib.sha256(json.dumps(contents, sort_keys=True).encode()).hexdigest()[:16],
    }
    if args.workload == "sweep3":
        # the population itself: 729 tables, 331 without a type-1 divisor
        everything = [workloads.free_binary(3, f, "") for f in workloads.grid(3, 6)]
        result["population_ok"] = sum(map(oracle.omits_type1, everything)) == 331
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer.spans)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--rounds", type=int, default=None, help="exact round count")
    p.add_argument("--limit", type=int, default=None, help="inputs per round (self-test)")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None, help="write the spans here (JSON lines)")
    args = p.parse_args(argv)
    result = cmd_setup(args) if args.mode == "setup" else cmd_measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
