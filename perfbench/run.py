"""Benchmark of algraph verdicts; run from the repository root.

    python3 perfbench/run.py --workload sweep3 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  Every measurement runs in a fresh child interpreter
(``worker.py``), one at a time: set-up is timed in several children and
reported as their median, and a traced run is paired with an untraced run
of the same single round to give the tracing overhead.  End-to-end times
are in reference seconds: wall seconds scaled to the host speed at which the
kernel of ``calibrate.py`` takes ``REF_S``; the wall figures are printed
above the result.  The last line of standard output is the result as one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_S

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SETUP_RUNS = 11
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    pass


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: the mean of the order statistics
    weighted by Beta((n+1)/2, (n+1)/2) mass on ((i-1)/n, i/n].  A verdict
    time varies by about 15 % from one execution to the next; this estimate
    averages the order statistics near the middle instead of taking one."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a = (n + 1) / 2
    steps = 64
    grid = np.linspace(0.0, 1.0, steps * n + 1)[1:-1]
    log_pdf = (a - 1) * (np.log(grid) + np.log1p(-grid))
    pdf = np.concatenate([[0.0], np.exp(log_pdf - log_pdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return float(weights @ x)


def child(argv, deadline) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one thread, as the closed loop has one caller
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as ex:  # run() has killed and reaped the child
        raise ChildError(f"worker {argv[0]} exceeded the time limit") from ex
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildError(f"worker {argv[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speeds(cal_s) -> list[float]:
    """Per verdict, REF_S over the mean of the kernel samples taken just
    before and just after it (``cal_s`` has one sample more than verdicts)."""
    return [2 * REF_S / (a + b) for a, b in zip(cal_s, cal_s[1:])]


def end_to_end(run: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    scaled = [t * v for t, v in zip(run["verdict_s"], speeds(run["cal_s"]))]
    times = sorted(t for t, g in zip(scaled, run["gated"]) if not g)
    wall_times = [t for t, g in zip(run["verdict_s"], run["gated"]) if not g]
    setup_wall = [s["import_s"] + s["inputs_s"] for s in setups]
    failed = run["attempted"] - run["outcomes"].get("ok", 0)
    metrics = {
        "setup_s": statistics.median(t * REF_S / s["cal_s"] for t, s in zip(setup_wall, setups)),
        "verdict_s_p50": hd_median(times),
        "algebras_per_s": run["attempted"] / sum(scaled),
        "decided_share": (run["attempted"] - failed) / run["attempted"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = [
        f"verdict_s_p50 over {len(times)} Taylor verdicts in {len(run['rounds'])} round(s);"
        f" sample median {statistics.median(times):.6f} s",
        f"wall: setup {statistics.median(setup_wall):.6f} s, verdict p50 {hd_median(wall_times):.6f} s,"
        f" {run['attempted'] / run['wall_s']:.4f} algebras/s; kernel"
        f" {1e3 * statistics.median(run['cal_s']):.4f} ms (reference {1e3 * REF_S} ms)",
    ]
    if len(times) >= 2:
        p90 = statistics.quantiles(times, n=10)[-1]
        beyond = sum(t > p90 for t in times)
        if beyond >= 10:
            notes.append(f"verdict_s_p90 {p90:.6f} s ({beyond} verdicts beyond it)")
    return metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, default=None, help="inputs per round (self-test)")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "algraph" / "__init__.py").is_file():
        print(f"no algraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.limit is not None:
        common += ["--limit", str(args.limit)]

    try:
        setups = [child(["setup", *common[:4]], deadline) for _ in range(SETUP_RUNS)]
        if args.trace:
            plain = child(["measure", *common, "--rounds", "1"], deadline)
            spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
            run = child(["measure", *common, "--rounds", "1", "--trace", "--spans", str(spans)], deadline)
            values = dict(run["layers"])
            values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
            values["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
            values["trace.overhead_s"] = run["wall_s"] - plain["wall_s"]
            notes = [f"spans written to {spans.relative_to(ROOT)}"]
            same_digest = plain["digest"] == run["digest"]
        else:
            run = child(["measure", *common, "--seconds", str(args.seconds)], deadline)
            values, notes = end_to_end(run, setups)
            same_digest = True
    except ChildError as ex:
        print(ex, file=sys.stderr)
        return 1

    outcomes = run["outcomes"]
    failed = run["attempted"] - outcomes.get("ok", 0)
    correct = (
        not outcomes.get("wrong")
        and not outcomes.get("raised")
        and run.get("population_ok", True)
        and same_digest
    )
    print(f"{args.workload} seed {args.seed}: {run['attempted']} inputs, outcomes {outcomes}, digest {run['digest']}")
    for line in notes:
        print(line)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<48} {values[m['name']]:>14.6f} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": run["attempted"], "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
