"""The benchmark's tracer wraps algraph functions and suites by name; a
renamed or deleted one would only surface when the benchmark runs."""

import importlib
import json
import sys
from pathlib import Path

import pytest

import algraph.edges
from algraph.verify import _SUITES, run_suite

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = str(ROOT / "perfbench")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(PERFBENCH)


def test_traced_functions_resolve(tracer):
    missing = [
        f"algraph.{layer}.{name}"
        for layer, names in tracer.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"algraph.{layer}"), name, None))
    ]
    assert missing == []


def test_traced_suites_exist(tracer):
    assert [s for s in tracer.MAIN_SUITES if s not in _SUITES] == []


def _bindings():
    """Every callable bound at module level in algraph, or in a module-level dict."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "algraph" or modname.startswith("algraph.")):
            continue
        for attr, val in vars(mod).items():
            if callable(val):
                out[modname, attr] = val
            elif isinstance(val, dict):
                out.update(((modname, attr, k), v) for k, v in val.items() if callable(v))
    return out


def test_traced_run_yields_every_per_layer_metric(tracer, algs):
    """A traced run applies every result extractor to real results, yields
    every traced per-layer metric of BENCHMARK.json, and restores every
    binding it replaced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = _bindings()
    with tracer.Tracer() as tr:
        run_suite(algs["Z3A"], tracer.MAIN_SUITES)
        algraph.edges.edge_graph(algs["M2"])
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    names = {span[0] for span in tr.spans}
    assert {"edges.classify_pair", "edges.edge_graph", "verify.thin", "thin.all_thin_edges"} <= names
    metrics = tracer.layer_metrics(tr.spans)
    traced = [m["name"] for m in spec["per_layer"] if not m["name"].startswith(("setup.", "trace."))]
    assert [name for name in traced if name not in metrics] == []
