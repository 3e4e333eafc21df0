"""Outside-in tracer: wraps algraph's public functions at every binding.

A function imported by name (``from .subpower import generate_subuniverse``)
is bound in several module namespaces and in tables such as
``verify._SUITES``.  ``Tracer`` replaces the function object at every
module-level binding of it across ``algraph.*``, including values of
module-level dicts, and restores each binding on exit.  ``src/`` is not
edited.

Each call becomes a span ``(name, start, end, parent, input, extra)`` kept
in memory; ``layer_metrics`` turns the spans into per-layer metrics.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

from algraph.core import UNKNOWN

from workloads import MAIN_SUITES

# layer -> traced functions; the span name is "<layer>.<function>"
TARGETS = {
    "subpower": ("generate_subuniverse", "member_with_witness", "extract_term", "term_slice"),
    "edges": (
        "majority_witness",
        "semilattice_witness",
        "affine_certificates",
        "classify_pair",
        "edge_graph",
        "omits_type1",
        "all_subuniverses",
    ),
    "congruence": ("all_congruences", "all_tolerances", "link_tolerance"),
    "thin": (
        "synth_unified",
        "enforce_identities",
        "good_f",
        "unified_conditions",
        "all_thin_edges",
        "find_thin_majority",
        "find_thin_affine",
    ),
    "core": ("term_table", "quotient_algebra", "subalgebra_induced"),
    "connectivity": ("verify_as_connectivity",),
}


def _found(result) -> bool:
    return result is not None and result is not UNKNOWN


def _membership(result) -> str:
    found = result[0]
    if found is True:
        return "found"
    return "absent" if found is False else "unknown"


def _pair_key(info) -> str:
    """(sub-table bytes, a_loc, b_loc) of an EdgeInfo, hashed; the tracer
    pairs it with the input, so repeats are counted within one input."""
    h = hashlib.sha1(repr((info.sub.size, info.a_loc, info.b_loc)).encode())
    for op in info.sub.ops:
        h.update(bytes([op.arity]))
        h.update(op.values.tobytes())
    return h.hexdigest()[:20]


# what each span records about its result
EXTRACT = {
    "subpower.generate_subuniverse": len,
    "subpower.member_with_witness": _membership,
    "subpower.term_slice": lambda r: [len(r[0]), r[1] == "capped"],
    "edges.majority_witness": _found,
    "edges.semilattice_witness": _found,
    "edges.affine_certificates": lambda r: bool(r[0]),
    "edges.classify_pair": _pair_key,
    "congruence.all_congruences": len,
}


class Tracer:
    """Context manager recording spans of the traced functions."""

    def __init__(self):
        self.spans: list = []
        self.input = None
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, extract = self.spans, self._stack, EXTRACT.get(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                extra = extract(result) if extract is not None and result is not None else None
                spans[sid] = (name, t0, t1, parent, self.input, extra)

        return traced

    def __enter__(self):
        verify = importlib.import_module("algraph.verify")
        wrappers = {}
        for layer, names in TARGETS.items():
            mod = importlib.import_module(f"algraph.{layer}")
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for suite, fn in verify._SUITES.items():
            wrappers[id(fn)] = (fn, self._wrap(f"verify.{suite}", fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "algraph" or modname.startswith("algraph.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._restore.append((vars(mod), attr, val))
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            val[key] = hit[1]
                            self._restore.append((val, key, item))
        return self

    def __exit__(self, *exc):
        while self._restore:
            table, key, original = self._restore.pop()
            table[key] = original
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, inp, extra) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, t0, t1, parent, inp, extra]) + "\n")


def _layer_names():
    names = [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]
    return names + [f"verify.{suite}" for suite in MAIN_SUITES]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times, keyed ``<layer>.<function>.<what>``."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls = Counter(dict.fromkeys(_layer_names(), 0))
    total, self_s, extras = defaultdict(float), defaultdict(float), defaultdict(list)
    fallbacks = 0
    for sid, (name, t0, t1, parent, inp, extra) in enumerate(spans):
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += t1 - t0 - child[sid]
        # a pair repeats when the same input classifies the same key again
        extras[name].append((inp, extra) if name == "edges.classify_pair" else extra)
        if name == "subpower.term_slice":
            p = parent
            while p >= 0 and spans[p][0] not in ("thin.synth_unified", "thin.good_f"):
                p = spans[p][3]
            fallbacks += p >= 0

    def count(name, pred):
        return sum(1 for x in extras[name] if x is not None and pred(x))

    keys = extras["edges.classify_pair"]
    m = {
        "subpower.generate_subuniverse.rows": sum(x for x in extras["subpower.generate_subuniverse"] if x),
        "subpower.term_slice.tables": sum(x[0] for x in extras["subpower.term_slice"] if x),
        "subpower.term_slice.capped": count("subpower.term_slice", lambda x: x[1]),
        "edges.majority_witness.found": count("edges.majority_witness", bool),
        "edges.semilattice_witness.found": count("edges.semilattice_witness", bool),
        "edges.affine_certificates.found": count("edges.affine_certificates", bool),
        "edges.classify_pair.repeat_share": 1 - len(set(keys)) / len(keys) if keys else 0.0,
        "congruence.all_congruences.partitions": sum(x for x in extras["congruence.all_congruences"] if x),
        "thin.slice_fallbacks": fallbacks,
    }
    for what in ("found", "absent", "unknown"):
        m[f"subpower.member_with_witness.{what}"] = count(
            "subpower.member_with_witness", lambda x, w=what: x == w
        )
    for name in calls:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.total_s"] = total[name]
        m[f"{name}.self_s"] = self_s[name]
    return m
