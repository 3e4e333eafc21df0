"""The benchmark's tracer wraps algraph functions and suites by name; a
renamed or deleted one would only surface when the benchmark runs."""

import importlib
import sys
from pathlib import Path

import pytest

from algraph.verify import _SUITES

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


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
