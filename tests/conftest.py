import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from algraph.core import Algebra, OpTable
from algraph.fixtures import fixture
from algraph.verify import Analysis, iter_idempotent_algebras


@pytest.fixture(scope="session")
def algs():
    return {name: fixture(name) for name in ("S2", "M2", "A2", "P2", "RPS", "Z3A", "S3chain")}


class Pipeline:
    """Cached full analysis of one algebra for the tests."""

    def __init__(self, alg):
        ana = Analysis(alg)
        self.alg = alg
        self.graph = ana.graph()
        self.edges = self.graph.edge_list()
        self.ops = ana.unified()
        self.fprime = ana.fprime()
        self.thin, _ = ana.thin()


@pytest.fixture(scope="session")
def populations(algs):
    """Analyses by population, in enumeration order: every fixture, and the
    Taylor algebras of size 2 binary/ternary and size 3 binary."""
    out = {"fixtures": [Analysis(alg) for alg in algs.values()]}
    for tag, size, signature in (("b2", 2, "binary"), ("t2", 2, "ternary"), ("b3", 3, "binary")):
        anas = (Analysis(alg) for alg in iter_idempotent_algebras(size, signature))
        out[tag] = [ana for ana in anas if ana.taylor()]
    return out


@pytest.fixture(scope="session")
def pipelines(algs):
    return {
        name: Pipeline(algs[name])
        for name in ("S2", "M2", "A2", "RPS", "Z3A", "S3chain")
    }


def _ternary_variant(name, size, vals):
    return Algebra(name, size, [OpTable("t", 3, size, vals)])


@pytest.fixture(scope="session")
def ternary_family():
    """Fixture algebras re-expressed over one shared signature (t/3) so the
    cross-algebra witness searches apply: same clones, common symbol."""
    s2 = _ternary_variant("S2t", 2, [0, 1, 1, 1, 1, 1, 1, 1])  # x or y or z
    m2 = _ternary_variant("M2t", 2, [0, 0, 0, 1, 0, 1, 1, 1])  # median
    a2 = _ternary_variant("A2t", 2, [0, 1, 1, 0, 1, 0, 0, 1])  # x+y+z mod 2
    z3 = _ternary_variant(
        "Z3At", 3, [(x - y + z) % 3 for x in range(3) for y in range(3) for z in range(3)]
    )
    return {"S2t": s2, "M2t": m2, "A2t": a2, "Z3At": z3}


@pytest.fixture(scope="session")
def ternary_pipelines(ternary_family):
    return {name: Pipeline(alg) for name, alg in ternary_family.items()}
