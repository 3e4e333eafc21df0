import json
from pathlib import Path

import numpy as np
import pytest

import algraph.thin
from algraph.cli import main
from algraph.core import UNKNOWN, Algebra, OpTable, parse_algebra, serialize_algebra
from algraph.fixtures import fixture
from algraph.subpower import DEFAULT_MAX_ELEMENTS
from algraph.verify import idempotent_algebra

DATA = Path(__file__).parent.parent / "src" / "algraph" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_s2(capsys):
    code, out = run(capsys, "check", str(DATA / "S2.alg"))
    rep = json.loads(out)
    assert code == 0
    assert rep["omits_type1"] is True and rep["siggers_search"] == "yes"


def test_check_p2(capsys):
    code, out = run(capsys, "check", str(DATA / "P2.alg"))
    rep = json.loads(out)
    assert code == 0
    assert rep["omits_type1"] is False and rep["siggers_search"] == "no"


def test_check_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra X\nsize 2\nop f 2\n0 1 1 0\n")
    code = main(["check", str(bad)])
    assert code == 2


def test_edges_json(tmp_path, capsys):
    out = tmp_path / "edges.json"
    code, _ = run(capsys, "edges", str(DATA / "M2.alg"), "--json", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["pairs"][0]["types"] == ["majority"]
    assert rep["pairs"][0]["strict"] == "strictly-majority"
    assert rep["pairs"][0]["theta"] == {"majority": [[0], [1]]}


def test_graph_dot(tmp_path, capsys):
    dot = tmp_path / "rps.dot"
    code, out = run(capsys, "graph", str(DATA / "RPS.alg"), "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert "0 -> 1" in text and "1 -> 2" in text and "2 -> 0" in text
    rep = json.loads(out)
    assert rep["maximal"] == [0, 1, 2]


def test_graph_as_components_read_the_as_graph(capsys):
    """M2's thin edges are majority arcs, which the semilattice+affine
    graph leaves out, as ``verify_as_connectivity`` does."""
    code, out = run(capsys, "graph", str(DATA / "M2.alg"))
    assert code == 0
    assert json.loads(out)["as_components"] == [[0], [1]]


@pytest.mark.parametrize("command", ["synth", "thin", "graph"])
@pytest.mark.parametrize("status, expected", [("capped", 3), ("complete", 1)])
def test_synthesis_error_exit_codes(command, status, expected, tmp_path, monkeypatch, capsys):
    """A synthesis cut by the cap is unknown; one that searched everything failed."""
    path = tmp_path / "b3_3.alg"
    path.write_text(serialize_algebra(idempotent_algebra(3, "binary", 3)))
    monkeypatch.setattr(algraph.thin, "closure_search", lambda *args: UNKNOWN if status == "capped" else None)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("command, extra", [("verify", ["--theorem", "identities"]), ("synth", [])])
def test_verification_error_exits_1(command, extra, monkeypatch, capsys):
    """A broken claim is a failure: the verify report says so, and a command
    that needs the claim prints the error."""
    monkeypatch.setattr(algraph.thin, "_failed_identity", lambda f, g, h: "f(x,f(x,y)) = f(x,y)")
    code = main([command, str(DATA / "S2.alg"), *extra])
    captured = capsys.readouterr()
    assert code == 1
    if command == "verify":
        (report,) = json.loads(captured.out)["reports"]
        assert report["status"] == "fail"
    else:
        assert captured.out == ""
        assert captured.err == "error: identity f(x,f(x,y)) = f(x,y) does not hold\n"


def test_thin_exits_3_on_unknown_edge_types(capsys):
    code, _ = run(capsys, "thin", str(DATA / "RPS.alg"), "--cap", "3")
    assert code == 3


@pytest.mark.parametrize("command", ["edges", "graph", "verify"])
def test_capped_pair_carrier_exits_3(command, capsys):
    """Under --cap 2 the pair carriers of Z3A stay exact; the capped witness
    searches leave the types unknown, not the input malformed."""
    code, _ = run(capsys, command, str(DATA / "Z3A.alg"), "--cap", "2")
    assert code == 3


def test_verify_capped_graph_exits_3(capsys):
    """M2's graph is disconnected under --cap 3 only because its one pair has
    unknown type: no suite is a counterexample."""
    code, out = run(capsys, "verify", str(DATA / "M2.alg"), "--cap", "3")
    assert code == 3
    assert "fail" not in {r["status"] for r in json.loads(out)["reports"]}


def test_verify_tolerance_classes_above_the_limit_exits_3(tmp_path, capsys):
    """A valid 6-element algebra is not a usage error: its tolerances are
    not enumerated, so the suite is unknown."""
    x, y = np.indices((6, 6))
    chain = Algebra("chain6", 6, [OpTable("join", 2, 6, np.maximum(x, y).reshape(-1))])
    path = tmp_path / "chain6.alg"
    path.write_text(serialize_algebra(chain))
    code, out = run(capsys, "verify", str(path), "--theorem", "tolerance-classes")
    assert code == 3
    (rep,) = json.loads(out)["reports"]
    assert rep["status"] == "unknown"
    assert "limited to size 5" in rep["detail"]["reason"]


def test_thin_exits_3_on_a_capped_thin_search(monkeypatch, capsys):
    monkeypatch.setattr(algraph.thin, "find_term", lambda *args: UNKNOWN)
    code, _ = run(capsys, "thin", str(DATA / "A2.alg"))
    assert code == 3


def test_thin_command(capsys):
    code, out = run(capsys, "thin", str(DATA / "A2.alg"))
    rep = json.loads(out)
    assert code == 0
    kinds = {(t["kind"], t["from"], t["to"]) for t in rep["thin_edges"]}
    assert kinds == {("affine", 0, 1), ("affine", 1, 0)}


def test_synth_exports_alg(tmp_path, capsys):
    target = tmp_path / "unified.alg"
    code, out = run(capsys, "synth", str(DATA / "S2.alg"), "--alg", str(target))
    assert code == 0
    rep = json.loads(out)
    assert rep["f"] == [0, 1, 1, 1]
    alg = parse_algebra(target.read_text())
    assert [op.name for op in alg.ops] == ["f", "g", "h"]


def test_reduct_command(capsys):
    code, out = run(capsys, "reduct", str(DATA / "S3chain.alg"), "--edge", "0,1")
    rep = json.loads(out)
    assert code == 0
    assert rep["subset"] == [0, 1]
    assert rep["claims"]["omits_type1"] == "pass"


def test_reduct_bad_edge(capsys):
    code = main(["reduct", str(DATA / "P2.alg"), "--edge", "0,1"])
    assert code == 1


def test_verify_all_s2(capsys):
    code, out = run(capsys, "verify", str(DATA / "S2.alg"))
    rep = json.loads(out)
    assert code == 0
    assert all(r["status"] == "pass" for r in rep["reports"])


def test_verify_p2_skipped(capsys):
    code, out = run(capsys, "verify", str(DATA / "P2.alg"), "--theorem", "connectedness")
    rep = json.loads(out)
    assert code == 0
    assert rep["reports"][0]["status"] == "skipped"


def test_reports_byte_identical(capsys):
    _, out1 = run(capsys, "verify", str(DATA / "M2.alg"), "--theorem", "thin")
    _, out2 = run(capsys, "verify", str(DATA / "M2.alg"), "--theorem", "thin")
    r1, r2 = json.loads(out1), json.loads(out2)
    for r in (r1, r2):
        for rep in r["reports"]:
            rep.pop("seconds", None)
            rep["detail"].pop("seconds", None)
    assert json.dumps(r1, sort_keys=False) == json.dumps(r2, sort_keys=False)


def test_enumerate_n2(capsys, tmp_path):
    code, out = run(
        capsys,
        "enumerate",
        "--size", "2",
        "--signature", "binary",
        "--theorem", "connectedness",
        "--failures", str(tmp_path / "failures"),
    )
    rep = json.loads(out)
    assert code == 0
    assert rep["counts"] == {
        "algebras": 4,
        "taylor": 2,
        "pass": 2,
        "fail": 0,
        "unknown": 0,
        "skipped": 0,
    }
    assert not (tmp_path / "failures").exists()


def test_enumerate_limit(capsys):
    code, out = run(
        capsys, "enumerate", "--size", "3", "--signature", "binary",
        "--theorem", "connectedness", "--limit", "10",
    )
    rep = json.loads(out)
    assert code == 0 and rep["counts"]["algebras"] == 10


def test_slice_dump(tmp_path, capsys):
    target = tmp_path / "slice.alg"
    code, out = run(capsys, "slice", str(DATA / "S2.alg"), "--arity", "2", "--alg", str(target))
    rep = json.loads(out)
    assert code == 0 and rep["count"] == 3 and rep["status"] == "complete"
    sliced = parse_algebra(target.read_text())
    assert len(sliced.ops) == 3


def test_missing_file(capsys):
    assert main(["check", "/nonexistent/x.alg"]) == 2


def test_bad_alg_cap_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("ALG_CAP", "abc")
    assert main(["edges", str(DATA / "S2.alg")]) == 2
    assert "ALG_CAP" in capsys.readouterr().err


def test_cap_help_shows_default(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["edges", "--help"])
    assert ex.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert str(DEFAULT_MAX_ELEMENTS) in out and "None" not in out
    assert "per closure (default: no limit)" in out


def test_bad_max_work_is_usage_error(capsys):
    assert main(["edges", str(DATA / "S2.alg"), "--max-work", "0"]) == 2
    assert "max_work" in capsys.readouterr().err
    with pytest.raises(SystemExit) as ex:
        main(["edges", str(DATA / "S2.alg"), "--max-work", "abc"])
    assert ex.value.code == 2


def test_max_work_reaches_the_budget(capsys):
    code, out = run(capsys, "edges", str(DATA / "M2.alg"), "--max-work", "1")
    assert code == 3
    assert json.loads(out)["pairs"][0]["unknown_types"]
    code, _ = run(capsys, "edges", str(DATA / "M2.alg"), "--max-work", "1000000")
    assert code == 0
