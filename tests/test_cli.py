"""Tests for the command-line driver."""

from __future__ import annotations

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrdil.cli
from corrdil import (
    GraphRep,
    ProblemFile,
    Tolerance,
    induced_regular_rep,
    load_problem,
    save_problem,
    trivial_action,
)
from corrdil.cli import main
from helpers import LOOP5, cuntz_graph, random_cc_rep, rng_for, z2_loop_swap, zero_rep
from test_io import CANONICAL_SAMPLE


@pytest.fixture()
def cuntz2_zero_file(tmp_path):
    rep = zero_rep(cuntz_graph(2), 1)
    path = tmp_path / "c2.json"
    save_problem(ProblemFile(rep.graph, None, rep, Tolerance()), path)
    return str(path)


# ---------------------------------------------------------------- validate

def test_validate_cuntz2_zero(cuntz2_zero_file, capsys):
    assert main(["validate", cuntz2_zero_file]) == 0
    out = capsys.readouterr().out
    assert "ck-defect" in out
    assert "1.00000000e+00" in out
    assert "result: PASS (exit 0)" in out


def test_validate_graph_only(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"graph": {"vertices": ["v"], "edges": []}}))
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "graph/action checks only" in out


def test_validate_non_unitary_bucket(tmp_path, capsys):
    obj = {
        "graph": {"vertices": ["v"], "edges": [["e0", "v", "v"], ["e1", "v", "v"]]},
        "action": {
            "group": {"table": [[0, 1], [1, 0]]},
            "vertex_perm": [{"v": "v"}, {"v": "v"}],
            "bucket_unitaries": [
                {"element": 1, "range": "v", "source": "v",
                 "matrix": [[[0, 0], [2, 0]], [[2, 0], [0, 0]]]}
            ],
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/x.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_records_format(cuntz2_zero_file, capsys):
    assert main(["validate", cuntz2_zero_file, "--format", "records"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [json.loads(line) for line in lines]
    assert rows[0]["record"] == "command"
    assert rows[-1] == {"record": "result", "exit_status": 0}
    assert any(r["record"] == "check" and r["name"] == "ck-defect" for r in rows)


# ---------------------------------------------------------------- dilate

def test_dilate_cp_cuntz2(cuntz2_zero_file, tmp_path, capsys):
    out_path = tmp_path / "final.json"
    assert main(["dilate", "--mode", "cp", cuntz2_zero_file, "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "ck-step" in out and "isometric-step" in out and "compression" in out
    final = load_problem(out_path)
    rep = final.representation
    E = np.zeros((rep.dim, 1), dtype=complex)
    # the pipeline wrote a representation satisfying the relations somewhere;
    # spot-check it is Toeplitz on its own corner of the original vertex space
    total = sum(rep.edge_op[e.eid] @ rep.edge_op[e.eid].conj().T for e in rep.graph.edges)
    assert np.trace(total).real > 0.5


def test_dilate_isometric_zero_defect_stages(tmp_path, capsys):
    g = cuntz_graph(1)
    rep = GraphRep(
        g, 2,
        {"v": np.eye(2)},
        {"e0": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)},
    )
    path = tmp_path / "iso.json"
    save_problem(ProblemFile(g, None, rep, Tolerance()), path)
    assert main(["dilate", "--mode", "isometric", "--steps", "2", str(path)]) == 0
    out = capsys.readouterr().out
    assert "pipeline.converged" in out
    assert "result: PASS" in out


def test_dilate_ck_truncation_note(tmp_path, capsys):
    from corrdil import DirectedGraph
    g = DirectedGraph(("v", "w"), (("e", "v", "w"),), truncated=frozenset({"w"}))
    rep = GraphRep(g, 2, {"v": np.diag([1.0, 0.0]), "w": np.diag([0.0, 1.0])},
                   {"e": np.zeros((2, 2))})
    path = tmp_path / "trunc.json"
    save_problem(ProblemFile(g, None, rep, Tolerance()), path)
    assert main(["dilate", "--mode", "ck", str(path)]) == 0
    out = capsys.readouterr().out
    assert "truncation-flagged vertices excluded" in out
    assert "w" in out


def test_dilate_capped(tmp_path, capsys):
    rep = zero_rep(cuntz_graph(3), 4)
    path = tmp_path / "big.json"
    save_problem(ProblemFile(rep.graph, None, rep, Tolerance()), path)
    assert main(["dilate", "--mode", "cp", str(path), "--max-dim", "24"]) == 3
    out = capsys.readouterr().out
    assert "CAPPED" in out


def test_dilate_ck_two_steps_records(cuntz2_zero_file, capsys):
    argv = ["dilate", "--mode", "ck", "--steps", "2", "--format", "records", cuntz2_zero_file]
    assert main(argv) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["kind"] for r in rows if r["record"] == "stage"] == ["ck-step", "ck-step"]
    corner = [r for r in rows if r["record"] == "check" and r["name"] == "corner-ck-defect"]
    assert len(corner) == 1 and corner[0]["passed"]
    assert rows[-1] == {"record": "result", "exit_status": 0}


def test_dilate_ck_capped(cuntz2_zero_file, capsys):
    argv = ["dilate", "--mode", "ck", "--steps", "3", "--max-dim", "4", cuntz2_zero_file]
    assert main(argv) == 3
    out = capsys.readouterr().out
    assert out.count("ck-step") == 1
    assert "result: CAPPED (exit 3)" in out


@pytest.mark.parametrize("t, steps, code", [
    (0.5, "0", 1), (0.5, "-3", 1), (1.0, "0", 0),
])
def test_dilate_ck_without_steps_checks_the_input(tmp_path, capsys, t, steps, code):
    g = cuntz_graph(1)
    rep = GraphRep(g, 1, {"v": np.eye(1)}, {"e0": np.array([[t]])})
    path = tmp_path / "loop.json"
    save_problem(ProblemFile(g, None, rep, Tolerance()), path)
    argv = ["dilate", "--mode", "ck", "--steps", steps, "--format", "records", str(path)]
    assert main(argv) == code
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert not [r for r in rows if r["record"] == "stage"]
    corner = [r for r in rows if r["record"] == "check" and r["name"] == "corner-ck-defect"]
    assert len(corner) == 1
    assert corner[0]["value"] == pytest.approx(1.0 - t * t, abs=1e-15)


def test_dilate_ck_capped_before_first_step(cuntz2_zero_file, capsys):
    argv = ["dilate", "--mode", "ck", "--steps", "1", "--max-dim", "2", cuntz2_zero_file]
    assert main(argv) == 3
    out = capsys.readouterr().out
    assert "ck-step" not in out
    assert "result: CAPPED (exit 3)" in out


@pytest.mark.parametrize("text, where", [
    ('{"graph": {"vertices": ["v"], "edges": []}, "tolerance": {"eps": [1]}}',
     "tolerance.eps"),
    ('{"graph": {"vertices": ["v"], "edges": [["e0", "v", "v"]]}, "representation":'
     ' {"dim": 1, "proj": {"v": [[[1, 0]]]}, "edge_op": {"e0": [[[NaN, 0]]]}}}',
     "representation.edge_op['e0'][0][0]"),
], ids=["eps-list", "nan-entry"])
def test_malformed_numbers_exit_2_with_location(tmp_path, capsys, text, where):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert where in capsys.readouterr().err


def test_dilate_requires_representation(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"graph": {"vertices": ["v"], "edges": []}}))
    assert main(["dilate", "--mode", "cp", str(path)]) == 2
    assert "representation" in capsys.readouterr().err


def test_dilate_rejects_expansive_rep(tmp_path, capsys):
    g = cuntz_graph(1)
    rep = GraphRep(g, 1, {"v": np.eye(1)}, {"e0": np.array([[2.0]])})
    path = tmp_path / "exp.json"
    save_problem(ProblemFile(g, None, rep, Tolerance()), path)
    assert main(["dilate", "--mode", "isometric", str(path)]) == 1
    out = capsys.readouterr().out
    assert "pipeline not run" in out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy reports the overflow
def test_overflowing_entries_fail_the_row_check(capsys):
    # canonical_sample.json holds entries near 1e300, whose products overflow
    path = str(CANONICAL_SAMPLE)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^row-contraction\[v\] +nan +\S+ +FAIL$", out, re.M)
    assert out.rstrip().endswith("result: FAIL (exit 1)")
    assert main(["dilate", "--mode", "cp", path]) == 1
    assert "input failed validation; pipeline not run" in capsys.readouterr().out
    # records write the nan margin as null, next to passed: false
    assert main(["validate", path, "--format", "records"]) == 1
    rows = _records(capsys)
    row = next(r for r in rows if r.get("name") == "row-contraction[v]")
    assert row["value"] is None and row["passed"] is False
    assert rows[-1] == {"record": "result", "exit_status": 1}


def _covariant_file(tmp_path, scale: float) -> str:
    """A Z2-covariant induced representation of Cuntz-2, its edges scaled."""
    a = z2_loop_swap()
    base = random_cc_rep(rng_for(1240), a.graph, dim=2)
    base = GraphRep(a.graph, 2, base.proj, {e: scale * T for e, T in base.edge_op.items()})
    rep = induced_regular_rep(base, a)
    path = tmp_path / f"cov-{scale}.json"
    save_problem(ProblemFile(rep.graph, a, rep, Tolerance()), path)
    return str(path)


def test_dilate_gate_measures_no_defect_on_a_passing_file(tmp_path, capsys, monkeypatch):
    path = _covariant_file(tmp_path, 1.0)
    calls = []
    for name in ("toeplitz_defect", "ck_defect", "covariance_defect"):
        monkeypatch.setattr(corrdil.cli, name, lambda *args, name=name: calls.append(name))
    assert main(["dilate", "--mode", "cp", path]) == 0
    assert calls == []
    assert "pipeline.converged" in capsys.readouterr().out


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _records(capsys) -> list:
    # strict JSON: NaN and Infinity, which json.dumps writes by default, fail
    return [json.loads(line, parse_constant=_no_constant)
            for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize("covariant", [False, True], ids=["loop", "covariant"])
def test_dilate_gate_failure_prints_the_validate_checks(tmp_path, capsys, covariant):
    if covariant:
        path = _covariant_file(tmp_path, 3.0)
    else:
        g = cuntz_graph(1)
        rep = GraphRep(g, 1, {"v": np.eye(1)}, {"e0": np.array([[2.0]])})
        path = str(tmp_path / "exp.json")
        save_problem(ProblemFile(g, None, rep, Tolerance()), path)
    assert main(["validate", path, "--format", "records"]) == 1
    validated = [r for r in _records(capsys) if r["record"] == "check"
                 and not r["name"].startswith(("graph.", "action."))]
    assert main(["dilate", "--mode", "cp", path, "--format", "records"]) == 1
    rows = _records(capsys)
    assert [r for r in rows if r["record"] == "check"] == validated
    assert any(r["name"] == "toeplitz-defect" for r in validated)
    assert (any(r["name"] == "covariance-defect" for r in validated)) is covariant
    assert rows[-2:] == [{"record": "note", "text": "input failed validation; pipeline not run"},
                         {"record": "result", "exit_status": 1}]


# ---------------------------------------------------------------- induce

def test_induce_trivial_group_identity(tmp_path, capsys):
    g = cuntz_graph(1)
    rep = GraphRep(g, 2, {"v": np.eye(2)},
                   {"e0": np.array([[0.0, 0.5], [0.25, 0.0]], dtype=complex)})
    act = trivial_action(g)
    path = tmp_path / "triv.json"
    out_path = tmp_path / "out.json"
    save_problem(ProblemFile(g, act, rep, Tolerance()), path)
    assert main(["induce", str(path), "--out", str(out_path)]) == 0
    final = load_problem(out_path)
    assert final.representation.dim == 2
    assert np.array_equal(final.representation.edge_op["e0"], rep.edge_op["e0"])


def test_induce_z2_doubles_dimension(tmp_path, capsys):
    rng = rng_for(960)
    a = z2_loop_swap()
    rep = random_cc_rep(rng, a.graph, dim=3)
    path = tmp_path / "flip.json"
    out_path = tmp_path / "ind.json"
    save_problem(ProblemFile(a.graph, a, rep, Tolerance()), path)
    assert main(["induce", str(path), "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "induced.covariance-defect" in out
    final = load_problem(out_path)
    assert final.representation.dim == 6
    assert final.representation.unitaries is not None

    # re-induce: dimension doubles again, still exit 0
    assert main(["induce", str(out_path)]) == 0


def test_induce_requires_action(cuntz2_zero_file, capsys):
    assert main(["induce", cuntz2_zero_file]) == 2
    assert "action" in capsys.readouterr().err


# ---------------------------------------------------------------- counterexample

def test_counterexample_default(capsys):
    assert main(["counterexample"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "(0.59292706, 1.00000000)" in out
    assert "[[-0.5, 0], [0.75, -0.5]]" in out
    assert "[[-0.375, -0.1875], [0.375, 0.1875]]" in out


def test_counterexample_degree_two(capsys):
    # matrix parts come from the exact nilpotent calculus, independent of degree
    assert main(["counterexample", "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "[[-0.375, -0.1875], [0.375, 0.1875]]" in out
    assert "(0.59292706, 1.00000000)" in out


def test_counterexample_small_grid(capsys):
    # 64-point grid is exact for degree-32 polynomials; residual stays tiny
    assert main(["counterexample", "--degree", "32", "--grid", "64",
                 "--format", "records"]) == 0
    rows = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    checks = {r["name"]: r for r in rows if r["record"] == "check"}
    assert checks["function-residual[mobius]"]["value"] < 1e-9


def test_counterexample_records(capsys):
    assert main(["counterexample", "--format", "records"]) == 0
    rows = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    checks = {r["name"]: r for r in rows if r["record"] == "check"}
    assert checks["mobius-norm-error"]["passed"]
    assert checks["defect-norm[coordinate]"]["value"] == pytest.approx(1.0)


def test_counterexample_bad_flags(capsys):
    assert main(["counterexample", "--degree", "1"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- tolerance flags

def test_tol_flag_tightens_checks(tmp_path, capsys):
    g = cuntz_graph(1)
    # slightly non-idempotent projection: fails at 1e-8 but passes at 1e-3
    P = np.eye(1) * (1.0 + 1e-5)
    rep = GraphRep(g, 1, {"v": P}, {"e0": np.zeros((1, 1))})
    path = tmp_path / "loose.json"
    save_problem(ProblemFile(g, None, rep, Tolerance()), path)
    assert main(["validate", str(path)]) == 1
    capsys.readouterr()
    assert main(["validate", str(path), "--tol", "1e-3"]) == 0


def test_infinite_tolerance_flags_exit_2(tmp_path, capsys):
    g = cuntz_graph(1)
    # neither a projection nor a contraction: every check fails at finite tolerances
    rep = GraphRep(g, 1, {"v": np.array([[2.0]])}, {"e0": np.array([[3.0]])})
    path = tmp_path / "bad.json"
    save_problem(ProblemFile(g, None, rep, Tolerance()), path)
    assert main(["validate", str(path)]) == 1
    capsys.readouterr()
    assert main(["validate", str(path), "--tol", "inf", "--eig-clip", "inf"]) == 2
    assert "finite and positive" in capsys.readouterr().err


# ---------------------------------------------------------------- action shapes

def _short_bucket_problem(tmp_path, with_rep: bool) -> str:
    """Z2 on the Cuntz-2 graph whose bucket matrix is 1 x 1 instead of 2 x 2."""
    obj = {
        "graph": {"vertices": ["v"], "edges": [["e0", "v", "v"], ["e1", "v", "v"]]},
        "action": {
            "group": {"table": [[0, 1], [1, 0]]},
            "vertex_perm": [{"v": "v"}, {"v": "v"}],
            "bucket_unitaries": [
                {"element": 1, "range": "v", "source": "v", "matrix": [[[1, 0]]]}
            ],
        },
    }
    if with_rep:
        one, zero = [[[1, 0]]], [[[0, 0]]]
        obj["representation"] = {"dim": 1, "proj": {"v": one},
                                 "edge_op": {"e0": zero, "e1": zero},
                                 "unitaries": [one, one]}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["dilate", "--mode", "isometric"], ["dilate", "--mode", "cp"], ["induce"],
], ids=["isometric", "cp", "induce"])
def test_wrong_shape_bucket_matrix_exit_2(tmp_path, capsys, argv):
    path = _short_bucket_problem(tmp_path, with_rep=True)
    assert main(argv + [path]) == 2
    assert "bucket matrix (1, 'v', 'v') has shape (1, 1), expected (2, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dilate", "--mode", "ck", "--steps", "0"], ["dilate", "--mode", "cp", "--rounds", "0"],
], ids=["ck-no-step", "cp-no-round"])
def test_wrong_shape_bucket_matrix_exit_2_without_a_step(tmp_path, capsys, argv):
    # no pipeline step reads the action here, so the CLI rejects it first
    path = _short_bucket_problem(tmp_path, with_rep=True)
    out_path = tmp_path / "final.json"
    assert main(argv + [path, "--out", str(out_path)]) == 2
    assert "bucket matrix (1, 'v', 'v') has shape (1, 1), expected (2, 2)" in capsys.readouterr().err
    assert not out_path.exists()


def test_wrong_shape_bucket_matrix_validate_note(tmp_path, capsys):
    assert main(["validate", _short_bucket_problem(tmp_path, with_rep=False)]) == 1
    out = capsys.readouterr().out
    assert "action axioms: bucket matrix (1, 'v', 'v') has wrong shape" in out


def test_validate_skips_covariance_after_failed_action_check(tmp_path, capsys):
    assert main(["validate", _short_bucket_problem(tmp_path, with_rep=True)]) == 1
    out = capsys.readouterr().out
    assert "action axioms: bucket matrix (1, 'v', 'v') has wrong shape" in out
    assert "note: covariance-defect not measured" in out
    assert "toeplitz-defect" in out


# ---------------------------------------------------------------- vertex maps

def _partial_perm_problem(tmp_path) -> str:
    """Z2 on a 2-vertex graph whose element 1 maps only v."""
    pv = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    pw = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    obj = {
        "graph": {"vertices": ["v", "w"], "edges": [["e0", "v", "w"]]},
        "action": {
            "group": {"table": [[0, 1], [1, 0]]},
            "vertex_perm": [{"v": "v", "w": "w"}, {"v": "v"}],
            "bucket_unitaries": [
                {"element": 1, "range": "w", "source": "v", "matrix": [[[1, 0]]]}
            ],
        },
        "representation": {"dim": 2, "proj": {"v": pv, "w": pw}, "edge_op": {"e0": zero},
                           "unitaries": [eye, eye]},
    }
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("argv", [["validate"], ["dilate", "--mode", "cp"]],
                         ids=["validate", "cp"])
def test_partial_vertex_perm_exit_2(tmp_path, capsys, argv):
    assert main(argv + [_partial_perm_problem(tmp_path)]) == 2
    assert "action.vertex_perm[1]" in capsys.readouterr().err


# ---------------------------------------------------------------- group tables

def _group_file(path, table) -> str:
    path.write_text(json.dumps({"graph": {"vertices": ["v"], "edges": []},
                                "action": {"group": {"table": table},
                                           "vertex_perm": [{"v": "v"}] * len(table)}}))
    return str(path)


def test_validate_reports_a_non_associative_table(tmp_path, capsys):
    # the order-5 loop has an identity and inverses, so only verify_group rejects it
    assert main(["validate", _group_file(tmp_path / "loop.json", LOOP5)]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^action\.group-axioms +0\.0+e\+00 +- +FAIL$", out, re.M)
    assert "note: group axioms: associativity fails" in out
    assert "result: FAIL (exit 1)" in out


@st.composite
def malformed_tables(draw):
    """The Z_n table with one row or entry spoiled."""
    n = draw(st.integers(1, 4))
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["row", "entry", "ragged", "range"]))
    if kind == "row":
        table[i] = draw(st.sampled_from([None, 0, "0", {"0": 0}]))
    elif kind == "entry":
        table[i][j] = draw(st.one_of(st.none(), st.text(max_size=2), st.booleans(),
                                     st.floats(allow_nan=False, allow_infinity=False)))
    elif kind == "ragged":
        table[i] = table[i][:j] if draw(st.booleans()) else table[i] + [0] * (j + 1)
    else:
        table[i][j] = draw(st.one_of(st.integers(n, 10**30), st.integers(-10**30, -1)))
    return table


@settings(derandomize=True, max_examples=60, deadline=None)
@given(table=malformed_tables())
def test_malformed_group_tables_exit_2(tmp_path_factory, table):
    path = _group_file(tmp_path_factory.mktemp("table") / "t.json", table)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["validate", path]) == 2
    assert err.getvalue().startswith("error: action.group: ")
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------- bucket entries

def _bucket_problem(tmp_path, entries) -> str:
    one = [[[1, 0]]]
    obj = {
        "graph": {"vertices": ["v"], "edges": [["e0", "v", "v"]]},
        "action": {"group": {"table": [[0, 1], [1, 0]]}, "vertex_perm": [{"v": "v"}] * 2,
                   "bucket_unitaries": [{"element": g, "range": v, "source": "v", "matrix": one}
                                        for g, v in entries]},
        "representation": {"dim": 1, "proj": {"v": one}, "edge_op": {"e0": [[[0, 0]]]},
                           "unitaries": [one, one]},
    }
    path = tmp_path / "buckets.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("entries, message", [
    ([(1, "v"), (7, "zz")], "action: bucket matrix (7, 'zz', 'v') names no group element"),
    ([(1, "v"), (1, "zz")], "action: bucket matrix (1, 'zz', 'v') names no nonempty bucket"),
    ([(1, "v"), (1, "v")], "action.bucket_unitaries[1]: repeats element 1, bucket ('v', 'v')"),
], ids=["unknown-element", "unknown-range", "repeated"])
def test_bucket_entry_naming_no_bucket_once_exit_2(tmp_path, capsys, entries, message):
    out_path = tmp_path / "final.json"
    argv = ["dilate", "--mode", "isometric", _bucket_problem(tmp_path, entries), "--out", str(out_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_path.exists()


# ---------------------------------------------------------------- dim 0

def test_dim_zero_file_validates_and_dilates(tmp_path, capsys):
    empty = np.zeros((0, 0), dtype=complex)
    a = z2_loop_swap()
    rep = GraphRep(a.graph, 0, {"v": empty}, {"e0": empty, "e1": empty},
                   action=a, unitaries={0: empty, 1: empty})
    path, out_path = tmp_path / "dim0.json", tmp_path / "final.json"
    save_problem(ProblemFile(a.graph, a, rep, Tolerance()), path)
    assert main(["validate", str(path)]) == 0
    assert main(["dilate", "--mode", "cp", str(path), "--out", str(out_path)]) == 0
    assert load_problem(out_path).representation.dim == 0
    assert main(["validate", str(out_path)]) == 0
    assert "result: PASS (exit 0)" in capsys.readouterr().out
