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
import corrdil.dilation
from corrdil import (
    FiniteGroup,
    GaugeAction,
    GraphRep,
    ProblemFile,
    Tolerance,
    induced_regular_rep,
    load_problem,
    save_problem,
)
from corrdil.cli import main
from helpers import (
    LOOP5,
    cuntz_graph,
    random_cc_rep,
    rng_for,
    signed_loop,
    trivial_action,
    truncated_vertex_swap,
    z2_loop_swap,
    z3_loop_rotation,
    zero_rep,
)
from test_io import CANONICAL_SAMPLE, NONCOVARIANT_LOOP


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


@pytest.mark.parametrize("mode", ["isometric", "cp"])
def test_dilate_capped_run_has_not_converged(tmp_path, capsys, mode):
    # a run cut short by the cap reports pipeline.converged as failed in
    # both modes, and exits 3
    rep = zero_rep(cuntz_graph(3), 4)
    path = tmp_path / "big.json"
    save_problem(ProblemFile(rep.graph, None, rep, Tolerance()), path)
    argv = ["dilate", "--mode", mode, "--steps", "3", str(path), "--max-dim", "24",
            "--format", "records"]
    assert main(argv) == 3
    rows = _records(capsys)
    flag = [r for r in rows if r["record"] == "check" and r["name"] == "pipeline.converged"]
    assert len(flag) == 1 and flag[0]["passed"] is False and flag[0]["value"] == 0.0
    assert rows[-1] == {"record": "result", "exit_status": 3}


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
    assert [r["kind"] for r in rows if r["record"] == "stage"] == ["compression"]
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


def _check_rows(rows) -> list:
    return [r for r in rows if r["record"] == "check"]


@pytest.mark.parametrize("mode", [
    ["isometric"], ["cp"], ["ck", "--steps", "0"], ["ck", "--steps", "1"],
], ids=["isometric", "cp", "ck-0", "ck-1"])
def test_dilate_gates_the_final_covariance(tmp_path, capsys, monkeypatch, cuntz2_zero_file, mode):
    # a covariant file gets one gated line read from the last stage row,
    # whether or not a step ran; a drift of 1.6e-8 > eps there fails the
    # run, and so does the loop whose covariance defect is 2.0, which cp
    # finds already converged.  ck runs on a covariant loop that meets the
    # Cuntz-Krieger relation, so that its corner-ck-defect passes
    ck = mode[0] == "ck"
    if ck:
        rep = signed_loop(1.0)
        path = str(tmp_path / "loop.json")
        save_problem(ProblemFile(rep.graph, rep.action, rep, Tolerance()), path)
    else:
        path = _covariant_file(tmp_path, 1.0)
    argv = ["dilate", "--mode", *mode, "--format", "records"]
    assert main(argv + [path]) == 0
    rows = _records(capsys)
    line = next(r for r in rows if r.get("name") == "final-covariance-defect")
    assert line["value"] == [r for r in rows if r["record"] == "stage"][-1]["covariance"]
    assert line["value"] <= 1e-12 and line["threshold"] == 1e-8 and line["passed"]
    assert main(argv + [cuntz2_zero_file]) == (1 if mode[-1] == "0" else 0)
    assert "final-covariance-defect" not in {r["name"] for r in _check_rows(_records(capsys))}
    assert main(argv + [str(NONCOVARIANT_LOOP)]) == 1
    assert _check_rows(_records(capsys))[-1] == {
        "record": "check", "name": "final-covariance-defect", "value": 2.0, "threshold": 1e-8,
        "passed": False}

    monkeypatch.setattr(corrdil.dilation, "_covariance_residuals",
                        lambda rep, block=None: iter([np.full((1, 1), 1.6e-8)]))
    assert main(argv + [path]) == 1
    checks = _check_rows(_records(capsys))
    assert checks[-2:] == [
        {"record": "check", "name": "corner-ck-defect", "value": 0.0, "threshold": 1e-8,
         "passed": True} if ck else
        {"record": "check", "name": "pipeline.converged", "value": 0.0, "threshold": None,
         "passed": False},
        {"record": "check", "name": "final-covariance-defect", "value": 1.6e-8,
         "threshold": 1e-8, "passed": False},
    ]


def test_dilate_gate_failure_names_a_failing_action(tmp_path, capsys):
    # the input fails its row check and its action is not unitary: dilate
    # prints validate's lines but the graph's and the passing action lines,
    # and measures no covariance against the failing action
    a = NON_UNITARY
    rep = GraphRep(a.graph, 1, {"v": np.eye(1)}, {"e0": np.array([[2.0]]), "e1": np.zeros((1, 1))},
                   action=a, unitaries={0: np.eye(1), 1: np.eye(1)})
    path = str(tmp_path / "bad-action.json")
    save_problem(ProblemFile(rep.graph, a, rep, Tolerance()), path)
    assert main(["validate", path, "--format", "records"]) == 1
    validated = _records(capsys)
    assert main(["dilate", "--mode", "cp", path, "--format", "records"]) == 1
    rows = _records(capsys)
    names = [r["name"] for r in _check_rows(rows)]
    assert names[0] == "action.module-automorphism-axioms"
    assert "covariance-defect" not in names
    assert [r for r in _check_rows(rows) if not r["name"].startswith("action.")] == [
        r for r in _check_rows(validated) if not r["name"].startswith(("graph.", "action."))]
    assert [r for r in _check_rows(rows) if r["name"].startswith("action.")] == [
        r for r in _check_rows(validated) if r["name"].startswith("action.") and not r["passed"]]
    assert [r["text"] for r in rows if r["record"] == "note"] == [
        "action axioms: bucket matrix (1, 'v', 'v') is not unitary",
        "covariance-defect not measured: the action failed its checks",
        "input failed validation; pipeline not run",
    ]


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


def test_induce_requires_representation(tmp_path, capsys):
    a = z2_loop_swap()
    path = tmp_path / "graph-and-action.json"
    save_problem(ProblemFile(a.graph, a, None, Tolerance()), path)
    assert main(["induce", str(path)]) == 2
    assert capsys.readouterr().err == "error: top level: induce requires a representation block\n"


def _z3_rotation_file(tmp_path) -> str:
    a = z3_loop_rotation()
    rep = random_cc_rep(rng_for(961), a.graph, dim=2)
    path = tmp_path / "z3.json"
    save_problem(ProblemFile(a.graph, a, rep, Tolerance()), path)
    return str(path)


@pytest.mark.parametrize("source, induced_dim, code", [
    (_z3_rotation_file, 6, 0),
    # the sample's entries near 1e300 overflow its row check: within the
    # cap it fails validation (exit 1) and nothing is induced
    (lambda tmp_path: str(CANONICAL_SAMPLE), 8, 1),
], ids=["z3-dim2", "canonical-sample"])
def test_induce_checks_the_dimension_cap(tmp_path, capsys, source, induced_dim, code):
    path, out_path = source(tmp_path), tmp_path / "induced.json"
    argv = ["induce", path, "--out", str(out_path)]
    assert main(argv + ["--max-dim", str(induced_dim - 1)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: dimension {induced_dim} exceeds the configured cap"
                            f" {induced_dim - 1}\n")
    assert not out_path.exists()

    assert main(argv + ["--max-dim", str(induced_dim)]) == code
    if code == 0:
        assert load_problem(out_path).representation.dim == induced_dim
    else:
        assert not out_path.exists()


def test_induce_gates_its_input(tmp_path, capsys):
    # proj(v) = 0.5 is no projection and t(e0) = 3 no contraction: induce
    # prints validate's failing lines and induces nothing
    g = cuntz_graph(1)
    rep = GraphRep(g, 1, {"v": 0.5 * np.eye(1)}, {"e0": 3.0 * np.eye(1)})
    path, out_path = str(tmp_path / "loop.json"), tmp_path / "induced.json"
    save_problem(ProblemFile(g, trivial_action(g), rep, Tolerance()), path)
    assert main(["validate", path, "--format", "records"]) == 1
    failing = [r for r in _records(capsys) if r["record"] == "check" and not r["passed"]]
    assert main(["induce", path, "--out", str(out_path), "--format", "records"]) == 1
    assert _records(capsys)[1:] == failing + [
        {"record": "note", "text": "input failed validation; induction not run"},
        {"record": "result", "exit_status": 1},
    ]
    assert {r["name"] for r in failing} >= {"projection[v]", "row-contraction[v]"}
    assert not out_path.exists()


# ---------------------------------------------------------------- one parser

def test_main_calls_leak_nothing_into_later_calls(tmp_path, capsys, monkeypatch):
    # every main call parses with one cached parser.  Each call that sets
    # --out, --format records, --tol, --eig-clip, --steps or --max-dim, and
    # a call argparse rejects, is followed by calls that omit them: those
    # see what a fresh parser gives, write no file, print a text table and
    # read the file's tolerances
    parser = corrdil.cli._parser()
    assert corrdil.cli._parser() is parser
    seen, real = [], parser.parse_args

    def recorded(argv):
        seen.append((argv, real(argv)))
        return seen[-1][1]

    monkeypatch.setattr(parser, "parse_args", recorded)
    a = z2_loop_swap()
    rep = random_cc_rep(rng_for(960), a.graph, dim=3)
    path, out = str(tmp_path / "in.json"), tmp_path / "out.json"
    save_problem(ProblemFile(a.graph, a, rep, Tolerance(eps=1e-9, eig_clip=1e-11, max_dim=512)), path)
    plain = [["validate", path], ["dilate", "--mode", "isometric", path], ["induce", path]]
    loud = ["--out", str(out), "--format", "records", "--tol", "1e-3", "--eig-clip", "1e-4"]

    def run_plain():
        outs = []
        for argv in plain:
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
            assert outs[-1].startswith("command: ")   # a text table, not records
        assert [f.name for f in tmp_path.iterdir()] == ["in.json"]
        return outs

    before = run_plain()
    assert all("1.0e-09" in text and "1.0e-03" not in text for text in before[::2])
    assert main(["dilate", "--mode", "isometric", path, "--steps", "2", "--max-dim", "21"] + loud) == 0
    assert [r["kind"] for r in _records(capsys) if r["record"] == "stage"] == [
        "isometric-step", "isometric-step", "compression"]
    out.unlink()
    assert run_plain() == before
    assert main(["induce", path, "--max-dim", "6"] + loud) == 0   # would cap the plain dilate
    assert _records(capsys)[-1] == {"record": "result", "exit_status": 0}
    out.unlink()
    with pytest.raises(SystemExit) as rejected:
        main(["validate", path, "--format", "xml", "--tol", "1e-3"])
    assert rejected.value.code == 2
    capsys.readouterr()
    assert run_plain() == before
    for argv, args in seen:
        assert vars(args) == vars(corrdil.cli._parser.__wrapped__().parse_args(argv))


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


@pytest.mark.parametrize("flag, value", [("--tol", "1e-3"), ("--eig-clip", "-1"),
                                         ("--max-dim", "0")])
def test_counterexample_takes_no_tolerance_flags(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


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


def _action_file(tmp_path, action) -> str:
    """A representation that passes every verdict check, its unitaries all
    I, carrying the given action."""
    base = random_cc_rep(rng_for(1250), action.graph, dim=2)
    eye = {g: np.eye(2) for g in range(action.group.order)}
    rep = GraphRep(action.graph, 2, base.proj, base.edge_op, action=action, unitaries=eye)
    path = tmp_path / "action.json"
    save_problem(ProblemFile(rep.graph, action, rep, Tolerance()), path)
    return str(path)


NON_UNITARY = GaugeAction(FiniteGroup.cyclic(2), cuntz_graph(2), ({"v": "v"}, {"v": "v"}),
                          {(1, "v", "v"): np.array([[0.0, 2.0], [0.5, 0.0]])})


@pytest.mark.parametrize("action, reason", [
    (NON_UNITARY, "bucket matrix (1, 'v', 'v') is not unitary"),
    (truncated_vertex_swap(), "element 1 moves a truncated vertex"),
], ids=["non-unitary", "moves-truncated"])
@pytest.mark.parametrize("argv, skipped", [
    (["dilate", "--mode", "isometric"], "pipeline"), (["dilate", "--mode", "ck"], "pipeline"),
    (["dilate", "--mode", "cp"], "pipeline"), (["induce"], "induction"),
], ids=["isometric", "ck", "cp", "induce"])
def test_failing_action_stops_dilate_and_induce(tmp_path, capsys, action, reason, argv, skipped):
    path, out_path = _action_file(tmp_path, action), tmp_path / "out.json"
    assert main(["validate", path]) == 1
    assert f"note: action axioms: {reason}\n" in capsys.readouterr().out
    assert main(argv + [path, "--out", str(out_path), "--format", "records"]) == 1
    assert _records(capsys)[1:] == [
        {"record": "check", "name": "action.module-automorphism-axioms", "value": 0.0,
         "threshold": None, "passed": False},
        {"record": "note", "text": f"action axioms: {reason}"},
        {"record": "note", "text": f"the action failed its checks; {skipped} not run"},
        {"record": "result", "exit_status": 1},
    ]
    assert not out_path.exists()


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


# ---------------------------------------------------------------- input errors

def _one_loop_z2() -> dict:
    one = [[[1, 0]]]
    return {
        "graph": {"vertices": ["v"], "edges": [["e0", "v", "v"]], "truncated": []},
        "action": {"group": {"table": [[0, 1], [1, 0]]}, "vertex_perm": [{"v": "v"}] * 2,
                   "bucket_unitaries": [{"element": 1, "range": "v", "source": "v",
                                         "matrix": one}]},
        "representation": {"dim": 1, "proj": {"v": one}, "edge_op": {"e0": [[[0, 0]]]},
                           "unitaries": [one, one]},
        "tolerance": {"eps": 1e-8},
    }


def _set(path: tuple, value):
    def mutate(obj):
        *outer, last = path
        for key in outer:
            obj = obj[key]
        obj[last] = value
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (None, "top level: expected an object"),
    (_set(("graph", "truncated"), "v"), "graph.truncated: expected an array"),
    # str() would have read null as vertex "None" and rewritten the file
    (_set(("graph", "vertices"), [None]), "graph.vertices[0]: expected a string"),
    (_set(("graph", "vertices"), [True]), "graph.vertices[0]: expected a string"),
    (_set(("graph", "vertices"), [["v"]]), "graph.vertices[0]: expected a string"),
    (_set(("graph", "vertices"), ["v", 1]), "graph.vertices[1]: expected a string"),
    (_set(("graph", "truncated"), [None]), "graph.truncated[0]: expected a string"),
    (_set(("graph", "truncated"), ["v", False]), "graph.truncated[1]: expected a string"),
    (_set(("graph", "truncated"), [["v"]]), "graph.truncated[0]: expected a string"),
    (_set(("action", "vertex_perm"), [{"v": "v"}]), "action.vertex_perm: expected 2 entries"),
    (_set(("action", "vertex_perm", 1), ["v"]), "action.vertex_perm[1]: expected an object"),
    (_set(("action", "bucket_unitaries", 0), [1, "v", "v"]),
     "action.bucket_unitaries[0]: expected an object"),
    (_set(("action", "bucket_unitaries"), None), "action.bucket_unitaries: expected an array"),
    (_set(("action", "bucket_unitaries"), 5), "action.bucket_unitaries: expected an array"),
    (_set(("action", "bucket_unitaries"), {"0": {}}),
     "action.bucket_unitaries: expected an array"),
    (_set(("representation", "unitaries"), {"0": [[[1, 0]]]}),
     "representation.unitaries: expected an array"),
    (_set(("tolerance",), [1e-8]), "tolerance: expected an object"),
    (_set(("tolerance", "eps"), 10**400), "tolerance.eps: expected a finite number"),
    (_set(("tolerance", "eps"), -1), "tolerance: eps must be finite and positive"),
], ids=["top-level", "truncated", "vertex-null", "vertex-true", "vertex-list", "vertex-number",
        "truncated-null", "truncated-false", "truncated-list", "perm-count", "perm-entry",
        "bucket-entry", "buckets-null", "buckets-number", "buckets-object", "unitaries",
        "tolerance", "eps-overflow", "eps-negative"])
def test_input_errors_exit_2_with_their_path(tmp_path, capsys, mutate, message):
    obj = _one_loop_z2()
    if mutate is None:
        obj = [obj]
    else:
        mutate(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"



@pytest.mark.parametrize("old, new, key", [
    ('"tolerance": {', '"tolerance": {}, "tolerance": {', "tolerance"),
    ('"eps": 1e-08', '"eps": 1e-08, "eps": 0.5', "eps"),
    ('"proj": {"v": ', '"proj": {"v": [[[0, 0]]], "v": ', "v"),
    ('{"v": "v"}]', '{"v": "v", "v": "v"}]', "v"),
], ids=["top-level-block", "tolerance-eps", "proj-vertex", "vertex-perm-key"])
def test_duplicate_keys_exit_2_naming_the_key(tmp_path, capsys, old, new, key):
    text = json.dumps(_one_loop_z2())
    assert text.count(old) == 1
    path = tmp_path / "dup.json"
    path.write_text(text.replace(old, new))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: duplicate key {key!r}\n"
