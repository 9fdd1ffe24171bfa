"""Tests for problem-file parsing and canonical serialization."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrdil import (
    DEFAULT_TOL,
    DirectedGraph,
    FiniteGroup,
    GaugeAction,
    GraphRep,
    ParseError,
    ProblemFile,
    Tolerance,
    induced_regular_rep,
    parse_problem,
    problem_text,
)
from corrdil.io import canonical_text, matrix_from_json, matrix_to_json
from helpers import cuntz_graph, random_cc_rep, rng_for, signed_loop, z2_loop_swap


# The canonical text of canonical_sample_problem(), pinned byte for byte.  Regenerate
# it (only for an intended change of the format) with
#     PYTHONPATH=src:tests python tests/test_io.py
CANONICAL_SAMPLE = Path(__file__).parent / "data" / "canonical_sample.json"
# signed_loop(-1.0) as problem_text writes it: every relation but covariance holds
NONCOVARIANT_LOOP = Path(__file__).parent / "data" / "noncovariant_loop.json"


def sample_problem() -> ProblemFile:
    rng = rng_for(950)
    a = z2_loop_swap(mixer=True)
    rep = random_cc_rep(rng, a.graph, dim=3)
    rep = GraphRep(rep.graph, rep.dim, rep.proj, rep.edge_op)
    return ProblemFile(a.graph, a, rep, Tolerance())


# ---------------------------------------------------------------- round trips

def test_round_trip_byte_identical():
    pf = sample_problem()
    text = problem_text(pf)
    again = problem_text(parse_problem(text))
    assert again == text


def test_round_trip_preserves_values():
    pf = sample_problem()
    pf2 = parse_problem(problem_text(pf))
    assert pf2.graph == pf.graph
    for e in pf.graph.edges:
        assert np.array_equal(pf2.representation.edge_op[e.eid],
                              pf.representation.edge_op[e.eid])
    for v in pf.graph.vertices:
        assert np.array_equal(pf2.representation.proj[v], pf.representation.proj[v])
    assert pf2.tolerance == pf.tolerance
    U = pf.action.bucket_unitary[(1, "v", "v")]
    assert np.array_equal(pf2.action.bucket_unitary[(1, "v", "v")], U)


def test_graph_only_file():
    text = json.dumps({"graph": {"vertices": ["v"], "edges": [["l", "v", "v"]]}})
    pf = parse_problem(text)
    assert pf.representation is None
    assert pf.action is None
    assert pf.tolerance == DEFAULT_TOL
    assert problem_text(parse_problem(problem_text(pf))) == problem_text(pf)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=1, max_size=4))
def test_float_formatting_round_trips(values):
    M = np.array([values], dtype=complex)
    again = matrix_from_json(json.loads(canonical_text(matrix_to_json(M))), "m")
    assert np.array_equal(again, M)


# ---------------------------------------------------------------- diagnostics

def test_not_json():
    with pytest.raises(ParseError, match="not valid JSON"):
        parse_problem("{nope")


def test_missing_graph_block():
    with pytest.raises(ParseError, match="graph"):
        parse_problem("{}")


def test_bad_edge_shape():
    text = json.dumps({"graph": {"vertices": ["v"], "edges": [["l", "v"]]}})
    with pytest.raises(ParseError, match=r"edges\[0\]"):
        parse_problem(text)


def test_unknown_vertex_in_edge():
    text = json.dumps({"graph": {"vertices": ["v"], "edges": [["l", "v", "w"]]}})
    with pytest.raises(ParseError, match="graph"):
        parse_problem(text)


def test_ragged_matrix():
    text = json.dumps({
        "graph": {"vertices": ["v"], "edges": [["l", "v", "v"]]},
        "representation": {"dim": 2,
                           "proj": {"v": [[[1, 0], [0, 0]], [[0, 0]]]},
                           "edge_op": {"l": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}},
    })
    with pytest.raises(ParseError, match="ragged"):
        parse_problem(text)


def test_bad_entry_pair():
    with pytest.raises(ParseError, match=r"m\[0\]\[0\]"):
        matrix_from_json([[[1, 2, 3]]], "m")


@pytest.mark.parametrize("obj, message", [
    ([[[True, 0]]], "m[0][0]: expected an [re, im] pair"),
    ([[["1.5", 0]]], "m[0][0]: expected an [re, im] pair"),
    ([[[None, 0]]], "m[0][0]: expected an [re, im] pair"),
    ([[[1, 2, 3]]], "m[0][0]: expected an [re, im] pair"),
    ([[[1, 0], [2]]], "m[0][1]: expected an [re, im] pair"),
    ([[[[1, 0]]]], "m[0][0]: expected an [re, im] pair"),
    ([[[1, 0]], "x"], "m[1]: expected an array"),
    ([[[1, 0]], [[2, 0], [3, 0]]], "m[1]: ragged rows"),
    ([[[1, 0], [2, 0]], [[3, 0], [4, 0]], [[5, 0]]], "m[2]: ragged rows"),
    ([[], [[1, 0]]], "m[1]: ragged rows"),
    ([[(1, 0)]], "m[0][0]: expected an [re, im] pair"),
    ([([1, 0],)], "m[0]: expected an array"),
    ([[[1e400, 0]]], "m[0][0]: entry is not finite"),
    ([[[10**400, 0]]], "m[0][0]: entry is not finite"),
    ([[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]], "m[1][1]: entry is not finite"),
    ([], "m: expected a nonempty array of rows"),
], ids=["true", "string", "null", "triple", "short-pair", "too-deep", "row-not-array",
        "ragged", "ragged-short-last", "ragged-empty-first", "tuple-pair", "tuple-row", "float-overflow", "int-overflow", "nan-later-row", "empty"])
def test_matrix_from_json_rejects(obj, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        matrix_from_json(obj, "m")


json_numbers = st.one_of(st.integers(-2**70, 2**70), st.floats(allow_nan=False, allow_infinity=False))


@given(st.integers(1, 4).flatmap(lambda m: st.lists(
    st.lists(st.lists(json_numbers, min_size=2, max_size=2), min_size=m, max_size=m),
    min_size=1, max_size=4)))
def test_matrix_from_json_converts_ints_and_floats_exactly(rows):
    A = matrix_from_json(rows, "m")
    want = np.array([[complex(re, im) for re, im in row] for row in rows])
    assert A.shape == want.shape and A.tobytes() == want.tobytes()


def test_matrix_from_json_values():
    assert matrix_from_json([[]], "m").shape == (1, 0)
    pairs = [[[1, 0.5], [2**53 + 1, -3]], [[-0.0, 7], [1e-300, -2.5e300]]]
    A = matrix_from_json(pairs, "m")
    want = np.array([[complex(re, im) for re, im in row] for row in pairs])
    assert A.dtype == complex and A.tobytes() == want.tobytes()


def test_unknown_tolerance_field():
    text = json.dumps({
        "graph": {"vertices": ["v"], "edges": []},
        "tolerance": {"epsilon": 1e-6},
    })
    with pytest.raises(ParseError, match="epsilon"):
        parse_problem(text)


def _one_loop_text(entry: str, tolerance: str = "{}") -> str:
    """A 1-dim one-loop problem whose edge entry is the raw JSON pair entry."""
    return ('{"graph": {"vertices": ["v"], "edges": [["e0", "v", "v"]]},'
            ' "representation": {"dim": 1, "proj": {"v": [[[1, 0]]]},'
            ' "edge_op": {"e0": [[' + entry + ']]}}, "tolerance": ' + tolerance + '}')


@pytest.mark.parametrize("entry", ["[NaN, 0]", "[0, Infinity]", "[-Infinity, 0]",
                                   "[1e400, 0]", "[0, 1" + "0" * 400 + "]"],
                         ids=["nan", "inf-imag", "minus-inf", "float-overflow", "int-overflow"])
def test_non_finite_matrix_entry(entry):
    with pytest.raises(ParseError, match=re.escape("representation.edge_op['e0'][0][0]")):
        parse_problem(_one_loop_text(entry))


@pytest.mark.parametrize("field, value", [
    ("eps", "[1]"), ("eps", '"1e-3"'), ("eps", "true"), ("eps", "Infinity"),
    ("eig_clip", "NaN"), ("max_dim", "3.9"), ("max_dim", "true"), ("max_dim", '"8"'),
])
def test_tolerance_field_type(field, value):
    text = _one_loop_text("[0, 0]", "{" + json.dumps(field) + ": " + value + "}")
    with pytest.raises(ParseError, match=re.escape(f"tolerance.{field}")):
        parse_problem(text)


def test_dim_rejects_boolean():
    text = _one_loop_text("[0, 0]").replace('"dim": 1', '"dim": true')
    with pytest.raises(ParseError, match=re.escape("representation.dim")):
        parse_problem(text)


def test_negative_zero_round_trips_byte_identical():
    g = cuntz_graph(1)
    M = np.array([[complex(-0.0, -0.0), complex(-0.0, 0.5)],
                  [complex(0.25, -0.0), complex(1.0, 0.0)]])
    rep = GraphRep(g, 2, {"v": np.eye(2)}, {"e0": M})
    text = problem_text(ProblemFile(g, None, rep, Tolerance()))
    assert "-0," not in text and "-0]" not in text
    assert problem_text(parse_problem(text)) == text


@pytest.mark.parametrize("perm", [{"v": "v"}, {"v": "w", "w": "w"}, {"v": "w", "w": 0}],
                         ids=["partial", "not-injective", "non-string"])
def test_vertex_perm_must_be_a_bijection(perm):
    text = json.dumps({
        "graph": {"vertices": ["v", "w"], "edges": []},
        "action": {"group": {"table": [[0, 1], [1, 0]]},
                   "vertex_perm": [{"v": "v", "w": "w"}, perm]},
    })
    with pytest.raises(ParseError, match=re.escape("action.vertex_perm[1]")):
        parse_problem(text)


def test_rep_dimension_mismatch():
    text = json.dumps({
        "graph": {"vertices": ["v"], "edges": [["l", "v", "v"]]},
        "representation": {"dim": 3,
                           "proj": {"v": [[[1, 0]]]},
                           "edge_op": {"l": [[[0, 0]]]}},
    })
    with pytest.raises(ParseError, match="representation"):
        parse_problem(text)


@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1]], "multiplication table is not square"),
    ([[0, 1], [1, 2]], "table entry out of range"),
    ([[1, 1], [1, 1]], "table has no identity element"),
    ([[0, 1, 2], [1, 1, 1], [2, 1, 0]], "element 1 has no inverse"),
    ([[0.5]], "table entry [0][0] is not an integer"),
], ids=["not-square", "out-of-range", "no-identity", "no-inverse", "float"])
def test_group_table_errors_name_the_group(table, message):
    text = json.dumps({"graph": {"vertices": ["v"], "edges": []},
                       "action": {"group": {"table": table}, "vertex_perm": [{"v": "v"}]}})
    with pytest.raises(ParseError, match=f"^{re.escape('action.group: ' + message)}$"):
        parse_problem(text)


def test_dim_zero_files_round_trip():
    # a dim-0 operator is written as [] and read back as 0 x 0
    empty = np.zeros((0, 0), dtype=complex)
    a = z2_loop_swap()
    reps = [GraphRep(cuntz_graph(1), 0, {"v": empty}, {"e0": empty}),
            GraphRep(a.graph, 0, {"v": empty}, {"e0": empty, "e1": empty},
                     action=a, unitaries={0: empty, 1: empty})]
    for rep in reps:
        text = problem_text(ProblemFile(rep.graph, rep.action, rep, Tolerance()))
        pf = parse_problem(text)
        assert problem_text(pf) == text
        back = pf.representation
        ops = [*back.proj.values(), *back.edge_op.values(), *(back.unitaries or {}).values()]
        assert back.dim == 0 and all(M.shape == (0, 0) for M in ops)
    assert '"unitaries": [[], []]' in text


def test_empty_matrix_read_only_as_a_dim_zero_operator():
    text = _one_loop_text("[0, 0]").replace('"proj": {"v": [[[1, 0]]]}', '"proj": {"v": []}')
    with pytest.raises(ParseError, match=re.escape("representation.proj['v']: expected a nonempty")):
        parse_problem(text)


# ---------------------------------------------------------------- canonical form

def test_canonical_text_sorted_and_17g():
    text = canonical_text({"b": 0.1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert "0.10000000000000001" in text


def test_canonical_matrix_layout():
    text = canonical_text([[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    # one line per matrix row, entries inline
    assert text.splitlines()[1].strip() == "[[1, 0], [0.5, 0]],"


def test_canonical_float_list_and_int_pairs():
    # a list of floats is one line of .17g scalars, -0.0 written as 0
    assert canonical_text([-0.0, 0.1, 1e300]) == "[0, 0.10000000000000001, 1.0000000000000001e+300]\n"
    # pairs that hold ints, alone or beside floats, are written as parsed
    text = "\n".join([
        '{',
        '  "graph": {',
        '    "edges": [["l", "v", "v"]],',
        '    "vertices": ["v"]',
        '  },',
        '  "representation": {',
        '    "dim": 2,',
        '    "edge_op": {',
        '      "l": [',
        '        [[0, 1], [-1, 0]],',
        '        [[0.5, 0], [0, 0]]',
        '      ]',
        '    },',
        '    "proj": {',
        '      "v": [',
        '        [[1, 0], [0, 0]],',
        '        [[0, 0], [1, 0]]',
        '      ]',
        '    }',
        '  }',
        '}',
        '',
    ])
    assert canonical_text(json.loads(text)) == text


def list_emitter_text(pf: ProblemFile) -> str:
    """The canonical text of problem_text's object with every matrix given to
    the generic list emitter as its matrix_to_json list."""
    tree = json.loads(problem_text(pf))
    if pf.action is not None:
        for entry in tree["action"]["bucket_unitaries"]:
            key = (entry["element"], entry["range"], entry["source"])
            entry["matrix"] = matrix_to_json(pf.action.bucket_unitary[key])
    rep = pf.representation
    if rep is not None:
        tree["representation"]["proj"] = {v: matrix_to_json(P) for v, P in rep.proj.items()}
        tree["representation"]["edge_op"] = {e: matrix_to_json(T) for e, T in rep.edge_op.items()}
        if rep.unitaries is not None:
            tree["representation"]["unitaries"] = [
                matrix_to_json(rep.unitaries[g]) for g in range(len(rep.unitaries))]
    return canonical_text(tree)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def finite_reps(draw) -> GraphRep:
    """A representation of dim 0-5 on a two-vertex graph whose matrices hold
    arbitrary finite entries: +-0.0, subnormals, +-1.8e308 and the rest."""
    d = draw(st.integers(0, 5))
    g = DirectedGraph(("v", "w"), (("e0", "v", "w"), ("e1", "w", "w")))
    entries = st.lists(st.builds(complex, finite_floats, finite_floats), min_size=d * d,
                       max_size=d * d).map(lambda zs: np.array(zs, dtype=complex).reshape(d, d))
    return GraphRep(g, d, {v: draw(entries) for v in g.vertices},
                    {e.eid: draw(entries) for e in g.edges})


@given(finite_reps())
def test_array_writer_matches_the_list_emitter(rep):
    pf = ProblemFile(rep.graph, None, rep, Tolerance())
    text = problem_text(pf)
    assert text == list_emitter_text(pf)
    assert canonical_text(json.loads(text)) == text


def test_array_writer_on_empty_shapes():
    g = cuntz_graph(1)
    empty = np.zeros((0, 0), dtype=complex)
    pf = ProblemFile(g, None, GraphRep(g, 0, {"v": empty}, {"e0": empty}), Tolerance())
    text = problem_text(pf)
    assert '"e0": []' in text and text == list_emitter_text(pf)
    for shape in [(0, 0), (2, 0), (0, 3)]:
        M = np.zeros(shape, dtype=complex)
        assert canonical_text({"m": M}) == canonical_text({"m": matrix_to_json(M)})


def test_array_writer_on_covariant_files():
    # bucket matrices and unitaries, a -0.0 entry and entries near 1e+-300
    for pf in (sample_problem(), canonical_sample_problem()):
        assert pf.action.bucket_unitary
        text = problem_text(pf)
        assert text == list_emitter_text(pf)
        assert canonical_text(json.loads(text)) == text
    assert '"unitaries"' in text and '"bucket_unitaries": [\n' in text


# ---------------------------------------------------------------- pinned bytes

def canonical_sample_problem() -> ProblemFile:
    """A covariant problem whose canonical text exercises every writer path:
    a Hadamard bucket unitary, a truncated vertex, a -0.0 entry and entries
    near 1e+-300."""
    g = DirectedGraph(("v", "w"), (("e0", "v", "v"), ("e1", "v", "v")), frozenset({"w"}))
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    a = GaugeAction(FiniteGroup.cyclic(2), g, ({"v": "v", "w": "w"},) * 2, {(1, "v", "v"): H})
    rep = induced_regular_rep(random_cc_rep(rng_for(951), g, dim=2), a)
    T = rep.edge_op["e0"].copy()
    T[0, 1] = complex(-0.0, 1.0e-300)
    T[1, 0] = complex(-1.2345678901234567e300, -0.0)
    rep = GraphRep(g, rep.dim, rep.proj, {**rep.edge_op, "e0": T},
                   action=a, unitaries=rep.unitaries)
    return ProblemFile(g, a, rep, Tolerance(eps=1e-9, eig_clip=1e-11, max_dim=512))


def test_canonical_sample_fixture_bytes():
    pinned = CANONICAL_SAMPLE.read_text(encoding="utf-8")
    assert problem_text(parse_problem(pinned)) == pinned
    assert canonical_text(json.loads(pinned)) == pinned


def test_canonical_sample_problem_writes_fixture():
    assert problem_text(canonical_sample_problem()) == CANONICAL_SAMPLE.read_text(encoding="utf-8")


def test_noncovariant_loop_fixture_is_the_written_signed_loop():
    rep = signed_loop(-1.0)
    text = problem_text(ProblemFile(rep.graph, rep.action, rep, Tolerance()))
    assert text == NONCOVARIANT_LOOP.read_text(encoding="utf-8")


if __name__ == "__main__":
    CANONICAL_SAMPLE.parent.mkdir(exist_ok=True)
    CANONICAL_SAMPLE.write_text(problem_text(canonical_sample_problem()), encoding="utf-8")
    print(f"wrote {CANONICAL_SAMPLE}")
