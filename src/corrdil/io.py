"""Problem-file format: parsing and canonical serialization.

A problem file is UTF-8 JSON with up to four top-level blocks::

    {
      "graph": {
        "vertices": ["v", ...],
        "edges": [["eid", "src", "dst"], ...],
        "truncated": ["v", ...]                      # optional
      },
      "action": {                                    # optional
        "group": {"table": [[...], ...]},
        "vertex_perm": [{"v": "w", ...}, ...],       # one map per element
        "bucket_unitaries": [
          {"element": g, "range": "v", "source": "w", "matrix": M}, ...
        ]                                            # identity entries optional
      },
      "representation": {                            # optional
        "dim": d,
        "proj": {"v": M, ...},
        "edge_op": {"e": M, ...},
        "unitaries": [M, ...]                        # optional, element order
      },
      "tolerance": {"eps": ..., "eig_clip": ..., "max_dim": ...}   # optional
    }

where a matrix M is a nonempty nested array of [re, im] pairs, row-major,
except that the operators of a "dim": 0 representation are [].  Canonical
serialization sorts keys, prints floats with 17 significant digits, and is
byte-stable under parse/write round trips.

Matrices take array fast paths both ways: problem_text hands the emitter
the stored complex arrays, written one row per "%.17g" format call, and
matrix_from_json checks the JSON types on the flattened lists and converts
them with one np.array.  Input the fast path does not accept goes through
the entry-by-entry loop, which names the first bad row or entry, so the
bytes written and every ParseError message are what the plain loops give.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from pathlib import Path

import numpy as np

from .exceptions import CorrdilError, ParseError
from .gauge import FiniteGroup, GaugeAction
from .graph import DirectedGraph
from .linalg import Tolerance
from .representation import GraphRep

__all__ = [
    "ProblemFile",
    "parse_problem",
    "load_problem",
    "problem_text",
    "save_problem",
    "matrix_to_json",
    "matrix_from_json",
    "canonical_text",
]


@dataclass(frozen=True)
class ProblemFile:
    graph: DirectedGraph
    action: GaugeAction | None
    representation: GraphRep | None
    tolerance: Tolerance


# ---------------------------------------------------------------- canonical emitter

def _fmt_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        # -0.0 + 0.0 is 0.0: "-0" would read back as the integer 0 and be
        # rewritten as "0", breaking the byte-stable round trip
        return format(x + 0.0, ".17g")
    if isinstance(x, str):
        return json.dumps(x, ensure_ascii=False)
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x).__name__}")


@lru_cache(maxsize=16)   # a file's matrices have few widths
def _row_format(width: int) -> str:
    """The %-format of a matrix row of width [re, im] pairs."""
    return "[" + ", ".join(["[%.17g, %.17g]"] * width) + "]"


def _emit(obj, indent: int) -> tuple:
    """The canonical text of obj at the given indent level, and its depth:
    0 for a scalar, 3 for a dict (which forces dicts onto their own lines),
    and 1 + the deepest item for a list.  A list of depth <= 2 is written on
    one line, anything deeper one item per line.  A complex matrix is
    written as its matrix_to_json list, with one % call per row."""
    if isinstance(obj, np.ndarray):
        if not obj.size:
            return _emit(matrix_to_json(obj), indent)
        # + 0.0 writes -0.0 as 0, as _fmt_scalar does; "%.17g" is format's ".17g"
        fmt, pad = _row_format(obj.shape[1]), "  " * indent
        rows = [f"{pad}  {fmt % tuple((row.view(float) + 0.0).tolist())}"
                for row in np.ascontiguousarray(obj, dtype=complex)]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]", 3
    if isinstance(obj, dict):
        if not obj:
            return "{}", 3
        pad = "  " * indent
        lines = [
            f"{pad}  {json.dumps(str(k), ensure_ascii=False)}: {_emit(obj[k], indent + 1)[0]}"
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}", 3
    if isinstance(obj, list):
        items = [_emit(x, indent + 1) for x in obj]
        depth = 1 + max((d for _, d in items), default=0)
        if depth <= 2:
            return "[" + ", ".join([text for text, _ in items]) + "]", depth
        pad = "  " * indent
        lines = [f"{pad}  {text}" for text, _ in items]
        return "[\n" + ",\n".join(lines) + "\n" + pad + "]", depth
    return _fmt_scalar(obj), 0


def canonical_text(obj) -> str:
    """Render a JSON-like object in the canonical format (trailing newline)."""
    return _emit(obj, 0)[0] + "\n"


# ---------------------------------------------------------------- json <-> values

def matrix_to_json(M) -> list:
    A = np.ascontiguousarray(M, dtype=complex)
    n, m = A.shape
    return A.view(float).reshape(n, m, 2).tolist()


def _finite_pair_array(obj):
    """obj as an n x m complex array when it is a nonempty list of
    equal-length rows of [re, im] lists of finite JSON numbers (not
    booleans), else None.  Every entry equals complex(re, im) bit for bit."""
    # the shape and the JSON types are checked on the flattened lists, so
    # that np.array sees only ints and floats and one flat list of them
    pairs = list(chain.from_iterable(obj)) if {*map(type, obj)} == {list} else ()
    if not pairs or {*map(len, obj)} != {len(obj[0])} or {*map(type, pairs)} != {list}:
        return None
    vals = list(chain.from_iterable(pairs))
    if {*map(len, pairs)} != {2} or not {*map(type, vals)} <= {int, float}:
        return None
    try:
        A = np.array(vals, dtype=float)
    except OverflowError:   # an integer beyond the float range
        return None
    return A.view(complex).reshape(len(obj), -1) if np.isfinite(A).all() else None


def matrix_from_json(obj, path: str) -> np.ndarray:
    """The complex matrix of a JSON array of rows of [re, im] pairs.  Input
    that is not one fails with a ParseError naming the first bad row or entry."""
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{path}: expected a nonempty array of rows")
    A = _finite_pair_array(obj)
    if A is not None:
        return A
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ParseError(f"{path}[{i}]: expected an array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}[{i}]: ragged rows")
        entries = []
        for j, z in enumerate(row):
            if not (isinstance(z, list) and len(z) == 2
                    and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in z)):
                raise ParseError(f"{path}[{i}][{j}]: expected an [re, im] pair")
            try:
                entries.append(complex(z[0], z[1]))
            except OverflowError:
                raise ParseError(f"{path}[{i}][{j}]: entry is not finite") from None
        rows.append(entries)
    A = np.array(rows, dtype=complex)
    bad = np.argwhere(~np.isfinite(A))
    if bad.size:
        raise ParseError(f"{path}[{bad[0][0]}][{bad[0][1]}]: entry is not finite")
    return A


def _finite_number(x) -> bool:
    """A JSON number, not a boolean, with a finite float value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _need(obj: dict, key: str, kind, path: str):
    if key not in obj:
        raise ParseError(f"{path}: missing required field {key!r}")
    val = obj[key]
    # bool is an int subclass: reject true/false where a number is expected
    if kind is not None and (not isinstance(val, kind) or isinstance(val, bool)):
        raise ParseError(f"{path}.{key}: expected {kind.__name__}")
    return val


def _built(path: str, make, *args):
    """make(*args), its input error (a CorrdilError, or Tolerance's
    ValueError) raised as a ParseError at path."""
    try:
        return make(*args)
    except (CorrdilError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _graph_from_json(obj, path: str) -> DirectedGraph:
    vertices = _need(obj, "vertices", list, path)
    raw_edges = _need(obj, "edges", list, path)
    edges = []
    for i, e in enumerate(raw_edges):
        if not (isinstance(e, list) and len(e) == 3 and all(isinstance(x, str) for x in e)):
            raise ParseError(f"{path}.edges[{i}]: expected [eid, src, dst] strings")
        edges.append(tuple(e))
    truncated = obj.get("truncated", [])
    if not isinstance(truncated, list):
        raise ParseError(f"{path}.truncated: expected an array")
    for key, ids in (("vertices", vertices), ("truncated", truncated)):
        for i, v in enumerate(ids):
            if not isinstance(v, str):
                raise ParseError(f"{path}.{key}[{i}]: expected a string")
    return _built(path, DirectedGraph, tuple(vertices), tuple(edges), frozenset(truncated))


def _action_from_json(obj, graph: DirectedGraph, path: str) -> GaugeAction:
    group_obj = _need(obj, "group", dict, path)
    table = _need(group_obj, "table", list, f"{path}.group")
    group = _built(f"{path}.group", FiniteGroup, table)
    perms = _need(obj, "vertex_perm", list, path)
    if len(perms) != group.order:
        raise ParseError(f"{path}.vertex_perm: expected {group.order} entries")
    vset = set(graph.vertices)
    for i, p in enumerate(perms):
        if not isinstance(p, dict):
            raise ParseError(f"{path}.vertex_perm[{i}]: expected an object")
        if set(p) != vset or {x for x in p.values() if isinstance(x, str)} != vset:
            raise ParseError(
                f"{path}.vertex_perm[{i}]: expected a bijection of the graph's vertices"
            )
    entries = obj.get("bucket_unitaries", [])
    if not isinstance(entries, list):
        raise ParseError(f"{path}.bucket_unitaries: expected an array")
    units = {}
    for i, entry in enumerate(entries):
        where = f"{path}.bucket_unitaries[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected an object")
        g = _need(entry, "element", int, where)
        v = _need(entry, "range", str, where)
        w = _need(entry, "source", str, where)
        if (g, v, w) in units:
            raise ParseError(f"{where}: repeats element {g}, bucket ({v!r}, {w!r})")
        units[(g, v, w)] = matrix_from_json(_need(entry, "matrix", list, where), f"{where}.matrix")
    return _built(path, GaugeAction, group, graph, tuple(perms), units)


def _rep_from_json(obj, graph: DirectedGraph, action, path: str) -> GraphRep:
    dim = _need(obj, "dim", int, path)
    proj_obj = _need(obj, "proj", dict, path)
    edge_obj = _need(obj, "edge_op", dict, path)

    def operator(M, where):   # a dim-0 operator is written as []
        return np.zeros((0, 0), dtype=complex) if dim == 0 and M == [] else matrix_from_json(M, where)

    proj = {v: operator(M, f"{path}.proj[{v!r}]") for v, M in proj_obj.items()}
    edge_op = {e: operator(M, f"{path}.edge_op[{e!r}]") for e, M in edge_obj.items()}
    unitaries = None
    if "unitaries" in obj:
        raw = obj["unitaries"]
        if not isinstance(raw, list):
            raise ParseError(f"{path}.unitaries: expected an array")
        unitaries = {
            g: operator(M, f"{path}.unitaries[{g}]") for g, M in enumerate(raw)
        }
    return _built(path, GraphRep, graph, dim, proj, edge_op, action, unitaries)


def _tolerance_from_json(obj, path: str) -> Tolerance:
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    known = {"eps", "eig_clip", "max_dim"}
    for key in obj:
        if key not in known:
            raise ParseError(f"{path}.{key}: unknown tolerance field")
    for key in ("eps", "eig_clip"):
        if key in obj and not _finite_number(obj[key]):
            raise ParseError(f"{path}.{key}: expected a finite number")
    max_dim = obj.get("max_dim", Tolerance.max_dim)
    if not isinstance(max_dim, int) or isinstance(max_dim, bool):
        raise ParseError(f"{path}.max_dim: expected an integer")
    return _built(path, Tolerance, float(obj.get("eps", Tolerance.eps)),
                  float(obj.get("eig_clip", Tolerance.eig_clip)), max_dim)


def _unique_keys(pairs: list) -> dict:
    """json.loads object hook: a key given twice in one object is an input
    error, where a plain dict would keep the last value silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_problem(text: str) -> ProblemFile:
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: not valid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise ParseError("top level: expected an object")
    graph = _graph_from_json(_need(obj, "graph", dict, "top level"), "graph")
    action = None
    if "action" in obj:
        action = _action_from_json(_need(obj, "action", dict, "top level"), graph, "action")
    rep = None
    if "representation" in obj:
        rep = _rep_from_json(
            _need(obj, "representation", dict, "top level"), graph, action, "representation"
        )
    tolerance = _tolerance_from_json(obj.get("tolerance", {}), "tolerance")
    return ProblemFile(graph, action, rep, tolerance)


def load_problem(path) -> ProblemFile:
    return parse_problem(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------- writing

def _graph_to_json(g: DirectedGraph) -> dict:
    out = {
        "vertices": list(g.vertices),
        "edges": [[e.eid, e.src, e.dst] for e in g.edges],
    }
    if g.truncated:
        out["truncated"] = sorted(g.truncated)
    return out


def _action_to_json(a: GaugeAction) -> dict:
    buckets = []
    for (gi, v, w) in sorted(a.bucket_unitary):
        if gi == a.group.identity:
            continue
        buckets.append({
            "element": gi,
            "range": v,
            "source": w,
            "matrix": a.bucket_unitary[(gi, v, w)],
        })
    return {
        "group": {"table": [list(row) for row in a.group.table]},
        "vertex_perm": [dict(sorted(p.items())) for p in a.vertex_perm],
        "bucket_unitaries": buckets,
    }


def _rep_to_json(rep: GraphRep) -> dict:
    out = {
        "dim": rep.dim,
        "proj": dict(rep.proj),
        "edge_op": dict(rep.edge_op),
    }
    if rep.unitaries is not None:
        out["unitaries"] = [rep.unitaries[g] for g in range(rep.action.group.order)]
    return out


def problem_text(pf: ProblemFile) -> str:
    obj = {"graph": _graph_to_json(pf.graph)}
    if pf.action is not None:
        obj["action"] = _action_to_json(pf.action)
    if pf.representation is not None:
        obj["representation"] = _rep_to_json(pf.representation)
    obj["tolerance"] = {
        "eps": pf.tolerance.eps,
        "eig_clip": pf.tolerance.eig_clip,
        "max_dim": pf.tolerance.max_dim,
    }
    return canonical_text(obj)


def save_problem(pf: ProblemFile, path) -> None:
    Path(path).write_text(problem_text(pf), encoding="utf-8")
