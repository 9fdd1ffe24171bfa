"""Finite groups (explicit multiplication tables) and generalized gauge
actions on graph correspondences: a vertex permutation per group element plus
a unitary mixing matrix per parallel-edge bucket.

Group elements are referred to by their table index throughout the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .exceptions import GraphLookupError, StructureError
from .graph import DirectedGraph, edge_bucket
from .linalg import DEFAULT_TOL, Tolerance, _op_norms, _readonly, as_cmatrix

__all__ = [
    "CheckResult",
    "FiniteGroup",
    "GaugeAction",
    "verify_group",
    "verify_action",
]


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict carrying a diagnostic for the failing check."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table alone: table[g][h] is
    the index of gh.  The order, the identity and the inverse map are derived
    from the table.  A table that is not a list or tuple of lists or tuples
    of integers (booleans excluded), not square, has an entry outside
    range(order), no identity or an element without inverse raises
    StructureError naming the first bad row or entry, so every FiniteGroup
    has a consistent table.  Only associativity is left to verify_group."""

    table: tuple
    order: int = field(init=False)
    identity: int = field(init=False)
    inverse: tuple = field(init=False)

    def __post_init__(self):
        rows = self.table
        if not isinstance(rows, (list, tuple)):
            raise StructureError("multiplication table is not an array of rows")
        for i, row in enumerate(rows):
            if not isinstance(row, (list, tuple)):
                raise StructureError(f"table row {i} is not an array")
            for j, x in enumerate(row):
                if not isinstance(x, Integral) or isinstance(x, bool):
                    raise StructureError(f"table entry [{i}][{j}] is not an integer")
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise StructureError("multiplication table is not square")
        table = tuple(tuple(int(x) for x in row) for row in rows)
        if any(not (0 <= x < n) for row in table for x in row):
            raise StructureError("table entry out of range")
        T, ar = np.array(table, dtype=int).reshape(n, n), np.arange(n)
        ids = np.flatnonzero((T == ar).all(axis=1) & (T == ar[:, None]).all(axis=0))
        if not ids.size:
            raise StructureError("table has no identity element")
        unit = (T == ids[0]) & (T.T == ids[0])   # unit[g, h]: gh = hg = identity
        missing = np.flatnonzero(~unit.any(axis=1))
        if missing.size:
            raise StructureError(f"element {missing[0]} has no inverse")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "identity", int(ids[0]))
        object.__setattr__(self, "inverse", tuple(unit.argmax(axis=1).tolist()))

    @staticmethod
    def trivial() -> "FiniteGroup":
        return FiniteGroup(((0,),))

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        return FiniteGroup(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))

    def mul(self, g: int, h: int) -> int:
        self.check_element(g)
        self.check_element(h)
        return self.table[g][h]

    def inv(self, g: int) -> int:
        self.check_element(g)
        return self.inverse[g]

    def check_element(self, g: int) -> None:
        if not (0 <= g < self.order):
            raise GraphLookupError(f"unknown group element index {g}")


def verify_group(g: FiniteGroup) -> CheckResult:
    """Check associativity, the one group axiom FiniteGroup does not check."""
    T = np.array(g.table, dtype=int)
    # T[T, :][a, b, c] = (ab)c and T[:, T][a, b, c] = a(bc)
    if not np.array_equal(T[T, :], T[:, T]):
        return CheckResult(False, "associativity fails")
    return CheckResult(True)


@dataclass(frozen=True)
class GaugeAction:
    """Vertex permutations plus per-bucket unitaries, one set per element.

    Each vertex_perm map must be a bijection of graph.vertices.

    bucket_unitary maps (element index, range vertex v, source vertex w) to
    the matrix carrying coefficients on E(v, w) (input edge order) to
    coefficients on E(alpha_g v, alpha_g w); buckets related by a group
    element have equal size, so the matrices are square.  edge_unitaries
    assembles them into one |E| x |E| matrix per element.
    """

    group: FiniteGroup
    graph: DirectedGraph
    vertex_perm: tuple        # per element: dict vertex -> vertex
    bucket_unitary: dict = field(compare=False)  # (g, v, w) -> ndarray

    def __post_init__(self):
        perms = tuple(dict(p) for p in self.vertex_perm)
        if len(perms) != self.group.order:
            raise StructureError("one vertex permutation per group element required")
        vset = set(self.graph.vertices)
        for gi, p in enumerate(perms):
            if set(p) != vset or set(p.values()) != vset:
                raise StructureError(
                    f"vertex_perm[{gi}] is not a bijection of the graph's vertices"
                )
        units = {}
        for (gi, v, w), U in self.bucket_unitary.items():
            where = f"bucket matrix ({gi}, {v!r}, {w!r})"
            if not 0 <= gi < self.group.order:
                raise StructureError(f"{where} names no group element")
            if (v, w) not in self.graph._bucket:
                raise StructureError(f"{where} names no nonempty bucket")
            U = as_cmatrix(U)
            if not np.isfinite(U).all():
                raise StructureError(f"{where} has a non-finite entry")
            units[(int(gi), v, w)] = U
        # every nonempty bucket needs a matrix for every group element,
        # defaulting to the identity for the group identity
        for gi in range(self.group.order):
            for (v, w), bucket in self.graph._bucket.items():
                if (gi, v, w) not in units:
                    if gi == self.group.identity:
                        units[(gi, v, w)] = np.eye(len(bucket), dtype=complex)
                    else:
                        raise StructureError(
                            f"missing bucket unitary for element {gi}, bucket ({v!r}, {w!r})"
                        )
        object.__setattr__(self, "vertex_perm", perms)
        object.__setattr__(self, "bucket_unitary", units)

    @cached_property
    def edge_unitaries(self) -> tuple:
        """W_g per element g: the |E| x |E| matrix (input edge order) carrying
        the coefficients of x to those of alpha_g(x), each bucket matrix placed
        at its source and target buckets.  Built on first use, so that
        verify_action can still report a malformed action."""
        graph = self.graph
        index = {e.eid: i for i, e in enumerate(graph.edges)}
        out = []
        for g, perm in enumerate(self.vertex_perm):
            W = np.zeros((len(index), len(index)), dtype=complex)
            for (v, w), bucket in graph._bucket.items():
                target = edge_bucket(graph, perm[v], perm[w])
                U = self.bucket_unitary[(g, v, w)]
                if U.shape != (len(target), len(bucket)):
                    raise StructureError(
                        f"bucket matrix ({g}, {v!r}, {w!r}) has shape {U.shape},"
                        f" expected {(len(target), len(bucket))}"
                    )
                W[np.ix_([index[f] for f in target], [index[e] for e in bucket])] = U
            out.append(_readonly(W))
        return tuple(out)

    def perm_vertex(self, g: int, v: str) -> str:
        self.group.check_element(g)
        self.graph.require_vertex(v)
        return self.vertex_perm[g][v]

    def bucket_matrix(self, g: int, v: str, w: str) -> np.ndarray:
        self.group.check_element(g)
        return self.bucket_unitary[(g, v, w)]


def _action_residuals(a: GaugeAction):
    """verify_action's checks in order, each as (the reason it fails, a
    residual whose norm must be <= eps) or, for a check that fails
    outright, (reason, None), after which nothing more is yielded."""
    g_ids = range(a.group.order)
    e = a.group.identity
    for (v, w), bucket in a.graph._bucket.items():
        n = len(bucket)
        for gi in g_ids:
            target = edge_bucket(a.graph, a.vertex_perm[gi][v], a.vertex_perm[gi][w])
            if len(target) != n:
                yield f"element {gi} maps bucket ({v!r}, {w!r}) to one of different size", None
                return
            U = a.bucket_unitary[(gi, v, w)]
            if U.shape != (n, n):
                yield f"bucket matrix ({gi}, {v!r}, {w!r}) has wrong shape", None
                return
            yield f"bucket matrix ({gi}, {v!r}, {w!r}) is not unitary", U.conj().T @ U - np.eye(n)
        yield (f"identity bucket matrix on ({v!r}, {w!r}) is not I",
               a.bucket_unitary[(e, v, w)] - np.eye(n))
    for gi in g_ids:
        if {a.vertex_perm[gi][v] for v in a.graph.truncated} != a.graph.truncated:
            yield f"element {gi} moves a truncated vertex", None
            return
        for hi in g_ids:
            gh = a.group.mul(gi, hi)
            if any(a.vertex_perm[gh][v] != a.vertex_perm[gi][a.vertex_perm[hi][v]]
                   for v in a.graph.vertices):
                yield f"vertex permutations fail homomorphism at ({gi}, {hi})", None
                return
            for (v, w) in a.graph._bucket:
                vh, wh = a.vertex_perm[hi][v], a.vertex_perm[hi][w]
                lhs = a.bucket_unitary[(gh, v, w)]
                rhs = a.bucket_unitary[(gi, vh, wh)] @ a.bucket_unitary[(hi, v, w)]
                yield (f"bucket matrices fail homomorphism at ({gi}, {hi}), bucket ({v!r}, {w!r})",
                       lhs - rhs)


def verify_action(a: GaugeAction, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Check that each vertex map maps the truncated vertices onto themselves,
    unitarity, the homomorphism identities, and the identity's bucket
    matrices; the vertex homomorphism at (e, e) forces the bijection pi_e = id.
    The residuals are normed in one stacked pass; the reason given is that
    of the first failing check in _action_residuals' order."""
    group_ok = verify_group(a.group)
    if not group_ok:
        return CheckResult(False, f"group: {group_ok.reason}")
    reasons, residuals, decided = [], [], None
    for reason, R in _action_residuals(a):
        if R is None:
            decided = reason
        else:
            reasons.append(reason)
            residuals.append(R)
    failing = np.flatnonzero(~(_op_norms(residuals) <= tol.eps))   # a NaN norm fails
    if failing.size:
        return CheckResult(False, reasons[failing[0]])
    return CheckResult(decided is None, decided or "")
