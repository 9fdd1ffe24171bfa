"""Finite-dimensional covariant representations (rho, t, u, H) of a graph
correspondence with an optional gauge action: structural validation, defect
measurements (Toeplitz, Cuntz-Krieger, covariance) and induced regular
representations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correspondence import CorrElement
from .exceptions import ConfigurationError, StructureError
from .gauge import GaugeAction
from .graph import DirectedGraph, finite_receivers, range_fiber
from .linalg import DEFAULT_TOL, Tolerance, as_cmatrix, op_norm

__all__ = [
    "GraphRep",
    "CheckLine",
    "DefectReport",
    "VertexContraction",
    "RowContractionReport",
    "validate",
    "apply_t",
    "row_contraction_check",
    "toeplitz_defect",
    "ck_defect",
    "covariance_defect",
    "induced_regular_rep",
]


def _finite_matrix(name: str, M, d: int) -> np.ndarray:
    A = as_cmatrix(M, rows=d, cols=d)
    if not np.isfinite(A).all():
        raise StructureError(f"{name} has a non-finite entry")
    return A


@dataclass(frozen=True)
class GraphRep:
    """Projections rho(delta_v), edge operators t(delta_e), and (optionally)
    group unitaries u(g), all dim x dim matrices on a common space H.

    Shapes and finite entries are enforced at construction; the numeric
    requirements (idempotence, orthogonality, module covariance, unitarity,
    multiplicativity) are measured by :func:`validate`.
    """

    graph: DirectedGraph
    dim: int
    proj: dict
    edge_op: dict
    action: GaugeAction | None = None
    unitaries: dict | None = None   # group element index -> matrix

    def __post_init__(self):
        d = int(self.dim)
        if d < 0:
            raise StructureError("dimension must be nonnegative")
        proj = {v: _finite_matrix(f"proj[{v!r}]", P, d) for v, P in self.proj.items()}
        if set(proj.keys()) != set(self.graph.vertices):
            raise StructureError("proj must have exactly one matrix per vertex")
        ops = {e: _finite_matrix(f"edge_op[{e!r}]", T, d) for e, T in self.edge_op.items()}
        if set(ops.keys()) != {e.eid for e in self.graph.edges}:
            raise StructureError("edge_op must have exactly one matrix per edge")
        if self.action is not None and self.action.graph != self.graph:
            raise StructureError("action is defined over a different graph")
        unitaries = self.unitaries
        if unitaries is not None:
            if self.action is None:
                raise StructureError("unitaries require an action")
            unitaries = {
                int(g): _finite_matrix(f"unitaries[{g}]", U, d) for g, U in unitaries.items()
            }
            if set(unitaries.keys()) != set(range(self.action.group.order)):
                raise StructureError("unitaries must cover every group element")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "proj", proj)
        object.__setattr__(self, "edge_op", ops)
        object.__setattr__(self, "unitaries", unitaries)

    @property
    def covariant(self) -> bool:
        return self.action is not None and self.unitaries is not None


@dataclass(frozen=True)
class CheckLine:
    name: str
    value: float
    threshold: float | None   # None marks an informational measurement
    passed: bool


@dataclass(frozen=True)
class DefectReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def validate(rep: GraphRep, tol: Tolerance = DEFAULT_TOL) -> DefectReport:
    """Measure all structural defects; passes iff every one is <= tol.eps."""
    checks = []

    def add(name, value):
        checks.append(CheckLine(name, float(value), tol.eps, float(value) <= tol.eps))

    eye = np.eye(rep.dim, dtype=complex)
    total = np.zeros((rep.dim, rep.dim), dtype=complex)
    for v in rep.graph.vertices:
        P = rep.proj[v]
        add(f"projection[{v}]", max(op_norm(P @ P - P), op_norm(P - P.conj().T)))
        total = total + P
    verts = rep.graph.vertices
    for i, v in enumerate(verts):
        for w in verts[i + 1:]:
            add(f"orthogonality[{v},{w}]", op_norm(rep.proj[v] @ rep.proj[w]))
    add("resolution-of-identity", op_norm(total - eye))
    for e in rep.graph.edges:
        T = rep.edge_op[e.eid]
        add(
            f"module-covariance[{e.eid}]",
            max(op_norm(rep.proj[e.dst] @ T - T), op_norm(T @ rep.proj[e.src] - T)),
        )
    if rep.unitaries is not None:
        group = rep.action.group
        for g, U in sorted(rep.unitaries.items()):
            add(f"unitary[{g}]", max(op_norm(U @ U.conj().T - eye), op_norm(U.conj().T @ U - eye)))
        add("unit[identity]", op_norm(rep.unitaries[group.identity] - eye))
        for g in range(group.order):
            for h in range(group.order):
                add(
                    f"multiplicative[{g},{h}]",
                    op_norm(rep.unitaries[g] @ rep.unitaries[h] - rep.unitaries[group.mul(g, h)]),
                )
    return DefectReport(tuple(checks))


def _edge_sum(rep: GraphRep, coeffs) -> np.ndarray:
    """sum_f c_f edge_op(f) over the nonzero c_f of a vector in edge order."""
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for f, c in zip(rep.graph.edges, coeffs):
        if c != 0:
            out = out + c * rep.edge_op[f.eid]
    return out


def apply_t(rep: GraphRep, x: CorrElement) -> np.ndarray:
    """t(x) = sum_e x(e) edge_op(e)."""
    if x.graph != rep.graph:
        raise StructureError("correspondence element lives over a different graph")
    return _edge_sum(rep, [x(e.eid) for e in rep.graph.edges])


@dataclass(frozen=True)
class VertexContraction:
    vertex: str
    margin: float        # most positive eigenvalue of [t(e)*t(f)] - diag(proj(s(e)))
    passed: bool


@dataclass(frozen=True)
class RowContractionReport:
    per_vertex: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.per_vertex)

    @property
    def margin(self) -> float | None:
        return max((c.margin for c in self.per_vertex), default=None)


def _toeplitz_residual(rep: GraphRep, e, f) -> np.ndarray:
    """t(e)* t(f) - delta_ef proj(s(e)) for edges e, f."""
    R = rep.edge_op[e.eid].conj().T @ rep.edge_op[f.eid]
    return R - rep.proj[e.src] if e.eid == f.eid else R


def _ck_residuals(rep: GraphRep):
    """proj(v) - sum_{r(e)=v} t(e) t(e)* for each finite receiver v, in order."""
    for v in finite_receivers(rep.graph):
        R = rep.proj[v].copy()
        for e in range_fiber(rep.graph, v):
            R -= rep.edge_op[e] @ rep.edge_op[e].conj().T
        yield R


def _max_norm(rep: GraphRep, residuals, embed) -> float:
    """max ||R||, or max ||embed* R embed|| with an embed into rep's space."""
    E = None if embed is None else as_cmatrix(embed, rows=rep.dim)
    return max((op_norm(R if E is None else E.conj().T @ R @ E) for R in residuals), default=0.0)


def row_contraction_check(rep: GraphRep, tol: Tolerance = DEFAULT_TOL) -> RowContractionReport:
    """Per vertex with a nonempty fiber, check that the block matrix of the
    Toeplitz residuals over e, f in the fiber has no eigenvalue > eig_clip."""
    results = []
    for v in rep.graph.vertices:
        fiber = [rep.graph.edge(e) for e in range_fiber(rep.graph, v)]
        if not fiber:
            continue
        block = np.block([[_toeplitz_residual(rep, e, f) for f in fiber] for e in fiber])
        w = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
        margin = float(w.max())
        results.append(VertexContraction(vertex=v, margin=margin, passed=margin <= tol.eig_clip))
    return RowContractionReport(tuple(results))


def toeplitz_defect(rep: GraphRep, embed=None) -> float:
    """max over edge pairs of ||t(e)* t(f) - rho(<delta_e, delta_f>)||.

    With an isometry embed into rep's space each residual R is compressed
    to embed* R embed, the defect on embed's range.
    """
    edges = rep.graph.edges
    return _max_norm(rep, (_toeplitz_residual(rep, e, f) for e in edges for f in edges), embed)


def ck_defect(rep: GraphRep, embed=None) -> float:
    """max over finite receivers v of ||proj(v) - sum_{r(e)=v} t(e) t(e)*||,
    compressed to the range of embed as in :func:`toeplitz_defect`.

    Vertices outside the finite receivers impose no condition.
    """
    return _max_norm(rep, _ck_residuals(rep), embed)


def _corner_defects(rep: GraphRep, sizes) -> dict:
    """{k: [toeplitz, ck]} on the leading k coordinates for each k in sizes,
    all read from one pass over the residuals: E* R E is R[:k, :k] exactly
    for E = np.eye(rep.dim, k), and k = rep.dim gives the full defects."""
    worst = {k: [0.0, 0.0] for k in sizes}
    edges = rep.graph.edges
    toeplitz = (_toeplitz_residual(rep, e, f) for e in edges for f in edges)
    for i, residuals in enumerate((toeplitz, _ck_residuals(rep))):
        for R in residuals:
            for k, w in worst.items():
                w[i] = max(w[i], op_norm(R[:k, :k]))
    return worst


def covariance_defect(rep: GraphRep) -> float:
    """max over g, e, v of ||u(g) t(e) - t(alpha_g delta_e) u(g)|| and
    ||u(g) proj(v) - proj(alpha_g v) u(g)||, with alpha_g delta_e the e-th
    column of the edge unitary W_g."""
    if rep.action is None or rep.unitaries is None:
        raise ConfigurationError("covariance defect needs an action and unitaries")
    worst = 0.0
    for g, W in enumerate(rep.action.edge_unitaries):
        U = rep.unitaries[g]
        for j, e in enumerate(rep.graph.edges):
            moved = _edge_sum(rep, W[:, j])
            worst = max(worst, op_norm(U @ rep.edge_op[e.eid] - moved @ U))
        for v in rep.graph.vertices:
            worst = max(
                worst,
                op_norm(U @ rep.proj[v] - rep.proj[rep.action.perm_vertex(g, v)] @ U),
            )
    return worst


def induced_regular_rep(rep: GraphRep, a: GaugeAction) -> GraphRep:
    """The regular representation induced by rep: |G| copies of H with
    translated operator blocks and translation unitaries.

    Block g carries the alpha_{g^{-1}}-twisted copy of rep, so the induced
    representation is covariant by construction and its identity-block corner
    is the input representation verbatim.  Any unitaries carried by the input
    are discarded; the translation unitaries replace them.
    """
    if a.graph != rep.graph:
        raise StructureError("action is defined over a different graph")
    n = a.group.order
    d = rep.dim
    dim = n * d

    def block_diag(blocks):
        out = np.zeros((dim, dim), dtype=complex)
        for g, blk in enumerate(blocks):
            out[g * d:(g + 1) * d, g * d:(g + 1) * d] = blk
        return out

    proj = {}
    for v in rep.graph.vertices:
        proj[v] = block_diag(
            [rep.proj[a.perm_vertex(a.group.inv(g), v)] for g in range(n)]
        )
    moves = [a.edge_unitaries[a.group.inv(g)] for g in range(n)]
    edge_op = {}
    for j, e in enumerate(rep.graph.edges):
        edge_op[e.eid] = block_diag([_edge_sum(rep, W[:, j]) for W in moves])
    unitaries = {}
    for s in range(n):
        U = np.zeros((dim, dim), dtype=complex)
        for h in range(n):
            g = a.group.mul(s, h)   # block h is sent to block s*h
            U[g * d:(g + 1) * d, h * d:(h + 1) * d] = np.eye(d)
        unitaries[s] = U
    return GraphRep(rep.graph, dim, proj, edge_op, action=a, unitaries=unitaries)

