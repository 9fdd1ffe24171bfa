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
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _extent,
    _extent_bound,
    _frozen,
    _lead_product,
    _max_op_norms,
    _op_norms,
    _readonly,
    as_cmatrix,
)

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
    A = _frozen(M, rows=d, cols=d)
    if not np.isfinite(A).all():
        raise StructureError(f"{name} has a non-finite entry")
    return A


@dataclass(frozen=True)
class GraphRep:
    """Projections rho(delta_v), edge operators t(delta_e), and (optionally)
    group unitaries u(g), all dim x dim matrices on a common space H.

    Shapes and finite entries are enforced at construction, which keeps
    the matrices read-only (linalg._frozen); the numeric requirements
    (idempotence, orthogonality, module covariance, unitarity,
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


def _structure_residuals(rep: GraphRep):
    """(check name, residual) pairs, in report order, whose norms validate
    measures; a check with two residuals reports the larger norm."""
    eye = np.eye(rep.dim, dtype=complex)
    verts = rep.graph.vertices
    for v in verts:
        P = rep.proj[v]
        yield f"projection[{v}]", P @ P - P
        yield f"projection[{v}]", P - P.conj().T
    for i, v in enumerate(verts):
        for w in verts[i + 1:]:
            yield f"orthogonality[{v},{w}]", rep.proj[v] @ rep.proj[w]
    yield "resolution-of-identity", sum((rep.proj[v] for v in verts), np.zeros_like(eye)) - eye
    for e in rep.graph.edges:
        T = rep.edge_op[e.eid]
        yield f"module-covariance[{e.eid}]", rep.proj[e.dst] @ T - T
        yield f"module-covariance[{e.eid}]", T @ rep.proj[e.src] - T
    if rep.unitaries is not None:
        group, us = rep.action.group, rep.unitaries
        for g, U in sorted(us.items()):
            yield f"unitary[{g}]", U @ U.conj().T - eye
            yield f"unitary[{g}]", U.conj().T @ U - eye
        yield "unit[identity]", us[group.identity] - eye
        for g in range(group.order):
            for h in range(group.order):
                yield f"multiplicative[{g},{h}]", us[g] @ us[h] - us[group.mul(g, h)]


def validate(rep: GraphRep, tol: Tolerance = DEFAULT_TOL) -> DefectReport:
    """Measure all structural defects; passes iff every one is <= tol.eps.
    Every value is reported, so the norms are taken in stacks unpruned."""
    names = []

    def residuals():
        for name, R in _structure_residuals(rep):
            names.append(name)
            yield R

    norms = _op_norms(residuals())
    firsts = [i for i, name in enumerate(names) if i == 0 or name != names[i - 1]]
    # np.maximum keeps a NaN norm (from an inf entry), so its check fails
    values = np.maximum.reduceat(norms, firsts).tolist()
    return DefectReport(tuple(
        CheckLine(names[i], value, tol.eps, value <= tol.eps) for i, value in zip(firsts, values)
    ))


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
        # a nan vertex margin (an overflowed block) is the report's margin
        return max((c.margin for c in self.per_vertex), key=lambda m: (np.isnan(m), m), default=None)


def _edge_extents(rep: GraphRep) -> dict:
    return {e.eid: _extent(rep.edge_op[e.eid]) for e in rep.graph.edges}


def _toeplitz_residual(rep: GraphRep, e, f, extents: dict) -> np.ndarray:
    """t(e)* t(f) - delta_ef proj(s(e)) for edges e, f, the product taken
    on the edge operators' extents."""
    R = _lead_product(rep.edge_op[e.eid], extents[e.eid],
                      rep.edge_op[f.eid], extents[f.eid], adjoint=True)
    return R - rep.proj[e.src] if e.eid == f.eid else R


def _ck_residuals(rep: GraphRep):
    """proj(v) - sum_{r(e)=v} t(e) t(e)* for each finite receiver v, in order."""
    for v in finite_receivers(rep.graph):
        R = rep.proj[v].copy()
        for e in range_fiber(rep.graph, v):
            R -= rep.edge_op[e] @ rep.edge_op[e].conj().T
        yield R


def _toeplitz_residuals(rep: GraphRep):
    """The Toeplitz residual of each edge pair e <= f in edge order, e-major:
    (f, e) gives the adjoint, with the same norm on every leading block."""
    edges, extents = rep.graph.edges, _edge_extents(rep)
    return (_toeplitz_residual(rep, e, f, extents)
            for i, e in enumerate(edges) for f in edges[i:])


def _max_norm(rep: GraphRep, residuals, embed) -> float:
    """max ||R||, or max ||embed* R embed|| with an embed into rep's space."""
    if embed is not None:
        E = as_cmatrix(embed, rows=rep.dim)
        residuals = (E.conj().T @ R @ E for R in residuals)
    return _max_op_norms(residuals)[0]


def row_contraction_check(rep: GraphRep, tol: Tolerance = DEFAULT_TOL) -> RowContractionReport:
    """Per vertex with a nonempty fiber, check that the block matrix of the
    Toeplitz residuals over e, f in the fiber has no eigenvalue > eig_clip.
    A block with a non-finite entry (products of huge entries overflow) has
    margin nan and fails."""
    results, extents = [], _edge_extents(rep)
    for v in rep.graph.vertices:
        fiber = [rep.graph.edge(e) for e in range_fiber(rep.graph, v)]
        if not fiber:
            continue
        block = np.block([[_toeplitz_residual(rep, e, f, extents) for f in fiber]
                          for e in fiber])
        H = 0.5 * (block + block.conj().T)
        if not np.isfinite(H).all():
            margin = float("nan")
        else:
            w = np.linalg.eigvalsh(H)
            margin = float(w.max()) if w.size else 0.0   # an empty block is the zero operator
        results.append(VertexContraction(vertex=v, margin=margin, passed=margin <= tol.eig_clip))
    return RowContractionReport(tuple(results))


def toeplitz_defect(rep: GraphRep, embed=None) -> float:
    """max over edge pairs of ||t(e)* t(f) - rho(<delta_e, delta_f>)||.

    With an isometry embed into rep's space each residual R is compressed
    to embed* R embed, the defect on embed's range.
    """
    return _max_norm(rep, _toeplitz_residuals(rep), embed)


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
    sizes = list(sizes)
    toeplitz = _max_op_norms(_toeplitz_residuals(rep), sizes)
    ck = _max_op_norms(_ck_residuals(rep), sizes)
    return {k: [t, c] for k, t, c in zip(sizes, toeplitz, ck)}


def covariance_defect(rep: GraphRep) -> float:
    """max over g, e, v of ||u(g) t(e) - t(alpha_g delta_e) u(g)|| and
    ||u(g) proj(v) - proj(alpha_g v) u(g)||, with alpha_g delta_e the e-th
    column of the edge unitary W_g."""
    if rep.action is None or rep.unitaries is None:
        raise ConfigurationError("covariance defect needs an action and unitaries")

    edges, verts = rep.graph.edges, rep.graph.vertices
    ext_t, ext_p = _edge_extents(rep), {v: _extent(rep.proj[v]) for v in verts}

    def residuals():
        for g, W in enumerate(rep.action.edge_unitaries):
            U = rep.unitaries[g]
            ext_u = _extent(U)
            for j, e in enumerate(edges):
                moved = _extent_bound(ext_t[f.eid] for f, c in zip(edges, W[:, j]) if c != 0)
                yield (_lead_product(U, ext_u, rep.edge_op[e.eid], ext_t[e.eid])
                       - _lead_product(_edge_sum(rep, W[:, j]), moved, U, ext_u))
            for v in verts:
                gv = rep.action.perm_vertex(g, v)
                yield (_lead_product(U, ext_u, rep.proj[v], ext_p[v])
                       - _lead_product(rep.proj[gv], ext_p[gv], U, ext_u))

    return _max_op_norms(residuals())[0]


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
        return _readonly(out)

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
        unitaries[s] = _readonly(U)
    return GraphRep(rep.graph, dim, proj, edge_op, action=a, unitaries=unitaries)

