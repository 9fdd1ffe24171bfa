"""Finite-dimensional covariant representations (rho, t, u, H) of a graph
correspondence with an optional gauge action: structural validation, defect
measurements (Toeplitz, Cuntz-Krieger, covariance) and induced regular
representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .exceptions import ConfigurationError, StructureError
from .gauge import GaugeAction
from .graph import DirectedGraph, finite_receivers, range_fiber
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _extent,
    _extent_bound,
    _frozen,
    _hermitian_part,
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
    the matrices read-only (linalg._frozen) and their mappings read-only
    views; the numeric requirements (idempotence, orthogonality, module
    covariance, unitarity, multiplicativity) are measured by
    :func:`validate`.
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
            unitaries = MappingProxyType({
                int(g): _finite_matrix(f"unitaries[{g}]", U, d) for g, U in unitaries.items()
            })
            if set(unitaries.keys()) != set(range(self.action.group.order)):
                raise StructureError("unitaries must cover every group element")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "proj", MappingProxyType(proj))
        object.__setattr__(self, "edge_op", MappingProxyType(ops))
        object.__setattr__(self, "unitaries", unitaries)

    def __reduce__(self):
        # read-only views do not pickle (nor deep-copy): rebuild from dicts
        unitaries = None if self.unitaries is None else dict(self.unitaries)
        return GraphRep, (self.graph, self.dim, dict(self.proj), dict(self.edge_op), self.action,
                          unitaries)

    @property
    def covariant(self) -> bool:
        """Whether unitaries are present; the constructor requires an action with them."""
        return self.unitaries is not None

    @cached_property
    def _row_margins(self) -> tuple:
        """(vertex, margin) for each vertex with a nonempty range fiber, the
        margin the most positive eigenvalue of the fiber's block of Toeplitz
        residuals, nan for a block with a non-finite entry.  No tolerance
        enters, so every row_contraction_check of this representation reads
        the margins found here once."""
        out, blocks = [], _edge_blocks(self, _edge_extents(self))
        for v in self.graph.vertices:
            fiber = [self.graph.edge(e) for e in range_fiber(self.graph, v)]
            if not fiber:
                continue
            with np.errstate(over="ignore", invalid="ignore"):   # overflow is checked below
                H = _hermitian_part(np.block([[_toeplitz_residual(self, e, f, blocks) for f in fiber]
                                              for e in fiber]))
            if not np.isfinite(H).all():
                margin = float("nan")
            else:
                w = np.linalg.eigvalsh(H)
                margin = float(w.max()) if w.size else 0.0   # an empty block is the zero operator
            out.append((v, margin))
        return tuple(out)


@dataclass(frozen=True)
class CheckLine:
    name: str
    value: float
    threshold: float | None   # None marks an informational measurement
    passed: bool


def _gated(name: str, value: float, threshold: float) -> CheckLine:
    """value's check line: it passes at or below threshold, and NaN fails."""
    return CheckLine(name, value, threshold, value <= threshold)


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
    if rep.covariant:
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
    return DefectReport(tuple(_gated(names[i], value, tol.eps) for i, value in zip(firsts, values)))


def _edge_sum(rep: GraphRep, coeffs, block=None) -> np.ndarray:
    """sum_f c_f edge_op(f) over the nonzero c_f of a vector in edge order,
    on the leading block (r, c) of the operators, all of them by default."""
    r, c = block or (rep.dim, rep.dim)
    out = np.zeros((r, c), dtype=complex)
    for f, x in zip(rep.graph.edges, coeffs):
        if x != 0:
            out = out + x * rep.edge_op[f.eid][:r, :c]
    return out


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


def _leading(M: np.ndarray, extent: tuple, rows: int, cols: int) -> tuple:
    """(M's leading rows x cols block, the block's extent), given M's extent."""
    return M[:rows, :cols], (min(extent[0], rows), min(extent[1], cols))


def _edge_blocks(rep: GraphRep, extents: dict, rows: int | None = None,
                 cols: int | None = None) -> dict:
    """eid -> _leading block of t(e), all of it by default, and its extent."""
    r, c = (rep.dim if n is None else n for n in (rows, cols))
    return {e: _leading(T, extents[e], r, c) for e, T in rep.edge_op.items()}


def _toeplitz_residual(rep: GraphRep, e, f, blocks: dict) -> np.ndarray:
    """t(e)* t(f) - delta_ef proj(s(e)) for edges e, f, the product taken of
    their _edge_blocks on the blocks' extents: of the operators' leading k
    columns, it is the residual's leading k x k block."""
    R = _lead_product(*blocks[e.eid], *blocks[f.eid], adjoint=True)
    if e.eid != f.eid:
        return R
    k = len(R)
    return R - rep.proj[e.src][:k, :k]


def _ck_residuals(rep: GraphRep, extents: dict, k: int | None = None):
    """proj(v) - sum_{r(e)=v} t(e) t(e)* for each finite receiver v, in
    order, each t(e) t(e)* the product of t(e)'s leading block on its
    extent (r, c): T[:r, :c] T[:r, :c]*, zero outside the leading r x r
    block.  Of the operators' leading k rows, these are the residuals'
    leading k x k blocks.  These residuals are measured, not factored:
    one_step_ck forms its own dense defect, so what a step builds does not
    depend on the order in which these products sum."""
    k = rep.dim if k is None else k
    blocks = _edge_blocks(rep, extents, rows=k)
    for v in finite_receivers(rep.graph):
        R = rep.proj[v][:k, :k].copy()
        for e in range_fiber(rep.graph, v):
            T, (r, c) = blocks[e]
            lead = T[:r, :c]
            R[:r, :r] -= lead @ lead.conj().T
        yield R


def _toeplitz_residuals(rep: GraphRep, extents: dict, k: int | None = None):
    """The Toeplitz residual of each edge pair e <= f in edge order, e-major,
    of the operators' leading k columns (all by default): (f, e) gives the
    adjoint, with the same norm on every leading block."""
    blocks, edges = _edge_blocks(rep, extents, cols=k), rep.graph.edges
    return (_toeplitz_residual(rep, e, f, blocks) for i, e in enumerate(edges) for f in edges[i:])


def _covariance_residuals(rep: GraphRep, block=None):
    """u(g) t(e) - t(alpha_g delta_e) u(g) for each g and edge e, then u(g)
    proj(v) - proj(alpha_g v) u(g) for each g and vertex v, alpha_g delta_e
    the e-th column of the edge unitary W_g; each product taken on the
    operators' extents.  block (r, c), the whole space by default, is a
    leading block outside which every edge operator is zero, every unitary
    and projection being block diagonal at r and at c: the edge residuals
    are then zero outside their leading r x c block and the vertex
    residuals outside their leading m x m block, m = min(r, c), and those
    blocks are what is formed (each kind of one shape, in a stack of its
    own)."""
    r, c = block or (rep.dim, rep.dim)
    m = min(r, c)
    edges, verts, action = rep.graph.edges, rep.graph.vertices, rep.action
    ext_t = _edge_extents(rep)
    ops = _edge_blocks(rep, ext_t, r, c)
    projs = {v: _leading(rep.proj[v], _extent(rep.proj[v]), m, m) for v in verts}
    Ws = action.edge_unitaries
    units = [(rep.unitaries[g], _extent(rep.unitaries[g])) for g in range(len(Ws))]
    for W, (U, ext_u) in zip(Ws, units):
        left, right = _leading(U, ext_u, r, r), _leading(U, ext_u, c, c)
        for j, e in enumerate(edges):
            moved = _extent_bound(ext_t[f.eid] for f, x in zip(edges, W[:, j]) if x != 0)
            moved_op = _leading(_edge_sum(rep, W[:, j], (r, c)), moved, r, c)
            yield _lead_product(*left, *ops[e.eid]) - _lead_product(*moved_op, *right)
    for g, (U, ext_u) in enumerate(units):
        corner = _leading(U, ext_u, m, m)
        for v in verts:
            gv = action.perm_vertex(g, v)
            yield _lead_product(*corner, *projs[v]) - _lead_product(*projs[gv], *corner)


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
    margin nan and fails.  The margins are rep's own, found at its first
    check, so a later check under any tolerance only compares."""
    return RowContractionReport(tuple(VertexContraction(vertex=v, margin=m, passed=m <= tol.eig_clip)
                                      for v, m in rep._row_margins))


def toeplitz_defect(rep: GraphRep, embed=None) -> float:
    """max over edge pairs of ||t(e)* t(f) - rho(<delta_e, delta_f>)||.

    With an isometry embed into rep's space each residual R is compressed
    to embed* R embed, the defect on embed's range.
    """
    return _max_norm(rep, _toeplitz_residuals(rep, _edge_extents(rep)), embed)


def ck_defect(rep: GraphRep, embed=None) -> float:
    """max over finite receivers v of ||proj(v) - sum_{r(e)=v} t(e) t(e)*||,
    compressed to the range of embed as in :func:`toeplitz_defect`.

    Vertices outside the finite receivers impose no condition.
    """
    return _max_norm(rep, _ck_residuals(rep, _edge_extents(rep)), embed)


def _corner_defects(rep: GraphRep, sizes, block=None) -> dict:
    """{k: [toeplitz, ck]} on the leading k coordinates for each k <= rep.dim
    in sizes, all read from one pass over the residuals: E* R E is R[:k, :k]
    exactly for E = np.eye(rep.dim, k), and k = rep.dim gives the full
    defects.  Both kinds of residual are formed on the edge extents found
    here once.

    block (r, c), the whole space by default, is a leading block outside
    which every edge operator is zero, every projection being block
    diagonal at r and at c with a 0/1 diagonal trailing block (as _extend
    builds them: I on the vertex's new summands).  Then each Toeplitz
    residual is blockdiag(its leading c x c block, -delta_ef proj(s(e))'s
    trailing block) and each Cuntz-Krieger one blockdiag(its leading r x r
    block, proj(v)'s trailing block): only the leading blocks are formed,
    and the tails are read off the projections (_blocked_max)."""
    r, c = block or (rep.dim, rep.dim)
    sizes, extents, graph = list(sizes), _edge_extents(rep), rep.graph
    toeplitz = _blocked_max(_toeplitz_residuals(rep, extents, c), c, sizes,
                            [rep.proj[v] for v in {e.src for e in graph.edges}])
    ck = _blocked_max(_ck_residuals(rep, extents, r), r, sizes,
                      [rep.proj[v] for v in finite_receivers(graph)])
    return {k: [t, x] for k, t, x in zip(sizes, toeplitz, ck)}


def _blocked_max(corners, m: int, sizes: list, tails: list) -> list:
    """[max_i ||R_i[:k, :k]||_2 for k in sizes], each R_i blockdiag(corners_i,
    D_i) split at m, D_i zero or plus or minus the trailing block of one of
    the tails, each a 0/1 diagonal past m: the corners normed in one pass at
    their distinct sizes, and past m the tail's norm, 1.0 if a tail has a 1
    in [m, k) and else 0, joined by np.maximum, which keeps a NaN corner
    NaN."""
    inner = sorted({min(k, m) for k in sizes})
    norms = dict(zip(inner, _max_op_norms(corners, inner)))
    return [norms[k] if k <= m else float(np.maximum(
        norms[m], 1.0 if any(P.diagonal()[m:k].any() for P in tails) else 0.0))
        for k in sizes]


def covariance_defect(rep: GraphRep) -> float:
    """max over g, e, v of ||u(g) t(e) - t(alpha_g delta_e) u(g)|| and
    ||u(g) proj(v) - proj(alpha_g v) u(g)||, with alpha_g delta_e the e-th
    column of the edge unitary W_g."""
    if not rep.covariant:
        raise ConfigurationError("covariance defect needs an action and unitaries")
    return _max_op_norms(_covariance_residuals(rep))[0]


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

