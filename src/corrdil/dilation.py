"""Constructive dilations of graph-correspondence representations: one-step
isometric dilation, one-step Cuntz-Krieger dilation, minimal isometric
coextension (finite truncation), and the Cuntz-Pimsner pipeline, each with
machine-checkable corner guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (
    ContractivityError,
    DimensionError,
    PositivityError,
    ResourceCapError,
    StructureError,
)
from .graph import edge_bucket, finite_receivers, range_fiber
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _defect_factor,
    _eigen_factor,
    as_cmatrix,
    is_psd,
    op_norm,
    orthonormal_closure,
)
from .representation import (
    GraphRep,
    ck_defect,
    covariance_defect,
    row_contraction_check,
    toeplitz_defect,
)

__all__ = [
    "DilationStep",
    "StageRecord",
    "PipelineReport",
    "one_step_isometric",
    "one_step_ck",
    "minimal_reduce",
    "iterate_coextension",
    "iterate_ck",
    "cp_dilate",
    "moment_signature",
]


@dataclass(frozen=True)
class DilationStep:
    """One stage of a dilation pipeline.

    embed always expresses the smaller of the two spaces inside the larger:
    for the dilation kinds it is the input space inside the output
    (new_dim x old_dim), for a compression (what minimal_reduce returns) it
    is the retained output space inside the input (old_dim x new_dim).
    Either way embed* embed = I on the smaller side, and compressing
    rep_after (resp. the input) by embed recovers the other representation's
    operators.  The pipelines build no compression step: their "compression"
    stage rows measure the last step's output on the original space.
    """

    kind: str
    old_dim: int
    new_dim: int
    embed: np.ndarray
    rep_after: GraphRep

    def __post_init__(self):
        if self.kind not in ("isometric-step", "ck-step", "compression"):
            raise ValueError(f"unknown step kind {self.kind!r}")
        shape = (
            (self.old_dim, self.new_dim)
            if self.kind == "compression"
            else (self.new_dim, self.old_dim)
        )
        E = as_cmatrix(self.embed, rows=shape[0], cols=shape[1])
        if E.shape[1] and op_norm(E.conj().T @ E - np.eye(E.shape[1])) > 1e-6:
            raise ValueError("embed is not an isometry")
        object.__setattr__(self, "embed", E)


@dataclass(frozen=True)
class StageRecord:
    """Measured defects of the representation produced by one stage.

    toeplitz/ck/covariance are the raw defects of the full stage output;
    corner_toeplitz/corner_ck are the same defects compressed to the previous
    stage's space, which is where the stage guarantees live.  A
    "compression" row repeats the full defects of the row before it (the
    same representation) and compresses to the pipeline's original space.
    """

    kind: str
    new_dim: int
    toeplitz: float
    ck: float
    covariance: float | None
    corner_toeplitz: float
    corner_ck: float


@dataclass(frozen=True)
class PipelineReport:
    """Stage table plus the final representation and the isometry locating
    the pipeline's original space inside it.  capped marks a run cut short by
    the dimension cap (partial results)."""

    steps: tuple
    converged: bool
    final_rep: GraphRep
    embed: np.ndarray
    capped: bool = False


def _vertex_basis(rep: GraphRep) -> dict:
    """Orthonormal basis columns of range(proj(v)) per vertex.

    Eigenvectors of proj(v) with eigenvalue > 1/2, in the ascending-eigenvalue
    order the spectral decomposition returns — deterministic for fixed input,
    which is what makes embed matrices reproducible.
    """
    out = {}
    for v in rep.graph.vertices:
        P = rep.proj[v]
        w, V = np.linalg.eigh(0.5 * (P + P.conj().T))
        out[v] = V[:, w > 0.5]
    return out


def _require_row_contraction(rep: GraphRep, tol: Tolerance) -> None:
    report = row_contraction_check(rep, tol)
    if not report.passed:
        bad = [c.vertex for c in report.per_vertex if not c.passed]
        raise ContractivityError(
            f"row contraction fails at vertices {bad}; cannot dilate"
        )


def one_step_isometric(rep: GraphRep, tol: Tolerance = DEFAULT_TOL) -> DilationStep:
    """One isometric dilation step on H + D, D the range of the defect
    I - ttilde* ttilde of the row ttilde: X tensor H -> H.

    X tensor H is modeled concretely as one summand range(proj(s(e))) per
    edge, in edge order: the inner product <delta_e, delta_f> = delta_ef
    delta_s(e) collapses the generic tensor product to exactly that sum.
    The defect is factored one range fiber v at a time: module covariance
    makes the cross-fiber blocks of ttilde* ttilde vanish, and one factor of
    the whole matrix would mix their rounding noise into the fiber grading
    the dilated projections rely on.  The eigenvectors K_v of v's block with
    eigenvalue w above tol.eig_clip span v's new summand, on which proj(v)
    is the identity, and t(e) picks up the rows C_v = diag(sqrt(w)) K_v* on
    e's columns.  Iterating the step therefore
    builds the truncated Fock tower H + sum_k X^{tensor k} tensor D of the
    minimal isometric dilation (Muhly-Solel): after the first step the
    defect lives only on the last layer.  The dropped eigenvalues are
    <= eig_clip, which bounds the corner Toeplitz defect by eig_clip plus
    rounding.  A gauge unitary acts on the new summand as K* Utilde_g K,
    Utilde_g its action on X tensor H, which commutes with the defect and so
    leaves D invariant.
    """
    _require_row_contraction(rep, tol)
    graph, d = rep.graph, rep.dim
    basis = _vertex_basis(rep)
    offsets, pos = {}, 0
    for e in graph.edges:
        size = basis[e.src].shape[1]
        offsets[e.eid] = (pos, pos + size)
        pos += size
    m = pos

    ttilde = np.zeros((d, m), dtype=complex)
    for e in graph.edges:
        lo, hi = offsets[e.eid]
        ttilde[:, lo:hi] = rep.edge_op[e.eid] @ basis[e.src]
    factors = []
    for v in graph.vertices:
        idx = [i for e in range_fiber(graph, v) for i in range(*offsets[e])]
        if idx:
            s, K = _defect_factor(ttilde[:, idx], tol.eig_clip, tol)
            factors.append((v, idx, s[s > 0], K[:, s > 0]))
    r = sum(s.size for _, _, s, _ in factors)
    new_dim = d + r
    tol.check_dim(new_dim)
    # K: orthonormal columns spanning D inside X tensor H; C = diag(sqrt(w)) K*
    K = np.zeros((m, r), dtype=complex)
    C = np.zeros((r, m), dtype=complex)
    span, col = {}, 0
    for v, idx, s, Kv in factors:
        span[v] = slice(d + col, d + col + s.size)
        K[idx, col:col + s.size] = Kv
        C[col:col + s.size, idx] = s[:, None] * Kv.conj().T
        col += s.size

    edge_op = {}
    for e in graph.edges:
        T1 = np.zeros((new_dim, new_dim), dtype=complex)
        T1[:d, :d] = rep.edge_op[e.eid]
        lo, hi = offsets[e.eid]
        T1[d:, :d] = C[:, lo:hi] @ basis[e.src].conj().T
        edge_op[e.eid] = T1
    proj = {}
    for v in graph.vertices:
        P1 = np.zeros((new_dim, new_dim), dtype=complex)
        P1[:d, :d] = rep.proj[v]
        if v in span:
            P1[span[v], span[v]] = np.eye(span[v].stop - span[v].start)
        proj[v] = P1
    unitaries = None
    if rep.covariant:
        unitaries = {}
        for g, W in enumerate(rep.action.edge_unitaries):
            Ut = np.zeros((m, m), dtype=complex)
            for j, e in enumerate(graph.edges):
                lo, hi = offsets[e.eid]
                for i, f in enumerate(graph.edges):
                    if W[i, j] != 0:
                        flo, fhi = offsets[f.eid]
                        Ut[flo:fhi, lo:hi] = W[i, j] * (
                            basis[f.src].conj().T @ rep.unitaries[g] @ basis[e.src]
                        )
            U1 = np.zeros((new_dim, new_dim), dtype=complex)
            U1[:d, :d] = rep.unitaries[g]
            U1[d:, d:] = K.conj().T @ Ut @ K
            unitaries[g] = U1
    rep_after = GraphRep(graph, new_dim, proj, edge_op,
                         action=rep.action, unitaries=unitaries)
    embed = np.zeros((new_dim, d), dtype=complex)
    embed[:d, :d] = np.eye(d)
    return DilationStep("isometric-step", d, new_dim, embed, rep_after)


def one_step_ck(rep: GraphRep, tol: Tolerance = DEFAULT_TOL) -> DilationStep:
    """One Cuntz-Krieger dilation step, sized by the ranges of the defects.

    For each finite receiver v the defect proj(v) - sum_e t(e)t(e)* is
    compressed to H_v = range(proj(v)), where it is supported, checked
    positive (PositivityError otherwise) and factored: the eigenvectors K_v
    with eigenvalue w above tol.eig_clip span ran(Delta_v), Delta_v =
    |r^{-1}(v)|^{-1/2} (proj(v) - sum_e t(e)t(e)*)^{1/2}.  Each pair (v, w)
    with a nonempty bucket E(v, w) contributes a summand ran(Delta_v) tensor
    [E(v, w)] attached to vertex w, and t(e) picks up the column block
    K_v diag(sqrt(w / |r^{-1}(v)|)) there, which restores the Cuntz-Krieger
    sum at every finite receiver on the original corner up to the dropped
    eigenvalues, each <= eig_clip.  Every new direction is the image of H
    under some t(e)*, so the step adds nothing a minimal reduction would
    remove.  A gauge unitary acts on the new summands as
    conj(bucket) tensor K_{gv}* u_g K_v.
    """
    _require_row_contraction(rep, tol)
    graph, d = rep.graph, rep.dim
    basis = _vertex_basis(rep)
    vfin = finite_receivers(graph)
    K, col = {}, {}
    for v in vfin:
        fiber = range_fiber(graph, v)
        defect = rep.proj[v].copy()
        for e in fiber:
            defect -= rep.edge_op[e] @ rep.edge_op[e].conj().T
        A = basis[v].conj().T @ defect @ basis[v]
        if not is_psd(A, tol):
            raise PositivityError(
                f"Cuntz-Krieger defect at vertex {v!r} is not positive semidefinite"
            )
        s, V = _eigen_factor(A, tol.eig_clip)
        K[v] = basis[v] @ V[:, s > 0]
        col[v] = K[v] * (s[s > 0] / np.sqrt(len(fiber)))
    pairs = [
        (v, w) for v in vfin for w in graph.vertices if edge_bucket(graph, v, w)
    ]
    offsets, pos = {}, d
    for (v, w) in pairs:
        size = K[v].shape[1] * len(edge_bucket(graph, v, w))
        offsets[(v, w)] = (pos, pos + size)
        pos += size
    new_dim = pos
    tol.check_dim(new_dim)

    edge_op = {}
    for e in graph.edges:
        T1 = np.zeros((new_dim, new_dim), dtype=complex)
        T1[:d, :d] = rep.edge_op[e.eid]
        if e.dst in col:
            v, w = e.dst, e.src
            rv = K[v].shape[1]
            j = edge_bucket(graph, v, w).index(e.eid)
            lo = offsets[(v, w)][0] + j * rv
            T1[:d, lo:lo + rv] = col[v]
        edge_op[e.eid] = T1
    proj = {}
    for u in graph.vertices:
        P1 = np.zeros((new_dim, new_dim), dtype=complex)
        P1[:d, :d] = rep.proj[u]
        for (v, w) in pairs:
            if w == u:
                lo, hi = offsets[(v, w)]
                P1[lo:hi, lo:hi] = np.eye(hi - lo)
        proj[u] = P1
    unitaries = None
    if rep.covariant:
        a = rep.action
        unitaries = {}
        for g in range(a.group.order):
            U1 = np.zeros((new_dim, new_dim), dtype=complex)
            U1[:d, :d] = rep.unitaries[g]
            for (v, w) in pairs:
                av, aw = a.perm_vertex(g, v), a.perm_vertex(g, w)
                if (av, aw) not in offsets:
                    raise StructureError(
                        "action moves a dilation summand outside the finite receivers"
                    )
                lo, hi = offsets[(v, w)]
                alo, ahi = offsets[(av, aw)]
                U1[alo:ahi, lo:hi] = np.kron(
                    a.bucket_matrix(g, v, w).conj(),
                    K[av].conj().T @ rep.unitaries[g] @ K[v],
                )
            unitaries[g] = U1
    rep_after = GraphRep(graph, new_dim, proj, edge_op,
                         action=rep.action, unitaries=unitaries)
    embed = np.zeros((new_dim, d), dtype=complex)
    embed[:d, :d] = np.eye(d)
    return DilationStep("ck-step", d, new_dim, embed, rep_after)


def minimal_reduce(rep: GraphRep, seed: Subspace, tol: Tolerance = DEFAULT_TOL) -> DilationStep:
    """Compress to the smallest subspace containing the seed and reducing for
    every edge operator, projection and unitary.  The compression is exact:
    the closure is invariant under the generators and their adjoints, so
    compressed products equal products of compressions."""
    if seed.ambient_dim != rep.dim:
        raise DimensionError("seed subspace does not live in the representation space")
    gens = []
    for e in rep.graph.edges:
        T = rep.edge_op[e.eid]
        gens.extend([T, T.conj().T])
    gens.extend(rep.proj[v] for v in rep.graph.vertices)
    if rep.unitaries is not None:
        for U in rep.unitaries.values():
            gens.extend([U, U.conj().T])
    space = orthonormal_closure(rep.dim, list(seed.basis.T), gens, tol)
    B = space.basis
    proj = {v: B.conj().T @ rep.proj[v] @ B for v in rep.graph.vertices}
    edge_op = {e.eid: B.conj().T @ rep.edge_op[e.eid] @ B for e in rep.graph.edges}
    unitaries = None
    if rep.unitaries is not None:
        unitaries = {g: B.conj().T @ U @ B for g, U in rep.unitaries.items()}
    rep_after = GraphRep(rep.graph, space.dim, proj, edge_op,
                         action=rep.action, unitaries=unitaries)
    return DilationStep("compression", rep.dim, space.dim, B, rep_after)


def _stage_record(kind: str, rep: GraphRep, corner_embed) -> StageRecord:
    cov = covariance_defect(rep) if rep.covariant else None
    return StageRecord(
        kind=kind,
        new_dim=rep.dim,
        toeplitz=toeplitz_defect(rep),
        ck=ck_defect(rep),
        covariance=cov,
        corner_toeplitz=toeplitz_defect(rep, corner_embed),
        corner_ck=ck_defect(rep, corner_embed),
    )


def _compression_record(stages: list, rep: GraphRep, embed) -> StageRecord:
    """The "compression" row: rep, the last stage's output, with its corner
    on the pipeline's original space (embed).  Its full defects are the last
    row's, which measured the same representation."""
    if not stages:
        return _stage_record("compression", rep, embed)
    return replace(
        stages[-1],
        kind="compression",
        corner_toeplitz=toeplitz_defect(rep, embed),
        corner_ck=ck_defect(rep, embed),
    )


def _run_steps(rep: GraphRep, constructions, tol: Tolerance, stages: list):
    """Apply the one-step constructions in order, appending one StageRecord
    per step (corner: the step's input space) to stages.  Returns the last
    representation, the isometry of rep's space into it, and whether the
    dimension cap cut the run short."""
    current, E = rep, np.eye(rep.dim, dtype=complex)
    for construct in constructions:
        try:
            step = construct(current, tol)
        except ResourceCapError:
            return current, E, True
        stages.append(_stage_record(step.kind, step.rep_after, step.embed))
        E = step.embed @ E
        current = step.rep_after
    return current, E, False


def iterate_coextension(rep: GraphRep, n_steps: int, tol: Tolerance = DEFAULT_TOL) -> PipelineReport:
    """n isometric steps, closed by a "compression" row that measures the
    last stage on the original space.  The steps build the truncated Fock
    tower, which the original space generates, so no reduction runs: the
    final representation is the last step's output and embed the composed
    step embeds.  Guarantee per stage: the Toeplitz defect compressed to the
    previous stage's space is <= tol.eps."""
    _require_row_contraction(rep, tol)
    stages: list[StageRecord] = []
    current, E, capped = _run_steps(rep, [one_step_isometric] * int(n_steps), tol, stages)
    stages.append(_compression_record(stages, current, E))
    converged = not capped and all(s.corner_toeplitz <= tol.eps for s in stages)
    return PipelineReport(tuple(stages), converged, current, E, capped)


def iterate_ck(rep: GraphRep, n_steps: int, tol: Tolerance = DEFAULT_TOL) -> PipelineReport:
    """n Cuntz-Krieger steps, without a reduction.  Guarantee per stage: the
    Cuntz-Krieger defect compressed to the previous stage's space is
    <= tol.eps; converged says every stage met it and the cap was not hit."""
    stages: list[StageRecord] = []
    current, E, capped = _run_steps(rep, [one_step_ck] * int(n_steps), tol, stages)
    converged = not capped and all(s.corner_ck <= tol.eps for s in stages)
    return PipelineReport(tuple(stages), converged, current, E, capped)


def cp_dilate(rep: GraphRep, max_rounds: int, tol: Tolerance = DEFAULT_TOL) -> PipelineReport:
    """Rounds of (Cuntz-Krieger step, isometric step, "compression" row)
    until the Toeplitz and Cuntz-Krieger defects, compressed to the previous
    round's space, both fall below tol.eps.

    Both steps add only directions the round's input generates under t and
    t*, so no reduction runs: each round's output is its isometric step's,
    and the compression row measures it on the pipeline's original space.
    The stopping rule is a finite-stage surrogate for the limit object: each
    round certifies both relations on the corner carried forward from the
    round before.
    """
    _require_row_contraction(rep, tol)
    current = rep
    E_orig = np.eye(rep.dim, dtype=complex)
    stages: list[StageRecord] = []
    if toeplitz_defect(current) <= tol.eps and ck_defect(current) <= tol.eps:
        return PipelineReport((), True, current, E_orig, False)
    for _ in range(int(max_rounds)):
        dilated, E_round, capped = _run_steps(current, (one_step_ck, one_step_isometric), tol, stages)
        if capped:
            return PipelineReport(tuple(stages), False, current, E_orig, True)
        current = dilated
        E_orig = E_round @ E_orig
        stages.append(_compression_record(stages, current, E_orig))
        if toeplitz_defect(current, E_round) <= tol.eps and ck_defect(current, E_round) <= tol.eps:
            return PipelineReport(tuple(stages), True, current, E_orig, False)
    return PipelineReport(tuple(stages), False, current, E_orig, False)


def moment_signature(rep: GraphRep, seed: Subspace, max_len: int) -> dict:
    """All inner products <t(e_1)...t(e_j) h_a, t(f_1)...t(f_k) h_b> for
    composable edge words of length <= max_len over the seed basis.

    Keys are (word_left, word_right, a, b) with words as tuples of edge ids,
    enumerated in lexicographic order; the empty word is the seed itself.
    Words that fail source/range composability are omitted — their products
    vanish identically for any validated representation.  Two minimal
    coextensions of the same representation must produce identical tables,
    which is the computable surrogate for uniqueness up to unitary
    equivalence.
    """
    if seed.ambient_dim != rep.dim:
        raise DimensionError("seed subspace does not live in the representation space")
    words = [()]
    frontier = [()]
    for _ in range(int(max_len)):
        nxt = []
        for w in frontier:
            for e in rep.graph.edges:
                if w and e.src != rep.graph.edge(w[0]).dst:
                    continue
                nxt.append((e.eid,) + w)
        words.extend(nxt)
        frontier = nxt
    words.sort()
    vectors = {(): seed.basis}
    for w in sorted(words, key=len):
        if w and w not in vectors:
            vectors[w] = rep.edge_op[w[0]] @ vectors[w[1:]]
    s = seed.dim
    Q = (
        np.concatenate([vectors[w] for w in words], axis=1)
        if words else np.zeros((rep.dim, 0), dtype=complex)
    )
    G = Q.conj().T @ Q
    table = {}
    for i, w1 in enumerate(words):
        for j, w2 in enumerate(words):
            block = G[i * s:(i + 1) * s, j * s:(j + 1) * s]
            for a in range(s):
                for b in range(s):
                    table[(w1, w2, a, b)] = complex(block[a, b])
    return table
