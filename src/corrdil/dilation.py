"""Constructive dilations of graph-correspondence representations: one-step
isometric dilation, one-step Cuntz-Krieger dilation, minimal isometric
coextension (finite truncation), and the Cuntz-Pimsner pipeline, each with
machine-checkable corner guarantees.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, replace
from itertools import product

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
    _eigen_factor,
    _frozen,
    _norm_within,
    _readonly,
    orthonormal_closure,
)
from .representation import (
    GraphRep,
    _ck_residuals,
    _corner_defects,
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
    operators.  embed is kept read-only, as GraphRep keeps its matrices.
    The pipelines build no compression step: their "compression" stage rows
    measure the last step's output on the original space.
    """

    kind: str
    old_dim: int
    new_dim: int
    embed: np.ndarray
    rep_after: GraphRep

    def __post_init__(self):
        if self.kind not in ("isometric-step", "ck-step", "compression"):
            raise ValueError(f"unknown step kind {self.kind!r}")
        shape = (self.new_dim, self.old_dim)
        E = _frozen(self.embed, *(shape[::-1] if self.kind == "compression" else shape))
        if not _norm_within(E.conj().T @ E - np.eye(E.shape[1]), 1e-6):
            raise ValueError("embed is not an isometry")
        object.__setattr__(self, "embed", E)


@dataclass(frozen=True)
class StageRecord:
    """Measured defects of the representation produced by one stage.

    toeplitz/ck/covariance are the raw defects of the full stage output;
    corner_toeplitz/corner_ck are the same defects compressed to the previous
    stage's space, which is where the stage guarantees live.  Every step
    keeps its input as the leading coordinates of its output, so the corner
    is a leading diagonal block of each residual.  A "compression" row
    repeats the full defects of the row before it (the same representation)
    and takes its corner on the pipeline's original space, the leading
    rep.dim coordinates.
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
    the pipeline's original space inside it: every pipeline keeps that space
    as the leading coordinates, so embed is np.eye(final_rep.dim, rep.dim),
    kept read-only, as GraphRep keeps its matrices.  capped marks a run cut
    short by the dimension cap (partial results)."""

    steps: tuple
    converged: bool
    final_rep: GraphRep
    embed: np.ndarray
    capped: bool = False

    def __post_init__(self):
        object.__setattr__(self, "embed", _frozen(self.embed))


def _vertex_basis(rep: GraphRep) -> dict:
    """Orthonormal basis columns of range(proj(v)) per vertex.

    Eigenvectors of proj(v) with eigenvalue > 1/2, in the ascending-eigenvalue
    order the spectral decomposition returns — deterministic for fixed input,
    which is what makes embed matrices reproducible.
    """
    out = {}
    for v in rep.graph.vertices:
        _, s, V = _eigen_factor(rep.proj[v], 0.5)
        out[v] = V[:, s > 0]
    return out


def _require_row_contraction(rep: GraphRep, tol: Tolerance) -> None:
    report = row_contraction_check(rep, tol)
    _reject_rows([c.vertex for c in report.per_vertex if not c.passed])


def _reject_rows(bad: list) -> None:
    if bad:
        raise ContractivityError(f"row contraction fails at vertices {bad}; cannot dilate")


def _extend(rep: GraphRep, kind: str, summands: dict, edge_blocks: dict,
            unitary_blocks: dict | None, tol: Tolerance) -> DilationStep:
    """The dilation of rep to H + the new summands, which follow H in the
    order of summands (key -> (vertex, size)); proj(vertex) is the identity
    on its summands.  Every operator keeps rep's in its leading d x d corner
    and is zero elsewhere except for the given blocks: edge_blocks maps an
    edge id, unitary_blocks (None when rep is not covariant) a group
    element, to (row key, column key, block) triples, the key None standing
    for H.  The cap is checked before any block is read, so blocks may be
    produced lazily.  embed is H as the leading coordinates."""
    d = rep.dim
    at, pos = {None: slice(0, d)}, d
    for key, (_, size) in summands.items():
        at[key] = slice(pos, pos + size)
        pos += size
    tol.check_dim(pos)

    def padded(corner, blocks):
        M = np.zeros((pos, pos), dtype=complex)
        M[:d, :d] = corner
        for row, col, block in blocks:
            M[at[row], at[col]] = block
        return _readonly(M)

    proj = {
        u: padded(rep.proj[u], [(k, k, np.eye(n)) for k, (x, n) in summands.items() if x == u])
        for u in rep.graph.vertices
    }
    edge_op = {
        e.eid: padded(rep.edge_op[e.eid], edge_blocks.get(e.eid, ())) for e in rep.graph.edges
    }
    unitaries = None if unitary_blocks is None else {
        g: padded(rep.unitaries[g], blocks) for g, blocks in unitary_blocks.items()
    }
    rep_after = GraphRep(rep.graph, pos, proj, edge_op, action=rep.action, unitaries=unitaries)
    return DilationStep(kind, d, pos, _readonly(np.eye(pos, d, dtype=complex)), rep_after)


def one_step_isometric(rep: GraphRep, tol: Tolerance = DEFAULT_TOL) -> DilationStep:
    """One isometric dilation step on H + D, D the range of the defect
    I - ttilde* ttilde of the row ttilde: X tensor H -> H.

    X tensor H is modeled concretely as one summand range(proj(s(e))) per
    edge: the inner product <delta_e, delta_f> = delta_ef delta_s(e)
    collapses the generic tensor product to exactly that sum.  The defect
    is factored one range fiber v at a time, ttilde_v = [t(e) basis(s(e))]
    over r(e) = v: module covariance makes the cross-fiber blocks vanish,
    and one factor of the whole matrix would mix their rounding noise into
    the fiber grading the dilated projections rely on.  The factor's
    eigenvalues carry the precondition that ttilde_v is a row contraction:
    none below -eig_clip (ContractivityError naming the failing vertices
    otherwise).  With exact projections and module covariance its nonzero
    spectrum is minus that of the block row_contraction_check reads, so
    this is the row check's verdict at the row check's threshold.  The
    eigenvectors K_v with eigenvalue w above tol.eig_clip span v's new
    summand, on which proj(v) is the identity, and t(e) picks up the rows
    C_v = diag(sqrt(w)) K_v* on e's columns, times basis(s(e))*.  Iterating the step therefore builds the
    truncated Fock tower H + sum_k X^{tensor k} tensor D of the minimal
    isometric dilation (Muhly-Solel): after the first step the defect lives
    only on the last layer.  The dropped eigenvalues are <= eig_clip, which
    bounds the corner Toeplitz defect by eig_clip plus rounding.  A gauge
    unitary u_g carries v's summand to g.v's by K_{gv}* [W_g(f, e)
    basis(s(f))* u_g basis(s(e))] K_v, its action on X tensor H, which
    commutes with the defect and so leaves D invariant.
    """
    return _extend(rep, "isometric-step", *_isometric_blocks(rep, tol), tol)


def _isometric_blocks(rep: GraphRep, tol: Tolerance) -> tuple:
    """one_step_isometric's summands and blocks, its factors freed before _extend runs."""
    graph = rep.graph
    basis = _vertex_basis(rep)
    src = {e.eid: basis[e.src] for e in graph.edges}
    index = {e.eid: i for i, e in enumerate(graph.edges)}
    fibers, edge_blocks, bad = {}, {}, []
    for v in graph.vertices:
        fiber = range_fiber(graph, v)
        widths = [src[e].shape[1] for e in fiber]
        if not sum(widths):
            continue
        S = np.hstack([src[e] for e in fiber])
        ttilde = np.hstack([rep.edge_op[e] @ src[e] for e in fiber])
        defect = np.eye(S.shape[1], dtype=complex) - ttilde.conj().T @ ttilde
        w, s, V = _eigen_factor(defect, tol.eig_clip)
        if not w[0] >= -tol.eig_clip:   # the row check's threshold; a NaN fails
            bad.append(v)
        K = V[:, s > 0]
        C = s[s > 0, None] * K.conj().T
        for e, Ce in zip(fiber, np.split(C, np.cumsum(widths)[:-1], axis=1)):
            edge_blocks[e] = [(v, None, Ce @ src[e].conj().T)]
        fibers[v] = (S, np.repeat([index[e] for e in fiber], widths), K)
    _reject_rows(bad)
    unitary_blocks = None
    if rep.covariant:
        unitary_blocks = {}
        for g, W in enumerate(rep.action.edge_unitaries):
            U, blocks = rep.unitaries[g], []
            for v, (S, cols, K) in fibers.items():
                gv = rep.action.perm_vertex(g, v)
                if gv in fibers:
                    gS, gcols, gK = fibers[gv]
                    M = (gS.conj().T @ U @ S) * W[np.ix_(gcols, cols)]
                    blocks.append((gv, v, gK.conj().T @ M @ K))
            unitary_blocks[g] = blocks
    summands = {v: (v, K.shape[1]) for v, (_, _, K) in fibers.items()}
    return summands, edge_blocks, unitary_blocks


def one_step_ck(rep: GraphRep, tol: Tolerance = DEFAULT_TOL) -> DilationStep:
    """One Cuntz-Krieger dilation step, sized by the ranges of the defects.

    For each finite receiver v the defect proj(v) - sum_e t(e)t(e)* is
    compressed to H_v = range(proj(v)), where it is supported, and factored;
    the factor's eigenvalues carry the step's one precondition (Hermitian
    within eps, no eigenvalue below -eig_clip; PositivityError otherwise).
    It runs no row check, which is decided once where its input enters a
    pipeline; a fiber ending outside the finite receivers is never read.
    The eigenvectors K_v with eigenvalue w above tol.eig_clip span
    ran(Delta_v), Delta_v = |r^{-1}(v)|^{-1/2} (proj(v) - sum_e
    t(e)t(e)*)^{1/2}.  Each pair (v, w) with a nonempty bucket E(v, w)
    contributes a summand ran(Delta_v) tensor [E(v, w)] attached to vertex
    w, and t(e) picks up the column block K_v diag(sqrt(w / |r^{-1}(v)|))
    at e's slot there, which restores the Cuntz-Krieger sum at every finite
    receiver on the original corner up to the dropped eigenvalues, each <=
    eig_clip.  Every new direction is the image of H under some t(e)*, so
    the step adds nothing a minimal reduction would remove.  A gauge unitary
    acts on the new summands as conj(bucket) tensor K_{gv}* u_g K_v.
    """
    graph = rep.graph
    basis = _vertex_basis(rep)
    K, col = {}, {}
    for v, defect in zip(finite_receivers(graph), _ck_residuals(rep)):
        A = basis[v].conj().T @ defect @ basis[v]
        w, s, V = _eigen_factor(A, tol.eig_clip)
        if w.min(initial=0.0) < -tol.eig_clip or not _norm_within(A - A.conj().T, tol.eps):
            raise PositivityError(
                f"Cuntz-Krieger defect at vertex {v!r} is not positive semidefinite"
            )
        K[v] = basis[v] @ V[:, s > 0]
        col[v] = K[v] * (s[s > 0] / np.sqrt(len(range_fiber(graph, v))))
    summands, edge_blocks = {}, {}
    for v in K:
        for w in graph.vertices:
            bucket = edge_bucket(graph, v, w)
            if bucket:
                summands[(v, w)] = (w, K[v].shape[1] * len(bucket))
                for j, e in enumerate(bucket):
                    slot = np.eye(1, len(bucket), j)   # e's place in the bucket
                    edge_blocks[e] = [(None, (v, w), np.kron(slot, col[v]))]

    def gauge_blocks(g):   # lazy, so that _extend checks the cap first
        a, U = rep.action, rep.unitaries[g]
        for v, w in summands:
            image = (a.perm_vertex(g, v), a.perm_vertex(g, w))
            if image not in summands:
                raise StructureError(
                    "action moves a dilation summand outside the finite receivers"
                )
            yield image, (v, w), np.kron(
                a.bucket_matrix(g, v, w).conj(), K[image[0]].conj().T @ U @ K[v]
            )

    unitary_blocks = None
    if rep.covariant:
        unitary_blocks = {g: gauge_blocks(g) for g in range(rep.action.group.order)}
    return _extend(rep, "ck-step", summands, edge_blocks, unitary_blocks, tol)


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
    B = _readonly(space.basis)
    proj = {v: _readonly(B.conj().T @ rep.proj[v] @ B) for v in rep.graph.vertices}
    edge_op = {e.eid: _readonly(B.conj().T @ rep.edge_op[e.eid] @ B) for e in rep.graph.edges}
    unitaries = None
    if rep.unitaries is not None:
        unitaries = {g: _readonly(B.conj().T @ U @ B) for g, U in rep.unitaries.items()}
    rep_after = GraphRep(rep.graph, space.dim, proj, edge_op,
                         action=rep.action, unitaries=unitaries)
    return DilationStep("compression", rep.dim, space.dim, B, rep_after)


def _measure(stages: list, kind: str, rep: GraphRep, k: int, sizes=()) -> dict:
    """Append rep's row, its corner the leading k coordinates, to stages and
    return rep's corner defects at k, rep.dim and sizes, all from one pass."""
    corners = _corner_defects(rep, {rep.dim, k, *sizes})
    cov = covariance_defect(rep) if rep.covariant else None
    stages.append(StageRecord(kind, rep.dim, *corners[rep.dim], cov, *corners[k]))
    return corners


def _run_steps(rep: GraphRep, constructions, tol: Tolerance, stages: list, sizes=()):
    """Apply the one-step constructions in order, appending one StageRecord
    per step (corner: the step's input, its output's leading coordinates)
    to stages.  Each output is measured in one pass once the next step is
    built, so the last one's also covers sizes.  Returns the last
    representation, whether the cap cut the run short, and its corners."""
    current, last, capped = rep, None, False   # last: the step that built current
    for construct in constructions:
        try:
            step = construct(current, tol)
        except ResourceCapError:
            capped = True
            break
        if last is not None:
            _measure(stages, last.kind, current, last.old_dim)
        current, last = step.rep_after, step
    corners = {} if last is None else _measure(stages, last.kind, current, last.old_dim, sizes)
    return current, capped, corners


def iterate_coextension(rep: GraphRep, n_steps: int, tol: Tolerance = DEFAULT_TOL) -> PipelineReport:
    """n isometric steps, closed by a "compression" row that measures the
    last stage on the original space.  The steps build the truncated Fock
    tower, which the original space generates, so no reduction runs: the
    final representation is the last step's output and embed its leading
    coordinates.  Guarantee per stage: the Toeplitz defect compressed to the
    previous stage's space is <= tol.eps.  Each step checks that its input
    is a row contraction (ContractivityError otherwise); with no step to
    run, the check of rep runs here."""
    steps = [one_step_isometric] * int(n_steps)
    if not steps:
        _require_row_contraction(rep, tol)
    stages: list[StageRecord] = []
    final, capped, corners = _run_steps(rep, steps, tol, stages, (rep.dim,))
    if not stages:   # no step ran: the row measures rep itself
        _measure(stages, "compression", rep, rep.dim)
    else:   # the last row's representation, on the original space
        t, c = corners[rep.dim]
        stages.append(replace(stages[-1], kind="compression", corner_toeplitz=t, corner_ck=c))
    converged = not capped and all(s.corner_toeplitz <= tol.eps for s in stages)
    return PipelineReport(tuple(stages), converged, final,
                          _readonly(np.eye(final.dim, rep.dim, dtype=complex)), capped)


def iterate_ck(rep: GraphRep, n_steps: int, tol: Tolerance = DEFAULT_TOL) -> PipelineReport:
    """n Cuntz-Krieger steps, without a reduction.  Guarantee per stage: the
    Cuntz-Krieger defect compressed to the previous stage's space is
    <= tol.eps; converged says every stage met it and the cap was not hit.
    rep must be a row contraction (ContractivityError otherwise), checked
    once here; the stages the steps build are not checked again.  With no
    step to run, converged says whether rep itself meets the Cuntz-Krieger
    relation."""
    _require_row_contraction(rep, tol)
    steps = [one_step_ck] * int(n_steps)
    if not steps:
        return PipelineReport((), ck_defect(rep) <= tol.eps, rep,
                              _readonly(np.eye(rep.dim, dtype=complex)))
    stages: list[StageRecord] = []
    final, capped, _ = _run_steps(rep, steps, tol, stages)
    converged = not capped and all(s.corner_ck <= tol.eps for s in stages)
    return PipelineReport(tuple(stages), converged, final,
                          _readonly(np.eye(final.dim, rep.dim, dtype=complex)), capped)


def cp_dilate(rep: GraphRep, max_rounds: int, tol: Tolerance = DEFAULT_TOL) -> PipelineReport:
    """Rounds of (Cuntz-Krieger step, isometric step, "compression" row)
    until the Toeplitz and Cuntz-Krieger defects, compressed to the previous
    round's space, both fall below tol.eps.

    Both steps add only directions the round's input generates under t and
    t*, so no reduction runs: each round's output is its isometric step's,
    and the compression row measures it on the pipeline's original space.
    The stopping rule is a finite-stage surrogate for the limit object: each
    round certifies both relations on the corner carried forward from the
    round before.  rep must be a row contraction (ContractivityError
    otherwise), checked once here; each round's isometric step still reads
    its own input's verdict from its own factor.
    """
    _require_row_contraction(rep, tol)
    d, current, capped = rep.dim, rep, False
    stages: list[StageRecord] = []
    round_steps = (one_step_ck, one_step_isometric)
    done = toeplitz_defect(rep) <= tol.eps and ck_defect(rep) <= tol.eps
    for _ in range(0 if done else int(max_rounds)):
        dilated, capped, corners = _run_steps(current, round_steps, tol, stages, (d, current.dim))
        if capped:
            break
        done = max(corners[current.dim]) <= tol.eps   # on the round's input
        current = dilated
        t, c = corners[d]
        stages.append(replace(stages[-1], kind="compression", corner_toeplitz=t, corner_ck=c))
        if done:
            break
    return PipelineReport(tuple(stages), done, current,
                          _readonly(np.eye(current.dim, d, dtype=complex)), capped)


class _MomentTable(Mapping):
    """The table of moment_signature, read from the Gram matrix G = Q* Q of
    the word vectors Q = [t(w) h_0 ... t(w) h_{s-1}]_w: entry (wl, wr, a, b)
    is G[row[wl] + a, row[wr] + b].  Read-only; a key that is not in the
    table raises KeyError, and an index equal to a real one (1.0, True)
    finds it, as in a dict."""

    __slots__ = ("_words", "_s", "_gram", "_row", "_pos")

    def __init__(self, words: list, s: int, gram: np.ndarray):
        self._words, self._s, self._gram = words, s, _readonly(gram)
        self._row = {w: i * s for i, w in enumerate(words)}
        self._pos = {a: a for a in range(s)}

    def __getitem__(self, key) -> complex:
        try:
            wl, wr, a, b = key
            i, j = self._row[wl] + self._pos[a], self._row[wr] + self._pos[b]
        except (TypeError, ValueError, KeyError):   # not a 4-tuple, or not an entry
            raise KeyError(key) from None
        return self._gram.item(i, j)

    def __iter__(self):
        return product(self._words, self._words, range(self._s), range(self._s))

    def __len__(self) -> int:
        return (len(self._words) * self._s) ** 2

    def items(self) -> ItemsView:
        return _MomentItems(self)


class _MomentItems(ItemsView):
    """A moment table's items, boxed one left word at a time from G's rows
    (one tolist per block, not one lookup per entry), in the table's order."""

    def __iter__(self):
        t = self._mapping
        n, s = len(t._words), t._s
        G = t._gram.reshape(n, s, n, s)
        for i, wl in enumerate(t._words):   # G[i][a, j, b] is entry (wl, words[j], a, b)
            entries = G[i].transpose(1, 0, 2).ravel().tolist()
            yield from zip(product((wl,), t._words, range(s), range(s)), entries)


def moment_signature(rep: GraphRep, seed: Subspace, max_len: int) -> Mapping:
    """All inner products <t(e_1)...t(e_j) h_a, t(f_1)...t(f_k) h_b> for
    composable edge words of length <= max_len over the seed basis.

    Keys are (word_left, word_right, a, b) with words as tuples of edge ids,
    enumerated in lexicographic order; the empty word is the seed itself.
    Words that fail source/range composability are omitted — their products
    vanish identically for any validated representation.  Two minimal
    coextensions of the same representation must produce identical tables,
    which is the computable surrogate for uniqueness up to unitary
    equivalence.

    The table is a read-only Mapping over the Gram matrix of the word
    vectors, not a dict; each entry is read from it when looked up.  The
    table compares equal to the dict of the same entries, and dict(table)
    is that dict.
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
    Q = np.concatenate([vectors[w] for w in words], axis=1)
    return _MomentTable(words, seed.dim, Q.conj().T @ Q)
