"""Shared builders and independently coded oracles for the test suite.

The oracles here deliberately avoid the library's own constructions:
square roots come from scipy, the classical single-contraction dilation
matrices are assembled directly from their textbook block formulas, and the
module-side word norms are computed through the correspondence operations
alone (no representation machinery).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from corrdil import (
    CoeffElement,
    CorrElement,
    DirectedGraph,
    FiniteGroup,
    GaugeAction,
    GraphRep,
    inner_product,
    left_action,
)

# ---------------------------------------------------------------- randomness


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- graphs


def cuntz_graph(n: int) -> DirectedGraph:
    return DirectedGraph(("v",), tuple((f"e{i}", "v", "v") for i in range(n)))


def cycle_graph(n: int) -> DirectedGraph:
    vs = tuple(f"v{i}" for i in range(n))
    es = tuple((f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n))
    return DirectedGraph(vs, es)


def random_graph(rng: np.random.Generator, max_v: int = 4, max_e: int = 6) -> DirectedGraph:
    nv = int(rng.integers(1, max_v + 1))
    vs = tuple(f"v{i}" for i in range(nv))
    ne = int(rng.integers(1, max_e + 1))
    es = tuple(
        (f"e{i}", vs[int(rng.integers(nv))], vs[int(rng.integers(nv))]) for i in range(ne)
    )
    return DirectedGraph(vs, es)


# ---------------------------------------------------------------- representations


def random_projections(rng: np.random.Generator, graph: DirectedGraph, dim: int) -> dict:
    """Random orthogonal resolution of identity indexed by the vertices."""
    nv = len(graph.vertices)
    sizes = rng.multinomial(dim, [1.0 / nv] * nv)
    Q = random_unitary(rng, dim)
    proj = {}
    start = 0
    for v, size in zip(graph.vertices, sizes):
        D = np.zeros((dim, dim))
        D[start:start + size, start:start + size] = np.eye(size)
        proj[v] = Q @ D @ Q.conj().T
        start += size
    return proj


def random_cc_rep(
    rng: np.random.Generator,
    graph: DirectedGraph,
    dim: int,
    theta: float = 0.9,
    proj: dict | None = None,
) -> GraphRep:
    """Random completely contractive representation: edge operators supported
    between the correct corners, with every vertex row of norm <= theta < 1."""
    if proj is None:
        proj = random_projections(rng, graph, dim)
    edge_op = {}
    for e in graph.edges:
        R = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        edge_op[e.eid] = proj[e.dst] @ R @ proj[e.src]
    for v in graph.vertices:
        # the row contraction is blocked over the RANGE fiber of each vertex,
        # so normalize each receiver's row to norm <= theta
        fiber = [e.eid for e in graph.edges if e.dst == v]
        if not fiber:
            continue
        row_sq = sum(edge_op[eid] @ edge_op[eid].conj().T for eid in fiber)
        norm = np.sqrt(max(np.linalg.norm(row_sq, 2), 0.0))
        if norm > theta:
            for eid in fiber:
                edge_op[eid] = edge_op[eid] * (theta / norm)
    return GraphRep(graph, dim, proj, edge_op)


def zero_rep(graph: DirectedGraph, dim: int) -> GraphRep:
    """Zero representation: rho(delta_v) a coordinate-block resolution, t = 0."""
    nv = len(graph.vertices)
    base, extra = divmod(dim, nv)
    proj = {}
    start = 0
    for i, v in enumerate(graph.vertices):
        size = base + (1 if i < extra else 0)
        D = np.zeros((dim, dim))
        D[start:start + size, start:start + size] = np.eye(size)
        proj[v] = D
        start += size
    edge_op = {e.eid: np.zeros((dim, dim), dtype=complex) for e in graph.edges}
    return GraphRep(graph, dim, proj, edge_op)


# ---------------------------------------------------------------- gauge setups

# the multiplication table of a non-associative loop of order 5: a Latin
# square with identity 0 in which every element is its own inverse, so that
# of the group axioms only associativity fails
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]



def trivial_action(graph: DirectedGraph) -> GaugeAction:
    """The trivial group acting on graph: every vertex and edge fixed."""
    return GaugeAction(FiniteGroup.trivial(), graph, ({v: v for v in graph.vertices},), {})


def z2_loop_swap(graph: DirectedGraph | None = None, mixer: bool = False) -> GaugeAction:
    """Z_2 on the two-loop graph: identity on the vertex, swapping (or
    Hadamard-mixing) the loop bucket."""
    g = graph if graph is not None else cuntz_graph(2)
    group = FiniteGroup.cyclic(2)
    if mixer:
        U = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    else:
        U = np.array([[0.0, 1.0], [1.0, 0.0]])
    perms = ({"v": "v"}, {"v": "v"})
    return GaugeAction(group, g, perms, {(1, "v", "v"): U})


def z2_vertex_swap() -> tuple:
    """Z_2 on the 2-cycle: swap the vertices and the two edges."""
    g = cycle_graph(2)
    group = FiniteGroup.cyclic(2)
    perms = ({"v0": "v0", "v1": "v1"}, {"v0": "v1", "v1": "v0"})
    units = {
        (1, "v1", "v0"): np.array([[1.0]]),   # e0 bucket -> image bucket
        (1, "v0", "v1"): np.array([[1.0]]),
    }
    return g, GaugeAction(group, g, perms, units)


def truncated_vertex_swap(truncated=("v1",)) -> GaugeAction:
    """z2_vertex_swap on the 2-cycle with the given vertices truncated: it
    moves a truncated vertex unless none or both are truncated."""
    g, a = z2_vertex_swap()
    tg = DirectedGraph(g.vertices, g.edges, frozenset(truncated))
    return GaugeAction(a.group, tg, a.vertex_perm, a.bucket_unitary)


def z3_cycle_rotation() -> tuple:
    """Z_3 rotating the 3-cycle graph."""
    g = cycle_graph(3)
    group = FiniteGroup.cyclic(3)
    perms = tuple(
        {f"v{i}": f"v{(i + k) % 3}" for i in range(3)} for k in range(3)
    )
    units = {}
    for k in (1, 2):
        for i in range(3):
            units[(k, f"v{(i + 1) % 3}", f"v{i}")] = np.array([[1.0]])
    return g, GaugeAction(group, g, perms, units)


def signed_loop(sign: float) -> GraphRep:
    """The one-loop isometry t(e0) = 1 with u = I, Z_2 acting on the loop's
    bucket by [[sign]].  Its Toeplitz and Cuntz-Krieger defects are 0 and
    its covariance defect is |1 - sign|: sign -1 gives 2.0, the pair
    written to tests/data/noncovariant_loop.json."""
    g = cuntz_graph(1)
    a = GaugeAction(FiniteGroup.cyclic(2), g, ({"v": "v"}, {"v": "v"}),
                    {(1, "v", "v"): np.array([[sign]])})
    return GraphRep(g, 1, {"v": np.eye(1)}, {"e0": np.eye(1)}, action=a,
                    unitaries={0: np.eye(1), 1: np.eye(1)})


def z3_loop_rotation() -> GaugeAction:
    """Z_3 cyclically permuting the three loops of the Cuntz-3 graph."""
    g = cuntz_graph(3)
    group = FiniteGroup.cyclic(3)
    C = np.roll(np.eye(3), 1, axis=0)   # C e_i = e_{i+1}
    perms = tuple({"v": "v"} for _ in range(3))
    units = {(1, "v", "v"): C, (2, "v", "v"): C @ C}
    return GaugeAction(group, g, perms, units)


# ---------------------------------------------------------------- oracles


def sqrtm_psd(M: np.ndarray) -> np.ndarray:
    """Independent PSD square root via scipy (symmetrized output)."""
    S = scipy.linalg.sqrtm(np.asarray(M, dtype=complex))
    return (S + S.conj().T) / 2.0


def schaffer_isometric_oracle(T: np.ndarray, n: int) -> np.ndarray:
    """Classical block dilation of a single contraction: V on H + H^n with
    T in the corner, sqrt(I - T*T) below it, and the identity chain running
    down the tower.  Satisfies P_H V^k |_H = T^k for every k."""
    T = np.asarray(T, dtype=complex)
    d = T.shape[0]
    D = sqrtm_psd(np.eye(d) - T.conj().T @ T)
    V = np.zeros(((n + 1) * d, (n + 1) * d), dtype=complex)
    V[0:d, 0:d] = T
    if n >= 1:
        V[d:2 * d, 0:d] = D
        for j in range(1, n):
            V[(j + 1) * d:(j + 2) * d, j * d:(j + 1) * d] = np.eye(d)
    return V


def unitary_cycle_oracle(edge_maps: list, d: int, m: int = 5) -> tuple:
    """Single-purpose exact Cuntz-Pimsner dilation of a cycle representation
    with equal fiber dimension d, coded directly from the classical
    finite-tower unitary dilation of one contraction.

    The cycle's edge maps assemble into one block-cyclic contraction A on
    C^{nd}; the unitary

        U = [[A, 0, ..., 0, D_{A*}],
             [D_A, 0, ..., 0, -A*],
             [0, I, 0, ..., 0],
             ...
             [0, ..., I, 0]]

    on (m+1) tower copies satisfies P_0 U^k P_0 = A^k for k <= m.  When
    m + 1 is a multiple of the cycle length, grading tower copy j at offset j
    makes U exactly block-cyclic, so cutting it by the graded projections
    yields edge operators satisfying both the inner-product relations and the
    vertex sum relations on the nose, while compressing to the original maps.

    Returns (proj, edge_op, embed) as plain arrays keyed like the cycle graph.
    """
    n = len(edge_maps)
    if (m + 1) % n != 0:
        raise ValueError("tower height m+1 must be a multiple of the cycle length")
    nd = n * d
    A = np.zeros((nd, nd), dtype=complex)
    for i, T in enumerate(edge_maps):            # block map: vertex i -> i+1
        A[((i + 1) % n) * d:((i + 1) % n + 1) * d, i * d:(i + 1) * d] = T
    DA = sqrtm_psd(np.eye(nd) - A.conj().T @ A)
    DAs = sqrtm_psd(np.eye(nd) - A @ A.conj().T)
    big = (m + 1) * nd
    U = np.zeros((big, big), dtype=complex)
    U[0:nd, 0:nd] = A
    U[0:nd, m * nd:] = DAs
    U[nd:2 * nd, 0:nd] = DA
    U[nd:2 * nd, m * nd:] = -A.conj().T
    for j in range(1, m):
        U[(j + 1) * nd:(j + 2) * nd, j * nd:(j + 1) * nd] = np.eye(nd)

    proj = {}
    for v in range(n):
        diag = np.zeros(big)
        for j in range(m + 1):
            for i in range(n):
                if (i + j) % n == v:
                    lo = j * nd + i * d
                    diag[lo:lo + d] = 1.0
        proj[f"v{v}"] = np.diag(diag).astype(complex)
    edge_op = {
        f"e{i}": proj[f"v{(i + 1) % n}"] @ U @ proj[f"v{i}"] for i in range(n)
    }
    embed = np.zeros((big, nd), dtype=complex)
    embed[0:nd, 0:nd] = np.eye(nd)
    return proj, edge_op, embed


def module_word_norm_sq(graph: DirectedGraph, elements: list, h: np.ndarray,
                        proj: dict) -> float:
    """Module-side value of ||t(xi_1) ... t(xi_k) h||^2 for an isometric
    representation, computed with the correspondence operations alone.
    Peeling the leftmost (outermost) factor first: c_1 = <xi_1, xi_1>,
    c_j = <xi_j, phi(c_{j-1}) xi_j>, and the value is <h, rho(c_k) h>."""
    c = None
    for xi in elements:
        if c is None:
            c = inner_product(xi, xi)
        else:
            c = inner_product(xi, left_action(c, xi))
    rho_c = sum(
        (c(v) * proj[v] for v in graph.vertices),
        start=np.zeros((h.shape[0], h.shape[0]), dtype=complex),
    )
    return float(np.real(h.conj() @ rho_c @ h))


def random_corr_element(rng: np.random.Generator, graph: DirectedGraph) -> CorrElement:
    coeffs = {
        e.eid: complex(rng.standard_normal(), rng.standard_normal())
        for e in graph.edges
        if rng.random() < 0.8
    }
    return CorrElement(graph, coeffs)


def random_coeff_element(rng: np.random.Generator, graph: DirectedGraph) -> CoeffElement:
    coeffs = {
        v: complex(rng.standard_normal(), rng.standard_normal())
        for v in graph.vertices
        if rng.random() < 0.8
    }
    return CoeffElement(graph, coeffs)
