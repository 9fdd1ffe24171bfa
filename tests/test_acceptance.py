"""End-to-end acceptance gate.

Each test checks one release criterion at its stated tolerance and runtime
budget and prints exactly one `CRITERION n: PASS/FAIL` line, visible even
under pytest's output capture.
"""

from __future__ import annotations

import time

import numpy as np

from corrdil import (
    DirectedGraph,
    GraphRep,
    HALMOS_CONSTANT,
    Subspace,
    admissibility_gap,
    ck_defect,
    covariance_defect,
    cp_dilate,
    defect_sqrt,
    embed_poly,
    induced_regular_rep,
    iterate_coextension,
    minimal_reduce,
    mobius_coeffs,
    moment_signature,
    one_step_ck,
    one_step_isometric,
    op_norm,
    psd_sqrt,
    relation_defect,
    row_contraction_check,
    satisfies_hyperrigidity_criterion,
)
from helpers import (
    cuntz_graph,
    cycle_graph,
    random_cc_rep,
    random_graph,
    random_unitary,
    rng_for,
    schaffer_isometric_oracle,
    z2_loop_swap,
    z2_vertex_swap,
    z3_cycle_rotation,
    z3_loop_rotation,
    zero_rep,
)

GAP = 3.0 * np.sqrt(10.0) / 16.0


def _criterion(capsys, num: int, desc: str, fn) -> None:
    try:
        fn()
        ok, detail = True, ""
    except BaseException as exc:
        ok, detail = False, f" [{type(exc).__name__}: {exc}]"
    with capsys.disabled():
        print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {desc}{detail}")
    assert ok, f"CRITERION {num} failed{detail}"


def _all_setups():
    """The gauge-action test set: vertex swaps/rotations and bucket flips."""
    a1 = z2_loop_swap(mixer=False)
    a2 = z2_loop_swap(mixer=True)
    _, a3 = z2_vertex_swap()
    _, a4 = z3_cycle_rotation()
    a5 = z3_loop_rotation()
    return [("z2-bucket-flip", a1), ("z2-bucket-mixer", a2),
            ("z2-vertex-swap", a3), ("z3-vertex-rotation", a4),
            ("z3-bucket-rotation", a5)]


def test_criterion_01_counterexample_exactness(capsys):
    def run():
        t0 = time.perf_counter()
        lo, hi = admissibility_gap(trunc_degree=64, grid=4096)
        assert abs(lo - GAP) <= 1e-9
        assert abs(hi - 1.0) <= 1e-9
        emb = embed_poly(mobius_coeffs(64), grid=4096)
        dfct = relation_defect(mobius_coeffs(64), grid=4096)
        want_emb = np.array([[-0.5, 0.0], [0.75, -0.5]], dtype=complex)
        want_dfct = np.array([[-0.375, -0.1875], [0.375, 0.1875]], dtype=complex)
        assert np.array_equal(emb.mat_part, want_emb)
        assert np.array_equal(dfct.mat_part, want_dfct)
        assert time.perf_counter() - t0 < 1.0

    _criterion(capsys, 1, "counterexample gap pair and matrices exact in < 1 s", run)


def test_criterion_02_one_step_corner_identity(capsys):
    def run():
        rng = rng_for(1001)
        t0 = time.perf_counter()
        for _ in range(200):
            g = random_graph(rng, max_v=4, max_e=6)
            rep = random_cc_rep(rng, g, dim=int(rng.integers(1, 9)))
            step = one_step_isometric(rep)
            new, E = step.rep_after, step.embed
            for e in g.edges:
                for f in g.edges:
                    lhs = new.edge_op[e.eid].conj().T @ new.edge_op[f.eid]
                    if e.eid == f.eid:
                        rhs = E @ rep.proj[e.src] @ E.conj().T
                    else:
                        rhs = np.zeros_like(lhs)
                    assert op_norm(lhs - rhs) <= 1e-7
        assert time.perf_counter() - t0 < 30.0

    _criterion(capsys, 2, "isometric step corner identity ≤ 1e-7 on 200 random "
               "representations in < 30 s", run)


def test_criterion_03_ck_step_exactness(capsys):
    def run():
        rng = rng_for(1002)
        for _ in range(200):
            g = random_graph(rng, max_v=4, max_e=6)
            rep = random_cc_rep(rng, g, dim=int(rng.integers(1, 9)))
            step = one_step_ck(rep)
            assert ck_defect(step.rep_after, step.embed) <= 1e-7
            assert row_contraction_check(step.rep_after).passed

    _criterion(capsys, 3, "Cuntz-Krieger step corner exactness ≤ 1e-7 and row "
               "check on 200 random representations", run)


def test_criterion_04_covariance_preservation(capsys):
    def run():
        rng = rng_for(1003)
        for name, action in _all_setups():
            base = random_cc_rep(rng, action.graph, dim=2)
            rep = induced_regular_rep(base, action)
            s_iso = one_step_isometric(rep)
            assert covariance_defect(s_iso.rep_after) <= 1e-7, name
            s_ck = one_step_ck(rep)
            assert covariance_defect(s_ck.rep_after) <= 1e-7, name
            s_both = one_step_isometric(s_ck.rep_after)
            assert covariance_defect(s_both.rep_after) <= 1e-7, name

    _criterion(capsys, 4, "gauge covariance ≤ 1e-7 after every isometric and "
               "Cuntz-Krieger step for Z2/Z3 actions", run)


def test_criterion_05_schaffer_oracle_equivalence(capsys):
    def run():
        rng = rng_for(1004)
        g = cuntz_graph(1)
        n = 4
        for _ in range(20):
            d = int(rng.integers(1, 7))
            T = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            T = 0.95 * T / max(op_norm(T), 1.0)
            rep = GraphRep(g, d, {"v": np.eye(d)}, {"e0": T})
            report = iterate_coextension(rep, n_steps=n)
            T1, E = report.final_rep.edge_op["e0"], report.embed
            V = schaffer_isometric_oracle(T, n)
            for k in range(1, n + 1):
                ours = E.conj().T @ np.linalg.matrix_power(T1, k) @ E
                oracle = np.linalg.matrix_power(V, k)[:d, :d]
                assert op_norm(ours - np.linalg.matrix_power(T, k)) <= 1e-8
                assert op_norm(ours - oracle) <= 1e-8

    _criterion(capsys, 5, "n-step coextension matches classical isometric "
               "dilation powers ≤ 1e-8", run)


def test_criterion_06_cuntz_pipeline(capsys):
    def run():
        t0 = time.perf_counter()
        for n in (2, 3):
            rep = zero_rep(cuntz_graph(n), 1)
            report = cp_dilate(rep, max_rounds=8)
            assert report.converged
            kinds = [s.kind for s in report.steps]
            assert kinds.count("ck-step") == 1   # one CK round + coextension
            final, E = report.final_rep, report.embed
            eids = [e.eid for e in rep.graph.edges]
            for i in eids:
                for j in eids:
                    corner = (E.conj().T @ final.edge_op[i].conj().T
                              @ final.edge_op[j] @ E)
                    want = np.eye(1) if i == j else np.zeros((1, 1))
                    assert op_norm(corner - want) <= 1e-7
            total = sum(final.edge_op[i] @ final.edge_op[i].conj().T for i in eids)
            assert op_norm(E.conj().T @ (final.proj["v"] - total) @ E) <= 1e-7
        assert time.perf_counter() - t0 < 10.0

    _criterion(capsys, 6, "Cuntz pipeline converges in one round and corner "
               "satisfies Cuntz relations ≤ 1e-7 in < 10 s", run)


def test_criterion_07_moment_signature_uniqueness(capsys):
    def run():
        rng = rng_for(1005)
        for _ in range(50):
            g = random_graph(rng, max_v=3, max_e=4)
            dim = int(rng.integers(1, 5))
            rep = random_cc_rep(rng, g, dim=dim)
            perm = list(rng.permutation(len(g.edges)))
            g2 = DirectedGraph(g.vertices, tuple(
                (e.eid, e.src, e.dst) for e in (g.edges[i] for i in perm)
            ), g.truncated)
            rep2 = GraphRep(g2, dim, dict(rep.proj), dict(rep.edge_op))

            tables = []
            for r in (rep, rep2):
                rpt = iterate_coextension(r, n_steps=3)
                red = minimal_reduce(rpt.final_rep,
                                     Subspace(rpt.final_rep.dim, rpt.embed))
                inner = red.embed.conj().T @ rpt.embed
                tables.append(moment_signature(red.rep_after,
                                               Subspace(red.new_dim, inner),
                                               max_len=3))
            t1, t2 = tables
            assert set(t1) == set(t2)
            for key in t1:
                assert abs(t1[key] - t2[key]) <= 1e-8

    _criterion(capsys, 7, "minimal-coextension moment tables agree ≤ 1e-8 "
               "under permuted edge orderings, 50 cases", run)


def test_criterion_08_induced_representation_covariance(capsys):
    def run():
        rng = rng_for(1006)
        for name, action in _all_setups():
            d = int(rng.integers(1, 4))
            base = random_cc_rep(rng, action.graph, dim=d)
            ind = induced_regular_rep(base, action)
            assert covariance_defect(ind) <= 1e-10, name
            e = action.group.identity
            sl = slice(e * d, (e + 1) * d)
            for v in action.graph.vertices:
                assert np.array_equal(ind.proj[v][sl, sl], base.proj[v]), name
            for edge in action.graph.edges:
                assert np.array_equal(ind.edge_op[edge.eid][sl, sl],
                                      base.edge_op[edge.eid]), name

    _criterion(capsys, 8, "induced representation covariance ≤ 1e-10 and exact "
               "identity-corner compression", run)


def test_criterion_09_linear_algebra_core(capsys):
    def run():
        rng = rng_for(1007)
        for _ in range(500):
            n = int(rng.integers(1, 33))
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            M = A @ A.conj().T
            S = psd_sqrt(M)
            assert op_norm(S @ S - M) <= 1e-9 * (1.0 + op_norm(M))
        # Halmos commutation: a unitary nearly commuting with I - T*T nearly
        # commutes with the defect square root, at square-root rate
        for _ in range(100):
            n = int(rng.integers(1, 9))
            T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            T = 0.9 * T / max(op_norm(T), 1.0)
            D = defect_sqrt(T)
            D2 = np.eye(n) - T.conj().T @ T
            for U in (random_unitary(rng, n),
                      np.diag(np.exp(1j * rng.standard_normal(n)))):
                eps = op_norm(U @ D2 - D2 @ U)
                comm = op_norm(U @ D - D @ U)
                assert comm <= HALMOS_CONSTANT * np.sqrt(eps) + 1e-12

    _criterion(capsys, 9, "psd_sqrt round trip ≤ 1e-9·(1+‖M‖) on 500 matrices "
               "and Halmos commutation bound", run)


def test_criterion_10_hyperrigidity_predicate(capsys):
    def run():
        rng = rng_for(1008)
        for g in [cuntz_graph(1), cuntz_graph(2), cuntz_graph(3),
                  cycle_graph(2), cycle_graph(3)]:
            assert satisfies_hyperrigidity_criterion(g)
        for _ in range(20):
            assert satisfies_hyperrigidity_criterion(random_graph(rng))
        flagged = DirectedGraph(("v", "w"), (("e", "v", "w"),),
                                truncated=frozenset({"w"}))
        assert not satisfies_hyperrigidity_criterion(flagged)
        # flagging a vertex nothing flows into must not break the criterion
        source_only = DirectedGraph(("v", "w"), (("e", "w", "v"),),
                                    truncated=frozenset({"w"}))
        assert satisfies_hyperrigidity_criterion(source_only)

    _criterion(capsys, 10, "hyperrigidity criterion true on untruncated "
               "row-finite graphs, false with truncated receiver", run)
