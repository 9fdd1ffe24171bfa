"""Tests for the constructive dilation procedures."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrdil.dilation
import corrdil.linalg
from corrdil.representation import _corner_defects
from corrdil import (
    DEFAULT_TOL,
    ContractivityError,
    DilationStep,
    DirectedGraph,
    FiniteGroup,
    GaugeAction,
    GraphRep,
    PipelineReport,
    PositivityError,
    ResourceCapError,
    StructureError,
    Subspace,
    Tolerance,
    apply_t,
    ck_defect,
    covariance_defect,
    cp_dilate,
    delta_edge,
    induced_regular_rep,
    inner_product,
    iterate_ck,
    iterate_coextension,
    load_problem,
    minimal_reduce,
    moment_signature,
    one_step_ck,
    one_step_isometric,
    op_norm,
    row_contraction_check,
    toeplitz_defect,
    validate,
    verify_action,
)
from helpers import (
    cuntz_graph,
    cycle_graph,
    module_word_norm_sq,
    random_cc_rep,
    random_corr_element,
    random_graph,
    random_unit_vector,
    rng_for,
    signed_loop,
    truncated_vertex_swap,
    unitary_cycle_oracle,
    z2_loop_swap,
    z2_vertex_swap,
    z3_cycle_rotation,
    z3_loop_rotation,
    zero_rep,
)
from test_io import NONCOVARIANT_LOOP
from test_representation import empty_rep, loop_rep, traced_peak, two_cycle_isometric


# ---------------------------------------------------------------- one_step_isometric

def test_isometric_step_scalar_oracle():
    # hand arithmetic: t = [1/2] dilates to [[1/2, 0], [sqrt(3)/2, 0]]
    step = one_step_isometric(loop_rep(0.5))
    assert step.new_dim == 2
    expected = np.array([[0.5, 0.0], [np.sqrt(3.0) / 2.0, 0.0]])
    assert op_norm(step.rep_after.edge_op["l"] - expected) <= 1e-14
    assert np.allclose(step.embed, np.array([[1.0], [0.0]]))


def test_isometric_step_on_isometric_rep_adds_zero_defect():
    rep = two_cycle_isometric()
    base = GraphRep(rep.graph, rep.dim, rep.proj, rep.edge_op)
    step = one_step_isometric(base)
    E = step.embed
    new = step.rep_after
    for e in base.graph.edges:
        T1 = new.edge_op[e.eid]
        # defect block below the corner is zero
        assert op_norm(T1 @ E - E @ base.edge_op[e.eid]) <= 1e-12
    assert toeplitz_defect(new, E) <= 1e-12


def test_isometric_step_cuntz2_zero_rep():
    step = one_step_isometric(zero_rep(cuntz_graph(2), 1))
    # H^X has one summand per loop, each a copy of the 1-dim vertex space
    assert step.new_dim == 3
    for i, eid in enumerate(("e0", "e1")):
        col = step.rep_after.edge_op[eid][:, 0]
        assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)
        assert abs(col[1 + i]) == pytest.approx(1.0, abs=1e-12)


def test_isometric_step_corner_identity_random():
    rng = rng_for(940)
    for _ in range(25):
        g = random_graph(rng)
        rep = random_cc_rep(rng, g, dim=int(rng.integers(1, 7)))
        step = one_step_isometric(rep)
        E = step.embed
        new = step.rep_after
        assert validate(new).passed
        for e in g.edges:
            for f in g.edges:
                lhs = E.conj().T @ new.edge_op[e.eid].conj().T @ new.edge_op[f.eid] @ E
                ip = inner_product(delta_edge(g, e.eid), delta_edge(g, f.eid))
                rhs = sum(
                    (ip(v) * rep.proj[v] for v in g.vertices),
                    start=np.zeros((rep.dim, rep.dim), dtype=complex),
                )
                assert op_norm(lhs - rhs) <= 1e-10


def test_isometric_step_requires_row_contraction():
    with pytest.raises(ContractivityError):
        one_step_isometric(loop_rep(2.0))


def test_isometric_step_respects_dimension_cap():
    rep = zero_rep(cuntz_graph(3), 4)
    with pytest.raises(ResourceCapError):
        one_step_isometric(rep, Tolerance(max_dim=8))


def test_isometric_step_preserves_covariance():
    a = z2_loop_swap(mixer=True)
    rng = rng_for(941)
    from corrdil import induced_regular_rep
    base = random_cc_rep(rng, a.graph, dim=3)
    rep = induced_regular_rep(base, a)
    step = one_step_isometric(rep)
    assert step.rep_after.covariant
    assert covariance_defect(step.rep_after) <= 1e-7


@pytest.mark.parametrize("lam, new_dim", [(2.0, 2), (0.5, 1)], ids=["above", "below"])
def test_isometric_step_rank_decision_at_eig_clip(lam, new_dim):
    # the defect of t = sqrt(1 - lam * eig_clip) is lam * eig_clip: the new
    # summand appears exactly when the defect eigenvalue exceeds eig_clip
    clip = DEFAULT_TOL.eig_clip
    step = one_step_isometric(loop_rep(np.sqrt(1.0 - lam * clip)))
    assert step.new_dim == new_dim
    assert toeplitz_defect(step.rep_after, step.embed) <= clip


def near_isometry(defects) -> np.ndarray:
    # E*E - I = diag(defects) exactly up to rounding, with one extra zero row
    k = len(defects)
    return np.vstack([np.diag(np.sqrt(1.0 + np.asarray(defects))), np.zeros((1, k))])


@pytest.mark.parametrize("defects, isometry", [
    ([1.5e-6, 0.0, 0.0, 0.0], False),   # operator and Frobenius norm 1.5e-6
    ([8e-7] * 4, True),                 # Frobenius norm 1.6e-6, operator norm 8e-7
], ids=["op-norm-above", "frobenius-above-op-below"])
def test_dilation_step_isometry_decided_by_operator_norm(defects, isometry):
    E = near_isometry(defects)
    D = E.conj().T @ E - np.eye(4)
    assert (op_norm(D) <= 1e-6) == isometry and np.linalg.norm(D) > 1e-6
    rep = zero_rep(cuntz_graph(1), 5)
    if isometry:
        assert DilationStep("isometric-step", 4, 5, E, rep).new_dim == 5
    else:
        with pytest.raises(ValueError, match="not an isometry"):
            DilationStep("isometric-step", 4, 5, E, rep)


def heavy_source_rep(t: float) -> GraphRep:
    # w -> v with rho(delta_w) = 2 on its coordinate: the row check against
    # the source passes for |t| < sqrt 2, but t is not a contraction on H_w
    g = DirectedGraph(("v", "w"), (("e", "w", "v"),))
    proj = {"v": np.diag([1.0, 0.0]), "w": np.diag([0.0, 2.0])}
    return GraphRep(g, 2, proj, {"e": np.array([[0.0, t], [0.0, 0.0]])})


def test_isometric_step_rejects_expansive_fiber_past_row_check():
    rep = heavy_source_rep(1.2)
    assert row_contraction_check(rep).passed
    with pytest.raises(ContractivityError):
        one_step_isometric(rep)


@pytest.mark.parametrize("lam", [0.5, 2.0], ids=["within", "beyond"])
def test_isometric_step_row_decision_is_the_row_check(lam):
    # t = sqrt(1 + lam * eig_clip): the row margin is lam * eig_clip and the
    # step's factor has the eigenvalue -lam * eig_clip, one test on either
    rep = loop_rep(np.sqrt(1.0 + lam * DEFAULT_TOL.eig_clip))
    if row_contraction_check(rep).passed:
        assert one_step_isometric(rep).new_dim == 1
    else:
        with pytest.raises(ContractivityError,
                           match=r"row contraction fails at vertices \['v'\]; cannot dilate"):
            one_step_isometric(rep)


def noisy_projection_rep() -> GraphRep:
    # e: w -> v, f: v -> w, l: v -> v with proj(v) = diag(1, 1, 1e-9, 1e-9),
    # exact only to 1e-9: a validated row contraction whose dilation is an
    # isometry on ran proj(w), where the row check weighs by 1 - 1e-9
    g = DirectedGraph(("v", "w"), (("e", "w", "v"), ("f", "v", "w"), ("l", "v", "v")))
    pv = np.diag([1.0, 1.0, 1e-9, 1e-9])
    Z = np.zeros((2, 2))
    A = np.array([[0.3, 0.1], [0.0, 0.4]])
    B = np.array([[0.5, 0.0], [0.2, 0.3]])
    C = np.array([[0.2, -0.1], [0.1, 0.3]])
    edge_op = {"e": np.block([[Z, A], [Z, Z]]), "f": np.block([[Z, Z], [B, Z]]),
               "l": np.block([[C, Z], [Z, Z]])}
    return GraphRep(g, 4, {"v": pv, "w": np.eye(4) - pv}, edge_op)


def test_noisy_projections_dilate_past_the_first_step():
    rep = noisy_projection_rep()
    assert validate(rep).passed and row_contraction_check(rep).passed
    eps = DEFAULT_TOL.eps
    coext = iterate_coextension(rep, 3)
    assert coext.converged and [s.new_dim for s in coext.steps] == [10, 20, 36, 36]
    assert all(s.corner_toeplitz <= eps for s in coext.steps)
    cp = cp_dilate(rep, 3)
    assert cp.converged and [s.new_dim for s in cp.steps] == [10, 24, 24]
    ck_row, iso_row, compression = cp.steps
    assert ck_row.corner_ck <= eps and iso_row.corner_toeplitz <= eps
    assert max(compression.corner_toeplitz, compression.corner_ck) <= eps


# ---------------------------------------------------------------- one_step_ck

def test_ck_step_cuntz2_scalar_oracle():
    # Delta_v = 1/sqrt(2); each new column block carries it; the vertex sum
    # closes exactly on the original corner
    rep = zero_rep(cuntz_graph(2), 1)
    step = one_step_ck(rep)
    assert step.new_dim == 3
    new = step.rep_after
    E = step.embed
    total = sum(
        new.edge_op[eid] @ new.edge_op[eid].conj().T for eid in ("e0", "e1")
    )
    corner = E.conj().T @ (new.proj["v"] - total) @ E
    assert op_norm(corner) <= 1e-14
    # the new operator entries are the scalar defect 1/sqrt(2)
    vals = sorted(abs(x) for x in np.asarray(new.edge_op["e0"]).ravel() if abs(x) > 1e-14)
    assert vals == pytest.approx([1.0 / np.sqrt(2.0)], abs=1e-14)


def test_ck_step_on_ck_rep_extends_by_zero():
    rep = two_cycle_isometric()
    base = GraphRep(rep.graph, rep.dim, rep.proj, rep.edge_op)
    assert ck_defect(base) <= 1e-14
    step = one_step_ck(base)
    E = step.embed
    assert ck_defect(step.rep_after, E) <= 1e-12
    assert toeplitz_defect(step.rep_after, E) <= 1e-12
    # added columns are zero: full edge operators agree with the embedding
    for e in base.graph.edges:
        assert op_norm(step.rep_after.edge_op[e.eid] - E @ base.edge_op[e.eid] @ E.conj().T) <= 1e-12


def test_ck_step_two_vertex_bookkeeping():
    # v -> w with fiber dimensions d_v = 1, d_w = 2: the receiver's defect
    # lives on H_w, so the new summand is a copy of H_w graded at the source v
    g = DirectedGraph(("v", "w"), (("e", "v", "w"),))
    proj = {"v": np.diag([1.0, 0.0, 0.0]), "w": np.diag([0.0, 1.0, 1.0])}
    rep = GraphRep(g, 3, proj, {"e": np.zeros((3, 3))})
    step = one_step_ck(rep)
    assert step.new_dim == 3 + 2
    new = step.rep_after
    # the new summand belongs to rho(delta_v): source grading
    assert np.trace(new.proj["v"]).real == pytest.approx(1.0 + 2.0, abs=1e-12)
    assert np.trace(new.proj["w"]).real == pytest.approx(2.0, abs=1e-12)
    # CK now holds on the original corner at the receiver
    E = step.embed
    assert ck_defect(new, E) <= 1e-13


def test_ck_step_random_corner_exactness():
    rng = rng_for(942)
    for _ in range(25):
        g = random_graph(rng)
        rep = random_cc_rep(rng, g, dim=int(rng.integers(1, 7)))
        step = one_step_ck(rep)
        assert ck_defect(step.rep_after, step.embed) <= 1e-10
        assert toeplitz_defect(step.rep_after, step.embed) <= (
            toeplitz_defect(rep) + 1e-10
        )
        assert validate(step.rep_after).passed


def test_ck_step_preserves_covariance():
    a = z2_loop_swap()
    rng = rng_for(943)
    from corrdil import induced_regular_rep
    base = random_cc_rep(rng, a.graph, dim=2)
    rep = induced_regular_rep(base, a)
    step = one_step_ck(rep)
    assert covariance_defect(step.rep_after) <= 1e-7


def test_ck_step_preserves_covariance_under_phase_action():
    # Z3 multiplies the two Cuntz loops by w and w^2: a bucket matrix that is
    # not real, so the new gauge block must carry its complex conjugate
    w = np.exp(2j * np.pi / 3)
    g = cuntz_graph(2)
    a = GaugeAction(FiniteGroup.cyclic(3), g, tuple({"v": "v"} for _ in range(3)),
                    {(k, "v", "v"): np.diag([w ** k, w ** (2 * k)]) for k in (1, 2)})
    rep = induced_regular_rep(random_cc_rep(rng_for(944), g, dim=2), a)
    assert covariance_defect(rep) <= 1e-12
    assert covariance_defect(one_step_ck(rep).rep_after) <= 1e-7
    assert covariance_defect(cp_dilate(rep, max_rounds=8).final_rep) <= 1e-7


@pytest.mark.parametrize("lam, new_dim", [(2.0, 2), (0.5, 1)], ids=["above", "below"])
def test_ck_step_rank_decision_at_eig_clip(lam, new_dim):
    # the CK defect of t = sqrt(1 - lam * eig_clip) is lam * eig_clip: the new
    # summand appears exactly when the defect eigenvalue exceeds eig_clip
    clip = DEFAULT_TOL.eig_clip
    step = one_step_ck(loop_rep(np.sqrt(1.0 - lam * clip)))
    assert step.new_dim == new_dim
    assert ck_defect(step.rep_after, step.embed) <= clip


def test_ck_step_rejects_non_psd_defect():
    # w -> v with rho(delta_w) = 2 on its coordinate: the row check against
    # the source passes, but proj(v) - t t* = -0.44 on H_v
    g = DirectedGraph(("v", "w"), (("e", "w", "v"),))
    proj = {"v": np.diag([1.0, 0.0]), "w": np.diag([0.0, 2.0])}
    rep = GraphRep(g, 2, proj, {"e": np.array([[0.0, 1.2], [0.0, 0.0]])})
    with pytest.raises(PositivityError):
        one_step_ck(rep)


@pytest.mark.parametrize("skew, raises", [(0.5, False), (0.9, False), (2.0, True)])
def test_ck_step_hermitian_decision_by_operator_norm(skew, raises):
    # proj(v) = I + S with S* = -S: the compressed CK defect A has
    # ||A - A*|| = skew * eps in operator norm and sqrt 2 times that in
    # Frobenius norm, so at 0.9 eps only the exact norm admits the input
    s = 0.5 * skew * DEFAULT_TOL.eps
    S = np.array([[0.0, s], [-s, 0.0]])
    rep = GraphRep(cuntz_graph(1), 2, {"v": np.eye(2) + S}, {"e0": 0.5 * np.eye(2)})
    assert row_contraction_check(rep).passed
    if raises:
        with pytest.raises(PositivityError, match="not positive semidefinite"):
            one_step_ck(rep)
    else:
        assert one_step_ck(rep).new_dim == 4


@pytest.mark.parametrize("lam, raises", [(2.0, True), (0.5, False)], ids=["above", "below"])
def test_ck_step_positivity_decision_at_eig_clip(lam, raises):
    # proj(v) - t t* = -lam * eig_clip on H_v: a negative eigenvalue within
    # eig_clip is rounding and is clipped, one beyond it is rejected
    rep = heavy_source_rep(np.sqrt(1.0 + lam * DEFAULT_TOL.eig_clip))
    assert row_contraction_check(rep).passed
    if raises:
        with pytest.raises(PositivityError):
            one_step_ck(rep)
    else:
        assert one_step_ck(rep).new_dim == 2


def rank_deficient_cuntz2() -> GraphRep:
    # t(e0) = t(e1) = diag(1/sqrt 2, 1/2): Delta_v^2 = diag(0, 1/2) has rank 1
    T = np.diag([1.0 / np.sqrt(2.0), 0.5])
    return GraphRep(cuntz_graph(2), 2, {"v": np.eye(2)}, {"e0": T, "e1": T})


def test_ck_step_sized_by_defect_range():
    rep = rank_deficient_cuntz2()
    assert [s.new_dim for s in iterate_ck(rep, 2).steps] == [4, 8]
    report = cp_dilate(rep, max_rounds=8)
    assert report.converged
    assert [(s.kind, s.new_dim) for s in report.steps] == [
        ("ck-step", 4), ("isometric-step", 10), ("compression", 10)
    ]


# ---------------------------------------------------------------- iterate_ck

def test_iterate_ck_composes_one_step_ck():
    rng = rng_for(945)
    rep = random_cc_rep(rng, random_graph(rng), dim=3)
    report = iterate_ck(rep, 2)
    first = one_step_ck(rep)
    second = one_step_ck(first.rep_after)
    assert [s.kind for s in report.steps] == ["ck-step", "ck-step"]
    assert report.converged and not report.capped
    assert np.array_equal(report.embed, second.embed @ first.embed)
    final = report.final_rep
    assert final.dim == second.new_dim
    for e in rep.graph.edges:
        assert np.array_equal(final.edge_op[e.eid], second.rep_after.edge_op[e.eid])
    for v in rep.graph.vertices:
        assert np.array_equal(final.proj[v], second.rep_after.proj[v])


def test_iterate_ck_stops_at_cap():
    rep = zero_rep(cuntz_graph(2), 1)
    report = iterate_ck(rep, 3, tol=Tolerance(max_dim=4))
    assert report.capped and not report.converged
    assert [s.new_dim for s in report.steps] == [3]
    assert report.final_rep.dim == 3


# ---------------------------------------------------------------- minimal_reduce

def test_reduce_full_seed_identity():
    rep = two_cycle_isometric()
    red = minimal_reduce(rep, Subspace.full(2))
    assert red.new_dim == 2
    assert red.kind == "compression"


def test_reduce_zero_rep_keeps_seed():
    rep = zero_rep(cuntz_graph(2), 4)
    seed = Subspace.coordinate(4, [0, 1])
    red = minimal_reduce(rep, seed)
    assert red.new_dim == 2


def test_reduce_after_step_on_isometric_rep():
    rep = two_cycle_isometric()
    base = GraphRep(rep.graph, rep.dim, rep.proj, rep.edge_op)
    step = one_step_isometric(base)
    red = minimal_reduce(step.rep_after, Subspace(step.new_dim, step.embed))
    # zero defect: nothing outside H is reachable
    assert red.new_dim == 2
    assert toeplitz_defect(red.rep_after) <= 1e-12


def test_reduce_compression_exact_on_reducing_subspace():
    rng = rng_for(944)
    g = cuntz_graph(2)
    rep = random_cc_rep(rng, g, dim=6)
    red = minimal_reduce(rep, Subspace.from_vectors(6, [random_unit_vector(rng, 6)]))
    B = red.embed
    small = red.rep_after
    for eid in ("e0", "e1"):
        # compression commutes with products on the reducing subspace
        lhs = small.edge_op[eid] @ small.edge_op[eid]
        rhs = B.conj().T @ rep.edge_op[eid] @ rep.edge_op[eid] @ B
        assert op_norm(lhs - rhs) <= 1e-9


def test_reduce_of_the_whole_space_takes_one_orthonormal_pass(monkeypatch):
    # the closure stops once its basis spans the space: no generator pass
    calls = []
    real = corrdil.linalg._append_orthonormal

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(corrdil.linalg, "_append_orthonormal", counted)
    rep = random_cc_rep(rng_for(1220), cuntz_graph(2), dim=4)
    red = minimal_reduce(rep, Subspace.full(rep.dim))
    assert len(calls) == 1
    assert red.new_dim == 4 and np.array_equal(red.embed, np.eye(4))


# ---------------------------------------------------------------- iterate_coextension

def test_coextension_scalar_loop():
    report = iterate_coextension(loop_rep(0.5), n_steps=1)
    assert report.converged
    assert report.steps[-1].corner_toeplitz <= 1e-12


def test_coextension_isometric_rep_is_fixed():
    rep = two_cycle_isometric()
    base = GraphRep(rep.graph, rep.dim, rep.proj, rep.edge_op)
    report = iterate_coextension(base, n_steps=3)
    assert report.converged
    assert report.final_rep.dim == 2
    assert all(s.corner_toeplitz <= 1e-12 for s in report.steps)


def test_coextension_word_norms_match_module_values():
    rng = rng_for(945)
    for _ in range(8):
        g = random_graph(rng, max_v=3, max_e=4)
        rep = random_cc_rep(rng, g, dim=int(rng.integers(1, 5)))
        n = 3
        report = iterate_coextension(rep, n_steps=n)
        final = report.final_rep
        E = report.embed
        h = random_unit_vector(rng, rep.dim)
        for k in (1, 2, 3):
            elements = [random_corr_element(rng, g) for _ in range(k)]
            vec = E @ h
            for xi in reversed(elements):
                vec = apply_t(final, xi) @ vec
            got = float(np.real(vec.conj() @ vec))
            want = module_word_norm_sq(g, elements, h, rep.proj)
            scale = max(1.0, abs(want))
            assert abs(got - want) <= 1e-7 * scale


@pytest.mark.parametrize("seed", range(1, 13))
def test_coextension_single_loop_is_the_schaffer_tower(seed):
    # one loop, d = 3: each step adds one copy of the defect's range, so the
    # stages are 3(k + 1) and the reduction finds nothing to remove
    rep = random_cc_rep(rng_for(seed), cuntz_graph(1), dim=3)
    report = iterate_coextension(rep, n_steps=8)
    assert report.converged
    assert [s.new_dim for s in report.steps] == [3 * (k + 1) for k in range(1, 9)] + [27]
    assert report.final_rep.dim == 27


@pytest.mark.parametrize("loops, d, n, final", [(2, 2, 5, 126), (3, 2, 3, 80)])
def test_coextension_is_the_truncated_fock_tower(loops, d, n, final):
    # d * sum_{j <= n} loops**j: H plus n layers of X^{tensor k} tensor D
    rep = random_cc_rep(rng_for(948), cuntz_graph(loops), dim=d)
    report = iterate_coextension(rep, n_steps=n)
    assert report.converged
    stage_dims = [d * sum(loops ** j for j in range(k + 1)) for k in range(1, n + 1)]
    assert [s.new_dim for s in report.steps] == stage_dims + [final]
    assert report.final_rep.dim == final


def test_coextension_capped_reports_partial():
    rep = zero_rep(cuntz_graph(3), 4)
    report = iterate_coextension(rep, n_steps=5, tol=Tolerance(max_dim=20))
    assert report.capped
    assert not report.converged


# ---------------------------------------------------------------- cp_dilate

def test_cp_dilate_cuntz2_zero_rep():
    rep = zero_rep(cuntz_graph(2), 1)
    report = cp_dilate(rep, max_rounds=3)
    assert report.converged
    kinds = [s.kind for s in report.steps]
    assert kinds == ["ck-step", "isometric-step", "compression"]   # one round
    E = report.embed
    final = report.final_rep
    for i in ("e0", "e1"):
        for j in ("e0", "e1"):
            corner = E.conj().T @ final.edge_op[i].conj().T @ final.edge_op[j] @ E
            want = np.eye(1) if i == j else np.zeros((1, 1))
            assert op_norm(corner - want) <= 1e-12
    total = sum(final.edge_op[i] @ final.edge_op[i].conj().T for i in ("e0", "e1"))
    assert op_norm(E.conj().T @ (final.proj["v"] - total) @ E) <= 1e-12


def test_cp_dilate_respects_already_converged():
    rep = two_cycle_isometric()
    base = GraphRep(rep.graph, rep.dim, rep.proj, rep.edge_op)
    report = cp_dilate(base, max_rounds=5)
    assert report.converged
    assert [(s.kind, s.new_dim) for s in report.steps] == [("compression", 2)]
    assert report.final_rep.dim == 2


def test_cp_dilate_cycle_against_unitary_oracle():
    # independent single-purpose construction for the 3-cycle: a finite-tower
    # unitary dilation of the block-cyclic contraction gives an exact
    # Cuntz-Pimsner representation compressing to the same edge maps
    rng = rng_for(946)
    d = 2
    edge_maps = []
    for _ in range(3):
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        edge_maps.append(0.8 * M / op_norm(M))

    proj_o, edge_o, embed_o = unitary_cycle_oracle(edge_maps, d)
    g = cycle_graph(3)
    oracle_rep = GraphRep(g, embed_o.shape[0], proj_o, edge_o)
    assert toeplitz_defect(oracle_rep) <= 1e-10
    assert ck_defect(oracle_rep) <= 1e-10
    # the oracle's corner compressions are the input maps on their fibers
    for i in range(3):
        lo = i * d
        corner = embed_o.conj().T @ edge_o[f"e{i}"] @ embed_o
        assert op_norm(corner[(i + 1) % 3 * d:((i + 1) % 3 + 1) * d, lo:lo + d]
                       - edge_maps[i]) <= 1e-10

    # pipeline on the same data
    proj = {f"v{i}": np.zeros((3 * d, 3 * d), dtype=complex) for i in range(3)}
    edge_op = {}
    for i in range(3):
        proj[f"v{i}"][i * d:(i + 1) * d, i * d:(i + 1) * d] = np.eye(d)
    for i in range(3):
        T = np.zeros((3 * d, 3 * d), dtype=complex)
        T[(i + 1) % 3 * d:((i + 1) % 3 + 1) * d, i * d:(i + 1) * d] = edge_maps[i]
        edge_op[f"e{i}"] = T
    rep = GraphRep(g, 3 * d, proj, edge_op)
    report = cp_dilate(rep, max_rounds=6, tol=Tolerance(max_dim=2048))
    assert report.converged
    assert toeplitz_defect(report.final_rep, report.embed) <= 1e-8
    assert ck_defect(report.final_rep, report.embed) <= 1e-8
    # both dilations compress words of length 2 to the same products
    E = report.embed
    for i in range(3):
        j = (i + 1) % 3
        lhs = E.conj().T @ report.final_rep.edge_op[f"e{j}"] @ report.final_rep.edge_op[f"e{i}"] @ E
        rhs = embed_o.conj().T @ edge_o[f"e{j}"] @ edge_o[f"e{i}"] @ embed_o
        assert op_norm(lhs - rhs) <= 1e-8


@pytest.mark.parametrize("seed", range(10))
def test_cp_dilate_keeps_covariance_of_induced_rep(seed):
    a = z3_loop_rotation()
    rep = induced_regular_rep(random_cc_rep(rng_for(seed), a.graph, 2), a)
    report = cp_dilate(rep, 8)
    assert report.converged
    assert covariance_defect(report.final_rep) <= DEFAULT_TOL.eps


def barely_expansive_loop() -> GraphRep:
    # t = sqrt(1 + 1e-9): both defects are 1e-9 <= eps, so cp_dilate returns
    # before any step, but the row margin 1e-9 exceeds eig_clip
    return loop_rep(np.sqrt(1.0 + 1e-9))


def test_barely_expansive_loop_fails_only_the_row_check():
    rep = barely_expansive_loop()
    assert toeplitz_defect(rep) <= DEFAULT_TOL.eps and ck_defect(rep) <= DEFAULT_TOL.eps
    assert not row_contraction_check(rep).passed


@pytest.mark.parametrize("run", [
    pytest.param(lambda: cp_dilate(barely_expansive_loop(), 4), id="cp-already-converged"),
    pytest.param(lambda: cp_dilate(loop_rep(2.0), 0), id="cp-no-rounds"),
    pytest.param(lambda: iterate_coextension(barely_expansive_loop(), 0), id="coext-no-steps"),
    pytest.param(lambda: iterate_coextension(barely_expansive_loop(), 2), id="coext"),
    pytest.param(lambda: cp_dilate(loop_rep(2.0), 2), id="cp"),
    pytest.param(lambda: iterate_ck(barely_expansive_loop(), 0), id="ck-no-steps"),
])
def test_pipelines_reject_non_row_contractions(run):
    with pytest.raises(ContractivityError, match=r"row contraction fails at vertices \['v'\]"):
        run()


@pytest.mark.parametrize("t, converged", [(0.5, False), (1.0, True)])
def test_iterate_ck_without_steps_measures_its_input(t, converged):
    report = iterate_ck(loop_rep(t), 0)
    assert [(s.kind, s.new_dim) for s in report.steps] == [("compression", 1)]
    assert not report.capped
    assert report.converged is converged


def slow_loop() -> GraphRep:
    # the CK step drops the defect eigenvalue 1 - (1 - 1e-7) = 1e-7, which lies
    # between eps and eig_clip below, so no cp_dilate round converges
    g = DirectedGraph(("v",), (("e", "v", "v"),))
    t = np.diag([np.sqrt(0.5), np.sqrt(1.0 - 1e-7)])
    return GraphRep(g, 2, {"v": np.eye(2)}, {"e": t})


@pytest.mark.parametrize("max_dim, dims, capped", [
    (4096, [3, 4, 4, 5, 6, 6, 7, 8, 8, 9, 10, 10], False),
    (8, [3, 4, 4, 5, 6, 6, 7, 8, 8], True),
])
def test_cp_dilate_past_round_one(max_dim, dims, capped):
    report = cp_dilate(slow_loop(), 4, tol=Tolerance(eig_clip=1e-6, max_dim=max_dim))
    assert [s.new_dim for s in report.steps] == dims
    assert [s.kind for s in report.steps] == [
        "ck-step", "isometric-step", "compression"
    ] * (len(dims) // 3)
    assert not report.converged and report.capped is capped
    assert np.array_equal(report.embed, np.eye(dims[-1], 2))
    assert report.final_rep.dim == dims[-1]
    for row in report.steps[2::3]:
        assert row.corner_ck == pytest.approx(1e-7, rel=1e-6)


def test_cp_dilate_capped():
    rep = zero_rep(cuntz_graph(3), 4)
    report = cp_dilate(rep, max_rounds=4, tol=Tolerance(max_dim=24))
    assert report.capped
    assert not report.converged


def test_cp_dilate_nan_corner_does_not_converge(monkeypatch):
    # max([0.0, nan]) is 0.0: the stopping rule must read each corner, so
    # that a NaN Cuntz-Krieger corner does not end the run as converged
    monkeypatch.setattr(corrdil.dilation, "_corner_defects",
                        lambda rep, sizes, block=None: {k: [0.0, float("nan")] for k in sizes})
    report = cp_dilate(slow_loop(), 2)
    assert not report.converged
    assert [s.kind for s in report.steps] == ["ck-step", "isometric-step", "compression"] * 2


def test_ck_step_rejects_an_action_that_moves_a_truncated_vertex():
    # verify_action rejects the action, but a library caller can still hand
    # the step a representation carrying it: the step finds the moved summand
    a = truncated_vertex_swap()
    rep = induced_regular_rep(random_cc_rep(rng_for(1260), a.graph, 2), a)
    assert not verify_action(a).ok
    with pytest.raises(StructureError, match="outside the finite receivers"):
        one_step_ck(rep)


def pipeline_inputs():
    cases = []
    for seed in range(6):
        rng = rng_for(950 + seed)
        rep = random_cc_rep(rng, random_graph(rng), dim=int(rng.integers(1, 5)))
        cases.append(pytest.param(rep, id=f"random-{seed}"))
    actions = {
        "z2-loop-swap": z2_loop_swap(),
        "z3-loop-rotation": z3_loop_rotation(),
        "z3-cycle-rotation": z3_cycle_rotation()[1],
    }
    for name, a in actions.items():
        rep = induced_regular_rep(random_cc_rep(rng_for(951), a.graph, 2), a)
        cases.append(pytest.param(rep, id=f"induced-{name}"))
    cases.append(pytest.param(rank_deficient_cuntz2(), id="rank-deficient-cuntz2"))
    return cases


@pytest.mark.parametrize("pipeline", [
    pytest.param(lambda rep: cp_dilate(rep, max_rounds=4), id="cp"),
    pytest.param(lambda rep: iterate_coextension(rep, n_steps=3), id="coext"),
    pytest.param(lambda rep: iterate_ck(rep, 2), id="ck"),
])
@pytest.mark.parametrize("rep", pipeline_inputs())
def test_pipeline_output_is_generated_by_the_input(pipeline, rep):
    # the pipelines run no reduction: the input space must already generate
    # the whole output under the edge operators, their adjoints and the gauge
    report = pipeline(rep)
    final = report.final_rep
    assert minimal_reduce(final, Subspace(final.dim, report.embed)).new_dim == final.dim
    if final.covariant:
        assert covariance_defect(final) <= DEFAULT_TOL.eps


@pytest.mark.parametrize("run", [
    pytest.param(one_step_isometric, id="isometric-step"),
    pytest.param(one_step_ck, id="ck-step"),
    pytest.param(lambda rep: cp_dilate(rep, 2), id="cp"),
    pytest.param(lambda rep: cp_dilate(rep, 0), id="cp-no-rounds"),
    pytest.param(lambda rep: iterate_coextension(rep, 2), id="coext"),
    pytest.param(lambda rep: iterate_coextension(rep, 0), id="coext-no-steps"),
    pytest.param(lambda rep: iterate_ck(rep, 2), id="ck"),
    pytest.param(lambda rep: iterate_ck(rep, 0), id="ck-no-steps"),
])
def test_dimension_zero_dilates_to_itself(run):
    out = run(empty_rep())
    if isinstance(out, DilationStep):
        assert out.new_dim == 0
    else:
        assert out.converged and out.final_rep.dim == 0
        assert all(s.new_dim == 0 for s in out.steps)


# ---------------------------------------------------------------- moment_signature

def test_moment_signature_trivial_words():
    rep = two_cycle_isometric()
    table = moment_signature(rep, Subspace.full(2), max_len=0)
    assert table[((), (), 0, 0)] == pytest.approx(1.0)
    assert table[((), (), 0, 1)] == pytest.approx(0.0)


def test_moment_signature_key_order_and_empty_seed():
    rep = two_cycle_isometric()
    table = moment_signature(rep, Subspace.full(2), max_len=0)
    assert list(table) == [((), (), a, b) for a in range(2) for b in range(2)]
    assert all(type(x) is complex for x in table.values())
    assert moment_signature(rep, Subspace(2, np.zeros((2, 0))), max_len=2) == {}


def test_moment_signature_isometric_loop():
    g = DirectedGraph(("v",), (("l", "v", "v"),))
    rep = GraphRep(g, 2, {"v": np.eye(2)}, {"l": np.array([[0.0, 1.0], [1.0, 0.0]])})
    seed = Subspace.coordinate(2, [0])
    table = moment_signature(rep, seed, max_len=2)
    assert table[(("l", "l"), ("l", "l"), 0, 0)] == pytest.approx(1.0)
    assert table[(("l",), ("l",), 0, 0)] == pytest.approx(1.0)


def test_moment_signature_permutation_invariance():
    rng = rng_for(947)
    for _ in range(4):
        g = random_graph(rng, max_v=3, max_e=4)
        dim = int(rng.integers(1, 4))
        rep = random_cc_rep(rng, g, dim=dim)
        perm = list(rng.permutation(len(g.edges)))
        g2 = DirectedGraph(g.vertices, tuple(
            (e.eid, e.src, e.dst) for e in (g.edges[i] for i in perm)
        ), g.truncated)
        rep2 = GraphRep(g2, dim, dict(rep.proj), dict(rep.edge_op))

        tables = []
        for r in (rep, rep2):
            report = iterate_coextension(r, n_steps=3)
            tables.append(
                moment_signature(report.final_rep,
                                 Subspace(report.final_rep.dim, report.embed),
                                 max_len=3)
            )
        t1, t2 = tables
        assert set(t1) == set(t2)
        for key in t1:
            assert abs(t1[key] - t2[key]) <= 1e-8


def reference_moments(rep: GraphRep, basis: np.ndarray, max_len: int) -> dict:
    """The moment table as a dict, its words enumerated here: (e_1, ..., e_k)
    composes when s(e_i) = r(e_{i+1}), and stands for t(e_1) ... t(e_k)."""
    edges = {e.eid: e for e in rep.graph.edges}
    words = sorted(w for k in range(max_len + 1) for w in product(edges, repeat=k)
                   if all(edges[x].src == edges[y].dst for x, y in zip(w, w[1:])))
    vectors = {}
    for w in sorted(words, key=len):
        vectors[w] = rep.edge_op[w[0]] @ vectors[w[1:]] if w else basis
    s = basis.shape[1]
    Q = np.concatenate([vectors[w] for w in words], axis=1)
    G = Q.conj().T @ Q
    for i, j in product(range(len(words) * s), repeat=2):
        assert abs(G[i, j] - np.vdot(Q[:, i], Q[:, j])) <= 1e-12
    return {(wl, wr, a, b): complex(G[i * s + a, j * s + b])
            for i, wl in enumerate(words) for j, wr in enumerate(words)
            for a in range(s) for b in range(s)}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), data=st.data())
def test_moment_table_reads_as_its_dict(seed, dim, data):
    rng = np.random.default_rng(seed)
    rep = random_cc_rep(rng, random_graph(rng, max_v=3, max_e=4), dim)
    s = data.draw(st.integers(0, dim), label="seed dim")
    max_len = data.draw(st.integers(0, 3), label="max_len")
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    basis = np.linalg.qr(Z)[0][:, :s]
    table = moment_signature(rep, Subspace(dim, basis), max_len)
    ref = reference_moments(rep, basis, max_len)

    assert list(table) == list(ref) and len(table) == len(ref)
    for key, val in ref.items():
        assert key in table
        assert type(table[key]) is complex and abs(table[key] - val) <= 1e-12
    assert table == ref and ref == table and dict(table) == ref
    # items are boxed a block at a time from G, each the entry a lookup reads
    assert list(table.items()) == [(key, table[key]) for key in ref]
    assert len(table.items()) == len(ref)
    assert all((key, table[key]) in table.items() for key in list(ref)[:3])

    edges = rep.graph.edges
    stray = next(((e.eid, f.eid) for e in edges for f in edges if e.src != f.dst), None)
    too_long = (edges[0].eid,) * (max_len + 1)
    missing = [(("nope",), (), 0, 0), (too_long, (), 0, 0), ((), (), s, 0), ((), (), 0, -1),
               ((), (), 0), ((), (), 0, 0, 0), 7]
    if stray is not None and max_len >= 2:
        missing.append(((), stray, 0, 0))
    for key in missing:
        assert key not in table
        with pytest.raises(KeyError):
            table[key]
    if s:
        assert table[((), (), 0.0, False)] == table[((), (), 0, 0)]
        assert table != {**ref, ((), (), 0, 0): ref[((), (), 0, 0)] + 1}
    if s > 1:
        assert table[((), (), True, 1.0)] == table[((), (), 1, 1)]
    with pytest.raises(TypeError):
        table[((), (), 0, 0)] = 0j
    with pytest.raises(ValueError):
        table._gram[...] = 0


@pytest.mark.parametrize("seed_rows", [None, 5], ids=["embed", "leading-rows"])
@pytest.mark.parametrize("graph, dim", [(cuntz_graph(2), 4), (cycle_graph(2), 12)],
                         ids=["cuntz2", "cycle2"])
def test_moment_words_on_extents_match_dense_products(graph, dim, seed_rows):
    # past _SUPPORT_MIN each word vector is taken on its rows' and t(e)'s
    # extents (on the 2-cycle the edges' column extents differ); the table
    # equals the Gram matrix of dense word products
    rep = random_cc_rep(rng_for(1455), graph, dim)
    report = iterate_coextension(rep, 3)
    final = report.final_rep
    assert final.dim > corrdil.linalg._SUPPORT_MIN
    assert all(corrdil.linalg._extent(T)[1] < final.dim for T in final.edge_op.values())
    basis = report.embed
    if seed_rows is not None:   # a seed inside the leading rows, not on coordinates
        Z = rng_for(1456).standard_normal((seed_rows, 3))
        basis = np.zeros((final.dim, 3), dtype=complex)
        basis[:seed_rows] = np.linalg.qr(Z)[0]
    table = moment_signature(final, Subspace(final.dim, basis), max_len=3)
    ref = reference_moments(final, basis, 3)
    assert list(table) == list(ref)
    assert all(abs(table[key] - val) <= 1e-13 for key, val in ref.items())


def test_moment_table_peak_stays_near_its_gram():
    # the table reads its entries from the Gram matrix, so its peak is a few
    # Gram matrices (vectors, Q, Q*, G); a dict of boxed entries is over 12
    rep = random_cc_rep(rng_for(1450), cuntz_graph(4), 3)
    report = iterate_coextension(rep, 3)
    final = report.final_rep
    tables = []
    peak = traced_peak(lambda: tables.append(
        moment_signature(final, Subspace(final.dim, report.embed), max_len=3)))
    assert len(tables[0]) == 255 ** 2 == final.dim ** 2
    assert peak < 6 * 255 ** 2 * 16


# ---------------------------------------------------------------- one row decision per input

@pytest.fixture()
def row_checks(monkeypatch):
    """The representations corrdil.dilation runs row_contraction_check on."""
    calls = []
    real = corrdil.dilation.row_contraction_check

    def counted(rep, tol=DEFAULT_TOL):
        calls.append(rep)
        return real(rep, tol)

    monkeypatch.setattr(corrdil.dilation, "row_contraction_check", counted)
    return calls


def contractive_rep() -> GraphRep:
    rng = rng_for(1230)
    return random_cc_rep(rng, random_graph(rng), dim=3)


@pytest.mark.parametrize("run", [
    lambda: iterate_ck(contractive_rep(), 0),
    lambda: iterate_ck(contractive_rep(), 3),
    lambda: cp_dilate(slow_loop(), 4, tol=Tolerance(eig_clip=1e-6)),
    lambda: cp_dilate(two_cycle_isometric(), 4),
    lambda: cp_dilate(contractive_rep(), 0),
], ids=["ck-0", "ck-3", "cp-4-rounds", "cp-converged", "cp-0-rounds"])
def test_pipelines_check_their_input_once(row_checks, run):
    report = run()
    assert len(row_checks) == 1
    assert row_checks[0].dim == report.embed.shape[1]   # the input, not a stage


@pytest.mark.parametrize("run", [
    lambda: one_step_ck(contractive_rep()),
    lambda: iterate_coextension(contractive_rep(), 2),
], ids=["ck-step", "coextension"])
def test_steps_run_no_row_check(row_checks, run):
    run()
    assert row_checks == []


def test_iterate_ck_past_noisy_projections():
    # the second step's input is the first step's output, which the
    # source-weighted row check used to reject at margin 1e-9
    report = iterate_ck(noisy_projection_rep(), 3)
    assert report.converged and not report.capped
    assert [s.new_dim for s in report.steps] == [10, 20, 36]
    assert all(s.corner_ck <= DEFAULT_TOL.eps for s in report.steps)


def test_ck_step_rejects_an_expansive_loop_by_positivity():
    # t = 2 on a loop: the step's own defect 1 - 4 is negative; the row
    # verdict is the pipeline's, at its entry
    with pytest.raises(PositivityError, match="vertex 'v' is not positive semidefinite"):
        one_step_ck(loop_rep(2.0))
    with pytest.raises(ContractivityError,
                       match=r"row contraction fails at vertices \['v'\]; cannot dilate"):
        cp_dilate(loop_rep(2.0), 2)


def truncated_expansive_rep() -> GraphRep:
    # e: v -> v with t(e) = diag(2, 0) is expansive, but v is truncated, so
    # no Cuntz-Krieger condition applies there; f: v -> w is a contraction
    g = DirectedGraph(("v", "w"), (("e", "v", "v"), ("f", "v", "w")), frozenset({"v"}))
    return GraphRep(g, 2, {"v": np.diag([1.0, 0.0]), "w": np.diag([0.0, 1.0])},
                    {"e": np.diag([2.0, 0.0]), "f": np.array([[0.0, 0.0], [0.5, 0.0]])})


def test_ck_step_builds_past_an_expansive_fiber_at_a_truncated_vertex():
    rep = truncated_expansive_rep()
    assert validate(rep).passed and not row_contraction_check(rep).passed
    assert one_step_ck(rep).new_dim == 3


@pytest.mark.parametrize("run", [
    lambda rep: iterate_ck(rep, 2),
    lambda rep: cp_dilate(rep, 2),
], ids=["iterate_ck", "cp_dilate"])
def test_pipelines_reject_an_expansive_fiber_at_a_truncated_vertex(run):
    with pytest.raises(ContractivityError, match=r"row contraction fails at vertices \['v'\]"):
        run(truncated_expansive_rep())


def test_steps_and_reports_keep_read_only_embeds():
    rep = random_cc_rep(rng_for(1440), cuntz_graph(2), 3)
    step = one_step_isometric(rep)
    report = cp_dilate(rep, 2)
    for stored in (step.embed, report.embed, step.rep_after.edge_op["e0"],
                   report.final_rep.proj["v"]):
        with pytest.raises(ValueError):
            stored[0, 0] = 2.0
    # an embed handed in is copied, not flipped
    given = np.eye(step.new_dim, step.old_dim, dtype=complex)
    made = DilationStep("isometric-step", step.old_dim, step.new_dim, given, step.rep_after)
    rebuilt = PipelineReport(report.steps, report.converged, report.final_rep, given)
    assert given.flags.writeable
    given[0, 0] = 0.0
    assert made.embed[0, 0] == 1.0 and rebuilt.embed[0, 0] == 1.0
    assert rebuilt.embed.dtype == complex and not rebuilt.embed.flags.writeable


# ---------------------------------------------------------------- stage measurement

STAGE_ACTIONS = {   # None: a random graph's representation, without an action
    "none": None,
    "z2-loop-swap": z2_loop_swap(),
    "z2-loop-mixer": z2_loop_swap(mixer=True),
    "z2-vertex-swap": z2_vertex_swap()[1],
    "z3-cycle-rotation": z3_cycle_rotation()[1],
    "z3-loop-rotation": z3_loop_rotation(),
}
STEPS = {"isometric": one_step_isometric, "ck": one_step_ck}


def stage_steps(rng, name: str, dim: int, kinds, max_dim: int = 160) -> list:
    """The steps named by kinds applied in turn to a random representation
    (induced from one of dimension dim under the named action), up to the
    first that the cap stops."""
    a = STAGE_ACTIONS[name]
    if a is None:
        rep = random_cc_rep(rng, random_graph(rng), dim)
    else:
        rep = induced_regular_rep(random_cc_rep(rng, a.graph, dim), a)
    steps = []
    for kind in kinds:
        try:
            steps.append(STEPS[kind](rep, Tolerance(max_dim=max_dim)))
        except ResourceCapError:
            break
        rep = steps[-1].rep_after
    return steps


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(sorted(STAGE_ACTIONS)),
       dim=st.integers(1, 12), kinds=st.lists(st.sampled_from(sorted(STEPS)), min_size=1, max_size=3))
def test_stage_measurement_matches_the_dense_defects(seed, name, dim, kinds):
    # each step output is measured on the block its step can couple, with
    # the +-I tail read off the projections; the values are the dense
    # residuals' norms, at the step's input, the whole stage and any corner
    rng = np.random.default_rng(seed)
    first = None
    for step in stage_steps(rng, name, dim, kinds):
        out = step.rep_after
        first = first or step.old_dim
        sizes = {first, step.old_dim, out.dim, int(rng.integers(1, out.dim + 1))}
        stages = []
        corners = corrdil.dilation._measure(stages, step.kind, out, step.old_dim, sizes)
        dense = _corner_defects(out, sizes)
        for k in sizes:
            assert corners[k] == pytest.approx(dense[k], rel=0, abs=1e-12), (step.kind, k)
        if out.covariant:
            assert stages[-1].covariance == pytest.approx(covariance_defect(out), rel=0, abs=1e-12)
        else:
            assert stages[-1].covariance is None


@pytest.mark.parametrize("kind", sorted(STEPS))
def test_stage_measurement_keeps_an_overflowed_corner_nan(kind):
    # the real loop's step output with its edge operators scaled by 1e200:
    # the corner residuals overflow to inf, and the whole stage's value must
    # be NaN on both paths, not the tail's 1.0 (Python's max(1.0, nan))
    step = STEPS[kind](GraphRep(cuntz_graph(1), 1, {"v": np.eye(1)}, {"e0": np.array([[0.5]])}))
    out = step.rep_after
    big = GraphRep(out.graph, out.dim, out.proj, {e: 1e200 * T for e, T in out.edge_op.items()})
    sizes = {1, big.dim}
    corners = corrdil.dilation._measure([], step.kind, big, step.old_dim, sizes)
    dense = _corner_defects(big, sizes)
    for k in sizes:
        assert np.isnan(corners[k]).all() and np.isnan(dense[k]).all()


@pytest.mark.parametrize("name", sorted(STAGE_ACTIONS))
@pytest.mark.parametrize("dim", [3, 12])
def test_step_outputs_are_zero_where_the_measurement_skips(name, dim):
    # the block structure _extend documents and _measure relies on, exactly
    for step in stage_steps(rng_for(1500 + dim), name, dim, ["isometric", "ck", "isometric", "ck"]):
        out, k = step.rep_after, step.old_dim
        for T in out.edge_op.values():
            assert not (T[:, k:] if step.kind == "isometric-step" else T[k:, :]).any()
        for M in [*out.proj.values(), *(out.unitaries or {}).values()]:
            assert not M[:k, k:].any() and not M[k:, :k].any()
        for P in out.proj.values():
            tail = P[k:, k:]
            assert np.array_equal(tail, np.diag(np.diag(tail)))
            assert set(np.diag(tail).tolist()) <= {0, 1}
        if out.covariant:
            a = out.action
            for g, U in out.unitaries.items():
                for v in out.graph.vertices:
                    R = U @ out.proj[v] - out.proj[a.perm_vertex(g, v)] @ U
                    assert not R[k:, k:].any()


def test_each_step_is_measured_once_at_the_callers_sizes(monkeypatch):
    # every step is measured once, at its own corner and dimension and at
    # the corners its pipeline reads; the compression row reads the last
    # measurement, so nothing is measured again after a step or the cap
    calls = []
    measure = corrdil.dilation._corner_defects
    monkeypatch.setattr(corrdil.dilation, "_corner_defects", lambda rep, sizes, block=None: (
        calls.append(sorted(set(sizes))) or measure(rep, sizes, block)))
    rep = slow_loop()
    iterate_coextension(rep, 3)
    assert calls == [[2, 4], [2, 4, 6], [2, 6, 8]]
    calls.clear()
    cp_dilate(rep, 2, tol=Tolerance(eig_clip=1e-6))
    assert calls == [[2], [2, 3], [2, 3, 4], [2, 4, 5], [2, 4, 5, 6]]
    calls.clear()
    assert iterate_coextension(rep, 3, tol=Tolerance(max_dim=7)).capped
    assert calls == [[2, 4], [2, 4, 6]]


def test_capped_coextension_measures_its_last_stage_on_the_original_space():
    # the cap stops the third step, so the last measured stage was not the
    # last construction's: its compression row is still the original corner
    rep = slow_loop()
    report = iterate_coextension(rep, 3, tol=Tolerance(max_dim=7))
    assert report.capped and [s.kind for s in report.steps] == [
        "isometric-step", "isometric-step", "compression"]
    last = report.steps[-1]
    assert [last.corner_toeplitz, last.corner_ck] == _corner_defects(report.final_rep, [2])[2]


@pytest.mark.parametrize("graph, d, cap, dims", [
    (cuntz_graph(3), 4, 100, [16, 52]),
    (cuntz_graph(2), 6, 90, [18, 42, 90]),
    (cycle_graph(2), 12, 60, list(range(24, 61, 12))),
])
def test_capped_coextension_past_support_min_reads_the_dense_corner(graph, d, cap, dims):
    # past _SUPPORT_MIN the last step is measured on the block it can
    # couple; the compression row's corner must still be the dense one
    rep = random_cc_rep(rng_for(1500), graph, d)
    report = iterate_coextension(rep, 6, tol=Tolerance(max_dim=cap))
    assert report.capped and [s.new_dim for s in report.steps[:-1]] == dims
    assert report.final_rep.dim > corrdil.linalg._SUPPORT_MIN
    last = report.steps[-1]
    t, c = _corner_defects(report.final_rep, (rep.dim,))[rep.dim]
    assert last.kind == "compression"
    assert last.corner_toeplitz == pytest.approx(t, abs=1e-12)
    assert last.corner_ck == pytest.approx(c, abs=1e-12)


def _drifted(value: float):
    """A covariance residual stand-in whose only residual has norm value."""
    return lambda rep, block=None: iter([np.full((1, 1), value)])


@pytest.mark.parametrize("pipeline", [
    pytest.param(lambda rep: iterate_coextension(rep, 2), id="coext"),
    pytest.param(lambda rep: cp_dilate(rep, 4), id="cp"),
])
def test_covariance_gates_convergence(monkeypatch, pipeline):
    # a last-stage covariance of 1.6e-8 > eps (the size of the drift a
    # square-root rounding once left) or NaN must not read as converged
    rep = induced_regular_rep(random_cc_rep(rng_for(1510), z2_loop_swap().graph, 2), z2_loop_swap())
    report = pipeline(rep)
    assert report.converged and report.steps[-1].covariance <= DEFAULT_TOL.eps
    for value, covariance in ((1.6e-8, 1.6e-8), (np.inf, np.nan)):
        monkeypatch.setattr(corrdil.dilation, "_covariance_residuals", _drifted(value))
        report = pipeline(rep)
        assert report.steps[-1].covariance == pytest.approx(covariance, nan_ok=True)
        assert not report.converged and not report.capped


@pytest.mark.parametrize("pipeline", [
    pytest.param(lambda rep: iterate_coextension(rep, 0), id="coext-0"),
    pytest.param(lambda rep: iterate_coextension(rep, 1), id="coext-1"),
    pytest.param(lambda rep: iterate_ck(rep, 0), id="ck-0"),
    pytest.param(lambda rep: iterate_ck(rep, 1), id="ck-1"),
    pytest.param(lambda rep: cp_dilate(rep, 0), id="cp-0"),
    pytest.param(lambda rep: cp_dilate(rep, 1), id="cp-1"),
    pytest.param(lambda rep: cp_dilate(rep, 3), id="cp-3"),
])
def test_every_pipeline_gates_covariance(pipeline):
    # the loop meets every relation but covariance (defect 2.0), so no step
    # changes it and cp runs no round: every exit, with or without a step,
    # reads the covariance of its last row; the same loop acted on by [[1]]
    # is covariant and converges
    report = pipeline(load_problem(NONCOVARIANT_LOOP).representation)
    assert report.steps[-1].covariance == 2.0
    assert not report.converged and not report.capped
    report = pipeline(signed_loop(1.0))
    assert report.steps[-1].covariance == 0.0 and report.converged


def test_a_long_run_allocates_nothing_per_requested_step():
    # a million requested steps stop at the cap after 63 of them; a list of
    # the requested steps alone would take 8 MB
    reports = []
    peak = traced_peak(lambda: reports.append(
        iterate_coextension(loop_rep(0.5), 10**6, Tolerance(max_dim=64))))
    report = reports[0]
    assert report.capped and not report.converged
    assert report.final_rep.dim == 64 and len(report.steps) == 64
    assert peak < 2 * 2**20
