"""Tests for finite-dimensional covariant representations."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from corrdil import (
    ConfigurationError,
    CorrElement,
    DirectedGraph,
    FiniteGroup,
    GaugeAction,
    GraphRep,
    StructureError,
    apply_t,
    ck_defect,
    covariance_defect,
    delta_edge,
    induced_regular_rep,
    iterate_coextension,
    one_step_isometric,
    op_norm,
    row_contraction_check,
    toeplitz_defect,
    trivial_action,
    validate,
)
from corrdil.linalg import (
    _STACK_BYTES,
    _SUPPORT_MIN,
    _extent,
    _extent_bound,
    _lead_product,
    _op_norms,
)
from corrdil.representation import _corner_defects, _structure_residuals
from helpers import (
    cuntz_graph,
    cycle_graph,
    random_cc_rep,
    random_graph,
    rng_for,
    z2_loop_swap,
    z2_vertex_swap,
    z3_cycle_rotation,
    zero_rep,
)


def loop_rep(t: float) -> GraphRep:
    g = DirectedGraph(("v",), (("l", "v", "v"),))
    return GraphRep(g, 1, {"v": np.eye(1)}, {"l": np.array([[t]], dtype=complex)})


def two_cycle_isometric():
    """Exactly covariant, exactly Cuntz-Pimsner representation of the
    2-cycle: the two edge maps are the off-diagonal corners of the swap."""
    g, act = z2_vertex_swap()
    proj = {"v0": np.diag([1.0, 0.0]).astype(complex),
            "v1": np.diag([0.0, 1.0]).astype(complex)}
    edge_op = {"e0": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
               "e1": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)}
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    rep = GraphRep(g, 2, proj, edge_op, action=act,
                   unitaries={0: np.eye(2, dtype=complex), 1: swap})
    return rep


# ---------------------------------------------------------------- validate

def test_validate_loop_contraction_passes():
    assert validate(loop_rep(0.5)).passed


def test_validate_flags_module_covariance_violation():
    g = DirectedGraph(("v", "w"), (("e", "v", "w"),))
    proj = {"v": np.diag([1.0, 0.0]), "w": np.diag([0.0, 1.0])}
    edge_op = {"e": np.diag([1.0, 0.0])}    # lands in the wrong corner
    rep = GraphRep(g, 2, proj, edge_op)
    report = validate(rep)
    assert not report.passed
    assert any("module-covariance" in c.name and not c.passed for c in report.checks)


def test_validate_flags_broken_multiplicativity():
    g = cuntz_graph(1)
    act = trivial_action(g)
    group2 = FiniteGroup.cyclic(2)
    act2 = GaugeAction(group2, g, ({"v": "v"}, {"v": "v"}),
                       {(1, "v", "v"): np.array([[1.0]])})
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])   # order 4, so u(1)^2 != u(0)
    rep = GraphRep(g, 2, {"v": np.eye(2)}, {"e0": np.zeros((2, 2))},
                   action=act2, unitaries={0: np.eye(2), 1: rot})
    report = validate(rep)
    assert not report.passed
    assert any("multiplicative" in c.name and not c.passed for c in report.checks)


def test_validate_fails_an_overflowed_residual():
    # t(e) proj(v) overflows to inf, so its norm is NaN: the check fails,
    # although it is the second of module-covariance's two residuals
    g = DirectedGraph(("v", "w"), (("e", "v", "w"),))
    rep = GraphRep(g, 1, {"v": np.array([[1e200]]), "w": np.eye(1)}, {"e": np.array([[1e200]])})
    with np.errstate(over="ignore", invalid="ignore"):
        checks = {c.name: c for c in validate(rep).checks}
    line = checks["module-covariance[e]"]
    assert np.isnan(line.value) and not line.passed


def test_validate_random_cc_reps():
    rng = rng_for(930)
    for _ in range(20):
        g = random_graph(rng)
        rep = random_cc_rep(rng, g, dim=int(rng.integers(1, 9)))
        assert validate(rep).passed


def test_graphrep_structural_errors():
    g = cuntz_graph(1)
    with pytest.raises(Exception):
        GraphRep(g, 2, {"v": np.eye(2)}, {})                      # missing edge op
    with pytest.raises(Exception):
        GraphRep(g, 2, {"v": np.eye(3)}, {"e0": np.zeros((2, 2))})  # wrong shape
    with pytest.raises(Exception):
        GraphRep(g, 2, {"v": np.eye(2)}, {"e0": np.zeros((2, 2))},
                 unitaries={0: np.eye(2)})                        # unitaries need action


@pytest.mark.parametrize("field, key", [("proj", "v"), ("edge_op", "e0"), ("unitaries", 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_graphrep_rejects_non_finite_entries(field, key, bad):
    a = z2_loop_swap()
    parts = {"proj": {"v": np.eye(1)},
             "edge_op": {"e0": np.zeros((1, 1)), "e1": np.zeros((1, 1))},
             "unitaries": {0: np.eye(1), 1: np.eye(1)}}
    parts[field][key] = np.array([[bad]])
    where = f"{field}[{key!r}] has a non-finite entry"
    with pytest.raises(StructureError, match=re.escape(where)):
        GraphRep(a.graph, 1, action=a, **parts)


# ---------------------------------------------------------------- applying

def test_apply_t_point_mass_and_linearity():
    rep = two_cycle_isometric()
    g = rep.graph
    assert np.allclose(apply_t(rep, delta_edge(g, "e0")), rep.edge_op["e0"])
    x = delta_edge(g, "e0", 2.0) + delta_edge(g, "e1", 1.0j)
    assert np.allclose(apply_t(rep, x), 2.0 * rep.edge_op["e0"] + 1.0j * rep.edge_op["e1"])


def test_apply_t_gauge_equivariance():
    from corrdil import act_on_element
    rep = two_cycle_isometric()
    a = rep.action
    rng = rng_for(931)
    for _ in range(5):
        coeffs = {e.eid: complex(rng.standard_normal(), rng.standard_normal())
                  for e in rep.graph.edges}
        x = CorrElement(rep.graph, coeffs)
        lhs = apply_t(rep, act_on_element(a, 1, x))
        u = rep.unitaries[1]
        rhs = u @ apply_t(rep, x) @ u.conj().T
        assert op_norm(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------- contraction checks

def test_row_contraction_margin_half():
    report = row_contraction_check(loop_rep(0.5))
    assert report.passed
    assert report.margin == pytest.approx(-0.75, abs=1e-12)


def test_row_contraction_fails_expansive():
    assert not row_contraction_check(loop_rep(2.0)).passed


def test_row_contraction_zero_rep():
    assert row_contraction_check(zero_rep(cuntz_graph(2), 2)).passed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy reports the overflow
def test_row_contraction_fails_an_overflowing_fiber():
    # t(big)* t(big) overflows: that fiber's margin is nan and fails, with no
    # eigensolver run on it; the other fiber is still measured
    g = DirectedGraph(("v", "w"), (("big", "v", "v"), ("l", "w", "w")))
    P, Q = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    rep = GraphRep(g, 2, {"v": P, "w": Q}, {"big": 1e300 * P, "l": 0.5 * Q})
    report = row_contraction_check(rep)
    assert [c.vertex for c in report.per_vertex] == ["v", "w"]
    v, w = report.per_vertex
    assert np.isnan(v.margin) and not v.passed
    assert w.passed and w.margin == 0.0   # the residual is -0.75 on w's range, 0 off it
    assert not report.passed
    assert np.isnan(report.margin)
    # the report's margin is nan whichever vertex overflows, first or last
    g = DirectedGraph(("w", "v"), (("l", "w", "w"), ("big", "v", "v")))
    report = row_contraction_check(GraphRep(g, 2, rep.proj, rep.edge_op))
    assert [c.vertex for c in report.per_vertex] == ["w", "v"]
    assert report.per_vertex[0].margin == 0.0 and np.isnan(report.per_vertex[1].margin)
    assert np.isnan(report.margin) and not report.passed


def empty_rep() -> GraphRep:
    # dimension 0 over a loop and a second edge: every fiber block is empty
    g = DirectedGraph(("v", "w"), (("l", "v", "v"), ("e", "w", "v")))
    Z = np.zeros((0, 0))
    return GraphRep(g, 0, {"v": Z, "w": Z}, {"l": Z, "e": Z})


def test_row_contraction_dimension_zero():
    # the empty fiber block is the zero operator: margin 0
    report = row_contraction_check(empty_rep())
    assert report.passed and report.margin == 0.0
    assert [c.vertex for c in report.per_vertex] == ["v"]


# ---------------------------------------------------------------- defects

def test_toeplitz_defect_examples():
    g = DirectedGraph(("v",), (("l", "v", "v"),))
    # a loop edge operator is Toeplitz iff t*t = rho(delta_v); on proj = I
    # that means unitary, and the one-sided shift corner misses by 1
    iso = GraphRep(g, 2, {"v": np.eye(2)}, {"l": np.array([[0.0, 1.0], [1.0, 0.0]])})
    assert toeplitz_defect(iso) == pytest.approx(0.0, abs=1e-14)
    shift = GraphRep(g, 2, {"v": np.eye(2)}, {"l": np.array([[0.0, 0.0], [1.0, 0.0]])})
    assert toeplitz_defect(shift) == pytest.approx(1.0, abs=1e-14)
    assert toeplitz_defect(loop_rep(0.5)) == pytest.approx(0.75, abs=1e-14)
    assert toeplitz_defect(zero_rep(cuntz_graph(2), 2)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("arbitrary", [False, True], ids=["contractive", "arbitrary-edges"])
@pytest.mark.parametrize("seed", range(3))
def test_toeplitz_defects_are_the_maximum_over_ordered_pairs(seed, arbitrary):
    # only the pairs e <= f are formed: (f, e) is the adjoint of (e, f), with
    # the same norm on every leading block, for any edge operators at all
    rng = rng_for(1210 + seed)
    vs = ("a", "b", "c")
    g = DirectedGraph(vs, tuple(
        (f"e{i}", vs[int(rng.integers(3))], vs[int(rng.integers(3))]) for i in range(6)
    ))
    d = 5
    rep = random_cc_rep(rng, g, dim=d)
    if arbitrary:
        rep = GraphRep(g, d, rep.proj, {
            e.eid: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for e in g.edges
        })
    residuals = [
        rep.edge_op[e.eid].conj().T @ rep.edge_op[f.eid] - (rep.proj[e.src] if e == f else 0)
        for e in g.edges for f in g.edges
    ]
    sizes = [d, 3, 1]
    corners = _corner_defects(rep, sizes)
    for k in sizes:
        want = max(op_norm(R[:k, :k]) for R in residuals)
        assert corners[k][0] == pytest.approx(want, rel=1e-12)
    assert toeplitz_defect(rep) == pytest.approx(max(map(op_norm, residuals)), rel=1e-12)


def test_ck_defect_examples():
    g = DirectedGraph(("v",), (("l", "v", "v"),))
    iso = GraphRep(g, 2, {"v": np.eye(2)}, {"l": np.array([[0.0, 0.0], [1.0, 0.0]])})
    assert ck_defect(iso) == pytest.approx(1.0, abs=1e-14)
    assert ck_defect(loop_rep(1.0)) == pytest.approx(0.0, abs=1e-14)
    assert ck_defect(zero_rep(cuntz_graph(2), 2)) == pytest.approx(1.0, abs=1e-14)


def test_ck_defect_ignores_truncated_vertices():
    g = DirectedGraph(("v",), (("l", "v", "v"),), truncated=frozenset({"v"}))
    rep = GraphRep(g, 1, {"v": np.eye(1)}, {"l": np.zeros((1, 1))})
    assert ck_defect(rep) == 0.0


def test_covariance_defect_examples():
    g = cuntz_graph(1)
    rep = GraphRep(g, 1, {"v": np.eye(1)}, {"e0": np.array([[0.3]])},
                   action=trivial_action(g),
                   unitaries={0: np.eye(1)})
    assert covariance_defect(rep) == pytest.approx(0.0, abs=1e-14)

    a = z2_loop_swap()
    zero2 = GraphRep(a.graph, 1, {"v": np.eye(1)},
                     {"e0": np.zeros((1, 1)), "e1": np.zeros((1, 1))},
                     action=a, unitaries={0: np.eye(1), 1: np.eye(1)})
    assert covariance_defect(zero2) == pytest.approx(0.0, abs=1e-14)

    lopsided = GraphRep(a.graph, 1, {"v": np.eye(1)},
                        {"e0": np.array([[1.0]]), "e1": np.zeros((1, 1))},
                        action=a, unitaries={0: np.eye(1), 1: np.eye(1)})
    assert covariance_defect(lopsided) == pytest.approx(1.0, abs=1e-14)


def test_covariance_defect_requires_action():
    with pytest.raises(ConfigurationError):
        covariance_defect(loop_rep(0.5))


def stacked_norm_peak_rep() -> GraphRep:
    """6 edges on dimension 156, the largest stage the Cuntz-Pimsner
    benchmark measures: the Z2 pair swap of the Cuntz-6 loops induced from
    a random 78-dimensional representation."""
    g = cuntz_graph(6)
    swap = np.eye(6)[[1, 0, 3, 2, 5, 4]]
    action = GaugeAction(FiniteGroup.cyclic(2), g, ({"v": "v"}, {"v": "v"}), {(1, "v", "v"): swap})
    return induced_regular_rep(random_cc_rep(rng_for(1400), g, 78), action)


def traced_peak(measure) -> int:
    tracemalloc.start()
    try:
        measure()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("measure", [
    lambda rep: _corner_defects(rep, {rep.dim, 78, 1}),
    toeplitz_defect,
    covariance_defect,
], ids=["corner-defects", "toeplitz", "covariance"])
def test_stacked_norms_stay_within_the_byte_budget(measure):
    # the residual norms are taken in stacks of at most _STACK_BYTES, so the
    # peak is a few budgets however many residuals there are, far below a
    # stack of all |E|^2 Toeplitz residuals at once
    rep = stacked_norm_peak_rep()
    assert (rep.dim, len(rep.graph.edges)) == (156, 6)
    all_pairs = 36 * rep.dim ** 2 * 16
    assert all_pairs > 12 * _STACK_BYTES
    assert traced_peak(lambda: measure(rep)) < 4 * _STACK_BYTES


# ---------------------------------------------------------------- products on leading extents

def leading(rng, n: int, rows: int, cols: int) -> np.ndarray:
    """A complex n x n matrix that is random on its leading rows x cols
    block, nonzero in its last row and column there, and zero elsewhere."""
    M = np.zeros((n, n), dtype=complex)
    M[:rows, :cols] = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    if rows and cols:
        M[rows - 1, 0] = M[0, cols - 1] = 1.0
    return M


def test_extent_is_the_last_nonzero_row_and_column():
    rng = rng_for(1410)
    n = _SUPPORT_MIN + 9
    for rows, cols in [(n, n), (n, 5), (7, n), (1, 1), (0, 0), (12, 30)]:
        assert _extent(leading(rng, n, rows, cols)) == (rows, cols)
    lone = np.zeros((n, n), dtype=complex)
    lone[4, 2] = 1e-300
    assert _extent(lone) == (5, 3)
    small = np.zeros((_SUPPORT_MIN, _SUPPORT_MIN), dtype=complex)   # no search at or below
    assert _extent(small) == small.shape
    assert _extent_bound([(3, 9), (8, 2), (5, 5)]) == (8, 9)
    assert _extent_bound([]) == (0, 0)


@pytest.mark.parametrize("seed", range(4))
def test_lead_product_is_the_product(seed):
    rng = rng_for(1420 + seed)
    n = int(rng.integers(_SUPPORT_MIN + 1, 3 * _SUPPORT_MIN))
    for _ in range(6):
        A = leading(rng, n, *(int(x) for x in rng.integers(0, n + 1, size=2)))
        B = leading(rng, n, *(int(x) for x in rng.integers(0, n + 1, size=2)))
        for adjoint, want in ((False, A @ B), (True, A.conj().T @ B)):
            got = _lead_product(A, _extent(A), B, _extent(B), adjoint=adjoint)
            assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
            rows = _extent(A)[1] if adjoint else _extent(A)[0]
            assert not got[rows:].any() and not got[:, _extent(B)[1]:].any()
        # a looser extent (the bound for a sum) gives the same product
        loose = _lead_product(A, (n, n), B, _extent(B))
        assert np.abs(loose - A @ B).max() <= 1e-13 * max(1.0, np.abs(A @ B).max())
    # full extents are the dense product itself
    A, B = leading(rng, n, n, n), leading(rng, n, n, n)
    assert np.array_equal(_lead_product(A, (n, n), B, (n, n)), A @ B)
    assert np.array_equal(_lead_product(A, (n, n), B, (n, n), adjoint=True), A.conj().T @ B)


def test_defects_above_the_support_threshold_match_dense_products():
    # a covariant stage past _SUPPORT_MIN: the Toeplitz and covariance
    # defects taken on extents equal the dense residuals' norms
    a = z2_loop_swap(mixer=True)
    rep = induced_regular_rep(random_cc_rep(rng_for(1430), a.graph, 20), a)
    step = one_step_isometric(rep)
    out = step.rep_after
    assert out.dim > _SUPPORT_MIN and _extent(out.edge_op["e0"])[1] == rep.dim
    T, P, U = out.edge_op, out.proj["v"], out.unitaries
    toeplitz = max(op_norm(T[e].conj().T @ T[f] - (P if e == f else 0)) for e in T for f in T)
    assert toeplitz_defect(out) == pytest.approx(toeplitz, rel=1e-12, abs=1e-15)
    W = a.edge_unitaries
    covariance = max(
        max(op_norm(U[g] @ T[e] - sum(W[g][k, j] * T[f] for k, f in enumerate(T)) @ U[g])
            for j, e in enumerate(T))
        for g in range(2))
    covariance = max(covariance, max(op_norm(U[g] @ P - P @ U[g]) for g in range(2)))
    assert covariance_defect(out) == pytest.approx(covariance, rel=1e-9, abs=1e-14)


# ---------------------------------------------------------------- stored data is read-only

def test_rep_keeps_read_only_copies():
    a = z2_loop_swap()
    proj = {"v": np.eye(2, dtype=complex)}
    edge_op = {"e0": 0.5 * np.eye(2, dtype=complex), "e1": np.zeros((2, 2))}
    unitaries = {0: np.eye(2, dtype=complex), 1: np.array([[0, 1], [1, 0]], dtype=complex)}
    rep = GraphRep(a.graph, 2, proj, edge_op, action=a, unitaries=unitaries)
    for stored in (rep.proj["v"], rep.edge_op["e0"], rep.edge_op["e1"], rep.unitaries[1]):
        with pytest.raises(ValueError):
            stored[0, 0] = 3.0
    # the caller's arrays stay writable, and writing them leaves rep alone
    for given in (proj["v"], edge_op["e0"], edge_op["e1"], unitaries[1]):
        assert given.flags.writeable
        given[0, 0] = 7.0
    assert rep.proj["v"][0, 0] == 1.0 and rep.edge_op["e0"][0, 0] == 0.5
    assert rep.edge_op["e1"][0, 0] == 0.0 and rep.unitaries[1][0, 0] == 0.0


def test_rep_keeps_read_only_owned_arrays_and_copies_views():
    owned = np.eye(2, dtype=complex)
    owned.setflags(write=False)
    wide = np.zeros((2, 4), dtype=complex)
    wide[:, :2] = 0.5 * np.eye(2)
    wide.setflags(write=False)
    view = wide[:, :2]
    real = np.zeros((2, 2))
    real.setflags(write=False)
    rep = GraphRep(cuntz_graph(2), 2, {"v": owned}, {"e0": view, "e1": real})
    assert rep.proj["v"] is owned
    for given in ("e0", "e1"):
        stored = rep.edge_op[given]
        assert stored.base is None and stored.dtype == complex and not stored.flags.writeable
    assert rep.edge_op["e0"] is not view and np.array_equal(rep.edge_op["e0"], view)
    assert rep.edge_op["e1"] is not real


def frozen_step_inputs() -> dict:
    """Inputs of at least 100 dims whose range fibers are small: the step's
    own working set (one factor per fiber) is a small part of its output."""
    graph, action = z3_cycle_rotation()
    return {
        "cycle4": random_cc_rep(rng_for(1420), cycle_graph(4), 120),
        "z3-induced": induced_regular_rep(random_cc_rep(rng_for(1421), graph, 40), action),
    }


@pytest.mark.parametrize("name", sorted(frozen_step_inputs()))
def test_step_output_is_built_once(name):
    # each dilated matrix and the embed are built read-only and kept as they
    # are: copying them into the new GraphRep would put the peak near twice
    # the output's matrix bytes
    rep = frozen_step_inputs()[name]
    assert rep.dim >= 100
    steps = []
    peak = traced_peak(lambda: steps.append(one_step_isometric(rep)))
    out = steps[0].rep_after
    built = [*out.proj.values(), *out.edge_op.values(), *(out.unitaries or {}).values(),
             steps[0].embed]
    assert all(M.base is None and not M.flags.writeable for M in built)
    assert peak < 1.5 * sum(M.nbytes for M in built)


def test_isometric_step_frees_its_factors():
    # one range fiber 200 columns wide: the fiber's row, defect, eigenvectors
    # and C are freed before _extend allocates the output (kept alive
    # through it, they put the peak near twice the output's matrix bytes)
    rep = random_cc_rep(rng_for(1425), cuntz_graph(2), 100)
    steps = []
    peak = traced_peak(lambda: steps.append(one_step_isometric(rep)))
    out = steps[0].rep_after
    assert out.dim > 2 * rep.dim
    assert peak < 1.5 * sum(M.nbytes for M in [*out.proj.values(), *out.edge_op.values(),
                                               steps[0].embed])


# ---------------------------------------------------------------- one exact-norm body

def one_norm_stages() -> dict:
    """Stages past _SUPPORT_MIN: coextensions of a random and of an induced
    covariant representation, and the induced one itself."""
    induced = induced_regular_rep(
        random_cc_rep(rng_for(1431), cuntz_graph(2), 20), z2_loop_swap(mixer=True))
    return {
        "coext-cuntz2-40": iterate_coextension(
            random_cc_rep(rng_for(1430), cuntz_graph(2), 40), 1).final_rep,
        "induced-z2-mixer-2x20": induced,
        "coext-induced-z2-mixer-2x20": iterate_coextension(induced, 1).final_rep,
    }


@pytest.mark.parametrize("name", sorted(one_norm_stages()))
def test_validate_lines_are_op_norms_of_their_residuals(name):
    rep = one_norm_stages()[name]
    assert rep.dim > _SUPPORT_MIN
    residuals = {}
    for check, R in _structure_residuals(rep):
        residuals.setdefault(check, []).append(R)
    lines = validate(rep).checks
    assert [line.name for line in lines] == list(residuals)
    assert any(len(rs) == 1 for rs in residuals.values())
    for line in lines:
        assert line.value == max(op_norm(R) for R in residuals[line.name]), line.name


def test_validate_on_a_dense_rep_is_the_svd_of_its_residuals():
    # a 96-dim representation whose residuals are dense: each validate value
    # is the largest whole-matrix SVD norm of its residuals, bit for bit
    rep = random_cc_rep(rng_for(1440), cycle_graph(3), 96)
    residuals = {}
    for check, R in _structure_residuals(rep):
        residuals.setdefault(check, []).append(R)
    dense = [R for rs in residuals.values() for R in rs
             if (R != 0).any(axis=0).all() and (R != 0).any(axis=1).all()]
    assert len(dense) > 10
    for line in validate(rep).checks:
        svd = [np.linalg.svd(R, compute_uv=False)[0] for R in residuals[line.name]]
        assert line.value == max(svd), line.name


def test_op_norms_are_op_norm_bit_for_bit():
    # mixed shapes on both sides of _SUPPORT_MIN, square and rectangular
    residuals = []
    for rep in one_norm_stages().values():
        for _, R in _structure_residuals(rep):
            residuals += [R, R[:_SUPPORT_MIN, :_SUPPORT_MIN], R[:_SUPPORT_MIN + 1, :], R[:, :5]]
    sides = {min(R.shape) > _SUPPORT_MIN for R in residuals}
    assert sides == {False, True}
    assert _op_norms(iter(residuals)).tolist() == [op_norm(R) for R in residuals]


def test_one_norm_of_a_residual_with_an_inf_entry_is_nan():
    rep = one_norm_stages()["induced-z2-mixer-2x20"]
    R = next(R for _, R in _structure_residuals(rep))
    inf = R.copy()
    inf[1, 2] = np.inf
    assert min(R.shape) > _SUPPORT_MIN
    assert np.isnan(op_norm(inf))
    norms = _op_norms([R, inf, R])
    assert np.isnan(norms[1]) and not np.isnan(norms[0])
    # an overflowed product in validate: its line is NaN and fails
    P = np.eye(rep.dim, dtype=complex)
    P[0, 0] = 1e200   # P @ P - P overflows there and is finite elsewhere
    with np.errstate(over="ignore", invalid="ignore"):
        line = validate(GraphRep(rep.graph, rep.dim, {"v": P}, rep.edge_op)).checks[0]
    assert line.name == "projection[v]" and np.isnan(line.value) and not line.passed


# ---------------------------------------------------------------- induced rep

def test_induced_trivial_group_is_identity():
    rep = loop_rep(0.5)
    act = trivial_action(rep.graph)
    ind = induced_regular_rep(rep, act)
    assert ind.dim == rep.dim
    assert np.array_equal(ind.edge_op["l"], rep.edge_op["l"])
    assert np.array_equal(ind.proj["v"], rep.proj["v"])
    assert np.array_equal(ind.unitaries[0], np.eye(1))


def test_induced_z2_flip_block_structure():
    a = z2_loop_swap()
    c, d = 0.3 + 0.1j, -0.2 + 0.4j
    rep = GraphRep(a.graph, 1, {"v": np.eye(1)},
                   {"e0": np.array([[c]]), "e1": np.array([[d]])})
    ind = induced_regular_rep(rep, a)
    assert ind.dim == 2
    assert np.allclose(ind.edge_op["e0"], np.diag([c, d]))
    assert np.allclose(ind.edge_op["e1"], np.diag([d, c]))
    assert np.allclose(ind.unitaries[1], np.array([[0, 1], [1, 0]]))
    assert covariance_defect(ind) <= 1e-14
    # identity corner equals the input exactly
    assert ind.edge_op["e0"][0, 0] == c


def test_induced_rep_passes_validate():
    rng = rng_for(932)
    a = z2_loop_swap(mixer=True)
    for _ in range(5):
        rep = random_cc_rep(rng, a.graph, dim=int(rng.integers(1, 5)))
        ind = induced_regular_rep(rep, a)
        assert validate(ind).passed
        assert covariance_defect(ind) <= 1e-12


def test_reinduced_rep_still_covariant():
    a = z2_loop_swap()
    rep = GraphRep(a.graph, 1, {"v": np.eye(1)},
                   {"e0": np.array([[0.5]]), "e1": np.array([[0.25]])})
    ind = induced_regular_rep(rep, a)
    ind2 = induced_regular_rep(ind, a)
    assert ind2.dim == 4
    assert covariance_defect(ind2) <= 1e-13
