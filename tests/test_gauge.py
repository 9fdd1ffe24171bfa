"""Tests for finite groups and generalized gauge actions."""

from __future__ import annotations

import re

import numpy as np
import pytest

import corrdil.gauge
from corrdil import (
    CheckResult,
    DirectedGraph,
    FiniteGroup,
    GaugeAction,
    StructureError,
    act_on_coeff,
    act_on_element,
    delta_edge,
    delta_vertex,
    inner_product,
    verify_action,
    verify_group,
)
from helpers import (
    LOOP5,
    cuntz_graph,
    random_corr_element,
    rng_for,
    trivial_action,
    truncated_vertex_swap,
    z2_loop_swap,
    z2_vertex_swap,
    z3_cycle_rotation,
    z3_loop_rotation,
)


# ---------------------------------------------------------------- groups

def test_verify_group_examples():
    assert verify_group(FiniteGroup.cyclic(2)).ok
    assert verify_group(FiniteGroup.trivial()).ok
    assert verify_group(FiniteGroup([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])).ok
    loop = FiniteGroup(LOOP5)
    assert (loop.identity, loop.inverse) == (0, (0, 1, 2, 3, 4))
    assert verify_group(loop) == CheckResult(False, "associativity fails")


def test_table_derives_structure():
    g = FiniteGroup([[0, 1], [1, 0]])
    assert (g.order, g.table, g.identity, g.inverse) == (2, ((0, 1), (1, 0)), 0, (0, 1))
    assert FiniteGroup(((2, 0, 1), (0, 1, 2), (1, 2, 0))).identity == 1
    assert FiniteGroup.cyclic(4).inverse == (0, 3, 2, 1)
    assert FiniteGroup([[np.int64(0)]]).table == ((0,),)
    assert FiniteGroup.cyclic(3) == FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def test_finite_group_has_one_constructor():
    assert not hasattr(FiniteGroup, "from_table")
    with pytest.raises(TypeError):
        FiniteGroup(order=1, table=((0,),), identity=0, inverse=(0,))


@pytest.mark.parametrize("table, message", [
    ("01", "multiplication table is not an array of rows"),
    ([1, 2], "table row 0 is not an array"),
    ([[0, 1], "10"], "table row 1 is not an array"),
    ([[None]], "table entry [0][0] is not an integer"),
    ([[0, 1], [1, "a"]], "table entry [1][1] is not an integer"),
    ([[0.0]], "table entry [0][0] is not an integer"),
    ([[0, 1], [1, True]], "table entry [1][1] is not an integer"),
    ([[0, 1], [1]], "multiplication table is not square"),
    ([[0, 1, 2], [1, 2, 0]], "multiplication table is not square"),
    ([[0, 1], [1, 2]], "table entry out of range"),
    ([[0, 1], [1, -1]], "table entry out of range"),
    ([], "table has no identity element"),
    ([[1, 1], [1, 1]], "table has no identity element"),
    ([[0, 1, 2], [1, 1, 1], [2, 1, 0]], "element 1 has no inverse"),
], ids=["string-table", "flat-list", "string-row", "null", "string", "float", "bool",
        "ragged", "not-square", "too-large", "negative", "empty", "no-identity", "no-inverse"])
def test_malformed_table_rejected(table, message):
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        FiniteGroup(table)


def test_group_ops():
    z3 = FiniteGroup.cyclic(3)
    assert z3.mul(1, 2) == 0
    assert z3.inv(1) == 2
    from corrdil import GraphLookupError
    with pytest.raises(GraphLookupError):
        z3.mul(1, 5)


# ---------------------------------------------------------------- actions

def test_verify_action_examples():
    g = cuntz_graph(1)
    assert verify_action(trivial_action(g)).ok

    assert verify_action(z2_loop_swap()).ok
    assert verify_action(z2_loop_swap(mixer=True)).ok
    _, act = z2_vertex_swap()
    assert verify_action(act).ok
    _, act = z3_cycle_rotation()
    assert verify_action(act).ok
    assert verify_action(z3_loop_rotation()).ok


def test_verify_action_rejects_non_unitary_bucket():
    g = cuntz_graph(2)
    group = FiniteGroup.cyclic(2)
    bad = GaugeAction(group, g, ({"v": "v"}, {"v": "v"}),
                      {(1, "v", "v"): np.array([[0.0, 2.0], [2.0, 0.0]])})
    res = verify_action(bad)
    assert not res.ok
    assert "unitary" in res.reason


def test_verify_action_rejects_overflowing_bucket_as_non_unitary():
    # U*U - I overflows to a non-finite matrix, whose norm is NaN: the
    # unitarity check must fail it, not pass it on to the homomorphism check
    bucket = np.array([[0.0, 1e200], [1.0, 0.0]])
    bad = GaugeAction(FiniteGroup.cyclic(2), cuntz_graph(2), ({"v": "v"}, {"v": "v"}),
                      {(1, "v", "v"): bucket})
    with np.errstate(over="ignore", invalid="ignore"):
        res = verify_action(bad)
    assert not res.ok
    assert res.reason == "bucket matrix (1, 'v', 'v') is not unitary"


def test_verify_action_rejects_non_homomorphic_perm():
    g = DirectedGraph(("v", "w"), ())
    group = FiniteGroup.cyclic(3)
    # order-2 swap labelled as a Z_3 action: g*g should swap back but does not
    perms = ({"v": "v", "w": "w"}, {"v": "w", "w": "v"}, {"v": "v", "w": "w"})
    bad = GaugeAction(group, g, perms, {})
    assert not verify_action(bad).ok


def test_verify_action_rejects_an_identity_bucket_that_is_not_i():
    # the swap is unitary, so only the identity-bucket check rejects it
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    act = GaugeAction(FiniteGroup.cyclic(2), cuntz_graph(2), ({"v": "v"}, {"v": "v"}),
                      {(0, "v", "v"): swap, (1, "v", "v"): np.eye(2)})
    res = verify_action(act)
    assert not res.ok
    assert res.reason == "identity bucket matrix on ('v', 'v') is not I"


def test_verify_action_rejects_non_homomorphic_buckets():
    # the vertex maps are homomorphic, but diag(1, i) squares to diag(1, -1), not I
    act = GaugeAction(FiniteGroup.cyclic(2), cuntz_graph(2), ({"v": "v"}, {"v": "v"}),
                      {(1, "v", "v"): np.diag([1.0, 1j])})
    res = verify_action(act)
    assert not res.ok
    assert res.reason == "bucket matrices fail homomorphism at (1, 1), bucket ('v', 'v')"


@pytest.mark.parametrize("truncated, reason", [
    (("v1",), "element 1 moves a truncated vertex"),
    (("v0",), "element 1 moves a truncated vertex"),
    ((), ""),
    (("v0", "v1"), ""),
], ids=["v1", "v0", "none", "both"])
def test_verify_action_keeps_the_truncated_vertices(truncated, reason):
    # a truncated vertex stands for an infinite receiver, so an automorphism
    # must map the truncated vertices onto themselves
    res = verify_action(truncated_vertex_swap(truncated))
    assert res.ok is (reason == "")
    assert res.reason == reason


SWAP_VW = {"v": "w", "w": "v"}
FIX_VW = {"v": "v", "w": "w"}


@pytest.mark.parametrize("table, perms, edges, reason", [
    (((0,),), (SWAP_VW,), (), "vertex permutations fail homomorphism at (0, 0)"),
    (((0, 1), (1, 0)), (SWAP_VW, SWAP_VW), (),
     "vertex permutations fail homomorphism at (0, 0)"),
    # the identity is element 1 here, so the first failing pair is (0, 0)
    (((1, 0), (0, 1)), (FIX_VW, SWAP_VW), (), "vertex permutations fail homomorphism at (0, 0)"),
    (((0,),), (SWAP_VW,), (("e", "v", "w"),),
     "element 0 maps bucket ('w', 'v') to one of different size"),
    (((0,),), (SWAP_VW,), (("e", "v", "w"), ("f", "w", "v")),
     "vertex permutations fail homomorphism at (0, 0)"),
], ids=["trivial", "z2-both-swap", "z2-identity-second", "one-edge", "two-cycle"])
def test_verify_action_rejects_an_identity_that_moves_a_vertex(table, perms, edges, reason):
    # pi_e = pi_e o pi_e at (e, e) forces pi_e = id for a bijection, so the
    # homomorphism (or, first, the bucket-size) check decides this case
    act = GaugeAction(FiniteGroup(table), DirectedGraph(("v", "w"), edges), perms, {})
    res = verify_action(act)
    assert not res.ok
    assert res.reason == reason


def _swap_with_element_1_buckets(matrix, truncated=("v1",)) -> GaugeAction:
    """truncated_vertex_swap with each of element 1's bucket matrices set to matrix."""
    a = truncated_vertex_swap(truncated)
    return GaugeAction(a.group, a.graph, a.vertex_perm,
                       {key: matrix for key in a.bucket_unitary if key[0] == 1})


@pytest.mark.parametrize("action, reason", [
    # a failing unitarity residual comes before the truncation check
    (_swap_with_element_1_buckets(np.array([[2.0]])),
     "bucket matrix (1, 'v1', 'v0') is not unitary"),
    # i is unitary and the truncation check fails before the homomorphism
    # check at (1, 1), where i * i = -1 is not the identity's 1
    (_swap_with_element_1_buckets(np.array([[1j]])), "element 1 moves a truncated vertex"),
    (_swap_with_element_1_buckets(np.array([[1j]]), truncated=()),
     "bucket matrices fail homomorphism at (1, 1), bucket ('v1', 'v0')"),
    (z3_loop_rotation(), ""),
], ids=["unitarity-first", "truncation-first", "homomorphism", "passing"])
def test_verify_action_norms_its_residuals_in_one_pass(monkeypatch, action, reason):
    # every residual goes through one stacked _op_norms call, and the
    # reason is still that of the first failing check in the loop order
    calls = []
    norms = corrdil.gauge._op_norms
    monkeypatch.setattr(corrdil.gauge, "_op_norms",
                        lambda residuals: calls.append(1) or norms(residuals))
    res = verify_action(action)
    assert (res.ok, res.reason) == (reason == "", reason)
    assert len(calls) == 1


def test_missing_bucket_matrix_rejected():
    g = cuntz_graph(2)
    group = FiniteGroup.cyclic(2)
    with pytest.raises(StructureError):
        GaugeAction(group, g, ({"v": "v"}, {"v": "v"}), {})


@pytest.mark.parametrize("perm", [{"v": "v"}, {"v": "v", "w": "v"}, {"v": "w", "w": "u"}],
                         ids=["partial", "not-injective", "outside"])
def test_vertex_perm_must_be_a_bijection(perm):
    g = DirectedGraph(("v", "w"), ())
    with pytest.raises(StructureError, match=re.escape("vertex_perm[1]")):
        GaugeAction(FiniteGroup.cyclic(2), g, ({"v": "v", "w": "w"}, perm), {})


def test_non_finite_bucket_matrix_rejected():
    g = cuntz_graph(2)
    with pytest.raises(StructureError, match=re.escape("bucket matrix (1, 'v', 'v')")):
        GaugeAction(FiniteGroup.cyclic(2), g, ({"v": "v"}, {"v": "v"}),
                    {(1, "v", "v"): np.array([[0.0, np.nan], [1.0, 0.0]])})


@pytest.mark.parametrize("key, message", [
    ((2, "v", "v"), "names no group element"),
    ((-1, "v", "v"), "names no group element"),
    ((1, "zz", "v"), "names no nonempty bucket"),
    ((1, "w", "w"), "names no nonempty bucket"),
], ids=["element-past-order", "negative-element", "unknown-vertex", "empty-bucket"])
def test_bucket_matrix_key_must_name_an_element_and_a_bucket(key, message):
    g = DirectedGraph(("v", "w"), (("e0", "v", "v"),))
    perms = ({"v": "v", "w": "w"},) * 2
    units = {(1, "v", "v"): np.eye(1), key: np.eye(1)}
    with pytest.raises(StructureError, match=re.escape(f"bucket matrix {key} {message}")):
        GaugeAction(FiniteGroup.cyclic(2), g, perms, units)


# ---------------------------------------------------------------- edge unitaries

def test_edge_unitaries_place_bucket_matrices():
    a = z2_loop_swap(mixer=True)
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert np.array_equal(a.edge_unitaries[0], np.eye(2))
    assert np.array_equal(a.edge_unitaries[1], H)
    graph, swap = z2_vertex_swap()              # e0: v0 -> v1, e1: v1 -> v0
    assert np.array_equal(swap.edge_unitaries[1], np.array([[0, 1], [1, 0]]))


def test_edge_unitaries_match_bucket_action():
    # W_g delta_e is alpha_g(delta_e), read off bucket by bucket
    graph, a = z3_cycle_rotation()
    for g in range(a.group.order):
        W = a.edge_unitaries[g]
        assert np.allclose(W.conj().T @ W, np.eye(len(graph.edges)))
        for j, e in enumerate(graph.edges):
            v, w = a.perm_vertex(g, e.dst), a.perm_vertex(g, e.src)
            (f,) = [i for i, x in enumerate(graph.edges) if (x.dst, x.src) == (v, w)]
            assert W[f, j] == 1.0 and np.count_nonzero(W[:, j]) == 1


def test_edge_unitaries_derived_and_read_only():
    a = z2_loop_swap()
    assert a.edge_unitaries is a.edge_unitaries
    with pytest.raises(ValueError):
        a.edge_unitaries[1][0, 0] = 5.0
    with pytest.raises(AttributeError):
        a.edge_unitaries = ()


def test_edge_unitaries_reject_wrong_shape_lazily():
    # construction succeeds so that verify_action can report the shape
    g = cuntz_graph(2)
    bad = GaugeAction(FiniteGroup.cyclic(2), g, ({"v": "v"}, {"v": "v"}),
                      {(1, "v", "v"): np.array([[1.0]])})
    assert "wrong shape" in verify_action(bad).reason
    with pytest.raises(StructureError, match=re.escape("has shape (1, 1), expected (2, 2)")):
        bad.edge_unitaries
    with pytest.raises(StructureError):
        act_on_element(bad, 1, delta_edge(g, "e0"))


# ---------------------------------------------------------------- applying

def test_act_on_element_identity_and_flip():
    a = z2_loop_swap()
    g = a.graph
    x = delta_edge(g, "e0")
    assert act_on_element(a, 0, x)("e0") == pytest.approx(1.0)
    flipped = act_on_element(a, 1, x)
    assert flipped("e1") == pytest.approx(1.0)
    assert flipped("e0") == 0


def test_act_on_coeff_swap():
    graph, a = z2_vertex_swap()
    c = delta_vertex(graph, "v0")
    assert act_on_coeff(a, 1, c)("v1") == pytest.approx(1.0)
    assert act_on_coeff(a, 0, c)("v0") == pytest.approx(1.0)


def test_inner_product_equivariance():
    # <alpha_g x, alpha_g y> = alpha_g <x, y>
    rng = rng_for(920)
    setups = [z2_loop_swap(), z2_loop_swap(mixer=True),
              z2_vertex_swap()[1], z3_cycle_rotation()[1], z3_loop_rotation()]
    for a in setups:
        for gi in range(a.group.order):
            for _ in range(5):
                x = random_corr_element(rng, a.graph)
                y = random_corr_element(rng, a.graph)
                lhs = inner_product(act_on_element(a, gi, x), act_on_element(a, gi, y))
                rhs = act_on_coeff(a, gi, inner_product(x, y))
                assert all(abs(lhs(v) - rhs(v)) <= 1e-10 for v in a.graph.vertices)


def test_action_homomorphism_on_elements():
    rng = rng_for(921)
    for a in (z2_loop_swap(mixer=True), z3_loop_rotation(), z3_cycle_rotation()[1]):
        for g1 in range(a.group.order):
            for g2 in range(a.group.order):
                x = random_corr_element(rng, a.graph)
                lhs = act_on_element(a, g1, act_on_element(a, g2, x))
                rhs = act_on_element(a, a.group.mul(g1, g2), x)
                assert all(abs(lhs(e.eid) - rhs(e.eid)) <= 1e-10 for e in a.graph.edges)


def test_act_on_coeff_multiplicative():
    graph, a = z2_vertex_swap()
    c = delta_vertex(graph, "v0")
    lhs = act_on_coeff(a, 1, c * c)
    rhs = act_on_coeff(a, 1, c) * act_on_coeff(a, 1, c)
    assert all(abs(lhs(v) - rhs(v)) <= 1e-12 for v in graph.vertices)
