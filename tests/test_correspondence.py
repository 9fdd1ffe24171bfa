"""Tests for the graph-correspondence module operations."""

from __future__ import annotations

import numpy as np
import pytest

from corrdil import (
    CoeffElement,
    CorrElement,
    DirectedGraph,
    StructureError,
    delta_edge,
    delta_vertex,
    inner_product,
    left_action,
    right_action,
)
from helpers import (
    cuntz_graph,
    random_coeff_element,
    random_corr_element,
    random_graph,
    rng_for,
)


def _coeffs_close(a: CoeffElement, b: CoeffElement, tol: float = 1e-12) -> bool:
    return all(abs(a(v) - b(v)) <= tol for v in a.graph.vertices)


def _corr_close(x: CorrElement, y: CorrElement, tol: float = 1e-12) -> bool:
    return all(abs(x(e.eid) - y(e.eid)) <= tol for e in x.graph.edges)


# ---------------------------------------------------------------- inner product

def test_inner_product_point_masses():
    g = DirectedGraph(("v", "w"), (("e", "v", "w"), ("f", "w", "w")))
    assert _coeffs_close(inner_product(delta_edge(g, "e"), delta_edge(g, "e")),
                         delta_vertex(g, "v"))
    zero = inner_product(delta_edge(g, "e"), delta_edge(g, "f"))
    assert all(zero(v) == 0 for v in g.vertices)


def test_inner_product_sesquilinear_scalars():
    g = cuntz_graph(1)
    got = inner_product(delta_edge(g, "e0", 2.0), delta_edge(g, "e0", 3.0))
    assert got("v") == pytest.approx(6.0)
    got = inner_product(delta_edge(g, "e0", 2.0j), delta_edge(g, "e0", 3.0))
    assert got("v") == pytest.approx(-6.0j)   # conjugate-linear first slot


def test_inner_product_positivity_random():
    rng = rng_for(910)
    for _ in range(25):
        g = random_graph(rng)
        x = random_corr_element(rng, g)
        gram = inner_product(x, x)
        for v in g.vertices:
            val = gram(v)
            assert abs(val.imag) <= 1e-12
            assert val.real >= -1e-12


# ---------------------------------------------------------------- actions

def test_right_action_point_masses():
    g = DirectedGraph(("v", "w"), (("e", "v", "w"),))
    assert _corr_close(right_action(delta_edge(g, "e"), delta_vertex(g, "v")),
                       delta_edge(g, "e"))
    zero = right_action(delta_edge(g, "e"), delta_vertex(g, "w"))
    assert zero("e") == 0


def test_right_action_unit():
    rng = rng_for(911)
    for _ in range(10):
        g = random_graph(rng)
        x = random_corr_element(rng, g)
        unit = CoeffElement(g, {v: 1.0 for v in g.vertices})
        assert _corr_close(right_action(x, unit), x)


def test_left_action_point_masses():
    g = DirectedGraph(("v", "w"), (("e", "v", "w"),))
    assert _corr_close(left_action(delta_vertex(g, "w"), delta_edge(g, "e")),
                       delta_edge(g, "e"))   # r(e) = w
    zero = left_action(delta_vertex(g, "v"), delta_edge(g, "e"))
    assert zero("e") == 0


def test_left_action_linear():
    rng = rng_for(912)
    for _ in range(10):
        g = random_graph(rng)
        c = random_coeff_element(rng, g)
        x = random_corr_element(rng, g)
        y = random_corr_element(rng, g)
        assert _corr_close(left_action(c, x + y),
                           left_action(c, x) + left_action(c, y))


def test_module_compatibility_random():
    # <x, y.c> = <x, y> c  and  <phi(c) x, y> = <x, phi(c*) y>
    rng = rng_for(913)
    for _ in range(20):
        g = random_graph(rng)
        x = random_corr_element(rng, g)
        y = random_corr_element(rng, g)
        c = random_coeff_element(rng, g)
        assert _coeffs_close(inner_product(x, right_action(y, c)),
                             inner_product(x, y) * c)
        assert _coeffs_close(inner_product(left_action(c, x), y),
                             inner_product(x, left_action(c.star(), y)))


# ---------------------------------------------------------------- structure

def test_cross_graph_rejected():
    g1 = cuntz_graph(1)
    g2 = cuntz_graph(2)
    with pytest.raises(StructureError):
        inner_product(delta_edge(g1, "e0"), delta_edge(g2, "e0"))


def test_unknown_ids_rejected():
    g = cuntz_graph(1)
    with pytest.raises(Exception):
        CorrElement(g, {"bogus": 1.0})
    with pytest.raises(Exception):
        CoeffElement(g, {"bogus": 1.0})
