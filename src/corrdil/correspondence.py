"""The graph correspondence (X, C, phi_X): finitely supported elements over
edges (X) and vertices (C = functions on V), the C-valued inner product, the
two module actions, and the bridges from elements to the numerical core: the
gauge action on elements and the edge operator t(x) of a representation.

Finitely supported maps are the whole module for a finite graph, so no
completion is ever taken; coefficients are exact dict entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import StructureError
from .gauge import GaugeAction
from .graph import DirectedGraph
from .representation import GraphRep, _edge_sum

__all__ = [
    "CoeffElement",
    "CorrElement",
    "delta_vertex",
    "delta_edge",
    "inner_product",
    "right_action",
    "left_action",
    "act_on_element",
    "act_on_coeff",
    "apply_t",
]


def _clean(coeffs: dict) -> dict:
    return {k: complex(v) for k, v in coeffs.items() if complex(v) != 0}


@dataclass(frozen=True)
class CoeffElement:
    """Finitely supported map vertex id -> complex scalar (an element of C)."""

    graph: DirectedGraph
    coeffs: dict

    def __post_init__(self):
        coeffs = _clean(self.coeffs)
        for v in coeffs:
            self.graph.require_vertex(v)
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, v: str) -> complex:
        return self.coeffs.get(v, 0j)

    def __mul__(self, other: "CoeffElement") -> "CoeffElement":
        # the pointwise product of C = functions on V
        _same_graph(self, other)
        return CoeffElement(
            self.graph,
            {v: c * other.coeffs[v] for v, c in self.coeffs.items() if v in other.coeffs},
        )

    def star(self) -> "CoeffElement":
        return CoeffElement(self.graph, {v: c.conjugate() for v, c in self.coeffs.items()})


@dataclass(frozen=True)
class CorrElement:
    """Finitely supported map edge id -> complex scalar (an element of X)."""

    graph: DirectedGraph
    coeffs: dict

    def __post_init__(self):
        coeffs = _clean(self.coeffs)
        for e in coeffs:
            self.graph.edge(e)
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, e: str) -> complex:
        return self.coeffs.get(e, 0j)

    def __add__(self, other: "CorrElement") -> "CorrElement":
        _same_graph(self, other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0j) + c
        return CorrElement(self.graph, out)


def delta_vertex(g: DirectedGraph, v: str, scale: complex = 1.0) -> CoeffElement:
    return CoeffElement(g, {v: scale})


def delta_edge(g: DirectedGraph, e: str, scale: complex = 1.0) -> CorrElement:
    return CorrElement(g, {e: scale})


def _same_graph(a, b) -> None:
    if a.graph != b.graph:
        raise StructureError("elements live over different graphs")


def inner_product(x: CorrElement, y: CorrElement) -> CoeffElement:
    """<x, y>(v) = sum over edges e with s(e) = v of conj(x(e)) y(e)."""
    _same_graph(x, y)
    out: dict[str, complex] = {}
    for e, c in x.coeffs.items():
        if e in y.coeffs:
            v = x.graph.edge(e).src
            out[v] = out.get(v, 0j) + c.conjugate() * y.coeffs[e]
    return CoeffElement(x.graph, out)


def right_action(x: CorrElement, c: CoeffElement) -> CorrElement:
    """(x . c)(e) = x(e) c(s(e))."""
    _same_graph(x, c)
    return CorrElement(
        x.graph,
        {e: xc * c(x.graph.edge(e).src) for e, xc in x.coeffs.items()},
    )


def left_action(c: CoeffElement, x: CorrElement) -> CorrElement:
    """(phi_X(c) x)(e) = c(r(e)) x(e)."""
    _same_graph(c, x)
    return CorrElement(
        x.graph,
        {e: c(x.graph.edge(e).dst) * xc for e, xc in x.coeffs.items()},
    )


def act_on_element(a: GaugeAction, g: int, x: CorrElement) -> CorrElement:
    """alpha_g(x): W_g applied to the coefficient vector of x."""
    a.group.check_element(g)
    if x.graph != a.graph:
        raise StructureError("element lives over a different graph")
    edges = a.graph.edges
    moved = a.edge_unitaries[g] @ np.array([x(e.eid) for e in edges], dtype=complex)
    return CorrElement(a.graph, {e.eid: c for e, c in zip(edges, moved)})


def act_on_coeff(a: GaugeAction, g: int, c: CoeffElement) -> CoeffElement:
    """alpha_g(c), the pushforward along the vertex permutation."""
    a.group.check_element(g)
    if c.graph != a.graph:
        raise StructureError("element lives over a different graph")
    return CoeffElement(a.graph, {a.vertex_perm[g][v]: val for v, val in c.coeffs.items()})


def apply_t(rep: GraphRep, x: CorrElement) -> np.ndarray:
    """t(x) = sum_e x(e) edge_op(e)."""
    if x.graph != rep.graph:
        raise StructureError("correspondence element lives over a different graph")
    return _edge_sum(rep, [x(e.eid) for e in rep.graph.edges])
