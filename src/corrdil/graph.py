"""Finite directed graphs and the combinatorial predicates the dilation
machinery needs: range fibers, parallel-edge buckets, finite receivers, and
the hyperrigidity criterion.

Edge order is the input order everywhere; it fixes every downstream basis
convention, so two graphs with the same edges in different order are
different objects on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exceptions import GraphLookupError, StructureError

__all__ = [
    "Edge",
    "DirectedGraph",
    "range_fiber",
    "edge_bucket",
    "finite_receivers",
    "satisfies_hyperrigidity_criterion",
]


@dataclass(frozen=True)
class Edge:
    eid: str
    src: str  # s(e)
    dst: str  # r(e)


@dataclass(frozen=True)
class DirectedGraph:
    """Vertices, edges with source/range maps, and optional truncation flags.

    A truncated vertex marks a spot where an infinite graph was cut: its true
    range fiber may be infinite, so it is excluded from the finite receivers
    even though the retained fiber is finite.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    truncated: frozenset[str] = frozenset()
    _edge_by_id: dict = field(init=False, repr=False, compare=False)
    _fiber: dict = field(init=False, repr=False, compare=False)
    _bucket: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vertices = tuple(str(v) for v in self.vertices)
        edges = tuple(
            e if isinstance(e, Edge) else Edge(str(e[0]), str(e[1]), str(e[2]))
            for e in self.edges
        )
        truncated = frozenset(str(v) for v in self.truncated)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "truncated", truncated)

        vset = set(vertices)
        if len(vset) != len(vertices):
            raise StructureError("duplicate vertex ids")
        edge_by_id: dict[str, Edge] = {}
        fiber: dict[str, list[str]] = {v: [] for v in vertices}
        bucket: dict[tuple[str, str], list[str]] = {}
        for e in edges:
            if e.eid in edge_by_id:
                raise StructureError(f"duplicate edge id {e.eid!r}")
            if e.src not in vset or e.dst not in vset:
                raise StructureError(f"edge {e.eid!r} references unknown vertices")
            edge_by_id[e.eid] = e
            fiber[e.dst].append(e.eid)
            bucket.setdefault((e.dst, e.src), []).append(e.eid)
        if not truncated <= vset:
            raise StructureError("truncation flag on unknown vertex")
        object.__setattr__(self, "_edge_by_id", edge_by_id)
        object.__setattr__(self, "_fiber", {v: tuple(f) for v, f in fiber.items()})
        object.__setattr__(self, "_bucket", {k: tuple(b) for k, b in bucket.items()})

    def edge(self, eid: str) -> Edge:
        try:
            return self._edge_by_id[eid]
        except KeyError:
            raise GraphLookupError(f"unknown edge {eid!r}") from None

    def require_vertex(self, v: str) -> None:
        if v not in self._fiber:
            raise GraphLookupError(f"unknown vertex {v!r}")


def range_fiber(g: DirectedGraph, v: str) -> tuple[str, ...]:
    """Edges e with r(e) = v, in input order."""
    g.require_vertex(v)
    return g._fiber[v]


def edge_bucket(g: DirectedGraph, v: str, w: str) -> tuple[str, ...]:
    """Edges e with s(e) = w and r(e) = v, in input order.

    This order is the basis of the bucket space [E(v, w)].
    """
    g.require_vertex(v)
    g.require_vertex(w)
    return g._bucket.get((v, w), ())


def finite_receivers(g: DirectedGraph) -> tuple[str, ...]:
    """Vertices with at least one (and finitely many) incoming edges.

    Every fiber of a finite graph is finite, so this is the set of vertices
    with a nonempty fiber, minus the truncation-flagged ones whose true fiber
    is unknown.
    """
    return tuple(
        v for v in g.vertices if g._fiber[v] and v not in g.truncated
    )


def satisfies_hyperrigidity_criterion(g: DirectedGraph) -> bool:
    """True iff every edge ends at a finite receiver.

    For an untruncated finite graph this always holds (each edge's range
    receives that edge); it fails exactly when some edge points into a
    truncation-flagged vertex.
    """
    fin = set(finite_receivers(g))
    return all(e.dst in fin for e in g.edges)
