"""Object graphs — the data model of GOOD [9].

GOOD (the Graph-Oriented Object Database model of Gyssens, Paredaens, and
Van Gucht) represents an object base as a directed labelled graph: nodes
are objects (carrying a label and, for *printable* objects, a value) and
edges are labelled object properties.  The paper (contribution 4) states
that GOOD embeds in the tabular model; this package realizes the model,
its five pattern-based operations, the tabular encoding, and the tabular
algebra simulation of the additive/deletive fragment.

Node identities are symbols; abstract objects typically use tagged values
(object ids), printable ones any value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core import (
    NULL,
    Name,
    SchemaError,
    Symbol,
    coerce_symbol,
)

__all__ = ["GoodNode", "GoodEdge", "ObjectGraph"]


@dataclass(frozen=True)
class GoodNode:
    """A node: identity, label, and an optional printable value."""

    id: Symbol
    label: Name
    value: Symbol = NULL

    @staticmethod
    def make(id: object, label: str, value: object = None) -> "GoodNode":
        return GoodNode(coerce_symbol(id), Name(label), coerce_symbol(value))

    @property
    def printable(self) -> bool:
        return not self.value.is_null

    def __str__(self) -> str:
        suffix = f"={self.value!s}" if self.printable else ""
        return f"{self.id!s}:{self.label!s}{suffix}"


@dataclass(frozen=True)
class GoodEdge:
    """A directed labelled edge between node identities."""

    src: Symbol
    label: Name
    dst: Symbol

    @staticmethod
    def make(src: object, label: str, dst: object) -> "GoodEdge":
        return GoodEdge(coerce_symbol(src), Name(label), coerce_symbol(dst))

    def __str__(self) -> str:
        return f"{self.src!s} -{self.label!s}-> {self.dst!s}"


class ObjectGraph:
    """An immutable labelled object graph.

    Construction validates referential integrity (edges connect existing
    nodes) and identity uniqueness (one node per id).
    """

    __slots__ = ("nodes", "edges", "_by_id")

    def __init__(self, nodes: Iterable[GoodNode] = (), edges: Iterable[GoodEdge] = ()):
        node_set = frozenset(nodes)
        by_id: dict[Symbol, GoodNode] = {}
        for node in node_set:
            if node.id in by_id:
                raise SchemaError(f"duplicate node id {node.id!s}")
            by_id[node.id] = node
        edge_set = frozenset(edges)
        for edge in edge_set:
            if edge.src not in by_id or edge.dst not in by_id:
                raise SchemaError(f"dangling edge {edge}")
        object.__setattr__(self, "nodes", node_set)
        object.__setattr__(self, "edges", edge_set)
        object.__setattr__(self, "_by_id", by_id)

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("ObjectGraph is immutable")

    # -- inspection -------------------------------------------------------

    def node(self, id: object) -> GoodNode:
        symbol = coerce_symbol(id)
        if symbol not in self._by_id:
            raise SchemaError(f"no node with id {symbol!s}")
        return self._by_id[symbol]

    def has_node(self, id: object) -> bool:
        return coerce_symbol(id) in self._by_id

    def nodes_labelled(self, label: str) -> frozenset[GoodNode]:
        wanted = Name(label)
        return frozenset(n for n in self.nodes if n.label == wanted)

    def edges_labelled(self, label: str) -> frozenset[GoodEdge]:
        wanted = Name(label)
        return frozenset(e for e in self.edges if e.label == wanted)

    def out_edges(self, id: object) -> frozenset[GoodEdge]:
        symbol = coerce_symbol(id)
        return frozenset(e for e in self.edges if e.src == symbol)

    def neighbors(self, id: object, label: str) -> frozenset[Symbol]:
        symbol = coerce_symbol(id)
        wanted = Name(label)
        return frozenset(
            e.dst for e in self.edges if e.src == symbol and e.label == wanted
        )

    def labels(self) -> frozenset[Name]:
        return frozenset(n.label for n in self.nodes)

    def symbols(self) -> frozenset[Symbol]:
        out: set[Symbol] = set()
        for node in self.nodes:
            out |= {node.id, node.label, node.value}
        for edge in self.edges:
            out |= {edge.src, edge.label, edge.dst}
        return frozenset(out - {NULL})

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[GoodNode]:
        return iter(sorted(self.nodes, key=lambda n: n.id.sort_key()))

    # -- construction -------------------------------------------------------

    def add_nodes(self, nodes: Iterable[GoodNode]) -> "ObjectGraph":
        return ObjectGraph(self.nodes | frozenset(nodes), self.edges)

    def add_edges(self, edges: Iterable[GoodEdge]) -> "ObjectGraph":
        return ObjectGraph(self.nodes, self.edges | frozenset(edges))

    def remove_nodes(self, ids: Iterable[object]) -> "ObjectGraph":
        """Remove nodes and every incident edge."""
        drop = {coerce_symbol(i) for i in ids}
        return ObjectGraph(
            (n for n in self.nodes if n.id not in drop),
            (e for e in self.edges if e.src not in drop and e.dst not in drop),
        )

    def remove_edges(self, edges: Iterable[GoodEdge]) -> "ObjectGraph":
        drop = frozenset(edges)
        return ObjectGraph(self.nodes, self.edges - drop)

    # -- equality -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ObjectGraph)
            and other.nodes == self.nodes
            and other.edges == self.edges
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    def __repr__(self) -> str:
        return f"ObjectGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"
