"""The five GOOD operations and GOOD programs.

GOOD transforms object bases with five pattern-parameterized operations:

* **node addition** — per distinct restriction of an embedding to the
  designated anchor variables, add one new node (label given) with edges
  to the anchors' images;
* **edge addition** — per embedding, add the designated edge;
* **node deletion** — delete the image of a variable (with incident
  edges) for every embedding;
* **edge deletion** — delete the designated edge per embedding;
* **abstraction** — partition the images of a variable by their
  ``edge_label``-neighbor sets and add one abstraction node per class,
  with a member edge to each class member.

A :class:`GoodProgram` is a sequence of operations, executed left to
right; node additions draw identities from a fresh-value source, making
programs deterministic up to the choice of new objects — the same
determinacy discipline as tabular tagging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import EvaluationError, FreshValueSource, Name, SchemaError, Symbol
from .graph import GoodEdge, GoodNode, ObjectGraph
from .patterns import Pattern

__all__ = [
    "GoodOperation",
    "NodeAddition",
    "EdgeAddition",
    "NodeDeletion",
    "EdgeDeletion",
    "Abstraction",
    "GoodProgram",
]


class GoodOperation:
    """Abstract base of GOOD operations."""

    def apply(self, graph: ObjectGraph, fresh: FreshValueSource) -> ObjectGraph:
        raise NotImplementedError


@dataclass(frozen=True)
class NodeAddition(GoodOperation):
    """Add one ``label`` node per distinct anchor-image tuple.

    ``edges`` maps an edge label to the anchor variable the new node
    points at; the set of anchor variables is the domain of the witness
    (two embeddings with equal anchor images share one new node).
    """

    pattern: Pattern
    label: str
    edges: tuple[tuple[str, str], ...]  # (edge label, anchor variable)

    def apply(self, graph: ObjectGraph, fresh: FreshValueSource) -> ObjectGraph:
        anchors = tuple(var for (_lbl, var) in self.edges)
        for var in anchors:
            if var not in self.pattern.variables():
                raise SchemaError(f"anchor {var!r} is not a pattern variable")
        witnesses: list[tuple[Symbol, ...]] = []
        seen: set[tuple[Symbol, ...]] = set()
        for embedding in self.pattern.match(graph):
            witness = tuple(embedding[var] for var in anchors)
            if witness not in seen:
                seen.add(witness)
                witnesses.append(witness)
        new_nodes = []
        new_edges = []
        for witness in witnesses:
            node = GoodNode(fresh.fresh(), Name(self.label))
            new_nodes.append(node)
            for (edge_label, _var), target in zip(self.edges, witness):
                new_edges.append(GoodEdge(node.id, Name(edge_label), target))
        return graph.add_nodes(new_nodes).add_edges(new_edges)


@dataclass(frozen=True)
class EdgeAddition(GoodOperation):
    """Add an edge ``src -label-> dst`` per embedding."""

    pattern: Pattern
    src: str
    label: str
    dst: str

    def apply(self, graph: ObjectGraph, fresh: FreshValueSource) -> ObjectGraph:
        edges = [
            GoodEdge(e[self.src], Name(self.label), e[self.dst])
            for e in self.pattern.match(graph)
        ]
        return graph.add_edges(edges)


@dataclass(frozen=True)
class NodeDeletion(GoodOperation):
    """Delete the image of ``var`` (and incident edges) per embedding."""

    pattern: Pattern
    var: str

    def apply(self, graph: ObjectGraph, fresh: FreshValueSource) -> ObjectGraph:
        doomed = {e[self.var] for e in self.pattern.match(graph)}
        return graph.remove_nodes(doomed)


@dataclass(frozen=True)
class EdgeDeletion(GoodOperation):
    """Delete the edge ``src -label-> dst`` per embedding."""

    pattern: Pattern
    src: str
    label: str
    dst: str

    def apply(self, graph: ObjectGraph, fresh: FreshValueSource) -> ObjectGraph:
        doomed = {
            GoodEdge(e[self.src], Name(self.label), e[self.dst])
            for e in self.pattern.match(graph)
        }
        return graph.remove_edges(doomed)


@dataclass(frozen=True)
class Abstraction(GoodOperation):
    """Abstract the images of ``var`` by their ``edge_label`` neighbor sets.

    For each distinct (possibly empty) set of ``edge_label``-neighbors
    among the matched nodes, one new ``abs_label`` node appears, carrying a
    ``member_label`` edge to every node of the class.
    """

    pattern: Pattern
    var: str
    edge_label: str
    abs_label: str
    member_label: str

    def apply(self, graph: ObjectGraph, fresh: FreshValueSource) -> ObjectGraph:
        members: dict[frozenset[Symbol], list[Symbol]] = {}
        seen: set[Symbol] = set()
        for embedding in self.pattern.match(graph):
            node = embedding[self.var]
            if node in seen:
                continue
            seen.add(node)
            key = graph.neighbors(node, self.edge_label)
            members.setdefault(key, []).append(node)
        new_nodes = []
        new_edges = []
        for key in sorted(members, key=lambda k: sorted(s.sort_key() for s in k)):
            abstraction = GoodNode(fresh.fresh(), Name(self.abs_label))
            new_nodes.append(abstraction)
            for member in members[key]:
                new_edges.append(
                    GoodEdge(abstraction.id, Name(self.member_label), member)
                )
        return graph.add_nodes(new_nodes).add_edges(new_edges)


@dataclass(frozen=True)
class GoodProgram:
    """A sequence of GOOD operations."""

    operations: tuple[GoodOperation, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for operation in self.operations:
            if not isinstance(operation, GoodOperation):
                raise EvaluationError(f"not a GOOD operation: {operation!r}")

    def run(
        self, graph: ObjectGraph, fresh: FreshValueSource | None = None
    ) -> ObjectGraph:
        source = fresh if fresh is not None else FreshValueSource()
        source.advance_past(graph.symbols())
        for operation in self.operations:
            graph = operation.apply(graph, source)
        return graph

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)
