"""Embedding object graphs into the tabular model (paper, contribution 4).

A GOOD object base encodes as two relation-style tables::

    Nodes(Id, Label, Val)     Edges(Src, Lab, Dst)

— names in the label columns, ⊥ in ``Val`` for abstract objects.  The
encoding is lossless (``decode_graph(encode_graph(g)) == g``), and graph
isomorphism up to new-object identities reduces to tabular database
isomorphism of the encodings, which is how the simulation tests compare
GOOD runs with their tabular algebra counterparts.
"""

from __future__ import annotations

from ..core import Name, SchemaError, Symbol, TabularDatabase
from ..relational import Relation, RelationalDatabase, relational_to_tabular, tabular_to_relational
from ..transform import are_isomorphic
from .graph import GoodEdge, GoodNode, ObjectGraph

__all__ = [
    "NODES_SCHEMA",
    "EDGES_SCHEMA",
    "encode_graph",
    "decode_graph",
    "graphs_isomorphic",
]

NODES_SCHEMA = ("Id", "Label", "Val")
EDGES_SCHEMA = ("Src", "Lab", "Dst")


def encode_graph(graph: ObjectGraph) -> TabularDatabase:
    """The tabular encoding of an object graph."""
    nodes = Relation(
        "Nodes", NODES_SCHEMA, ((n.id, n.label, n.value) for n in graph.nodes)
    )
    edges = Relation(
        "Edges", EDGES_SCHEMA, ((e.src, e.label, e.dst) for e in graph.edges)
    )
    return relational_to_tabular(RelationalDatabase([nodes, edges]))


def decode_graph(db: TabularDatabase) -> ObjectGraph:
    """Rebuild an object graph from its tabular encoding."""
    reldb = tabular_to_relational(
        TabularDatabase(
            [t for t in db.tables if t.name in (Name("Nodes"), Name("Edges"))]
        )
    )
    nodes_rel = reldb.relation("Nodes")
    edges_rel = reldb.relation("Edges")
    if nodes_rel.schema != NODES_SCHEMA or edges_rel.schema != EDGES_SCHEMA:
        raise SchemaError("encoding tables do not carry the Nodes/Edges schemas")
    nodes = []
    for (node_id, label, value) in nodes_rel:
        if not isinstance(label, Name):
            raise SchemaError(f"node label {label!s} is not a name")
        nodes.append(GoodNode(node_id, label, value))
    edges = []
    for (src, label, dst) in edges_rel:
        if not isinstance(label, Name):
            raise SchemaError(f"edge label {label!s} is not a name")
        edges.append(GoodEdge(src, label, dst))
    return ObjectGraph(nodes, edges)


def graphs_isomorphic(
    left: ObjectGraph,
    right: ObjectGraph,
    fixed: frozenset[Symbol] | set[Symbol] = frozenset(),
    limit: int = 12,
) -> bool:
    """Graph isomorphism up to renaming of non-fixed (new) object ids.

    Reduces to tabular database isomorphism of the encodings, so the
    comparison discipline matches the transformation theory exactly.
    """
    return are_isomorphic(
        encode_graph(left), encode_graph(right), fixed=frozenset(fixed), limit=limit
    )
