"""Simulating GOOD programs in the tabular algebra (paper, contribution 4).

The additive/deletive fragment — node addition, edge addition, node
deletion, edge deletion — compiles through FO + while + new over the
``Nodes``/``Edges`` encoding and then through the Theorem 4.1 compiler
into tabular algebra.  Pattern matching is a conjunctive query (one
renamed copy of ``Nodes`` per variable and of ``Edges`` per pattern edge);
node addition's one-object-per-witness semantics is exactly the *new*
construct over the deduplicated witness relation.

Abstraction — one object per *neighbor-set class* — needs the power-set
machinery, exactly what SETNEW (Section 3.5) exists for.  The compiled
construction: enumerate all non-empty subsets of the candidate-neighbor
domain with SETNEW (each subset tagged with a fresh value), keep the
(node, tag) pairs whose neighbor set equals the tag's subset (two
difference-based "no missing member / no extra neighbor" checks), give
the empty class its own fresh tag, and use the surviving tags as the new
abstraction objects.  Exponential by design (2^|domain| subsets), so the
simulation only runs on small neighbor domains — the tabular SETNEW
guard enforces that at runtime.
"""

from __future__ import annotations

from ..core import EvaluationError
from ..algebra.programs import Program
from ..relational import (
    Assign,
    AssignNew,
    AssignSetNew,
    ConstColumn,
    Difference,
    Expr,
    FWProgram,
    Join,
    Product,
    Project,
    Rel,
    RenameAttr,
    SelectConst,
    SelectEq,
    Union,
    compile_program as compile_fw_to_ta,
    compile_span,
)
from .embed import EDGES_SCHEMA, NODES_SCHEMA
from .operations import (
    Abstraction,
    EdgeAddition,
    EdgeDeletion,
    GoodOperation,
    GoodProgram,
    NodeAddition,
    NodeDeletion,
)
from .patterns import Pattern

__all__ = ["pattern_to_expression", "compile_to_fw", "compile_to_ta", "GOOD_SCHEMAS"]

#: Compile-time schemas of the encoding.
GOOD_SCHEMAS = {"Nodes": NODES_SCHEMA, "Edges": EDGES_SCHEMA}


def _id_col(var: str) -> str:
    return f"I_{var}"


def pattern_to_expression(pattern: Pattern) -> Expr:
    """The conjunctive query computing all embeddings of ``pattern``.

    Output schema: one ``I_<var>`` column per pattern variable.
    """
    expr: Expr | None = None
    for node in pattern.nodes:
        copy: Expr = Rel("Nodes")
        copy = RenameAttr(copy, "Id", _id_col(node.var))
        copy = RenameAttr(copy, "Label", f"L_{node.var}")
        copy = RenameAttr(copy, "Val", f"V_{node.var}")
        copy = SelectConst(copy, f"L_{node.var}", node.label)
        if not node.value.is_null:
            copy = SelectConst(copy, f"V_{node.var}", node.value)
        expr = copy if expr is None else Product(expr, copy)
    assert expr is not None  # patterns have at least one node
    for index, edge in enumerate(pattern.edges):
        copy = Rel("Edges")
        copy = RenameAttr(copy, "Src", f"S_{index}")
        copy = RenameAttr(copy, "Lab", f"E_{index}")
        copy = RenameAttr(copy, "Dst", f"D_{index}")
        copy = SelectConst(copy, f"E_{index}", edge.label)
        expr = Product(expr, copy)
        expr = SelectEq(expr, f"S_{index}", _id_col(edge.src))
        expr = SelectEq(expr, f"D_{index}", _id_col(edge.dst))
    return Project(expr, [_id_col(v) for v in pattern.variables()])


def _pair_expr(pattern: Pattern, src: str, dst: str) -> Expr:
    """(src image, dst image) pairs as a (Src, Dst) relation."""
    embeddings = pattern_to_expression(pattern)
    if src == dst:
        # duplicate the column through a self-join
        renamed = RenameAttr(
            Project(embeddings, [_id_col(src)]), _id_col(src), "__dup"
        )
        paired = SelectEq(Product(embeddings, renamed), _id_col(src), "__dup")
        projected = Project(paired, [_id_col(src), "__dup"])
        return RenameAttr(RenameAttr(projected, _id_col(src), "Src"), "__dup", "Dst")
    projected = Project(embeddings, [_id_col(src), _id_col(dst)])
    return RenameAttr(RenameAttr(projected, _id_col(src), "Src"), _id_col(dst), "Dst")


def _edge_triple(pattern: Pattern, src: str, label: str, dst: str) -> Expr:
    """(Src, Lab, Dst) triples for an edge addition/deletion."""
    pairs = _pair_expr(pattern, src, dst)
    extended = ConstColumn(pairs, "Lab", _label_name(label))
    return Project(extended, EDGES_SCHEMA)


def _label_name(label: str):
    from ..core import Name

    return Name(label)


class _Emitter:
    def __init__(self):
        self.statements: list = []
        self.counter = 0

    def temp(self) -> str:
        self.counter += 1
        return f"__good{self.counter}"

    def compile_operation(self, operation: GoodOperation) -> None:
        if isinstance(operation, EdgeAddition):
            triples = _edge_triple(
                operation.pattern, operation.src, operation.label, operation.dst
            )
            self.statements.append(Assign("Edges", Union(Rel("Edges"), triples)))
        elif isinstance(operation, EdgeDeletion):
            triples = _edge_triple(
                operation.pattern, operation.src, operation.label, operation.dst
            )
            self.statements.append(Assign("Edges", Difference(Rel("Edges"), triples)))
        elif isinstance(operation, NodeDeletion):
            doomed = self.temp()
            ids = Project(
                pattern_to_expression(operation.pattern), [_id_col(operation.var)]
            )
            self.statements.append(
                Assign(doomed, RenameAttr(ids, _id_col(operation.var), "__gone"))
            )
            self.statements.append(
                Assign(
                    "Nodes",
                    Difference(
                        Rel("Nodes"),
                        Project(
                            Join(Rel("Nodes"), RenameAttr(Rel(doomed), "__gone", "Id")),
                            NODES_SCHEMA,
                        ),
                    ),
                )
            )
            for endpoint in ("Src", "Dst"):
                self.statements.append(
                    Assign(
                        "Edges",
                        Difference(
                            Rel("Edges"),
                            Project(
                                Join(
                                    Rel("Edges"),
                                    RenameAttr(Rel(doomed), "__gone", endpoint),
                                ),
                                EDGES_SCHEMA,
                            ),
                        ),
                    )
                )
        elif isinstance(operation, NodeAddition):
            anchors = [var for (_lbl, var) in operation.edges]
            embeddings = pattern_to_expression(operation.pattern)
            witnesses = self.temp()
            anchor_cols = []
            used: set[str] = set()
            witness_expr: Expr = embeddings
            for var in anchors:
                column = _id_col(var)
                if column in used:
                    # same anchor twice: duplicate through a self-join
                    dup = f"__a{len(anchor_cols)}"
                    copy = RenameAttr(Project(witness_expr, [column]), column, dup)
                    witness_expr = SelectEq(Product(witness_expr, copy), column, dup)
                    column = dup
                used.add(column)
                anchor_cols.append(column)
            witness_expr = Project(witness_expr, anchor_cols)
            self.statements.append(Assign(witnesses, witness_expr))
            tagged = self.temp()
            self.statements.append(AssignNew(tagged, Rel(witnesses), "__new"))
            new_nodes = ConstColumn(
                RenameAttr(Project(Rel(tagged), ["__new"]), "__new", "Id"),
                "Label",
                _label_name(operation.label),
            )
            new_nodes = ConstColumn(new_nodes, "Val", None)
            self.statements.append(
                Assign("Nodes", Union(Rel("Nodes"), Project(new_nodes, NODES_SCHEMA)))
            )
            for (edge_label, _var), column in zip(operation.edges, anchor_cols):
                pairs = Project(Rel(tagged), ["__new", column])
                pairs = RenameAttr(RenameAttr(pairs, "__new", "Src"), column, "Dst")
                triples = Project(
                    ConstColumn(pairs, "Lab", _label_name(edge_label)), EDGES_SCHEMA
                )
                self.statements.append(Assign("Edges", Union(Rel("Edges"), triples)))
        elif isinstance(operation, Abstraction):
            self._compile_abstraction(operation)
        else:
            raise EvaluationError(f"cannot compile GOOD operation {operation!r}")


    def _compile_abstraction(self, operation: Abstraction) -> None:
        """The SETNEW construction for abstraction (module docstring)."""
        label = _label_name(operation.edge_label)
        id_col = _id_col(operation.var)

        # X: matched node ids (one column, "N")
        matched = self.temp()
        self.statements.append(
            Assign(
                matched,
                RenameAttr(
                    Project(pattern_to_expression(operation.pattern), [id_col]),
                    id_col,
                    "N",
                ),
            )
        )
        # XE: (N, Dst) — matched node x its edge_label-neighbor
        alpha = Project(
            RenameAttr(SelectConst(Rel("Edges"), "Lab", label), "Src", "N"),
            ["N", "Dst"],
        )
        neighbor_pairs = self.temp()
        self.statements.append(
            Assign(neighbor_pairs, Project(Join(Rel(matched), alpha), ["N", "Dst"]))
        )
        # S: (Dst, Tag) — every non-empty subset of the neighbor domain
        subsets = self.temp()
        self.statements.append(
            AssignSetNew(subsets, Project(Rel(neighbor_pairs), ["Dst"]), "Tag")
        )
        tags = Project(Rel(subsets), ["Tag"])
        touched = Project(Rel(neighbor_pairs), ["N"])
        # triples with edge(N, Dst) and Dst in Tag — the compatible core
        compatible = Project(
            Join(Rel(neighbor_pairs), Rel(subsets)), ["N", "Dst", "Tag"]
        )
        # bad1: some member of Tag is not a neighbor of N
        bad1 = Project(
            Difference(
                Project(Product(touched, Rel(subsets)), ["N", "Dst", "Tag"]),
                compatible,
            ),
            ["N", "Tag"],
        )
        # bad2: some neighbor of N is not in Tag
        bad2 = Project(
            Difference(
                Project(Product(Rel(neighbor_pairs), tags), ["N", "Dst", "Tag"]),
                compatible,
            ),
            ["N", "Tag"],
        )
        good = self.temp()
        self.statements.append(
            Assign(
                good,
                Difference(
                    Difference(Project(Product(touched, tags), ["N", "Tag"]), bad1),
                    bad2,
                ),
            )
        )
        # nodes with an empty neighbor set share one fresh tag
        isolated = self.temp()
        self.statements.append(
            Assign(isolated, Difference(Rel(matched), touched))
        )
        empty_tag = self.temp()
        self.statements.append(
            AssignNew(empty_tag, Project(Rel(isolated), []), "Tag")
        )
        pairs = self.temp()
        self.statements.append(
            Assign(
                pairs,
                Union(
                    Rel(good),
                    Project(Product(Rel(isolated), Rel(empty_tag)), ["N", "Tag"]),
                ),
            )
        )
        # new abstraction objects and their member edges
        new_nodes = ConstColumn(
            RenameAttr(Project(Rel(pairs), ["Tag"]), "Tag", "Id"),
            "Label",
            _label_name(operation.abs_label),
        )
        new_nodes = ConstColumn(new_nodes, "Val", None)
        self.statements.append(
            Assign("Nodes", Union(Rel("Nodes"), Project(new_nodes, NODES_SCHEMA)))
        )
        member_edges = RenameAttr(
            RenameAttr(Project(Rel(pairs), ["Tag", "N"]), "Tag", "Src"), "N", "Dst"
        )
        member_edges = Project(
            ConstColumn(member_edges, "Lab", _label_name(operation.member_label)),
            EDGES_SCHEMA,
        )
        self.statements.append(Assign("Edges", Union(Rel("Edges"), member_edges)))


def compile_to_fw(program: GoodProgram) -> FWProgram:
    """Compile a GOOD program (sans abstraction) into FO + while + new."""
    with compile_span(
        "compile.good", lambda: {"operations": len(program.operations)}
    ) as boundary:
        emitter = _Emitter()
        for operation in program:
            emitter.compile_operation(operation)
        if boundary is not None:
            boundary.set(fw_statements=len(emitter.statements))
        return FWProgram(emitter.statements)


def compile_to_ta(program: GoodProgram) -> Program:
    """The tabular algebra simulation of a GOOD program.

    Run it on :func:`repro.good.embed.encode_graph`'s output; decode the
    resulting ``Nodes``/``Edges`` tables with
    :func:`repro.good.embed.decode_graph`.
    """
    return compile_fw_to_ta(compile_to_fw(program), GOOD_SCHEMAS)
