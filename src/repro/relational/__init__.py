"""Relational substrate: relations, relational algebra, FO + while + new,
the tabular embedding, and the Theorem 4.1 compiler into tabular algebra."""

from .algebra import (
    ConstColumn,
    Difference,
    Expr,
    Intersection,
    Join,
    Product,
    Project,
    Rel,
    RenameAttr,
    SelectConst,
    SelectEq,
    Union,
)
from .compile_ta import TEMP_PREFIX, compile_expression, compile_program, compile_span
from .fo_while import Assign, AssignNew, AssignSetNew, FWProgram, FWStatement, WhileNotEmpty
from .relation import Relation, RelationalDatabase
from .to_tabular import (
    relation_to_table,
    relational_to_tabular,
    table_to_relation,
    tabular_to_relational,
)

__all__ = [
    "Relation",
    "RelationalDatabase",
    "Expr",
    "Rel",
    "Union",
    "Difference",
    "Intersection",
    "Product",
    "Project",
    "SelectEq",
    "SelectConst",
    "RenameAttr",
    "ConstColumn",
    "Join",
    "FWStatement",
    "Assign",
    "AssignNew",
    "AssignSetNew",
    "WhileNotEmpty",
    "FWProgram",
    "relation_to_table",
    "table_to_relation",
    "relational_to_tabular",
    "tabular_to_relational",
    "compile_program",
    "compile_expression",
    "compile_span",
    "TEMP_PREFIX",
]
