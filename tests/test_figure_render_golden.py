"""Golden tests: the rendered figures, pinned character for character.

These protect the figure-regeneration story end to end: if any layer
(data, symbols, algebra, renderer) drifts, the printed table stops
matching the recorded form of the paper's figures.

Every figure is produced by *running a TA program* — the Figure 1
representations through an identity statement, Figure 4 through its
GROUP, Figure 5 through its MERGE — and the whole matrix is
parametrized over ``engine="naive"|"vector"``: both backends must
render the identical characters, pinning the vector plan to the paper's
artifacts.
"""

import pytest

from repro.algebra.programs.statements import Program, assign
from repro.core import Name, TabularDatabase, render_database, render_table
from repro.data import figure4_top, sales_info1, sales_info2, sales_info3, sales_info4

#: An identity statement: renaming an attribute no header mentions
#: copies each ``Sales`` table onto itself, so even the "fixture"
#: figures pass through a full engine round-trip before rendering.
IDENTITY = [assign("Sales", "RENAME", "Sales", old="__never__", new="__never__")]

ENGINES = ["naive", "vector"]

FIGURE4_TOP = """\
+-------+----------+---------+------+
| Sales | Part     | Region  | Sold |
+-------+----------+---------+------+
| ⊥     | 'nuts'   | 'east'  | 50   |
| ⊥     | 'nuts'   | 'west'  | 60   |
| ⊥     | 'nuts'   | 'south' | 40   |
| ⊥     | 'screws' | 'west'  | 50   |
| ⊥     | 'screws' | 'north' | 60   |
| ⊥     | 'screws' | 'south' | 50   |
| ⊥     | 'bolts'  | 'east'  | 70   |
| ⊥     | 'bolts'  | 'north' | 40   |
+-------+----------+---------+------+"""

SALESINFO2_BOLD = """\
+--------+----------+--------+--------+---------+---------+
| Sales  | Part     | Sold   | Sold   | Sold    | Sold    |
+--------+----------+--------+--------+---------+---------+
| Region | ⊥        | 'east' | 'west' | 'north' | 'south' |
| ⊥      | 'nuts'   | 50     | 60     | ⊥       | 40      |
| ⊥      | 'screws' | ⊥      | 50     | 60      | 50      |
| ⊥      | 'bolts'  | 70     | ⊥      | 40      | ⊥       |
+--------+----------+--------+--------+---------+---------+"""

SALESINFO3_BOLD = """\
+---------+--------+----------+---------+
| Sales   | 'nuts' | 'screws' | 'bolts' |
+---------+--------+----------+---------+
| 'east'  | 50     | ⊥        | 70      |
| 'west'  | 60     | 50       | ⊥       |
| 'north' | ⊥      | 60       | 40      |
| 'south' | 40     | 50       | ⊥       |
+---------+--------+----------+---------+"""

SALESINFO4 = """\
+--------+---------+--------+
| Sales  | Part    | Sold   |
+--------+---------+--------+
| Region | 'east'  | 'east' |
| ⊥      | 'nuts'  | 50     |
| ⊥      | 'bolts' | 70     |
+--------+---------+--------+

+--------+----------+---------+
| Sales  | Part     | Sold    |
+--------+----------+---------+
| Region | 'north'  | 'north' |
| ⊥      | 'screws' | 60      |
| ⊥      | 'bolts'  | 40      |
+--------+----------+---------+

+--------+----------+---------+
| Sales  | Part     | Sold    |
+--------+----------+---------+
| Region | 'south'  | 'south' |
| ⊥      | 'nuts'   | 40      |
| ⊥      | 'screws' | 50      |
+--------+----------+---------+

+--------+----------+--------+
| Sales  | Part     | Sold   |
+--------+----------+--------+
| Region | 'west'   | 'west' |
| ⊥      | 'nuts'   | 60     |
| ⊥      | 'screws' | 50     |
+--------+----------+--------+"""

FIGURE4_BOTTOM = """\
+--------+----------+--------+--------+---------+--------+---------+---------+--------+---------+
| Sales  | Part     | Sold   | Sold   | Sold    | Sold   | Sold    | Sold    | Sold   | Sold    |
+--------+----------+--------+--------+---------+--------+---------+---------+--------+---------+
| Region | ⊥        | 'east' | 'west' | 'south' | 'west' | 'north' | 'south' | 'east' | 'north' |
| ⊥      | 'nuts'   | 50     | ⊥      | ⊥       | ⊥      | ⊥       | ⊥       | ⊥      | ⊥       |
| ⊥      | 'nuts'   | ⊥      | 60     | ⊥       | ⊥      | ⊥       | ⊥       | ⊥      | ⊥       |
| ⊥      | 'nuts'   | ⊥      | ⊥      | 40      | ⊥      | ⊥       | ⊥       | ⊥      | ⊥       |
| ⊥      | 'screws' | ⊥      | ⊥      | ⊥       | 50     | ⊥       | ⊥       | ⊥      | ⊥       |
| ⊥      | 'screws' | ⊥      | ⊥      | ⊥       | ⊥      | 60      | ⊥       | ⊥      | ⊥       |
| ⊥      | 'screws' | ⊥      | ⊥      | ⊥       | ⊥      | ⊥       | 50      | ⊥      | ⊥       |
| ⊥      | 'bolts'  | ⊥      | ⊥      | ⊥       | ⊥      | ⊥       | ⊥       | 70     | ⊥       |
| ⊥      | 'bolts'  | ⊥      | ⊥      | ⊥       | ⊥      | ⊥       | ⊥       | ⊥      | 40      |
+--------+----------+--------+--------+---------+--------+---------+---------+--------+---------+"""

FIGURE5 = """\
+-------+----------+---------+------+
| Sales | Part     | Region  | Sold |
+-------+----------+---------+------+
| ⊥     | 'nuts'   | 'east'  | 50   |
| ⊥     | 'nuts'   | 'west'  | 60   |
| ⊥     | 'nuts'   | 'north' | ⊥    |
| ⊥     | 'nuts'   | 'south' | 40   |
| ⊥     | 'screws' | 'east'  | ⊥    |
| ⊥     | 'screws' | 'west'  | 50   |
| ⊥     | 'screws' | 'north' | 60   |
| ⊥     | 'screws' | 'south' | 50   |
| ⊥     | 'bolts'  | 'east'  | 70   |
| ⊥     | 'bolts'  | 'west'  | ⊥    |
| ⊥     | 'bolts'  | 'north' | 40   |
| ⊥     | 'bolts'  | 'south' | ⊥    |
+-------+----------+---------+------+"""

#: (id, database builder, program statements, golden).  One ``Sales``
#: output table expected unless the golden is a multi-table database
#: rendering (SalesInfo4).
CASES = [
    ("figure1-salesinfo1-figure4-top", sales_info1, IDENTITY, FIGURE4_TOP),
    ("figure1-salesinfo2", sales_info2, IDENTITY, SALESINFO2_BOLD),
    ("figure1-salesinfo3", sales_info3, IDENTITY, SALESINFO3_BOLD),
    (
        "figure4-bottom-group",
        lambda: TabularDatabase([figure4_top()]),
        [assign("Sales", "GROUP", "Sales", by="Region", on="Sold")],
        FIGURE4_BOTTOM,
    ),
    (
        "figure5-merge",
        sales_info2,
        [assign("Sales", "MERGE", "Sales", on="Sold", by="Region")],
        FIGURE5,
    ),
]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "build_db,statements,golden",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_figure_renders_golden(build_db, statements, golden, engine):
    out = Program(statements).run(build_db(), engine=engine)
    tables = out.tables_named(Name("Sales"))
    assert len(tables) == 1
    assert render_table(tables[0]) == golden


@pytest.mark.parametrize("engine", ENGINES)
def test_figure1_salesinfo4_renders_golden(engine):
    out = Program(IDENTITY).run(sales_info4(), engine=engine)
    assert render_database(out) == SALESINFO4
