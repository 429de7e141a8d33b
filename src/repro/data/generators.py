"""Synthetic workload generators for tests and benchmarks.

All generators are deterministic given their ``seed``, so benchmark runs
and property tests are reproducible.  They produce data in the shape of the
paper's examples: relation-style fact tables (à la ``SalesInfo1``),
grouped/pivoted tables (à la ``SalesInfo2``), and random "wild" tables that
exercise the model's full latitude (repeated attributes, ⊥ attributes,
names in data positions).
"""

from __future__ import annotations

import random
from typing import Sequence

from ..core import NULL, N, Symbol, Table, TabularDatabase, V, make_table

__all__ = [
    "synthetic_sales_facts",
    "synthetic_sales_table",
    "synthetic_grouped_table",
    "random_table",
    "random_database",
]


def synthetic_sales_facts(
    n_parts: int, n_regions: int, density: float = 0.7, seed: int = 0
) -> list[tuple[str, str, int]]:
    """Random (part, region, sold) facts; each pair kept with ``density``.

    At least one fact per part is guaranteed so every part appears.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = random.Random(seed)
    parts = [f"part{i}" for i in range(n_parts)]
    regions = [f"region{j}" for j in range(n_regions)]
    facts: list[tuple[str, str, int]] = []
    for part in parts:
        chosen = [r for r in regions if rng.random() < density]
        if not chosen:
            chosen = [rng.choice(regions)]
        for region in chosen:
            facts.append((part, region, rng.randrange(10, 1000)))
    return facts


def synthetic_sales_table(
    n_parts: int, n_regions: int, density: float = 0.7, seed: int = 0
) -> Table:
    """A relation-style ``Sales(Part, Region, Sold)`` table of random facts."""
    facts = synthetic_sales_facts(n_parts, n_regions, density, seed)
    return make_table("Sales", ["Part", "Region", "Sold"], facts)


def synthetic_grouped_table(
    n_parts: int, n_regions: int, density: float = 0.7, seed: int = 0
) -> Table:
    """A pivoted sales table in the ``SalesInfo2`` shape (one column per region)."""
    facts = synthetic_sales_facts(n_parts, n_regions, density, seed)
    regions = sorted({r for (_, r, _) in facts})
    parts = sorted({p for (p, _, _) in facts})
    sold = {(p, r): s for (p, r, s) in facts}
    header = [N("Sales"), N("Part")] + [N("Sold")] * len(regions)
    region_row = [N("Region"), NULL] + [V(r) for r in regions]
    grid = [header, region_row]
    for part in parts:
        row: list[Symbol] = [NULL, V(part)]
        for region in regions:
            value = sold.get((part, region))
            row.append(NULL if value is None else V(value))
        grid.append(row)
    return Table(grid)


def random_table(
    height: int,
    width: int,
    seed: int = 0,
    name: str = "T",
    null_rate: float = 0.15,
    attribute_pool: Sequence[str] = ("A", "B", "C", "D"),
    value_pool_size: int = 20,
    names_in_data: bool = True,
) -> Table:
    """A random table exercising the model's full latitude.

    Column attributes are drawn (with repetition) from ``attribute_pool``
    and may be ⊥; row attributes are mostly ⊥ with occasional names; data
    entries are values, nulls, and — when ``names_in_data`` — occasional
    names, since the model allows names in data positions.
    """
    rng = random.Random(seed)
    values = [V(f"v{i}") for i in range(value_pool_size)]

    def random_attr() -> Symbol:
        if rng.random() < 0.1:
            return NULL
        return N(rng.choice(list(attribute_pool)))

    def random_entry() -> Symbol:
        roll = rng.random()
        if roll < null_rate:
            return NULL
        if names_in_data and roll < null_rate + 0.05:
            return N(rng.choice(list(attribute_pool)))
        return rng.choice(values)

    header: list[Symbol] = [N(name)] + [random_attr() for _ in range(width)]
    grid = [header]
    for _ in range(height):
        row_attr: Symbol = NULL if rng.random() < 0.8 else N(rng.choice(list(attribute_pool)))
        grid.append([row_attr] + [random_entry() for _ in range(width)])
    return Table(grid)


def random_database(
    n_tables: int, height: int = 4, width: int = 3, seed: int = 0
) -> TabularDatabase:
    """A random database of ``n_tables`` random tables (names may repeat)."""
    rng = random.Random(seed)
    names = ["R", "S", "T"]
    tables = [
        random_table(
            height=rng.randrange(1, height + 1),
            width=rng.randrange(1, width + 1),
            seed=rng.randrange(10**9),
            name=rng.choice(names),
        )
        for _ in range(n_tables)
    ]
    return TabularDatabase(tables)
