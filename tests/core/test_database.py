"""Unit tests for TabularDatabase: set semantics, lookup, replacement."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    NULL,
    N,
    Name,
    SchemaError,
    Table,
    TabularDatabase,
    TaggedValue,
    V,
    database,
    make_table,
    render_database,
)
from repro.data import sales_info4


def t(name, value):
    return make_table(name, ["A"], [(value,)])


class TestSetSemantics:
    def test_duplicate_tables_collapse(self):
        db = database(t("R", 1), t("R", 1))
        assert len(db) == 1

    def test_same_name_different_tables_coexist(self):
        db = database(t("R", 1), t("R", 2))
        assert len(db) == 2
        assert len(db.tables_named("R")) == 2

    def test_salesinfo4_has_four_sales_tables(self):
        db = sales_info4()
        assert len(db.tables_named("Sales")) == 4

    def test_canonical_order_independent_of_insertion(self):
        a, b = t("R", 1), t("S", 2)
        assert database(a, b) == database(b, a)
        assert hash(database(a, b)) == hash(database(b, a))

    def test_rejects_non_tables(self):
        with pytest.raises(SchemaError):
            TabularDatabase(["not a table"])  # type: ignore[list-item]


class TestLookup:
    def test_table_unique(self):
        db = database(t("R", 1), t("S", 2))
        assert db.table("R") == t("R", 1)

    def test_table_missing(self):
        with pytest.raises(SchemaError):
            database(t("R", 1)).table("Z")

    def test_table_ambiguous(self):
        db = database(t("R", 1), t("R", 2))
        with pytest.raises(SchemaError):
            db.table("R")

    def test_table_names_and_scheme(self):
        db = database(t("R", 1), t("S", 2))
        assert db.table_names() == frozenset([N("R"), N("S")])
        assert db.scheme() == frozenset([N("R"), N("S")])

    def test_scheme_excludes_non_name_table_names(self):
        unnamed = t("R", 1).with_name(NULL)
        db = database(unnamed)
        assert db.scheme() == frozenset()
        assert NULL in db.table_names()

    def test_symbols_union(self):
        db = database(t("R", 1), t("S", 2))
        symbols = db.symbols()
        assert N("R") in symbols and N("S") in symbols
        assert N("A") in symbols

    def test_names_filters_to_name_sort(self):
        db = database(t("R", 1))
        assert all(isinstance(n, Name) for n in db.names())


class TestConstruction:
    def test_add_remove(self):
        db = database(t("R", 1))
        db2 = db.add(t("S", 2))
        assert len(db2) == 2 and len(db) == 1
        assert db2.remove(t("S", 2)) == db

    def test_without_name(self):
        db = database(t("R", 1), t("R", 2), t("S", 3))
        assert db.without_name("R").table_names() == frozenset([N("S")])

    def test_replace_named(self):
        db = database(t("R", 1), t("R", 2))
        db2 = db.replace_named("R", [t("R", 9)])
        assert db2.tables_named("R") == (t("R", 9),)

    def test_union_operator(self):
        assert database(t("R", 1)) | database(t("S", 2)) == database(t("R", 1), t("S", 2))

    def test_is_empty(self):
        assert database().is_empty()
        assert not database(t("R", 1)).is_empty()


class TestEquivalence:
    def test_equivalent_up_to_row_permutation(self):
        a = make_table("R", ["A"], [(1,), (2,)])
        b = make_table("R", ["A"], [(2,), (1,)])
        assert database(a).equivalent(database(b))

    def test_not_equivalent_with_extra_table(self):
        a = make_table("R", ["A"], [(1,)])
        assert not database(a).equivalent(database(a, t("S", 2)))

    def test_equivalent_matches_tables_injectively(self):
        a1 = make_table("R", ["A"], [(1,)])
        a2 = make_table("R", ["A"], [(2,)])
        assert not database(a1, a2).equivalent(database(a1, a1.with_entry(1, 1, a1.entry(1, 1))))


class TestExactOrder:
    """Unequal ints beyond 2**53 share a float; the order must not tie."""

    SCRIPT = (
        "import json\n"
        "from repro.core import TabularDatabase, make_table\n"
        "from repro.obs.ledger import database_digest\n"
        "ts = [make_table('A', ['X'], [(2**53,)]), make_table('A', ['X'], [(2**53 + 1,)])]\n"
        "db = TabularDatabase(ts)\n"
        "print(json.dumps([db == TabularDatabase(reversed(ts)), database_digest(db)[0]]))\n"
    )

    def test_order_and_digest_ignore_the_hash_seed(self):
        src = Path(__file__).resolve().parents[2] / "src"
        outputs = []
        for seed in ("0", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
            done = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            outputs.append(json.loads(done.stdout))
        assert all(equal for equal, _ in outputs)
        assert len({digest for _, digest in outputs}) == 1


#: Names and entries that collide: Value(1) == Value(1.0) == Value(True),
#: yet each prints differently, so which copy a database keeps shows.
CLASHING = [NULL, N("A"), N("B"), V(1), V(1.0), V(True), V(2), TaggedValue(1)]


@st.composite
def clashing_tables(draw):
    width, height = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    cells = st.sampled_from(CLASHING)
    name = draw(st.sampled_from(CLASHING[:-2]))
    first = [name] + [draw(cells) for _ in range(width)]
    rest = [[draw(cells) for _ in range(width + 1)] for _ in range(height)]
    return Table([first, *rest])


def model(tables):
    """The sorted-set construction: the first of equal tables, by sort key."""
    kept = []
    for table in tables:
        if table not in kept:
            kept.append(table)
    return sorted(kept, key=Table.sort_key)


def reprs(symbols):
    return sorted(map(repr, symbols))


def assert_models(db, expected, probes):
    """Every public read of ``db`` agrees with the model list ``expected``."""
    assert len(db.tables) == len(expected)
    assert all(got is want for got, want in zip(db.tables, expected))
    assert all(got is want for got, want in zip(db, expected))
    assert len(db) == len(expected) and db.is_empty() == (not expected)
    assert db == TabularDatabase(reversed(expected))
    assert hash(db) == hash(tuple(expected))
    names = sorted(str(table.name) for table in expected)
    assert repr(db) == f"TabularDatabase({len(expected)} tables: {', '.join(names)})"
    assert str(db) == render_database(expected)
    assert reprs(db.table_names()) == reprs(frozenset(table.name for table in expected))
    symbols = set()
    for table in expected:
        symbols |= table.symbols()
    assert reprs(db.symbols()) == reprs(symbols)
    for name in [*CLASHING, "A"]:
        key = N(name) if isinstance(name, str) else name
        named = [table for table in expected if table.name == key]
        found = db.tables_named(name)
        assert len(found) == len(named) and all(a is b for a, b in zip(found, named))
        if len(named) == 1:
            assert db.table(name) is named[0]
        else:
            with pytest.raises(SchemaError):
                db.table(name)
    for table in probes:
        assert (table in db) == (table in expected)


class TestIndexModel:
    """The name index against the sorted-set construction it replaces."""

    @settings(max_examples=150, deadline=None)
    @given(
        tables=st.lists(clashing_tables(), max_size=6),
        more=st.lists(clashing_tables(), max_size=4),
        name=st.sampled_from(CLASHING[:-2]),
    )
    def test_every_method_matches_the_model(self, tables, more, name):
        probes = tables + more
        db = TabularDatabase(tables)
        expected = model(tables)
        assert_models(db, expected, probes)
        assert_models(TabularDatabase(reversed(tables)), model(tables[::-1]), probes)
        assert TabularDatabase(reversed(tables)) == db
        assert hash(TabularDatabase(reversed(tables))) == hash(db)

        assert_models(db.add(*more), model(expected + more), probes)
        assert (db.add(*more) == db) == (model(expected + more) == expected)
        assert_models(
            db.remove(*more), [t for t in expected if t not in more], probes
        )
        unnamed = [t for t in expected if t.name != name]
        assert_models(db.without_name(name), unnamed, probes)
        assert_models(db.replace_named(name, more), model(unnamed + more), probes)
        assert_models(db | TabularDatabase(more), model(expected + model(more)), probes)
