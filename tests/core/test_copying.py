"""Symbols, tables and databases survive ``pickle``, ``copy`` and ``deepcopy``."""

import copy
import pickle

import pytest

from repro.core import NULL, Name, TaggedValue, Value, database, make_table
from repro.obs.lineage import Lineage, provenance, with_prov


def _copies(obj):
    return [pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)]


def _sales():
    return database(
        make_table("Sales", ["Part", "Sold"], [("nuts", 50), ("bolts", None)]),
        make_table("Sales", ["Part"], [("screws",)]),
        make_table("Regions", ["Region"], [("east",)]),
    )


@pytest.mark.parametrize(
    "obj",
    [Name("A"), Value(1), Value("east"), TaggedValue(3), _sales().tables[0], _sales()],
    ids=["Name", "Value-int", "Value-str", "TaggedValue", "Table", "TabularDatabase"],
)
def test_round_trips_to_an_equal_object(obj):
    for out in _copies(obj):
        assert type(out) is type(obj)
        assert out == obj and hash(out) == hash(obj)
        assert repr(out) == repr(obj)


def test_null_stays_the_singleton():
    for out in _copies(NULL):
        assert out is NULL


def test_copies_stay_immutable():
    for obj in (Name("A"), Value(1), TaggedValue(3)):
        for out in _copies(obj):
            with pytest.raises(AttributeError, match="immutable"):
                out.payload = 2
    table = _sales().tables[0]
    for out in _copies(table):
        with pytest.raises(AttributeError, match="immutable"):
            out._grid = ()
    for out in _copies(_sales()):
        with pytest.raises(AttributeError, match="immutable"):
            out._index = {}


def test_lineage_copies_keep_their_provenance():
    tagged = Lineage().tag_database(_sales())
    symbols = [symbol for table in tagged.tables for row in table.grid for symbol in row]
    assert {type(s).__name__ for s in symbols} >= {"_ProvName", "_ProvValue", "_ProvNull"}
    for out in _copies(tagged):
        assert out == tagged
        copied = [symbol for table in out.tables for row in table.grid for symbol in row]
        assert [type(s) for s in copied] == [type(s) for s in symbols]
        assert [provenance(s) for s in copied] == [provenance(s) for s in symbols]
    tagged_null = with_prov(NULL, frozenset({"cell"}))
    for out in _copies(tagged_null):
        assert out is not NULL and out == NULL and provenance(out) == {"cell"}
