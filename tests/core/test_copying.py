"""Symbols, tables and databases survive ``pickle``, ``copy`` and ``deepcopy``."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

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


def _under_seed(seed, script, stdin=None):
    """``script``'s standard output, run in a fresh interpreter under
    ``PYTHONHASHSEED=seed``."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, input=stdin, capture_output=True, timeout=300, check=True,
    )
    return done.stdout


class TestHashSeed:
    """A Value hashes its payload, and a ``str`` hashes differently under
    each hash seed, so set and dict iteration order follows the seed.
    Results and unpickled lookups must not."""

    RUN = (
        "import json\n"
        "from repro.engine import run_program\n"
        "from repro.obs.examples import EXAMPLES\n"
        "from repro.obs.ledger import database_digest\n"
        "from repro.runtime.workloads import resolve_workload\n"
        "specs = [name for name in sorted(EXAMPLES) if EXAMPLES[name].build]\n"
        "specs += ['tc:16', 'chain:8', 'restructure:80']\n"
        "digests = {}\n"
        "for spec in specs:\n"
        "    _, program, db = resolve_workload(spec)\n"
        "    for optimize in (False, True):\n"
        "        result = run_program(program, db, optimize=optimize)\n"
        "        digests[f'{spec} optimize={optimize}'] = database_digest(result)[0]\n"
        "print(json.dumps(digests))\n"
    )

    def test_every_run_ignores_the_hash_seed(self):
        first, second = (json.loads(_under_seed(seed, self.RUN)) for seed in ("0", "1"))
        assert first and first == second

    DUMP = (
        "import pickle, sys\n"
        "from repro.core import database, make_table\n"
        "db = database(\n"
        "    make_table('Sales', ['Part', 'Region'], [('nuts', 'east'), ('bolts', None)]),\n"
        "    make_table('Regions', ['Region'], [('east',), (1,)]),\n"
        ")\n"
        "sys.stdout.buffer.write(pickle.dumps(db))\n"
    )
    LOAD = (
        "import json, pickle, sys\n"
        "from repro.core import Name, Value\n"
        "db = pickle.loads(sys.stdin.buffer.read())\n"
        "sales = db.table('Sales')\n"
        "print(json.dumps([\n"
        "    len(db.tables_named('Sales')), len(db.tables_named(Name('Regions'))),\n"
        "    sales in db, Value('east') in sales.symbols(), Value('bolts') in db.symbols(),\n"
        "    Value(True) in db.symbols(), Name('Region') in db.names(),\n"
        "]))\n"
    )

    def test_a_pickle_crosses_hash_seeds(self):
        pickled = _under_seed("0", self.DUMP)
        found = json.loads(_under_seed("1", self.LOAD, stdin=pickled))
        assert found == [1, 1, True, True, True, True, True]
