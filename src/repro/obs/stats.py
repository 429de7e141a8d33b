"""Table statistics: the ANALYZE pass over a tabular database.

A cost-based optimizer is only as good as its statistics, and the mixed
relation/info-table/cube representations of the source paper make
cardinality behave very differently per representation — the same
content stored as ``SalesInfo1`` (one row per fact) and ``SalesInfo2``
(one column per region) has entirely different row counts, null
fractions, and per-column value distributions.  So stats are *measured*,
never assumed: :func:`analyze_database` walks every table of a
:class:`~repro.core.database.TabularDatabase` and produces, per table,

* the row count, width, and the number of **distinct data rows** (the
  exact DEDUP output cardinality);
* per data column: the **null count**, the number of **distinct
  non-null values** (NDV), the **min/max** entry under the canonical
  :meth:`~repro.core.symbols.Symbol.sort_key` order, and a **top-K
  frequency sketch** (the K most common non-null entries with their
  exact counts — a complete histogram whenever ``NDV <= K``).

A :class:`DatabaseStats` snapshot is schema-versioned JSON on disk
(:meth:`DatabaseStats.save` / :func:`load_stats`), stamped with its
creation time and a content fingerprint of the analyzed database so the
estimator can detect **stale stats**.  ``python -m repro analyze``
exposes the pass on the bundled example databases.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from ..core import Symbol, Table, TabularDatabase
from ..core.errors import CheckpointError, StatsError

__all__ = [
    "STATS_SCHEMA_VERSION",
    "DEFAULT_TOP_K",
    "ColumnStats",
    "TableStats",
    "DatabaseStats",
    "analyze_table_stats",
    "analyze_database",
    "database_fingerprint",
    "load_stats",
    "validate_stats_data",
]

#: Version stamp carried by every persisted stats snapshot.  Bump when a
#: field changes shape (adding fields is backward compatible).
STATS_SCHEMA_VERSION = 1

#: Frequency-sketch entries kept per column when the caller does not say.
DEFAULT_TOP_K = 8


def _encode_symbol(symbol: Symbol) -> list:
    """The checkpoint module's JSON-stable symbol encoding (lenient).

    Falls back to a ``repr`` wrapper for exotic payloads so ANALYZE never
    refuses a database the engine itself accepted.
    """
    from ..runtime.checkpoint import symbol_to_data

    try:
        return symbol_to_data(symbol)
    except Exception:
        return ["r", repr(symbol)]


def _decode_symbol(data: list) -> Symbol | None:
    """Invert :func:`_encode_symbol`; ``repr`` wrappers decode to None."""
    from ..runtime.checkpoint import symbol_from_data

    if isinstance(data, list) and data and data[0] == "r":
        return None
    return symbol_from_data(data)


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one data column of one table.

    ``top`` holds the ``(symbol, count)`` frequency sketch ordered by
    count (descending) then by the symbol's canonical sort key, so equal
    databases analyze to byte-equal snapshots.  When ``ndv <= len(top)``
    the sketch is the column's complete histogram.
    """

    attribute: Symbol
    nulls: int
    ndv: int
    min: Symbol | None
    max: Symbol | None
    top: tuple[tuple[Symbol, int], ...]

    def null_fraction(self, height: int) -> float:
        """Fraction of this column's entries that are ⊥."""
        return self.nulls / height if height > 0 else 0.0

    def frequency(self, value: Symbol) -> int | None:
        """The exact count of ``value`` when the sketch retains it."""
        for symbol, count in self.top:
            if symbol == value:
                return count
        return None

    def to_json(self) -> dict:
        return {
            "attribute": _encode_symbol(self.attribute),
            "nulls": self.nulls,
            "ndv": self.ndv,
            "min": None if self.min is None else _encode_symbol(self.min),
            "max": None if self.max is None else _encode_symbol(self.max),
            "top": [[_encode_symbol(s), c] for s, c in self.top],
        }


@dataclass(frozen=True)
class TableStats:
    """Statistics for one table: shape, distinct rows, per-column stats."""

    name: str
    height: int
    width: int
    distinct_rows: int
    columns: tuple[ColumnStats, ...]

    def column_for(self, attribute: Symbol) -> ColumnStats | None:
        """The first column carrying ``attribute`` (attributes may repeat)."""
        for column in self.columns:
            if column.attribute == attribute:
                return column
        return None

    def columns_for(self, attributes: Iterable[Symbol]) -> list[ColumnStats]:
        """Every column whose attribute is in ``attributes``."""
        wanted = set(attributes)
        return [c for c in self.columns if c.attribute in wanted]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "height": self.height,
            "width": self.width,
            "distinct_rows": self.distinct_rows,
            "columns": [column.to_json() for column in self.columns],
        }


class DatabaseStats:
    """One ANALYZE snapshot of a whole database, with provenance stamps."""

    __slots__ = ("version", "created", "top_k", "fingerprint", "tables")

    def __init__(
        self,
        tables: Sequence[TableStats],
        fingerprint: str,
        top_k: int = DEFAULT_TOP_K,
        created: float | None = None,
        version: int = STATS_SCHEMA_VERSION,
    ):
        self.version = version
        self.created = time.time() if created is None else float(created)
        self.top_k = int(top_k)
        self.fingerprint = fingerprint
        self.tables = tuple(tables)

    # -- lookup ---------------------------------------------------------

    def lookup(self, name: str, height: int, width: int) -> TableStats | None:
        """Stats for the table matching name *and* shape, or None.

        The shape check is the staleness guard at the granularity of one
        table: an intermediate result that merely reuses a base table's
        name will not silently borrow its statistics.
        """
        for stats in self.tables:
            if stats.name == name and stats.height == height and stats.width == width:
                return stats
        return None

    def for_name(self, name: str) -> list[TableStats]:
        """Every per-table snapshot carrying ``name`` (names may repeat)."""
        return [stats for stats in self.tables if stats.name == name]

    def age_seconds(self, now: float | None = None) -> float:
        """Seconds since this snapshot was taken (stale-stats telemetry)."""
        return max(0.0, (time.time() if now is None else now) - self.created)

    @property
    def total_rows(self) -> int:
        return sum(stats.height for stats in self.tables)

    # -- persistence ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "created": round(self.created, 6),
            "top_k": self.top_k,
            "fingerprint": self.fingerprint,
            "tables": [stats.to_json() for stats in self.tables],
        }

    def save(self, path: str | Path) -> Path:
        """Persist the snapshot as schema-versioned JSON."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return target

    @classmethod
    def from_json(cls, data: dict) -> "DatabaseStats":
        """Rebuild a snapshot from its wire form (validated first).

        The ``engine`` key that older snapshots carry is ignored.
        """
        problems = validate_stats_data(data)
        if problems:
            raise StatsError(
                f"invalid stats snapshot: {problems[0]}"
                + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else "")
            )
        tables = []
        for tdata in data["tables"]:
            columns = []
            for cdata in tdata["columns"]:
                columns.append(
                    ColumnStats(
                        attribute=_decode_symbol(cdata["attribute"]),
                        nulls=int(cdata["nulls"]),
                        ndv=int(cdata["ndv"]),
                        min=None if cdata["min"] is None else _decode_symbol(cdata["min"]),
                        max=None if cdata["max"] is None else _decode_symbol(cdata["max"]),
                        top=tuple(
                            (_decode_symbol(s), int(c)) for s, c in cdata["top"]
                        ),
                    )
                )
            tables.append(
                TableStats(
                    name=str(tdata["name"]),
                    height=int(tdata["height"]),
                    width=int(tdata["width"]),
                    distinct_rows=int(tdata["distinct_rows"]),
                    columns=tuple(columns),
                )
            )
        return cls(
            tables,
            fingerprint=str(data["fingerprint"]),
            top_k=int(data["top_k"]),
            created=float(data["created"]),
            version=int(data["version"]),
        )

    def __eq__(self, other) -> bool:
        """Content equality: the analyzed numbers, not the timestamps."""
        if not isinstance(other, DatabaseStats):
            return NotImplemented
        return (
            self.version == other.version
            and self.top_k == other.top_k
            and self.fingerprint == other.fingerprint
            and self.tables == other.tables
        )

    def __repr__(self) -> str:
        return (
            f"DatabaseStats({len(self.tables)} table(s), "
            f"fingerprint={self.fingerprint!r})"
        )


def load_stats(path: str | Path) -> DatabaseStats:
    """Read one persisted snapshot; raises :class:`StatsError` when bad."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as err:
        raise StatsError(f"cannot read stats snapshot {path}: {err}") from err
    except ValueError as err:
        raise StatsError(f"stats snapshot {path} is not valid JSON: {err}") from err
    return DatabaseStats.from_json(data)


def validate_stats_data(data: object) -> list[str]:
    """Schema problems in one snapshot's wire form (empty = valid).

    The dependency-free validator CI runs against every ``repro analyze``
    artifact; :meth:`DatabaseStats.from_json` applies it before decoding.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return ["snapshot is not a JSON object"]
    if data.get("version") != STATS_SCHEMA_VERSION:
        problems.append(
            f"version {data.get('version')!r} != {STATS_SCHEMA_VERSION}"
        )
    if not isinstance(data.get("created"), (int, float)):
        problems.append("created is not a number")
    if not isinstance(data.get("top_k"), int) or isinstance(data.get("top_k"), bool):
        problems.append("top_k is not an integer")
    if not isinstance(data.get("fingerprint"), str):
        problems.append("fingerprint is not a string")
    tables = data.get("tables")
    if not isinstance(tables, list):
        return problems + ["tables is not a list"]
    for i, tdata in enumerate(tables):
        where = f"tables[{i}]"
        if not isinstance(tdata, dict):
            problems.append(f"{where} is not an object")
            continue
        for field in ("height", "width", "distinct_rows"):
            value = tdata.get(field)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                problems.append(f"{where}.{field} is not a non-negative integer")
        if not isinstance(tdata.get("name"), str):
            problems.append(f"{where}.name is not a string")
        columns = tdata.get("columns")
        if not isinstance(columns, list):
            problems.append(f"{where}.columns is not a list")
            continue
        if isinstance(tdata.get("width"), int) and len(columns) != tdata["width"]:
            problems.append(
                f"{where}: {len(columns)} column stats != width {tdata['width']}"
            )
        height = tdata.get("height") if isinstance(tdata.get("height"), int) else None
        for j, cdata in enumerate(columns):
            cwhere = f"{where}.columns[{j}]"
            if not isinstance(cdata, dict):
                problems.append(f"{cwhere} is not an object")
                continue
            for field in ("nulls", "ndv"):
                value = cdata.get(field)
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    problems.append(f"{cwhere}.{field} is not a non-negative integer")
            if height is not None and isinstance(cdata.get("nulls"), int):
                if cdata["nulls"] > height:
                    problems.append(f"{cwhere}.nulls {cdata['nulls']} > height {height}")
            top = cdata.get("top")
            if not isinstance(top, list):
                problems.append(f"{cwhere}.top is not a list")
                continue
            counts = []
            for entry in top:
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not isinstance(entry[1], int)
                    or entry[1] < 1
                ):
                    problems.append(f"{cwhere}.top has a malformed entry {entry!r}")
                    break
                counts.append(entry[1])
            if any(b > a for a, b in zip(counts, counts[1:])):
                problems.append(f"{cwhere}.top counts are not non-increasing")
            if (
                isinstance(cdata.get("ndv"), int)
                and len(top) > cdata["ndv"]
            ):
                problems.append(f"{cwhere}.top retains more entries than ndv")
    return problems


# ----------------------------------------------------------------------
# The ANALYZE pass itself
# ----------------------------------------------------------------------

def database_fingerprint(db: TabularDatabase) -> str:
    """A stable content digest of one database (staleness detection).

    The first 16 hex digits of the run ledger's
    :func:`~repro.obs.ledger.database_digest`, so two equal databases —
    regardless of construction order — fingerprint equally.
    """
    from .ledger import database_digest

    try:
        return database_digest(db)[0][:16]
    except CheckpointError:
        # Exotic payloads the checkpoint encoder refuses still get a
        # (repr-based) fingerprint: ANALYZE must accept what ran.
        import hashlib

        payload = repr([t.grid for t in db.tables])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _column_stats_from_counts(
    attribute: Symbol, counts: Counter, nulls: int, top_k: int
) -> ColumnStats:
    """Order-independent sketch construction from one column's counts."""
    if counts:
        ordered = sorted(counts.items(), key=lambda item: item[0].sort_key())
        low, high = ordered[0][0], ordered[-1][0]
        top = tuple(
            sorted(ordered, key=lambda item: (-item[1], item[0].sort_key()))[:top_k]
        )
    else:
        low = high = None
        top = ()
    return ColumnStats(
        attribute=attribute,
        nulls=nulls,
        ndv=len(counts),
        min=low,
        max=high,
        top=top,
    )


def analyze_table_stats(table: Table, top_k: int = DEFAULT_TOP_K) -> TableStats:
    """Statistics for one table, counted over its symbol grid."""
    columns: list[ColumnStats] = []
    for j in table.data_col_indices():
        entries = table.data_column(j)
        counts: Counter = Counter()
        nulls = 0
        for entry in entries:
            if entry.is_null:
                nulls += 1
            else:
                counts[entry] += 1
        columns.append(
            _column_stats_from_counts(
                table.column_attributes[j - 1], counts, nulls, top_k
            )
        )
    return TableStats(
        name=str(table.name),
        height=table.height,
        width=table.width,
        distinct_rows=len(set(table.data)),
        columns=tuple(columns),
    )


def analyze_database(db: TabularDatabase, top_k: int = DEFAULT_TOP_K) -> DatabaseStats:
    """The ANALYZE pass: one :class:`DatabaseStats` snapshot of ``db``."""
    if top_k < 1:
        raise StatsError(f"top_k must be >= 1, got {top_k}")
    tables = tuple(analyze_table_stats(table, top_k=top_k) for table in db.tables)
    return DatabaseStats(tables, fingerprint=database_fingerprint(db), top_k=top_k)
