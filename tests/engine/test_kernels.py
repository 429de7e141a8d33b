"""The naive ops' direct paths ≡ their literal definitions.

Because the naive algebra is the oracle for the optimizer and replay,
the naive ops that compute a composition directly are pinned here to
the composition itself, by grid and by the checkpoint encoding's JSON
text (``==`` cannot tell ``Value(1)`` from ``Value(True)``; the
encoding can): SELECT and SELECTCONST, which find their attributes'
columns once and compare entries directly, against ``τ_i(A) ≈ τ_i(B)``
over ``Table.row_entry_set``; DEDUP, which hashes whole rows,
against clean-up by the full scheme and an independent quadratic
reference; PRODUCTSELECT, which pushes the selection below the
product, against ``select(product(…))``, also under ``lineage()``;
CLASSICALUNION against the Section 3.4 recipe; and the difference
family, which hashes each row's mutual-subsumption key (a relation-style
pair's aligned rows), against a literal pairwise scan over
``Table.rows_subsume_each_other``.  The same adversarial tables also
pin the checkpoint chain's symbol dictionary: saved and loaded, they
keep their digest and which cells share a symbol object.
"""

import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra import (
    classical_union,
    cleanup,
    deduplicate,
    deduplicate_columns,
    difference,
    drop_all_null_rows,
    intersection,
    product,
    product_select,
    select,
    select_constant,
    union,
)
from repro.algebra.programs.registry import OPERATIONS
from repro.core import (
    NULL,
    Name,
    TabularDatabase,
    TaggedValue,
    Table,
    Value,
    coerce_symbol,
    weakly_equal,
)
from repro.engine.kernels import KERNELS
from repro.engine.runtime import engine_scope
from repro.obs.ledger import database_digest
from repro.obs.lineage import CellRef, lineage, provenance, with_prov
from repro.runtime.checkpoint import (
    Checkpoint,
    CheckpointLog,
    load_checkpoint,
    save_checkpoint,
    table_to_data,
)

A, B, C, X = Name("A"), Name("B"), Name("C"), Value("x")
ATTRS = [NULL, A, B, C]
ENTRIES = [
    NULL, Name("A"), Name("B"), Value("x"), Value("y"), Value("z"), Value(3),
    # Equal across payload types (1 == 1.0 == True) or not (tags, sorts).
    Value(1), Value(1.0), Value(True), TaggedValue(1), Name("x"),
]
NAN = Value(float("nan"))  # one object: equal to itself only by identity
#: Lineage copies carrying provenance, of ⊥ among them.
TAGGED = [
    with_prov(NULL, frozenset({CellRef(9, 0, 0)})),
    with_prov(Value("x"), frozenset({CellRef(9, 0, 1)})),
]
RICH_ENTRIES = ENTRIES + [NAN, *TAGGED]
#: Few distinct entries, ⊥ often, so join keys collide and differ by ⊥.
JOIN_ENTRIES = [NULL, NULL, Value("x"), Value(1), Value(True), NAN, *TAGGED]


@st.composite
def tables(draw, max_height=5, max_width=4, entries=ENTRIES):
    """Adversarial tables: ⊥ and repeated attrs, names in data."""
    height = draw(st.integers(0, max_height))
    width = draw(st.integers(0, max_width))
    name = draw(st.sampled_from([Name("R"), Name("S")]))
    header = [name] + [draw(st.sampled_from(ATTRS)) for _ in range(width)]
    grid = [header]
    for _ in range(height):
        row_attr = draw(st.sampled_from(ATTRS))
        grid.append([row_attr] + [draw(st.sampled_from(entries)) for _ in range(width)])
    return Table(grid)


def _assert_same(fast, literal):
    assert fast.grid == literal.grid
    assert json.dumps(table_to_data(fast)) == json.dumps(table_to_data(literal))


def _cells(table):
    return [[(type(entry), entry.prov) for entry in row] for row in table.grid]


def _literal_deduplicate(table):
    """Clean-up by the full scheme, on every row attribute."""
    return cleanup(
        table,
        by=frozenset(table.column_attributes),
        on=frozenset(table.row_attributes) | {NULL},
    )


@given(tables())
def test_hash_dedup_equals_quadratic_dedup(table):
    fast = deduplicate(table)
    _assert_same(fast, _literal_deduplicate(table))

    # Independent quadratic reference: keep the first of any identical
    # (row attribute, data row) pair, preserving order.
    kept, seen = [table.grid[0]], []
    for row in table.grid[1:]:
        if row not in seen:
            seen.append(row)
            kept.append(row)
    _assert_same(fast, Table(kept))


@st.composite
def join_pairs(draw):
    """ρ with an A column, σ with a B column, each with up to three more,
    mostly C: A and B sit on opposite sides, C and ⊥ on either or both."""

    def side(name, attr):
        extra = draw(st.lists(st.sampled_from([attr, C, C, NULL]), max_size=3))
        header = [Name(name), *draw(st.permutations([attr, *extra]))]
        rows = [
            [draw(st.sampled_from(ATTRS))]
            + [draw(st.sampled_from(JOIN_ENTRIES)) for _ in header[1:]]
            for _ in range(draw(st.integers(0, 4)))
        ]
        return Table([header] + rows)

    return side("R", A), side("S", B)


#: Half the draws pick attributes on opposite sides (a hash join unless
#: C lies on both sides); the rest any pair, for the other branches.
ATTR_PAIRS = st.one_of(
    st.sampled_from([(A, B), (B, A), (A, C), (C, B)]),
    st.tuples(st.sampled_from(ATTRS), st.sampled_from(ATTRS)),
)


def _pair(rho_header, rho_row, sigma_header, sigma_row):
    return (Table([[Name("R"), *rho_header], rho_row]),
            Table([[Name("S"), *sigma_header], sigma_row]))


#: Pairs at the edges of the relation-style row key.
EDGE_PAIRS = [
    # One NaN object on both sides: equal to itself by identity only.
    _pair([A, B], [NULL, NAN, X], [B, A], [NULL, X, NAN]),
    # Value(1) in ρ, Value(True) in σ: equal rows; the union keeps ρ's.
    _pair([A], [NULL, Value(1)], [A], [NULL, Value(True)]),
    # A lineage copy of ⊥ outside lineage(): the union writes ⊥ itself.
    _pair([A, B], [NULL, TAGGED[0], X], [B, A], [NULL, Value("y"), NULL]),
    # ⊥ as a column attribute, σ's columns swapped.
    _pair([NULL, A], [A, X, NULL], [A, NULL], [A, NULL, X]),
    # Zero width: a row is its row attribute.
    _pair([], [A], [], [A]),
    # A repeated attribute, unequal attribute sets, and one NaN object as
    # both tables' attribute (PURGE keeps its two columns): the general path.
    _pair([A, A], [NULL, NULL, X], [A, B], [NULL, X, NULL]),
    _pair([A], [NULL, X], [B], [NULL, X]),
    _pair([NAN], [NULL, X], [NAN], [NULL, X]),
]


def edge_examples(test):
    """``test`` with every :data:`EDGE_PAIRS` pair as an explicit example."""
    for pair in EDGE_PAIRS:
        test = example(pair)(test)
    return test


@settings(max_examples=400)
@given(join_pairs(), ATTR_PAIRS)
# Opposite sides: the joined row's attribute combines both sides' (⊥, B).
@example(_pair([A], [NULL, X], [B], [B, X]), (A, B))
# One NaN object on both sides: the entry key matches it by identity.
@example(_pair([A], [NULL, NAN], [B], [NULL, NAN]), (A, B))
# C on both sides: τ(C) = {x} from ρ alone, so a join of A with σ's C
# alone (∅ = ∅) would wrongly keep the row.
@example(_pair([A, C], [NULL, NULL, X], [B, C], [NULL, X, NULL]), (A, C))
def test_pushdown_equals_post_filter(pair, attrs):
    """Every branch — plain product, one-sided pre-filter, hash join on
    opposite sides, literal scan for an attribute on both sides — keeps
    exactly the post-filter's rows, in its order; under ``lineage()``
    the cells carry the post-filter's provenance too."""
    (rho, sigma), (left, right) = pair, attrs
    post = select(product(rho, sigma), left, right)
    _assert_same(product_select(rho, sigma, left, right), post)
    with lineage() as lin:
        rho_t, sigma_t = lin.tag_table(rho), lin.tag_table(sigma)
        fused = product_select(rho_t, sigma_t, left, right)
        post = select(product(rho_t, sigma_t), left, right)
        _assert_same(fused, post)
        assert _cells(fused) == _cells(post)


@st.composite
def relation_pairs(draw):
    """ρ relation-style (distinct column attributes, ⊥ among them) and σ
    some of its rows with the columns permuted and no column added.

    Each σ row keeps or redraws its row attribute and, now and then, an
    entry (``Value(True)`` for ``Value(1)`` matches; ``x`` for ``y``
    does not).  The two share one attribute set, so the difference
    family and CLASSICALUNION align σ's columns to ρ's.
    """
    header = draw(st.lists(st.sampled_from(ATTRS), unique=True, max_size=3))
    rows = [
        [draw(st.sampled_from(ATTRS))] + [draw(st.sampled_from(RICH_ENTRIES)) for _ in header]
        for _ in range(draw(st.integers(0, 4)))
    ]
    cols = draw(st.permutations(range(1, len(header) + 1)))
    grid = [[Name("S"), *(header[j - 1] for j in cols)]]
    for row in draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else ():
        attr = draw(st.sampled_from([row[0], row[0], *ATTRS]))
        other = draw(st.sampled_from(RICH_ENTRIES))
        grid.append([attr, *(draw(st.sampled_from([row[j], row[j], other])) for j in cols)])
    return Table([[Name("R"), *header], *rows]), Table(grid)


@st.composite
def table_pairs(draw):
    """ρ and σ: independent, σ reshaped from some of ρ's rows, or a
    :func:`relation_pairs` pair.

    The reshaping permutes σ's columns and adds one that is all ⊥ or
    repeats another, which keeps every entry set weakly equal, and it
    keeps or redraws each row attribute — so rows that mutually subsume
    each other, under the same or another row attribute, are common.
    """
    shape = draw(st.sampled_from(["independent", "reshaped", "relation"]))
    if shape == "relation":
        return draw(relation_pairs())
    rho = draw(tables(max_height=4, max_width=3))
    if shape == "independent":
        return rho, draw(tables(max_height=4, max_width=3))
    cols = draw(st.permutations(range(1, rho.ncols)))
    extra = draw(st.sampled_from([None, *cols]))
    extra_attr = draw(st.sampled_from(ATTRS)) if extra is None else rho.entry(0, extra)
    rows = []
    if rho.height:
        rows = draw(st.lists(st.sampled_from(rho.data_row_indices()), max_size=4))
    header = [Name("S"), *(rho.entry(0, j) for j in cols), extra_attr]
    grid = [header]
    for i in rows:
        attr = draw(st.sampled_from([rho.entry(i, 0), *ATTRS]))
        pad = NULL if extra is None else rho.entry(i, extra)
        grid.append([attr, *(rho.entry(i, j) for j in cols), pad])
    return rho, Table(grid)


def _subsumption_scan(rho, sigma):
    """``R \\ S`` as the paper defines it, pair by pair: drop ρ_i iff some
    σ_k has the same row attribute and ρ_i ≍ σ_k."""
    kept = [rho.row(0)]
    for i in rho.data_row_indices():
        if not any(
            rho.entry(i, 0) == sigma.entry(k, 0)
            and rho.rows_subsume_each_other(i, sigma, k)
            for k in sigma.data_row_indices()
        ):
            kept.append(rho.row(i))
    return Table(kept)


@settings(max_examples=150)
@given(table_pairs())
@edge_examples
def test_difference_equals_subsumption_scan(pair):
    rho, sigma = pair
    assert difference(rho, sigma).grid == _subsumption_scan(rho, sigma).grid


@settings(max_examples=150)
@given(table_pairs())
@edge_examples
def test_intersection_equals_double_subsumption_scan(pair):
    rho, sigma = pair
    expected = _subsumption_scan(rho, _subsumption_scan(rho, sigma))
    assert intersection(rho, sigma).grid == expected.grid


@settings(max_examples=200)
@given(tables(entries=RICH_ENTRIES), st.sampled_from([*ATTRS, Name("Z")]))
# A lineage copy of ⊥ is ⊥; one non-⊥ entry among the A columns keeps a row.
@example(Table([[Name("R"), A], [NULL, TAGGED[0]]]), A)
@example(Table([[Name("R"), A, A], [NULL, X, NULL]]), A)
def test_drop_null_rows_equals_subsumption_scan(table, attr):
    """The direct ⊥ filter keeps the rows of ``R \\ σ_{attr=⊥}(R)``, by
    the hashed difference and by the pairwise scan; ``Z`` is never in
    the scheme, and under ``lineage()`` the rows keep their cells."""
    fast = drop_all_null_rows(table, attr)
    _assert_same(fast, difference(table, select_constant(table, attr, None)))
    _assert_same(fast, _subsumption_scan(table, select_constant(table, attr, None)))
    with lineage() as lin:
        tagged = lin.tag_table(table)
        fast = drop_all_null_rows(tagged, attr)
        literal = difference(tagged, select_constant(tagged, attr, None))
        _assert_same(fast, literal)
        assert _cells(fast) == _cells(literal)


@settings(max_examples=60)
@given(table_pairs())
@edge_examples
def test_classical_union_equals_literal_recipe(pair):
    """Tabular union, purge of the redundant columns, clean-up of the
    duplicate rows by the full scheme (Section 3.4)."""
    rho, sigma = pair
    literal = _literal_deduplicate(deduplicate_columns(union(rho, sigma)))
    _assert_same(classical_union(rho, sigma), literal)


def _selected(table, keeps):
    """``table`` with the data rows ``i`` for which ``keeps(i)`` holds."""
    return [table.row(i) for i in table.data_row_indices() if keeps(i)]


def _assert_selects(result, table, kept):
    """``result`` holds ``table``'s attribute row and exactly the row
    objects ``kept``, in order, and encodes as they do."""
    assert result.row(0) == table.row(0)
    assert len(result.grid) == len(kept) + 1
    assert all(got is want for got, want in zip(result.grid[1:], kept))
    literal = Table([table.row(0), *kept])
    assert json.dumps(table_to_data(result)) == json.dumps(table_to_data(literal))


def _select_by_definition(table, a, b):
    """Section 3.1: row ``i`` is kept iff ``τ_i(A) ≈ τ_i(B)``."""
    return _selected(
        table, lambda i: weakly_equal(table.row_entry_set(i, a), table.row_entry_set(i, b))
    )


def _select_constant_by_definition(table, a, value):
    """Row ``i`` is kept iff ``τ_i(A) ≈ {v}``."""
    v = coerce_symbol(value)
    return _selected(table, lambda i: weakly_equal(table.row_entry_set(i, a), {v}))


def _assert_select_matches_definition(table, left, right):
    """Outside and under ``lineage()``, where the kept cells keep their
    provenance."""
    _assert_selects(select(table, left, right), table, _select_by_definition(table, left, right))
    with lineage() as lin:
        tagged = lin.tag_table(table)
        result = select(tagged, left, right)
        _assert_selects(result, tagged, _select_by_definition(tagged, left, right))
        assert all(provenance(entry) for row in result.grid for entry in row[1:])


def _assert_select_constant_matches_definition(table, attr, value):
    expected = _select_constant_by_definition(table, attr, value)
    _assert_selects(select_constant(table, attr, value), table, expected)
    with lineage() as lin:
        tagged = lin.tag_table(table)
        result = select_constant(tagged, attr, value)
        _assert_selects(result, tagged, _select_constant_by_definition(tagged, attr, value))
        assert all(provenance(entry) for row in result.grid for entry in row[1:])


NAN_2 = Value(float("nan"))  # a second NaN object: unequal to NAN
ABSENT = Name("Z")  # in no drawn scheme


def _row(*entries, header=(A, B)):
    return Table([[Name("R"), *header], [NULL, *entries]])


#: (table, A, B, kept): explicit SELECT cases, each a one-row table.
SELECT_CASES = {
    "one NaN object": (_row(NAN, NAN), A, B, True),
    "two NaN objects": (_row(NAN, NAN_2), A, B, False),
    "lineage copy of ⊥ against ⊥": (_row(TAGGED[0], NULL), A, B, True),
    "1 against True": (_row(Value(1), Value(True)), A, B, True),
    "1 against 1.0": (_row(Value(1), Value(1.0)), A, B, True),
    "name against value": (_row(Name("x"), Value("x")), A, B, False),
    "tag against value": (_row(TaggedValue(1), Value(1)), A, B, False),
    "A = A over a NaN": (_row(NAN, Value("y")), A, A, True),
    "A = A over two columns": (_row(NAN, NAN_2, header=(A, A)), A, A, True),
    "neither attribute in the scheme": (_row(X, Value("y")), ABSENT, C, True),
    "absent against ⊥": (_row(NULL, X), ABSENT, A, True),
    "absent against an entry": (_row(NULL, X), ABSENT, B, False),
    "two A columns, one ⊥": (_row(X, NULL, X, header=(A, A, B)), A, B, True),
    "two A columns, two entries": (_row(X, Value("y"), X, header=(A, A, B)), A, B, False),
    "two A columns, lineage copy": (_row(TAGGED[1], X, X, header=(A, A, B)), A, B, True),
}


@pytest.mark.parametrize("case", sorted(SELECT_CASES))
def test_select_explicit_cases(case):
    table, left, right, kept = SELECT_CASES[case]
    assert select(table, left, right).height == int(kept)
    _assert_select_matches_definition(table, left, right)


#: (table, A, v, kept): explicit SELECTCONST cases.
SELECT_CONSTANT_CASES = {
    "⊥ against ⊥": (_row(NULL, X), A, None, True),
    "lineage copy of ⊥ against ⊥": (_row(TAGGED[0], X), A, None, True),
    "an entry against ⊥": (_row(X, NULL), A, None, False),
    "absent attribute against ⊥": (_row(X, X), ABSENT, None, True),
    "absent attribute against a value": (_row(X, X), ABSENT, "x", False),
    "one NaN object": (_row(NAN, X), A, NAN, True),
    "another NaN object": (_row(NAN, X), A, NAN_2, False),
    "1 against True": (_row(Value(1), X), A, True, True),
    "name against value": (_row(Name("x"), X), A, "x", False),
    "tag against value": (_row(TaggedValue(1), X), A, 1, False),
    "two A columns, one ⊥": (_row(X, NULL, header=(A, A)), A, "x", True),
    "two A columns, two entries": (_row(X, Value("y"), header=(A, A)), A, "x", False),
    "two A columns, both ⊥": (_row(NULL, TAGGED[0], header=(A, A)), A, None, True),
}


@pytest.mark.parametrize("case", sorted(SELECT_CONSTANT_CASES))
def test_select_constant_explicit_cases(case):
    table, attr, value, kept = SELECT_CONSTANT_CASES[case]
    assert select_constant(table, attr, value).height == int(kept)
    _assert_select_constant_matches_definition(table, attr, value)


@settings(max_examples=300)
@given(
    tables(entries=RICH_ENTRIES),
    st.sampled_from([*ATTRS, ABSENT]),
    st.sampled_from([*ATTRS, ABSENT]),
)
def test_select_equals_its_definition(table, left, right):
    _assert_select_matches_definition(table, left, right)


@settings(max_examples=300)
@given(
    tables(entries=RICH_ENTRIES),
    st.sampled_from([*ATTRS, ABSENT]),
    st.sampled_from([*RICH_ENTRIES, NAN_2]),
)
def test_select_constant_equals_its_definition(table, attr, value):
    _assert_select_constant_matches_definition(table, attr, value)


def test_dispatch_declines_unknown_ops_and_counts():
    """``KERNELS`` is empty: under an engine scope every op runs naive
    and is counted as a ``no_kernel`` fallback."""
    assert KERNELS == {}
    table = Table([[Name("R"), A, B], [NULL, Value("x"), Value("y")]])
    cases = (
        ("GROUP", {"by": frozenset({A}), "on": frozenset({B})}),
        ("DEDUP", {}),
        ("SELECTCONST", {"attr": "A", "value": "x"}),
    )
    with engine_scope() as backend:
        for name, args in cases:
            (produced,) = OPERATIONS[name].invoke((table,), args, None)
            assert produced.grid == OPERATIONS[name].function(table, **args).grid
    assert backend.stats["fallbacks"] == 3
    for name in ("GROUP", "DEDUP", "SELECTCONST"):
        assert backend.stats[f"reason:{name}:no_kernel"] == 1


def test_dispatch_falls_back_under_lineage():
    """Under ``lineage()`` a vector-engine SELECTCONST runs naive and its
    kept cells keep their provenance."""
    table = Table([[Name("R"), Name("A")], [NULL, Value("x")], [NULL, Value("y")]])
    with lineage() as lin, engine_scope() as backend:
        tagged = lin.tag_table(table)
        (produced,) = OPERATIONS["SELECTCONST"].invoke((tagged,), {"attr": "A", "value": "x"}, None)
    assert produced.grid == (tagged.row(0), tagged.row(1))
    assert provenance(produced.entry(1, 1)) == provenance(tagged.entry(1, 1))
    assert backend.stats["fallback:SELECTCONST"] == 1
    assert backend.stats["reason:SELECTCONST:no_kernel"] == 1


#: Another NaN object: unequal to NAN, and to itself.
OTHER_NAN = Value(float("nan"))


@settings(max_examples=150, deadline=None)
@given(st.lists(tables(entries=[*RICH_ENTRIES, OTHER_NAN]), min_size=1, max_size=3))
def test_a_checkpoint_chain_keeps_which_cells_share_a_symbol(drawn):
    """Each table joins the database at its own boundary of one chain (a
    base, then deltas); the folded chain has the same digest, cells that
    held one symbol object hold one again, and NaN cells that held
    distinct objects still do."""
    db = TabularDatabase()
    log = CheckpointLog()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "ck.json")
        for index, table in enumerate(drawn):
            db = db.add(table)
            save_checkpoint(path, Checkpoint(
                statement_index=index, iterations=0, next_tag=0, db=db, fingerprint="",
            ), log)
        loaded = load_checkpoint(path).db
    assert database_digest(loaded)[0] == database_digest(db)[0]
    before = [cell for table in db.tables for row in table.grid for cell in row]
    after = [cell for table in loaded.tables for row in table.grid for cell in row]
    assert len(after) == len(before)
    shared, nans = {}, {}
    for old, new in zip(before, after):
        assert shared.setdefault(id(old), new) is new
        if old != old:
            assert nans.setdefault(id(new), old) is old
