"""Kernel-level properties: interning round-trips, kernels ≡ naive ops,
and the naive ops' direct paths ≡ their literal definitions.

Hypothesis drives structured random tables through the SELECT and
SELECTCONST kernels and the naive operations they replace; grids must
match cell for cell.

Because the naive algebra is the oracle for the kernels, the optimizer
and replay, the naive ops that compute a composition directly are
pinned here to the composition itself, by grid and by the checkpoint
encoding's JSON text (``==`` cannot tell ``Value(1)`` from
``Value(True)``; the encoding can): DEDUP, which hashes whole rows,
against clean-up by the full scheme and an independent quadratic
reference; PRODUCTSELECT, which pushes the selection below the
product, against ``select(product(…))``, also under ``lineage()``;
CLASSICALUNION against the Section 3.4 recipe; and the difference
family, which hashes each row's mutual-subsumption key (a relation-style
pair's aligned rows), against a literal pairwise scan over
``Table.rows_subsume_each_other``.
"""

import json

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
from repro.core import NULL, Name, TaggedValue, Table, Value
from repro.engine.interning import SymbolInterner
from repro.engine.kernels import KERNELS
from repro.engine.runtime import VectorEngine
from repro.obs.lineage import CellRef, lineage, with_prov
from repro.runtime.checkpoint import table_to_data

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


def _kernel(name, tables_in, arguments):
    return KERNELS[name](SymbolInterner(), tables_in, arguments)


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
def test_interning_round_trip(table):
    interner = SymbolInterner()
    idt = interner.intern_table(table)
    back = interner.materialize(idt.name, idt.col_attrs, idt.row_attrs, idt.rows)
    assert back == table
    assert back.grid == table.grid


@given(tables())
def test_intern_table_caches_by_identity(table):
    interner = SymbolInterner()
    assert interner.intern_table(table) is interner.intern_table(table)


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


@given(tables(), st.sampled_from(ATTRS), st.sampled_from(ATTRS))
def test_select_kernel_matches(table, left, right):
    assert (
        _kernel("SELECT", [table], {"left": left, "right": right}).grid
        == select(table, left, right).grid
    )


@given(tables(), st.sampled_from(ATTRS), st.sampled_from(ENTRIES))
def test_select_constant_kernel_matches(table, attr, value):
    assert (
        _kernel("SELECTCONST", [table], {"attr": attr, "value": value}).grid
        == select_constant(table, attr, value).grid
    )


def test_dispatch_declines_unknown_ops_and_counts():
    backend = VectorEngine()
    table = Table([[Name("R"), Name("A")], [NULL, Value("x")]])
    assert backend.dispatch("GROUP", [table], {"by": frozenset(), "on": frozenset()}) is None
    assert backend.dispatch("DEDUP", [table], {}) is None
    arguments = {"attr": "A", "value": "x"}
    produced = backend.dispatch("SELECTCONST", [table], arguments)
    assert produced is not None
    assert produced.grid == select_constant(table, **arguments).grid
    assert backend.stats["fallbacks"] == 2
    assert backend.stats["kernel_calls"] == 1
    assert backend.stats["reason:GROUP:no_kernel"] == 1
    assert backend.stats["reason:DEDUP:no_kernel"] == 1
    assert backend.stats["kernel:SELECTCONST"] == 1


def test_dispatch_falls_back_under_lineage():
    backend = VectorEngine()
    table = Table([[Name("R"), Name("A")], [NULL, Value("x")]])
    with lineage():
        assert backend.dispatch("SELECTCONST", [table], {"attr": "A", "value": "x"}) is None
    assert backend.stats["fallback:SELECTCONST"] == 1
    assert backend.stats["reason:SELECTCONST:lineage_active"] == 1
