"""Cell-level provenance: tagging semantics, witnesses, replay, audit.

The contract under test: a lineage scope tags input cells with stable
ids, every operation family threads the ids to its output cells, a
witness query names exactly the input cells/rows an output cell was
built from, and re-running the program on just the witness rows
regenerates the cell — the executable form of the paper's claim that TA
transformations are constructive.
"""

import contextlib

import pytest

from repro.algebra import cleanup, product, rename, setnew, tuplenew
from repro.algebra.programs import parse_program
from repro.core import (
    NULL,
    FreshValueSource,
    Name,
    Null,
    TaggedValue,
    Value,
    database,
    make_table,
)
from repro.data import figure4_top, sales_info1
from repro.obs import OBS, observation
from repro.obs.lineage import (
    CellRef,
    Lineage,
    audit_run,
    count_prov_cells,
    derived_from,
    graph_to_dot,
    lineage,
    provenance,
    provenance_graph,
    table_origins,
    with_prov,
)


REF = frozenset({CellRef(0, 1, 1)})
REF2 = frozenset({CellRef(0, 2, 2)})


class TestTaggedCopies:
    """Provenance copies must be invisible to the algebra's semantics."""

    def test_plain_symbols_carry_no_provenance(self):
        assert Name("A").prov is None
        assert Value(3).prov is None
        assert NULL.prov is None
        assert provenance(Value(3)) == frozenset()

    def test_name_copy_equals_and_hashes_like_original(self):
        tagged = with_prov(Name("A"), REF)
        assert tagged == Name("A") and hash(tagged) == hash(Name("A"))
        assert tagged.prov == REF and tagged.is_name

    def test_value_copy_equals_and_hashes_like_original(self):
        tagged = with_prov(Value(50), REF)
        assert tagged == Value(50) and hash(tagged) == hash(Value(50))
        assert tagged.sort_key() == Value(50).sort_key()

    def test_tagged_value_copy_stays_a_tagged_value(self):
        tagged = with_prov(TaggedValue(5), REF)
        assert isinstance(tagged, TaggedValue)
        assert tagged == TaggedValue(5) and tagged != Value(5)

    def test_null_copy_is_null_without_breaking_the_singleton(self):
        tagged = with_prov(NULL, REF)
        assert tagged.is_null and tagged == NULL and hash(tagged) == hash(NULL)
        assert tagged is not NULL
        assert Null() is NULL  # the singleton is untouched

    def test_derived_from_returns_symbol_unchanged_without_parent_prov(self):
        plain = Value(7)
        assert derived_from(plain, [Value(1), Name("A")]) is plain

    def test_derived_from_unions_parent_provenance(self):
        parent_a = with_prov(Value(1), REF)
        parent_b = with_prov(Value(2), REF2)
        derived = derived_from(Value(7), [parent_a, parent_b])
        assert derived == Value(7)
        assert derived.prov == REF | REF2

    def test_derived_from_skips_copy_when_already_superset(self):
        symbol = with_prov(Value(7), REF | REF2)
        assert derived_from(symbol, [with_prov(Value(1), REF)]) is symbol


class TestTagging:
    def test_tag_table_assigns_one_ref_per_cell(self):
        lin = Lineage()
        tagged = lin.tag_table(figure4_top())
        assert tagged == figure4_top()  # equality is unchanged
        assert tagged.entry(1, 2).prov == frozenset({CellRef(0, 1, 2)})
        assert count_prov_cells([tagged]) == tagged.nrows * tagged.ncols

    def test_tag_database_labels_name_collisions(self):
        t = make_table("T", ["A"], [["x"]])
        u = make_table("T", ["A"], [["y"]])
        lin = Lineage()
        lin.tag_database(database(t, u))
        assert {lin.label(0), lin.label(1)} == {"T#0", "T#1"}

    def test_describe_ref_renders_source_cell(self):
        lin = Lineage()
        lin.tag_table(figure4_top())
        assert lin.describe_ref(CellRef(0, 0, 1)) == "Sales[0,1]=Part"

    def test_scope_installs_and_restores(self):
        assert OBS.lineage is None
        with lineage() as outer:
            assert OBS.lineage is outer
            with lineage() as inner:
                assert OBS.lineage is inner
            assert OBS.lineage is outer
        assert OBS.lineage is None


class TestOperationThreading:
    """The union points: rename, product, clean-up merges, tagging."""

    def test_rename_header_derives_from_replaced_cell(self):
        with lineage() as lin:
            tagged = lin.tag_table(figure4_top())
            renamed = rename(tagged, "Sold", "Qty")
        j = list(renamed.row(0)).index(Name("Qty"))
        assert CellRef(0, 0, j) in renamed.entry(0, j).prov

    def test_product_row_attribute_accumulates_both_rows(self):
        left = make_table("L", ["A"], [["x"]])
        right = make_table("R", ["B"], [["y"]])
        with lineage() as lin:
            out = product(lin.tag_table(left), lin.tag_table(right))
        prov = out.entry(1, 0).prov
        # join ancestry: the combined row attribute cites both argument rows
        assert CellRef(0, 1, 1) in prov and CellRef(1, 1, 1) in prov

    def test_cleanup_merged_cell_unions_the_group(self):
        table = make_table(
            "T", ["A", "B"], [["x", 1], ["x", None], ["x", 1]]
        )
        with lineage() as lin:
            tagged = lin.tag_table(table)
            cleaned = cleanup(tagged, by={"A"}, on={NULL})
        assert cleaned.height == 1
        prov = cleaned.entry(1, 2).prov
        # the surviving B-cell derives from all three grouped rows' B-cells
        assert {CellRef(0, 1, 2), CellRef(0, 2, 2), CellRef(0, 3, 2)} <= prov

    def test_tuplenew_tags_derive_from_their_rows(self):
        with lineage() as lin:
            tagged = lin.tag_table(figure4_top())
            out = tuplenew(tagged, "Id", source=FreshValueSource())
        tag_col = out.ncols - 1
        for i in out.data_row_indices():
            assert CellRef(0, i, 1) in out.entry(i, tag_col).prov

    def test_setnew_tags_derive_from_their_subsets(self):
        table = make_table("T", ["A"], [["x"], ["y"]])
        with lineage() as lin:
            out = setnew(lin.tag_table(table), "Id", source=FreshValueSource())
        tag_col = out.ncols - 1
        # the {row1, row2} subset's tag cites both rows' cells
        pair_rows = [
            i
            for i in out.data_row_indices()
            if {CellRef(0, 1, 1), CellRef(0, 2, 1)} <= out.entry(i, tag_col).prov
        ]
        assert len(pair_rows) == 2  # both listed rows of the last subset

    def test_copy_operations_preserve_provenance(self):
        program = parse_program(
            """
            Grouped <- GROUP by {Region} on {Sold} (Sales)
            Flipped <- TRANSPOSE (Grouped)
            """
        )
        with lineage() as lin:
            tagged = lin.tag_database(database(figure4_top()))
            out = program.run(tagged)
        flipped = out.tables_named(Name("Flipped"))[0]
        assert count_prov_cells([flipped]) > 0
        assert table_origins([flipped]) <= table_origins(list(lin.sources))


class TestWitnessAndReplay:
    def test_figure4_group_data_cell_witness(self):
        """Golden: the pivoted 50 under (nuts, east) comes from Sales[1,3]."""
        program = parse_program("Sales <- GROUP by {Region} on {Sold} (Sales)")
        with lineage() as lin:
            tagged = lin.tag_database(database(figure4_top()))
            out = program.run(tagged)
        grouped = out.tables[0]
        witness = lin.witness(grouped, 2, 2)
        assert witness.origins == (CellRef(0, 1, 3),)
        assert witness.rows == ((0, (1,)),)
        check = lin.replay_check(program.run, witness)
        assert check.regenerated and check.matches >= 1

    def test_figure4_group_header_cell_closes_over_its_column(self):
        """A pivoted column attribute's witness is the row that spawned it."""
        program = parse_program("Sales <- GROUP by {Region} on {Sold} (Sales)")
        with lineage() as lin:
            tagged = lin.tag_database(database(figure4_top()))
            out = program.run(tagged)
        grouped = out.tables[0]
        witness = lin.witness(grouped, 0, 2)  # the first pivoted 'Sold'
        assert (0, (1,)) in witness.rows
        assert lin.replay_check(program.run, witness).regenerated

    def test_constant_cell_is_vacuously_constructive(self):
        program = parse_program("Sales <- GROUP by {Region} on {Sold} (Sales)")
        with lineage() as lin:
            tagged = lin.tag_database(database(figure4_top()))
            out = program.run(tagged)
        witness = lin.witness(out.tables[0], 1, 1)  # a padding ⊥
        assert witness.origins == ()
        check = lin.replay_check(program.run, witness)
        assert check.regenerated and check.matches == 0

    def test_restrict_keeps_headers_and_witness_rows_only(self):
        program = parse_program("Sales <- GROUP by {Region} on {Sold} (Sales)")
        with lineage() as lin:
            tagged = lin.tag_database(database(figure4_top()))
            out = program.run(tagged)
            witness = lin.witness(out.tables[0], 2, 2)
            restricted = lin.restrict(witness)
        table = restricted.tables[0]
        assert table.height == 1
        assert table.entry(1, 1).prov == frozenset({CellRef(0, 1, 1)})

    def test_while_fixpoint_multi_hop_witness_cites_the_chain(self):
        """TC(1,4) must cite edges (1,2), (2,3), (3,4) — provenance
        accumulated across while-loop iterations via the product hook."""
        from repro.obs.examples import EXAMPLES

        db, run = EXAMPLES["fo-while"].setup()
        with lineage() as lin:
            tagged = lin.tag_database(db)
            out = run(tagged)
        tc = out.tables_named(Name("TC"))[0]
        hops = {
            (str(tc.entry(i, 1)), str(tc.entry(i, 2))): i
            for i in tc.data_row_indices()
        }
        witness = lin.witness(tc, hops[("1", "4")], 1)
        assert witness.rows == ((0, (1, 2, 3)),)  # E rows: the whole chain
        check = lin.replay_check(run, witness)
        assert check.regenerated

    def test_while_fixpoint_one_hop_witness_stays_minimal(self):
        from repro.obs.examples import EXAMPLES

        db, run = EXAMPLES["fo-while"].setup()
        with lineage() as lin:
            tagged = lin.tag_database(db)
            out = run(tagged)
        tc = out.tables_named(Name("TC"))[0]
        hops = {
            (str(tc.entry(i, 1)), str(tc.entry(i, 2))): i
            for i in tc.data_row_indices()
        }
        witness = lin.witness(tc, hops[("1", "2")], 1)
        assert witness.rows == ((0, (1,)),)  # just edge (1,2)
        assert lin.replay_check(run, witness).regenerated


class TestAudit:
    @pytest.mark.parametrize(
        "name",
        ["fig4-group", "fig5-merge", "pivot", "schemasql", "good", "fo-while"],
    )
    def test_every_bundled_example_is_fully_constructive(self, name):
        from repro.obs.examples import EXAMPLES

        db, run = EXAMPLES[name].setup()
        result = audit_run(run, db, name=name)
        assert result.ok, result.failures
        assert result.queried == result.regenerated
        assert result.replays <= result.queried - result.constants

    def test_schemalog_example_is_fully_constructive(self):
        # largest audit — kept out of the parametrize so a failure names it
        from repro.obs.examples import EXAMPLES

        db, run = EXAMPLES["schemalog"].setup()
        result = audit_run(run, db, name="schemalog")
        assert result.ok, result.failures


class TestObservabilityIntegration:
    def test_registry_spans_carry_prov_cell_counts(self):
        program = parse_program("Sales <- GROUP by {Region} on {Sold} (Sales)")
        with observation() as obs, lineage() as lin:
            tagged = lin.tag_database(database(figure4_top()))
            program.run(tagged)
        spans = [s for root in obs.spans for s in root.walk() if s.name == "GROUP"]
        assert spans and spans[0].attributes["prov_cells_in"] > 0
        assert spans[0].attributes["prov_cells_out"] > 0
        statement = [s for root in obs.spans for s in root.walk() if s.name == "statement"]
        assert statement[0].attributes["prov_cells"] > 0

    def test_while_spans_record_the_provenance_frontier(self):
        from repro.obs.examples import EXAMPLES

        db, run = EXAMPLES["fo-while"].setup()
        with observation() as obs, lineage() as lin:
            run(lin.tag_database(db))
        whiles = [s for root in obs.spans for s in root.walk() if s.name == "while"]
        frontier = whiles[0].attributes["prov_frontier"]
        assert len(frontier) >= 2
        assert frontier == sorted(frontier)  # origins only accumulate

    def test_provenance_counts_ride_only_with_an_observation(self):
        """One rule for the op, statement and loop records: provenance
        counts ride along only while an observation collects.  A stream
        recorded under lineage alone carries none; one recorded beside an
        observation rebuilds its provenance-annotated EXPLAIN."""
        from repro.obs import Observation, Tracer
        from repro.obs.events import event_stream
        from repro.obs.examples import EXAMPLES

        def recorded_fields(scope):
            db, run = EXAMPLES["fo-while"].setup()
            with scope() as obs, event_stream() as bus, lineage() as lin:
                ring = bus.ring(capacity=1 << 20)
                run(lin.tag_database(db))
            events = ring.tail()
            fields = {k for e in events for k in e.data if k.startswith("prov_")}
            return obs, events, fields

        _none, _events, fields = recorded_fields(contextlib.nullcontext)
        assert fields == set()
        obs, events, fields = recorded_fields(observation)
        assert fields == {"prov_cells_in", "prov_cells_out", "prov_cells", "prov_frontier"}
        tracer = Tracer()
        for event in events:
            tracer.collect(event.kind, event.data)
        assert Observation(tracer).explain(timings=False) == obs.explain(timings=False)

    def test_explain_renders_prov_attributes(self):
        program = parse_program("Sales <- GROUP by {Region} on {Sold} (Sales)")
        with observation() as obs, lineage() as lin:
            program.run(lin.tag_database(database(figure4_top())))
        text = obs.explain(timings=False)
        assert "prov_cells" in text


class TestProvenanceGraph:
    def test_graph_links_inputs_to_outputs(self):
        program = parse_program("Sales <- GROUP by {Region} on {Sold} (Sales)")
        with lineage() as lin:
            tagged = lin.tag_database(database(figure4_top()))
            out = program.run(tagged)
        graph = provenance_graph(lin, out, name="fig4")
        assert graph["inputs"] and graph["outputs"] and graph["edges"]
        ids = {node["id"] for node in graph["inputs"]} | {
            node["id"] for node in graph["outputs"]
        }
        for edge in graph["edges"]:
            assert edge["from"] in ids and edge["to"] in ids

    def test_dot_rendering_is_a_digraph(self):
        program = parse_program("Sales <- GROUP by {Region} on {Sold} (Sales)")
        with lineage() as lin:
            tagged = lin.tag_database(database(figure4_top()))
            out = program.run(tagged)
        dot = graph_to_dot(provenance_graph(lin, out, name="fig4"))
        assert dot.startswith("digraph") and dot.rstrip().endswith("}")
        assert "->" in dot

    def test_writers_round_trip(self, tmp_path):
        import json

        from repro.obs.export import write_provenance_dot, write_provenance_json

        program = parse_program("Sales <- GROUP by {Region} on {Sold} (Sales)")
        with lineage() as lin:
            tagged = lin.tag_database(database(figure4_top()))
            out = program.run(tagged)
        graph = provenance_graph(lin, out, name="fig4")
        dot = write_provenance_dot([graph, graph], tmp_path / "p.dot")
        assert "subgraph" in dot.read_text()
        data = json.loads(
            write_provenance_json(graph, tmp_path / "p.json").read_text()
        )
        assert data["name"] == "fig4"


class TestDisabledPath:
    def test_lineage_is_off_by_default(self):
        assert OBS.lineage is None

    def test_results_identical_with_and_without_lineage(self):
        text = """
            Grouped <- GROUP by {Region} on {Sold} (Sales)
            Cleaned <- CLEANUP by {Part} on {null} (Grouped)
            Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
        """
        plain = parse_program(text).run(sales_info1())
        with lineage() as lin:
            tagged = lin.tag_database(sales_info1())
            traced = parse_program(text).run(tagged)
        assert traced == plain

    def test_disabled_run_allocates_nothing_in_obs_modules(self):
        """tracemalloc audit: with lineage off, no obs-module allocations.

        Same discipline as the observability audit — the provenance hooks
        must be a single ``OBS.lineage is None`` check on the disabled
        path, allocating nothing from any ``repro.obs`` source file.
        """
        import os
        import tracemalloc

        import repro.obs
        import repro.obs.lineage  # ensure the module under audit is loaded

        obs_dir = os.path.dirname(repro.obs.__file__)
        program = parse_program(
            """
            Grouped <- GROUP by {Region} on {Sold} (Sales)
            Cleaned <- CLEANUP by {Part} on {null} (Grouped)
            Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
            """
        )
        db = sales_info1()
        program.run(db)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            program.run(db)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        obs_filter = tracemalloc.Filter(True, os.path.join(obs_dir, "*"))
        stats = after.filter_traces([obs_filter]).compare_to(
            before.filter_traces([obs_filter]), "filename"
        )
        leaked = [(s.traceback, s.size_diff) for s in stats if s.size_diff > 0]
        assert leaked == []

    def test_product_and_cleanup_take_the_raw_branch_when_disabled(self):
        left = make_table("L", ["A"], [["x"]])
        right = make_table("R", ["B"], [["y"]])
        out = product(left, right)
        assert out.entry(1, 0).prov is None
        table = make_table("T", ["A", "B"], [["x", 1], ["x", None]])
        cleaned = cleanup(table, by={"A"}, on={NULL})
        assert cleaned.entry(1, 2).prov is None
