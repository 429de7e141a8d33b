"""Workload fingerprinting and the stats-audit report."""

import json

from repro.algebra.programs import parse_program
from repro.obs.stats import STATS_SCHEMA_VERSION
from repro.obs.workload import fingerprint_program, normalize_program, stats_audit


class TestFingerprint:
    def test_constants_normalize_away(self):
        # Different SELECTCONST constants, same workload shape.
        nuts = parse_program("T <- SELECTCONST attr Part value nuts (Sales)")
        bolts = parse_program("T <- SELECTCONST attr Part value bolts (Sales)")
        assert fingerprint_program(nuts) == fingerprint_program(bolts)
        assert "?" in normalize_program(nuts)

    def test_structure_still_distinguishes(self):
        a = parse_program("T <- SELECTCONST attr Part value nuts (Sales)")
        b = parse_program("T <- SELECTCONST attr Region value nuts (Sales)")
        assert fingerprint_program(a) != fingerprint_program(b)

    def test_while_bodies_fingerprint(self):
        program = parse_program(
            """
            while Delta do
                Delta <- DIFFERENCE (Delta, Delta)
            end
            """
        )
        normalized = normalize_program(program)
        assert normalized.startswith("while")
        assert "DIFFERENCE" in normalized
        assert len(fingerprint_program(program)) == 16

    def test_attribute_params_are_kept(self):
        program = parse_program("G <- GROUP by {Region} on {Sold} (Sales)")
        normalized = normalize_program(program)
        assert "Region" in normalized and "Sold" in normalized


class TestStatsAudit:
    def test_report_shape_and_coverage(self):
        report = stats_audit(seeds=8, tc_size=4)
        assert report["version"] == 1
        assert report["stats_schema_version"] == STATS_SCHEMA_VERSION
        assert report["corpus"]["cases"] > 8
        assert report["overall"]["estimates"] > 0
        assert report["overall"]["p50"] >= 1.0
        # Machine readable end to end.
        json.dumps(report)
        coverage = report["coverage"]
        assert set(coverage["dispatched_ops"]) <= set(coverage["estimated_ops"])

    def test_default_corpus_covers_every_dispatched_op(self):
        # The acceptance bar: with the default seed budget, every op kind
        # the corpus dispatches gets a scored estimate.
        report = stats_audit()
        assert report["coverage"]["complete"], report["coverage"]["missing"]
        assert report["coverage"]["missing"] == []
        # The corpus is rich enough to exercise the bulk of the algebra
        # plus the WHILE pseudo-op.
        assert len(report["coverage"]["dispatched_ops"]) >= 15
        assert "WHILE" in report["ops"]

    def test_per_op_records_have_percentiles_and_sources(self):
        report = stats_audit(seeds=4, tc_size=4)
        for record in report["ops"].values():
            assert record["count"] >= 1
            assert record["p50"] >= 1.0
            assert record["p95"] >= record["p50"]
            assert record["max"] >= record["p95"]
            assert set(record["sources"]) >= {"stats", "shape"}

    def test_naive_engine_audit_runs(self):
        report = stats_audit(seeds=2, tc_size=4)
        assert "engine" not in report
        assert report["overall"]["estimates"] > 0
