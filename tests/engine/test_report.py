"""Fallback attribution: every vector-engine decline names its reason."""

from diffgen import MAX_WHILE_ITERATIONS, gen_case

from repro.core.errors import ReproError
from repro.engine import FALLBACK_REASONS, fallback_report, report_text
from repro.engine.runtime import VectorEngine, engine_scope

#: Seeds per family, mirroring the differential corpus' seed spaces.
CORPUS = [
    (0, {"allow_while": False, "allow_wildcards": False}),
    (1_000_000, {"allow_while": False, "allow_wildcards": True}),
    (2_000_000, {"allow_while": True, "allow_wildcards": True}),
]
SEEDS_PER_FAMILY = 25


def _run_corpus() -> VectorEngine:
    """One shared backend accumulating stats over the fuzzer corpus."""
    backend = VectorEngine()
    for offset, flags in CORPUS:
        for index in range(SEEDS_PER_FAMILY):
            program, db = gen_case(offset + index, **flags)
            try:
                with engine_scope(backend):
                    program.run(db, max_while_iterations=MAX_WHILE_ITERATIONS)
            except ReproError:
                pass  # typed errors are legitimate corpus outcomes
    return backend


class TestCorpusAttribution:
    def test_every_fallback_on_the_fuzzer_corpus_is_attributed(self):
        """Acceptance: 100% of corpus fallbacks carry a named reason."""
        backend = _run_corpus()
        report = fallback_report(backend.stats)
        assert report["fallbacks"] > 0, "corpus must exercise fallbacks"
        assert report["attributed"] == report["fallbacks"]
        assert report["coverage"] == 1.0
        assert set(report["reasons"]) <= set(FALLBACK_REASONS)
        # Per-op attribution is complete too, not just in aggregate.
        for op, record in report["ops"].items():
            assert sum(record["reasons"].values()) == record["fallback"], op

    def test_corpus_exercises_multiple_reasons(self):
        report = fallback_report(_run_corpus().stats)
        assert "no_kernel" in report["reasons"]
        assert len(report["reasons"]) >= 2


class TestReportShape:
    STATS = {
        "fallbacks": 3,
        "fallback:GROUP": 2,
        "fallback:TUPLENEW": 1,
        "reason:GROUP:no_kernel": 2,
        "reason:TUPLENEW:needs_fresh": 1,
    }

    def test_report_structure(self):
        report = fallback_report(self.STATS)
        assert set(report) == {"fallbacks", "attributed", "coverage", "ops", "reasons"}
        assert report["fallbacks"] == 3
        assert report["attributed"] == 3
        assert report["coverage"] == 1.0
        assert report["ops"]["GROUP"] == {"fallback": 2, "reasons": {"no_kernel": 2}}
        assert report["reasons"] == {"needs_fresh": 1, "no_kernel": 2}

    def test_unattributed_fallback_lowers_coverage(self):
        stats = dict(self.STATS)
        stats["fallbacks"] = 4  # one decline never called note_fallback
        report = fallback_report(stats)
        assert report["attributed"] == 3
        assert report["coverage"] == 0.75

    def test_empty_stats_have_full_coverage(self):
        report = fallback_report({})
        assert report["fallbacks"] == 0
        assert report["coverage"] == 1.0
        assert report["ops"] == {} and report["reasons"] == {}

    def test_report_text_renders_the_table(self):
        text = report_text(fallback_report(self.STATS))
        assert "ENGINE REPORT" in text
        assert "fallback: 3  attributed: 3/3 (100%)" in text
        assert "no_kernel=2" in text
        assert "needs_fresh" in text
