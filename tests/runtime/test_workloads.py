"""One spec vocabulary: the workload resolver, ledger replay's
resolution and crash recovery turn every spec into the same program,
or refuse it with the same typed failure."""

import pytest

from repro.core.errors import (
    BudgetExceededError,
    LedgerError,
    MalformedSpecError,
    NotAProgramError,
    ReproError,
    UnknownSpecError,
    WorkloadSpecError,
)
from repro.obs.examples import EXAMPLES
from repro.obs.ledger import RunLedger, new_run_id
from repro.obs.replay import resolve_runnable
from repro.runtime import Limits, run_hardened
from repro.runtime.supervisor import Supervisor
from repro.runtime.workloads import (
    resolve_workload,
    restructure_workload,
    transitive_closure_workload,
)

SPECS = [
    *EXAMPLES, "tc:5", "chain:3", "restructure:4", "fig5", "fig", "nope", "tc:x",
    "restructure:0",
]

#: The specs that must fail, and how.
FAILURES = {
    "olap": NotAProgramError,
    "fig": UnknownSpecError,
    "nope": UnknownSpecError,
    "tc:x": MalformedSpecError,
    "restructure:0": MalformedSpecError,
}


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A loadable checkpoint, so recovery gets as far as resubmitting."""
    program, db = transitive_closure_workload(6)
    path = tmp_path_factory.mktemp("ck") / "ck.json"
    with pytest.raises(BudgetExceededError):
        run_hardened(
            program, db, limits=Limits(max_total_rows=20), checkpoint_path=path
        )
    assert path.exists()
    return path


class _Capturing(Supervisor):
    """Records what recovery resubmits instead of running it."""

    def __init__(self, ledger):
        super().__init__(ledger=ledger, sleep=lambda s: None)
        self.submitted = []

    def submit(self, program, db, *, workload, **kwargs):
        self.submitted.append((workload, repr(program)))
        raise ReproError("captured, not run")


def _resolved(spec):
    try:
        label, program, _db = resolve_workload(spec)
    except WorkloadSpecError as err:
        return type(err), str(err)
    return label, repr(program)


def _replayed(spec):
    try:
        program, _db = resolve_runnable(spec)
    except LedgerError as err:
        return type(err.__cause__), str(err.__cause__)
    return repr(program)


def _recovered(spec, ledger_dir, checkpoint):
    ledger = RunLedger(ledger_dir)
    ledger.record_start(
        {
            "run_id": new_run_id(), "ts": 1.0, "workload": spec, "spec": spec,
            "engine": "naive", "fingerprint": "f" * 16,
            "checkpoint": str(checkpoint), "limits": None,
        }
    )
    supervisor = _Capturing(ledger)
    return supervisor.submitted, supervisor.recover()


@pytest.mark.parametrize("spec", SPECS)
def test_resolver_replay_and_recovery_agree(spec, tmp_path, checkpoint):
    resolved = _resolved(spec)
    submitted, report = _recovered(spec, tmp_path / "led", checkpoint)
    if spec in FAILURES:
        assert resolved[0] is FAILURES[spec]
        assert _replayed(spec) == resolved
        assert submitted == []
        (orphan,) = report.orphaned
        assert orphan["reason"] == f"unreplayable spec {spec!r}"
    else:
        label, program = resolved
        assert label == ("fig5-merge" if spec == "fig5" else spec)
        assert _replayed(spec) == program
        assert submitted == [resolved]
        assert report.orphaned == ()


def test_examples_hand_over_their_ta_program():
    for name, example in EXAMPLES.items():
        if example.build is None:
            assert example.setup is None, name
            continue
        program, db = example.build()
        setup_db, run = example.setup()
        assert run(setup_db) == program.run(db), name


def test_restructure_pivots_and_unpivots_3n_rows():
    program, db = restructure_workload(5)
    (sales,) = db.tables
    assert sales.height == 15 and sales.width == 3
    out = program.run(db)
    flat = next(t for t in out.tables if str(t.name) == "Flat")
    assert sorted(flat.grid[1:]) == sorted(sales.grid[1:])
    pivot = next(t for t in out.tables if str(t.name) == "Pivot")
    assert pivot.height == 1 + 5  # the Region header row, one row per part
    assert resolve_workload("restructure")[0] == "restructure:80"
    assert resolve_workload("pivot")[0] == "pivot"  # the example stays reachable
