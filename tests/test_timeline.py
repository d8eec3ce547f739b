"""Fault-timeline engine: DSL, watchdog, presets, and end-to-end recovery.

Covers the crash–recovery tentpole from the outside in: the timeline DSL
round-trips and rejects malformed clauses, the liveness watchdog turns a
commit stream into unavailability/TTR numbers, the chaos presets wire the
timeline through the facade, a primary crash actually recovers (commits
resume, metrics land in ``SimulationResult.extra``), and the sweep
runner's worker-death retry plumbing behaves.
"""

import concurrent.futures

import pytest

from repro.api import RunSpec, run
from repro.errors import ConfigurationError
from repro.faults.timeline import (
    CrashEvent,
    LivenessWatchdog,
    PartitionEvent,
    RecoverEvent,
    SlowEvent,
    format_timeline,
    parse_timeline,
)
from repro.sweep.runner import _should_retry
from repro.api import get_scenario


# ------------------------------------------------------------------ DSL


def test_parse_timeline_all_clause_kinds():
    events = parse_timeline(
        "crash:node-0@0.5; recover:node-0@1.5;"
        "slow:node-1@0.2-0.8x3; partition:node-2,node-3|node-0@0.1-0.9"
    )
    assert [type(event) for event in events] == [
        PartitionEvent,
        SlowEvent,
        CrashEvent,
        RecoverEvent,
    ]  # sorted by activation time
    crash = next(e for e in events if isinstance(e, CrashEvent))
    assert crash.node == "node-0" and crash.at == 0.5
    slow = next(e for e in events if isinstance(e, SlowEvent))
    assert (slow.at, slow.until, slow.factor) == (0.2, 0.8, 3.0)
    partition = next(e for e in events if isinstance(e, PartitionEvent))
    assert partition.groups == (("node-2", "node-3"), ("node-0",))
    assert (partition.at, partition.heal_at) == (0.1, 0.9)


def test_format_timeline_round_trips():
    text = "crash:primary@0.3;recover:primary@1.2;slow:node-1@0.2-0.8x3"
    events = parse_timeline(text)
    assert parse_timeline(format_timeline(events)) == events


@pytest.mark.parametrize(
    "bad",
    [
        "crash:node-0",  # no @time
        "crash:@0.5",  # no target
        "crash:node-0@soon",  # unparseable time
        "crash:node-0@-1",  # negative time
        "explode:node-0@0.5",  # unknown kind
        "slow:node-0@0.5-0.1x2",  # window ends before it starts
        "slow:node-0@0.1-0.5x0",  # non-positive factor
        "partition:node-0|@0.1-0.5",  # empty group
        "partition:node-0|node-1@0.5-0.1",  # heals before it starts
    ],
)
def test_parse_timeline_rejects_malformed_clauses(bad):
    with pytest.raises(ConfigurationError):
        parse_timeline(bad)


def test_config_validation_rejects_bad_timeline():
    with pytest.raises(ConfigurationError):
        run(RunSpec(duration=0.5, overrides={"fault_timeline": "crash:node-0"}))


# ------------------------------------------------------------------ watchdog


def test_watchdog_counts_long_gaps_and_tail():
    watchdog = LivenessWatchdog(stall_threshold=0.25)
    watchdog.on_commit(0.1)
    watchdog.on_commit(0.2)  # small gap: not a stall
    watchdog.on_commit(1.0)  # 0.8s gap: stall
    watchdog.finalize(duration=2.0)  # 1.0s tail gap: stall
    assert watchdog.stall_count == 2
    assert watchdog.unavailability_seconds == pytest.approx(1.8)


def test_watchdog_time_to_recovery_is_worst_case():
    watchdog = LivenessWatchdog()
    watchdog.note_fault(1.0)
    watchdog.note_fault(1.5)
    watchdog.on_commit(1.8)  # resolves both: TTR 0.8 and 0.3
    watchdog.finalize(duration=3.0)
    assert watchdog.time_to_recovery_seconds == pytest.approx(0.8)


def test_watchdog_censors_unresolved_fault_at_run_end():
    watchdog = LivenessWatchdog()
    watchdog.on_commit(0.5)
    watchdog.note_fault(1.0)  # never followed by a commit
    watchdog.finalize(duration=3.0)
    assert watchdog.time_to_recovery_seconds == pytest.approx(2.0)


# ------------------------------------------------------------------ presets


def test_shim_crash_preset_is_timeline_alias():
    assert get_scenario("shim-crash").config_overrides == {
        "fault_timeline": "crash:last@0"
    }


def test_chaos_presets_carry_timelines():
    for name in (
        "primary-crash",
        "rolling-restart",
        "view-change-storm",
        "checkpoint-lag",
        "region-outage-heal",
    ):
        overrides = get_scenario(name).config_overrides
        parse_timeline(str(overrides["fault_timeline"]))  # must be well-formed


# ------------------------------------------------------------------ end to end


def test_primary_crash_recovers_and_records_metrics():
    result = run(
        RunSpec(
            system="serverless_bft",
            scenarios=["primary-crash"],
            duration=2.0,
            warmup=0.0,
            seed=3,
        )
    )
    # Commits resume after the crash window: the run commits far more than
    # what fits before the 0.3s crash point.
    assert result.committed_txns > 0
    assert result.view_changes >= 1
    extra = result.extra
    assert extra["fault_crashes"] == 1
    assert extra["fault_recoveries"] == 1
    assert extra["unavailability_seconds"] > 0
    assert extra["time_to_recovery_seconds"] > 0
    assert extra["checkpoints_sent"] >= 1


def test_fault_free_run_has_no_recovery_metrics():
    result = run(RunSpec(duration=0.5, warmup=0.0, seed=3))
    assert "unavailability_seconds" not in result.extra
    assert "fault_events" not in result.extra


def test_pbft_replicated_rejects_fault_timeline():
    with pytest.raises(ConfigurationError):
        run(
            RunSpec(
                system="pbft_replicated",
                duration=0.5,
                overrides={"fault_timeline": "crash:node-0@0.1"},
            )
        )


# ------------------------------------------------------------------ sweep retry


def test_should_retry_only_on_worker_death():
    broken = concurrent.futures.process.BrokenProcessPool("worker died")
    assert _should_retry(broken, retries=0)
    assert not _should_retry(broken, retries=1)  # one retry only
    assert not _should_retry(ValueError("simulation bug"), retries=0)
    assert not _should_retry(concurrent.futures.TimeoutError(), retries=0)


def test_store_records_retry_count_only_when_nonzero(tmp_path):
    from repro.store import JsonlBackend

    store = JsonlBackend(str(tmp_path / "store.jsonl"))
    clean = store.put("d1", {"labels": {}}, {"committed_txns": 1})
    retried = store.put("d2", {"labels": {}}, {"committed_txns": 1}, retries=1)
    assert "retries" not in clean
    assert retried["retries"] == 1
    reloaded = JsonlBackend(str(tmp_path / "store.jsonl"))
    assert reloaded.get("d2")["retries"] == 1
