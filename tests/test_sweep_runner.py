"""Sweep execution tests: parallel determinism, caching, serialization, CLI.

The load-bearing guarantees (ISSUE 2 acceptance criteria):

* a sweep run with ``workers=4`` produces byte-identical point digests and
  simulated metrics to the same sweep run in-process, and
* a second run against the same result store is a 100% cache hit — zero
  points re-simulated.
"""

import dataclasses
import gc
import json
import os
import subprocess
import sys
import weakref
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import RunSpec, UnsupportedKnobError
from repro.sweep import (
    SweepSpec,
    apply_overrides,
    build_sweep,
    result_from_dict,
    result_to_dict,
    run_sweep,
    simulated_fingerprint,
)
from repro.sweep.cli import main as sweep_cli
from repro.api import build_deployment
from repro.store import JsonlBackend


def _tiny_sweep(name="tiny"):
    """Two fast points (fast crypto, 60 clients, 0.4 s virtual)."""
    shared = {"crypto_backend": "fast", "num_clients": 60, "client_groups": 4}
    return SweepSpec(
        name=name,
        points=tuple(
            RunSpec(
                labels={"batch_size": batch_size},
                overrides={**shared, "batch_size": batch_size},
                duration=0.4,
                warmup=0.1,
            )
            for batch_size in (5, 20)
        ),
    )


# ------------------------------------------------------------------ serial


def test_serial_run_produces_results():
    report = run_sweep(_tiny_sweep())
    assert report.simulated == 2 and report.cached == 0 and report.failed == 0
    for outcome in report.outcomes:
        assert outcome.ok
        assert outcome.result.committed_txns > 0
        assert len(outcome.digest) == 64
    table = report.table()
    assert table.column("batch_size") == [5, 20]
    assert all(value > 0 for value in table.column("throughput_txn_s"))


def test_result_round_trips_through_dict():
    report = run_sweep(_tiny_sweep())
    original = report.outcomes[0].result
    rebuilt = result_from_dict(result_to_dict(original))
    assert rebuilt == original


def test_failed_points_are_reported_not_raised():
    good = _tiny_sweep().points[0]
    # Rejected at resolution time (ProtocolConfig.validate).
    bad_config = RunSpec(
        labels={"kind": "bad-config"},
        overrides={"client_groups": 0},
        duration=0.4,
        warmup=0.1,
    )
    # Resolves fine but blows up when the deployment is built.
    bad_knob = RunSpec(
        labels={"kind": "bad-knob"},
        system="pbft_replicated",
        scenarios=("region-outage",),
        duration=0.4,
        warmup=0.1,
    )
    report = run_sweep(SweepSpec(name="mixed", points=(good, bad_config, bad_knob)))
    assert report.simulated == 1 and report.failed == 2
    assert report.outcomes[1].error is not None
    assert "network_fault_plan" in report.outcomes[2].error
    # Failed points contribute no table rows.
    assert len(report.table()) == 1


# ------------------------------------------------------------------ parallel determinism


def test_parallel_matches_serial_bit_for_bit_and_caches():
    """ISSUE 2 acceptance: workers=4 == in-process, then 100% cache hits."""
    sweep = _tiny_sweep("determinism")
    serial = run_sweep(sweep)

    store_path_free_run = run_sweep(sweep, workers=4)
    assert store_path_free_run.simulated == 2 and store_path_free_run.failed == 0

    # Identical digests in identical order...
    serial_digests = [outcome.digest for outcome in serial.outcomes]
    parallel_digests = [outcome.digest for outcome in store_path_free_run.outcomes]
    assert serial_digests == parallel_digests

    # ...and byte-identical simulated metrics (host wall-clock excluded).
    for left, right in zip(serial.outcomes, store_path_free_run.outcomes):
        assert json.dumps(
            simulated_fingerprint(left.result_dict), sort_keys=True
        ) == json.dumps(simulated_fingerprint(right.result_dict), sort_keys=True)


def test_second_run_is_full_cache_hit(tmp_path):
    sweep = _tiny_sweep("cache-hit")
    store = JsonlBackend(str(tmp_path / "results.jsonl"))
    first = run_sweep(sweep, store=store)
    assert first.simulated == 2 and first.cached == 0

    # Fresh store instance: must reload the JSONL records from disk.
    reloaded = JsonlBackend(str(tmp_path / "results.jsonl"))
    assert len(reloaded) == 2
    second = run_sweep(sweep, workers=4, store=reloaded)
    assert second.simulated == 0 and second.cached == 2 and second.failed == 0
    for left, right in zip(first.outcomes, second.outcomes):
        assert simulated_fingerprint(left.result_dict) == simulated_fingerprint(
            right.result_dict
        )


def test_interrupted_sweep_resumes(tmp_path):
    sweep = _tiny_sweep("resume")
    store = JsonlBackend(str(tmp_path / "results.jsonl"))
    # Simulate an interruption: only the first point made it into the store.
    only_first = SweepSpec(name="resume", points=(sweep.points[0],), seed=sweep.seed)
    run_sweep(only_first, store=store)
    report = run_sweep(sweep, store=store)
    assert report.cached == 1 and report.simulated == 1


def test_store_ignores_records_with_stale_result_schema(tmp_path):
    path = tmp_path / "results.jsonl"
    sweep = _tiny_sweep("schema")
    run_sweep(sweep, store=JsonlBackend(str(path)))
    # Rewrite the records as if produced by an older SimulationResult layout:
    # they must register as cache misses, not deserialisation crashes.
    lines = [json.loads(line) for line in open(path, encoding="utf-8")]
    with open(path, "w", encoding="utf-8") as handle:
        for record in lines:
            record["result_schema"] = "0" * 12
            handle.write(json.dumps(record) + "\n")
    stale = JsonlBackend(str(path))
    assert len(stale) == 0
    report = run_sweep(sweep, store=stale)
    assert report.simulated == 2 and report.cached == 0


def test_duplicate_digest_points_simulate_once():
    # Two pinned-seed points with identical configs share a digest: only the
    # representative runs, the twin is served from its result.
    twin_points = tuple(
        RunSpec(
            labels={"replicate": index},
            overrides={
                "crypto_backend": "fast",
                "num_clients": 60,
                "client_groups": 4,
            },
            seed=5,
            duration=0.4,
            warmup=0.1,
        )
        for index in range(2)
    )
    report = run_sweep(SweepSpec(name="twins", points=twin_points))
    assert report.outcomes[0].digest == report.outcomes[1].digest
    assert report.simulated == 1 and report.cached == 1 and report.failed == 0
    assert simulated_fingerprint(report.outcomes[0].result_dict) == (
        simulated_fingerprint(report.outcomes[1].result_dict)
    )


def test_store_skips_torn_trailing_line(tmp_path):
    path = tmp_path / "results.jsonl"
    sweep = _tiny_sweep("torn")
    run_sweep(sweep, store=JsonlBackend(str(path)))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"digest": "truncated-')
    reloaded = JsonlBackend(str(path))
    assert len(reloaded) == 2


def test_store_skips_torn_record_in_the_middle(tmp_path):
    """A torn record mid-file must not take the valid records after it down."""
    path = tmp_path / "results.jsonl"
    sweep = _tiny_sweep("torn-middle")
    run_sweep(sweep, store=JsonlBackend(str(path)))
    lines = open(path, encoding="utf-8").read().splitlines()
    assert len(lines) == 2
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(lines[0] + "\n")
        handle.write(lines[1][: len(lines[1]) // 2] + "\n")  # torn in the middle
        handle.write(lines[1] + "\n")  # valid record after the debris
    reloaded = JsonlBackend(str(path))
    assert len(reloaded) == 2
    assert run_sweep(sweep, store=reloaded).cached == 2


def test_store_append_repairs_a_torn_tail(tmp_path):
    """Appending after a crash mid-write must not weld onto the debris.

    Without the newline repair, the next record would concatenate onto the
    torn line and *both* would be unparseable — a crash would silently cost
    a point that was later reported as persisted.
    """
    path = tmp_path / "results.jsonl"
    sweep = _tiny_sweep("torn-tail")
    first = run_sweep(SweepSpec(name="torn-tail", points=(sweep.points[0],)))
    store = JsonlBackend(str(path))
    store.put("aaaa", {"labels": {}}, first.outcomes[0].result_dict, "torn-tail")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"digest": "torn-')  # crash mid-append, no newline
    resumed = JsonlBackend(str(path))
    resumed.put("bbbb", {"labels": {}}, first.outcomes[0].result_dict, "torn-tail")
    reloaded = JsonlBackend(str(path))
    assert "aaaa" in reloaded and "bbbb" in reloaded


def test_store_put_fsyncs_every_append(tmp_path, monkeypatch):
    """Durability is fsync, not flush: a reported point must survive a host
    crash, so every append must reach the disk before ``put`` returns."""
    import os as os_module

    import repro.store.jsonl as jsonl_module

    synced = []
    real_fsync = os_module.fsync
    monkeypatch.setattr(
        jsonl_module.os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
    )
    store = JsonlBackend(str(tmp_path / "fsync.jsonl"))
    sweep = _tiny_sweep("fsync")
    report = run_sweep(sweep, store=store)
    assert report.simulated == 2
    assert len(synced) == 2  # one fsync per persisted point


def test_parallel_stall_timeout_fails_running_points_promptly():
    import time

    points = tuple(
        RunSpec(
            labels={"b": batch_size},
            overrides={"batch_size": batch_size, "crypto_backend": "fast"},
            duration=2.0,
            warmup=0.2,
        )
        for batch_size in (5, 10)
    )
    started = time.perf_counter()
    report = run_sweep(
        SweepSpec(name="stall", points=points), workers=2, timeout=0.05
    )
    elapsed = time.perf_counter() - started
    assert report.failed == 2
    assert all("no result within" in outcome.error for outcome in report.outcomes)
    assert all(isinstance(outcome.exception, TimeoutError) for outcome in report.outcomes)
    # The hung workers are terminated instead of blocking pool shutdown: the
    # call must return long before the 2 s points would have finished.
    assert elapsed < 10.0


def test_wall_clock_seconds_is_the_timing_sum_on_both_paths():
    """A simulated point's wall clock means one thing serially and pooled:
    build + run + collect, i.e. the sum of its stored timing split."""
    sweep = SweepSpec(name="wall", points=(_tiny_sweep().points[0],))
    for workers in (0, 2):
        outcome = run_sweep(sweep, workers=workers).outcomes[0]
        assert outcome.timing is not None, workers
        assert outcome.wall_clock_seconds == sum(outcome.timing.values()), workers


class _InProcessPool:
    """A pool stand-in that runs every task in-process as it is submitted."""

    def __init__(self, break_on_submit=None):
        self.submits = 0
        self.break_on_submit = break_on_submit

    def submit(self, fn, *args):
        self.submits += 1
        if self.submits == self.break_on_submit:
            raise BrokenProcessPool("a worker died while tasks were being submitted")
        future = Future()
        future.set_result(fn(*args))
        return future


def test_a_pool_that_breaks_during_submission_retries_the_rest(monkeypatch):
    """A worker death surfacing from ``submit`` itself (a warm pool breaks
    before the batch is fully submitted) fails the point being submitted and
    every later one with the worker-death error, and the retry pass re-runs
    them on a fresh pool instead of ``run_sweep`` crashing."""
    import repro.sweep.runner as runner_module

    pools = iter([_InProcessPool(break_on_submit=2), _InProcessPool()])
    monkeypatch.setattr(runner_module, "get_shared_pool", lambda workers: next(pools))
    monkeypatch.setattr(runner_module, "discard_shared_pool", lambda terminate=False: None)
    base = _tiny_sweep().points[0]
    sweep = SweepSpec(
        name="broken-submit",
        points=tuple(
            dataclasses.replace(
                base,
                labels={"batch_size": size},
                overrides={**base.overrides, "batch_size": size},
            )
            for size in (5, 10, 20)
        ),
    )
    report = run_sweep(sweep, workers=2)
    assert report.failed == 0 and report.simulated == 3
    assert [outcome.retries for outcome in report.outcomes] == [0, 1, 1]


def test_a_single_point_process_does_not_import_the_worker_pool():
    # The pool's imports (multiprocessing, sockets, pickle) cost 0.6-0.9 MB
    # of RSS: a process that runs or stores points serially never pays it.
    code = (
        "import sys\n"
        "import repro.api\n"
        "from repro.sweep import point_digest, result_to_dict\n"
        "from repro.report import render_markdown\n"
        "from repro.store import open_store\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------------ point lifetime


def _live_deployments() -> set:
    """Pool probe: ids of the Deployments alive (or uncollected) in this process."""
    from repro.core.runner import Deployment

    return {id(obj) for obj in gc.get_objects() if isinstance(obj, Deployment)}


def _record_deployments(monkeypatch):
    """Wrap the runner's ``build_deployment``; weak references to what it built."""
    import repro.sweep.runner as runner_module

    built = []
    real_build = runner_module.build_deployment

    def recording_build(*args, **kwargs):
        deployment = real_build(*args, **kwargs)
        built.append(weakref.ref(deployment))
        return deployment

    monkeypatch.setattr(runner_module, "build_deployment", recording_build)
    return built


def test_no_deployment_outlives_its_serial_point(monkeypatch):
    built = _record_deployments(monkeypatch)
    report = run_sweep(build_sweep("smoke", duration=0.3, warmup=0.05))
    assert report.simulated == 4 and len(built) == 4
    assert [ref() for ref in built] == [None] * 4


def test_no_deployment_outlives_its_pooled_point():
    from repro.sweep.pool import discard_shared_pool, get_shared_pool

    # A forked worker inherits this process's heap: spawn the pool from a
    # collected one, so the only Deployments a worker can hold beyond those
    # still alive here (same ids after a fork) are the ones its points built.
    gc.collect()
    discard_shared_pool()
    inherited = _live_deployments()
    report = run_sweep(build_sweep("smoke", duration=0.3, warmup=0.05), workers=2)
    assert report.simulated == 4
    pool = get_shared_pool(2)
    for _ in range(2):
        assert pool.submit(_live_deployments).result(timeout=60) <= inherited


@pytest.mark.parametrize("collector_on", [True, False])
def test_a_point_restores_the_callers_collector_and_reclaims(monkeypatch, collector_on):
    from repro.sweep import resolve_point
    from repro.sweep.runner import _timed_simulate

    built = _record_deployments(monkeypatch)
    sweep = _tiny_sweep("lifetime")
    good = resolve_point(sweep, sweep.points[0])
    # pbft_replicated hosts no network fault plan: the build raises.
    bad = resolve_point(
        sweep,
        dataclasses.replace(
            sweep.points[0], system="pbft_replicated", scenarios="region-outage"
        ),
    )
    was_on = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        result_dict, timing = _timed_simulate(good)
        assert gc.isenabled() is collector_on
        assert result_dict["committed_txns"] > 0 and set(timing) == {
            "setup_seconds", "simulate_seconds", "collect_seconds",
        }
        assert len(built) == 1 and built[0]() is None
        with pytest.raises(UnsupportedKnobError, match="network_fault_plan"):
            _timed_simulate(bad)
        assert gc.isenabled() is collector_on
    finally:
        (gc.enable if was_on else gc.disable)()


# ------------------------------------------------------------------ replicates end-to-end


def test_replicated_sweep_simulates_distinct_seeds_and_caches(tmp_path):
    """ISSUE 4 acceptance: replicates=N yields N distinct per-seed digests
    that are 100% cache hits on re-run."""
    sweep = apply_overrides(_tiny_sweep("replicated"), {"replicates": 2})
    store = JsonlBackend(str(tmp_path / "rep.jsonl"))
    first = run_sweep(sweep, store=store)
    assert first.simulated == 4 and first.failed == 0  # 2 points x 2 seeds
    digests = [outcome.digest for outcome in first.outcomes]
    assert len(set(digests)) == 4
    # Replicates are genuinely different runs, not copies of one seed.
    fingerprints = {
        json.dumps(simulated_fingerprint(outcome.result_dict), sort_keys=True)
        for outcome in first.outcomes
    }
    assert len(fingerprints) == 4

    second = run_sweep(sweep, workers=2, store=JsonlBackend(store.path))
    assert second.simulated == 0 and second.cached == 4
    assert [outcome.digest for outcome in second.outcomes] == digests


def test_replicate_expansion_reaches_the_report_table():
    report = run_sweep(apply_overrides(_tiny_sweep("labelled"), {"replicates": 2}))
    table = report.table()
    assert "replicate" in table.columns
    assert table.column("replicate") == [0, 1, 0, 1]


def test_missing_metric_is_a_blank_cell_not_a_crash():
    """Fault-free points carry no recovery metrics: the cell is None."""
    shared = {"crypto_backend": "fast", "num_clients": 40, "client_groups": 2}
    sweep = SweepSpec(
        name="mixed",
        points=tuple(
            RunSpec(
                labels={"scenario": scenario},
                scenarios=scenario,
                overrides=shared,
                duration=1.0,
                warmup=0.0,
            )
            for scenario in ("baseline", "primary-crash")
        ),
    )
    report = run_sweep(sweep)
    assert report.failed == 0
    table = report.table(metrics=(("unavail", "extra.unavailability_seconds"),))
    unavailability = table.series("scenario", "unavail")
    assert unavailability["baseline"] is None
    assert unavailability["primary-crash"] >= 0.0


# ------------------------------------------------------------------ scenarios end-to-end


@pytest.mark.parametrize("scenario", ["region-outage", "byzantine-executors"])
def test_scenario_points_simulate(scenario):
    point = RunSpec(
        labels={"scenario": scenario},
        scenarios=scenario,
        overrides={"num_clients": 40, "client_groups": 2},
        duration=0.4,
        warmup=0.1,
    )
    report = run_sweep(SweepSpec(name="drill", points=(point,)))
    assert report.failed == 0
    assert report.outcomes[0].result.committed_txns > 0


def test_baseline_system_points_simulate():
    points = tuple(
        RunSpec(
            labels={"system": system},
            system=system,
            overrides={
                "crypto_backend": "fast",
                "num_clients": 40,
                "client_groups": 2,
            },
            execution_threads=2,
            duration=0.4,
            warmup=0.1,
        )
        for system in ("serverless_cft", "pbft_replicated", "noshim")
    )
    report = run_sweep(SweepSpec(name="systems", points=points))
    assert report.failed == 0
    assert all(outcome.result.committed_txns > 0 for outcome in report.outcomes)


def test_region_outage_plan_drops_executor_region_traffic():
    from repro.sweep import resolve_point

    sweep = _tiny_sweep("outage-probe")
    point = sweep.points[0]
    resolved = dict(
        resolve_point(sweep, point),
        scenario="region-outage",
        scenarios=["region-outage"],
    )
    network = build_deployment(resolved).network
    network.register("probe-endpoint", "us-east-2", lambda *_args: None)
    dropped = network.messages_dropped
    network.send("probe-endpoint", "verifier", "lost", 10)
    assert network.messages_dropped == dropped + 1
    network.send("node-0", "verifier", "delivered", 10)
    assert network.messages_dropped == dropped + 1


# ------------------------------------------------------------------ CLI


def test_cli_run_and_cache_cycle(tmp_path, capsys):
    store = str(tmp_path / "cli.jsonl")
    args = ["run", "smoke", "--duration", "0.3", "--warmup", "0.05", "--store", store]
    assert sweep_cli(args) == 0
    output = capsys.readouterr().out
    assert "simulated=4 cached=0 failed=0" in output

    # Second run: everything cached, --expect-all-cached passes.
    assert sweep_cli(args + ["--expect-all-cached"]) == 0
    output = capsys.readouterr().out
    assert "simulated=0 cached=4 failed=0" in output


def test_cli_expect_all_cached_fails_on_cold_store(tmp_path, capsys):
    store = str(tmp_path / "cold.jsonl")
    code = sweep_cli(
        [
            "run",
            "smoke",
            "--duration",
            "0.3",
            "--warmup",
            "0.05",
            "--store",
            store,
            "--expect-all-cached",
            "--quiet",
        ]
    )
    assert code == 3


def test_cli_runs_sweep_file(tmp_path, capsys):
    sweep_file = tmp_path / "custom.json"
    sweep_file.write_text(
        json.dumps(
            {
                "name": "custom-file-sweep",
                "duration": 0.3,
                "warmup": 0.05,
                "config": {
                    "crypto_backend": "fast",
                    "num_clients": 40,
                    "client_groups": 2,
                },
                "workload": {"clients": 40},
                "grid": {"batch_size": [5, 10]},
            }
        )
    )
    assert sweep_cli(["run", str(sweep_file), "--quiet"]) == 0
    assert "custom-file-sweep" in capsys.readouterr().out


def test_cli_list_and_scenarios(capsys):
    assert sweep_cli(["list"]) == 0
    assert "smoke" in capsys.readouterr().out
    assert sweep_cli(["scenarios"]) == 0
    assert "region-outage" in capsys.readouterr().out


def test_cli_unknown_sweep_errors(capsys):
    assert sweep_cli(["run", "definitely-not-a-sweep"]) == 2


@pytest.mark.parametrize(
    "shard_args",
    [
        ["--shard-index", "1"],
        ["--shard-count", "0"],
        ["--shard-index", "-1", "--shard-count", "2"],
        ["--shard-index", "2", "--shard-count", "2"],
    ],
    ids=["index-without-count", "zero-count", "negative-index", "index-past-count"],
)
def test_cli_rejects_a_shard_outside_the_grid(shard_args, capsys):
    # Checked for one shard too: a stray --shard-index must not run the
    # whole grid.
    args = ["run", "smoke", "--duration", "0.3", "--warmup", "0.05", "--quiet"]
    assert sweep_cli(args + shard_args) == 2
    assert "--shard-index must be in [0, " in capsys.readouterr().err
