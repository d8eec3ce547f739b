"""Tests for the ``repro.api`` front door (ISSUE 3 acceptance criteria).

* parity smoke — one deterministic point through **every** system,
  twice, with bit-identical result digests,
* scenario composition — ``["region-outage", "skewed-ycsb"]`` applies both
  presets in list order, conflicting compositions fail loudly,
* one validation path for unsupported knobs (each system's ``knobs``),
* ``run(store=...)`` and ``run_replicates`` go through the sweep executor:
  caching, pooled workers, exception re-raise, worker-death retry,
* the facade never emits a ``DeprecationWarning``.
"""

import functools
import multiprocessing
import os
import warnings

import pytest

from repro.api import (
    RunSpec,
    Scenario,
    ScenarioConflictError,
    UnsupportedKnobError,
    build_deployment,
    build_system,
    compose_scenarios,
    replicate_specs,
    resolve,
    result_digest,
    route_key,
    run,
    run_replicates,
    scenario_key,
    spec_digest,
    system_names,
)
from repro.errors import ConfigurationError
from repro.store import JsonlBackend
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cli import main as sweep_cli
from repro.sweep.runner import discard_shared_pool

#: Small, fast deployment every test here reuses.
FAST_OVERRIDES = {
    "crypto_backend": "fast",
    "num_clients": 40,
    "client_groups": 2,
}


def _spec(**kwargs) -> RunSpec:
    kwargs.setdefault("overrides", FAST_OVERRIDES)
    kwargs.setdefault("duration", 0.4)
    kwargs.setdefault("warmup", 0.1)
    return RunSpec(**kwargs)


# ------------------------------------------------------------------ registry parity


def test_every_registered_system_runs_deterministically():
    """One deterministic point through every system, twice: equal digests."""
    assert {"serverless_bft", "serverless_cft", "pbft_replicated", "noshim"} <= set(
        system_names()
    )
    for system in system_names():
        first = run(_spec(system=system, seed=3, execution_threads=2))
        second = run(_spec(system=system, seed=3, execution_threads=2))
        assert first.committed_txns > 0, system
        assert result_digest(first) == result_digest(second), system


# ------------------------------------------------------------------ scenario composition


def test_composed_scenarios_apply_in_list_order():
    spec = _spec(scenarios=["region-outage", "skewed-ycsb"], seed=5)
    resolved = resolve(spec)
    assert resolved["scenarios"] == ["region-outage", "skewed-ycsb"]
    assert resolved["scenario"] == "region-outage+skewed-ycsb"
    # skewed-ycsb's workload contribution survives the merge...
    assert resolved["workload"]["zipfian_theta"] == 0.9
    # ...and region-outage's fault plan is built at deploy time.
    deployment = build_deployment(resolved)
    assert deployment.network.fault_plan.down_regions == {"us-east-2"}
    # Resolution is deterministic: same spec, same resolved dict.
    assert resolve(spec) == resolved


def test_composed_scenario_point_runs_through_sweep_and_facade():
    scenario_list = ("region-outage", "skewed-ycsb")
    facade_result = run(_spec(scenarios=list(scenario_list), seed=11))
    assert facade_result.committed_txns > 0

    point = RunSpec(
        labels={"drill": "composed"},
        scenarios=scenario_list,
        overrides={"num_clients": 40, "client_groups": 2},
        duration=0.4,
        warmup=0.1,
    )
    assert scenario_key(point.scenarios) == "region-outage+skewed-ycsb"
    report = run_sweep(SweepSpec(name="composed", points=(point,)))
    assert report.failed == 0
    assert report.outcomes[0].resolved["scenarios"] == list(scenario_list)
    assert report.outcomes[0].result.committed_txns > 0


def test_overlapping_scenario_keys_conflict(monkeypatch):
    from repro.api import scenarios

    monkeypatch.setitem(scenarios._SCENARIOS, "unit-test-mild-writes", Scenario(
        name="unit-test-mild-writes",
        description="conflicts with write-heavy on purpose",
        workload_overrides={"write_fraction": 0.1},
    ))
    with pytest.raises(ScenarioConflictError) as excinfo:
        compose_scenarios(["write-heavy", "unit-test-mild-writes"])
    assert "write_fraction" in str(excinfo.value)
    # Agreeing values are not a conflict.
    composed = compose_scenarios(["write-heavy", "write-heavy"])
    assert composed.workload_overrides == {"write_fraction": 0.9}
    # Point overrides still sit on top of the composed contribution.
    resolved = resolve(
        _spec(
            scenarios=["write-heavy", "skewed-ycsb"],
            overrides={**FAST_OVERRIDES, "write_fraction": 0.5},
        )
    )
    assert resolved["workload"]["write_fraction"] == 0.5
    assert resolved["workload"]["zipfian_theta"] == 0.9


def _crash_node(name, resolved):
    from repro.faults.byzantine import CrashBehaviour

    return {"node_behaviours": {name: CrashBehaviour()}}


def test_direct_fault_knobs_merge_with_scenarios_on_disjoint_nodes(monkeypatch):
    from repro.api import scenarios

    for victim in ("node-0", "node-3"):
        name = f"unit-test-crash-{victim}"
        monkeypatch.setitem(scenarios._SCENARIOS, name, Scenario(
            name=name,
            description="test-only crash of one node",
            runner_kwargs_factory=functools.partial(_crash_node, victim),
        ))
    # request-suppression attaches a behaviour to node-0, the second scenario
    # one to node-3 — disjoint, so the dicts merge.
    deployment = build_deployment(
        resolve(_spec(scenarios=["request-suppression", "unit-test-crash-node-3"]))
    )
    behaviours = {
        node.name for node in deployment.nodes if node._behaviour is not None
    }
    assert behaviours == {"node-0", "node-3"}
    # The same node from both scenarios is a conflict.
    clashing = _spec(scenarios=["request-suppression", "unit-test-crash-node-0"])
    with pytest.raises(ScenarioConflictError, match="node-0"):
        build_deployment(resolve(clashing))


def _small_config():
    from repro.core.config import ProtocolConfig

    return ProtocolConfig(crypto_backend="fast", num_clients=40, client_groups=2)


def test_constructor_extra_knobs_pass_through():
    # A custom fault object is no scenario: it reaches a deployment as a
    # constructor knob, which the adapter passes through unchanged.
    from repro.sim.network import NetworkFaultPlan

    plan = NetworkFaultPlan(down_regions=frozenset({"us-east-2"}))
    deployment = build_system("serverless_bft", _small_config(), network_fault_plan=plan)
    assert deployment.network.fault_plan is plan
    assert deployment.run(duration=0.3, warmup=0.05).committed_txns > 0
    with pytest.raises(UnsupportedKnobError):
        build_system(
            "pbft_replicated", _small_config(), network_fault_plan=NetworkFaultPlan()
        )


def test_overlapping_runner_knobs_conflict():
    # Both presets build a network fault plan: composing them is ambiguous.
    with pytest.raises(ScenarioConflictError):
        run(_spec(scenarios=["lossy-network", "region-outage"]))


# ------------------------------------------------------------------ knob validation


def test_unsupported_knobs_error_from_one_path():
    # Scenario-injected knob the system cannot host...
    with pytest.raises(UnsupportedKnobError) as excinfo:
        run(_spec(system="pbft_replicated", scenarios=["region-outage"]))
    assert "network_fault_plan" in str(excinfo.value)
    # ...and one passed to the constructor produce the same error type.
    from repro.faults.injector import PerBatchExecutorFaults
    from repro.faults.byzantine import WrongResultBehaviour

    with pytest.raises(UnsupportedKnobError):
        build_system(
            "pbft_replicated",
            _small_config(),
            executor_behaviour_factory=PerBatchExecutorFaults(1, WrongResultBehaviour),
        )


def test_run_spec_validation():
    with pytest.raises(ConfigurationError):
        RunSpec(system="martian")
    with pytest.raises(ConfigurationError):
        RunSpec(duration=0.0)
    with pytest.raises(ConfigurationError):
        RunSpec(overrides={"duration": 1.0})  # run-level key: use the field
    with pytest.raises(ConfigurationError):
        RunSpec(overrides={"warp_factor": 9})


# ------------------------------------------------------------------ dotted keys


def test_route_key_routing():
    assert route_key("protocol.batch_size") == ("config", "batch_size")
    assert route_key("config.batch_size") == ("config", "batch_size")
    assert route_key("workload.write_fraction") == ("workload", "write_fraction")
    assert route_key("batch_size") == ("config", "batch_size")
    assert route_key("write_fraction") == ("workload", "write_fraction")
    assert route_key("seed") == ("config", "seed")  # historical axis routing
    assert route_key("system") == ("run", "system")
    assert route_key("scenarios") == ("run", "scenarios")
    assert route_key("scenario") == ("run", "scenarios")
    with pytest.raises(ConfigurationError):
        route_key("protocol.write_fraction")  # YCSB field, wrong prefix
    with pytest.raises(ConfigurationError):
        route_key("mystery.knob")
    with pytest.raises(ConfigurationError):
        route_key("warp_factor")
    # Fields retired to module constants or deleted fail loudly, by name.
    retired = [
        "protocol.verifier_cores",
        "protocol.executor_concurrency_limit",
        "protocol.spawn_api_cost",
        "protocol.executor_read_ops_cost",
        "protocol.message_handling_cost",
        "protocol.crypto_costs",
        "protocol.executor_regions",
        "protocol.use_threshold_certificates",
        "protocol.cold_start_latency",
        "protocol.warm_start_latency",
        "workload.value_size_bytes",
    ]
    for key in retired:
        with pytest.raises(ConfigurationError, match=key.split(".")[1]):
            route_key(key)


def test_dotted_overrides_reach_the_configs():
    resolved = resolve(
        _spec(
            overrides={
                **FAST_OVERRIDES,
                "protocol.batch_size": 7,
                "workload.write_fraction": 0.75,
            }
        )
    )
    assert resolved["config"]["batch_size"] == 7
    assert resolved["config"]["num_clients"] == 40
    assert resolved["workload"]["write_fraction"] == 0.75


# ------------------------------------------------------------------ no deprecated paths


def test_facade_construction_never_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for system in ("serverless_bft", "serverless_cft", "pbft_replicated", "noshim"):
            result = run(_spec(system=system))
            assert result.committed_txns > 0


# ------------------------------------------------------------------ CLI


# ------------------------------------------------------------------ per-run store + replicates


def test_run_with_store_caches_and_resumes(tmp_path):
    store_path = str(tmp_path / "api.jsonl")
    spec = _spec()
    first = run(spec, store=store_path)  # a path is accepted directly
    store = JsonlBackend(store_path)
    assert len(store) == 1 and spec_digest(spec) in store
    # Same host-side fields as a sweep's or a pool worker's record.
    assert set(store.get(spec_digest(spec))["timing"]) == {
        "setup_seconds", "simulate_seconds", "collect_seconds",
    }

    # Second run: served from the store, bit-identical simulated metrics.
    second = run(spec, store=store)
    assert result_digest(second) == result_digest(first)

    # The store only intercepts matching specs; a different spec simulates.
    other = run(_spec(overrides={**FAST_OVERRIDES, "batch_size": 7}), store=store)
    assert result_digest(other) != result_digest(first)
    assert len(JsonlBackend(store_path)) == 2


def test_run_store_shares_addresses_with_sweeps(tmp_path):
    """The same RunSpec object is a cached facade run and a cached sweep
    point — one content-address space, whichever ran it first."""
    path = tmp_path / "shared.jsonl"
    store = JsonlBackend(str(path))
    spec = _spec(seed=11)
    run(spec, store=store)
    report = run_sweep(SweepSpec(name="shared", points=(spec,)), store=store)
    assert report.cached == 1 and report.simulated == 0

    swept_first = _spec(seed=12)
    run_sweep(SweepSpec(name="shared", points=(swept_first,)), store=store)
    records = path.read_text().count("\n")
    run(swept_first, store=store)
    assert path.read_text().count("\n") == records  # served, not re-simulated


def test_run_with_store_rejects_bespoke_fault_objects():
    """A spec is pure data: fault objects have no field to ride in on."""
    import dataclasses

    from repro.faults.byzantine import CrashBehaviour

    for knob in ("node_behaviours", "executor_behaviour_factory", "network_fault_plan"):
        with pytest.raises(TypeError, match=knob):
            RunSpec(**{knob: {"node-3": CrashBehaviour()}})
    assert len(dataclasses.fields(RunSpec)) == 11


def test_run_replicates_expands_caches_and_differs_per_seed(tmp_path):
    store = JsonlBackend(str(tmp_path / "family.jsonl"))
    spec = _spec(replicates=2)
    family = run_replicates(spec, store=store)
    assert len(family) == 2
    assert result_digest(family[0]) != result_digest(family[1])
    assert len(store) == 2

    # Re-run: 100% cache hit, same results.
    again = run_replicates(spec, store=JsonlBackend(store.path))
    assert [result_digest(r) for r in again] == [result_digest(r) for r in family]

    # run() refuses a multi-replicate spec instead of silently running one.
    with pytest.raises(ConfigurationError, match="run_replicates"):
        run(spec)
    # Expansion is the single-spec identity for replicates=1.
    single = _spec()
    assert replicate_specs(single) == (single,)


def test_run_replicates_pooled_persists_and_matches_serial(tmp_path):
    path = tmp_path / "pooled.jsonl"
    spec = _spec(replicates=2, seed=21)
    pooled = run_replicates(spec, workers=2, store=str(path))
    assert len(JsonlBackend(str(path))) == 2
    records = path.read_text().count("\n")
    # Second call: 100% cached — nothing is simulated, so nothing appended.
    again = run_replicates(spec, workers=2, store=str(path))
    assert path.read_text().count("\n") == records
    serial = [result_digest(result) for result in run_replicates(spec)]
    assert [result_digest(result) for result in pooled] == serial
    assert [result_digest(result) for result in again] == serial


class _BuildFailure(RuntimeError):
    """What ``_odd_seed_fails`` raises, to check the type survives a worker."""


def _odd_seed_fails(resolved):
    """Runner knobs of a test-only scenario: none, or a raise on an odd seed."""
    seed = resolved["config"]["seed"]
    if seed % 2:
        raise _BuildFailure(f"refusing odd seed {seed}")
    return {}


def _die_once(marker, resolved):
    """Kill the building worker process unless ``marker`` already exists."""
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(1)
    return {}


@pytest.fixture
def pooled_test_scenario(monkeypatch):
    """Put a test-only scenario in the table for one test's worker pool.

    Its ``runner_kwargs_factory`` runs where the point is built, so a
    pooled run fails in the worker.  A worker knows the table it inherited:
    the shared pool is discarded before the patch, so the next one is forked
    with the entry, and again afterwards, so no later test sees it.  A
    spawned worker imports the table afresh, without the entry.
    """
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("needs fork-start workers to inherit a patched table")
    from repro.api import scenarios

    def add(name, factory):
        monkeypatch.setitem(scenarios._SCENARIOS, name, Scenario(
            name=name, description="test-only scenario", runner_kwargs_factory=factory,
        ))

    discard_shared_pool()
    yield add
    discard_shared_pool()


def test_run_replicates_reraises_a_worker_error_after_storing_siblings(
    tmp_path, pooled_test_scenario
):
    pooled_test_scenario("unit-test-odd-seed-fails", _odd_seed_fails)
    # The first spec seed whose replicate 0 builds and replicate 1 raises.
    spec = next(
        candidate
        for candidate in (
            _spec(
                system="noshim", scenarios=["unit-test-odd-seed-fails"],
                seed=seed, replicates=2,
            )
            for seed in range(1, 64)
        )
        if [resolve(r)["config"]["seed"] % 2 for r in replicate_specs(candidate)]
        == [0, 1]
    )
    store = JsonlBackend(str(tmp_path / "family.jsonl"))
    with pytest.raises(_BuildFailure):
        run_replicates(spec, workers=2, store=store)
    assert list(store.iter_records())[0]["digest"] == spec_digest(
        replicate_specs(spec)[0]
    )
    assert len(store) == 1


def test_run_replicates_survives_a_worker_death(tmp_path, pooled_test_scenario):
    marker = str(tmp_path / "died-once")
    pooled_test_scenario("unit-test-dies-once", functools.partial(_die_once, marker))
    store = JsonlBackend(str(tmp_path / "retried.jsonl"))
    family = run_replicates(
        _spec(system="noshim", scenarios=["unit-test-dies-once"], replicates=2),
        workers=2,
        store=store,
    )
    assert os.path.exists(marker)  # a worker really died on the first attempt
    assert len(family) == 2 and all(result.committed_txns > 0 for result in family)
    assert any(record.get("retries") == 1 for record in store.iter_records())


def test_cli_list_systems(capsys):
    assert sweep_cli(["list-systems"]) == 0
    output = capsys.readouterr().out
    for name in ("serverless_bft", "serverless_cft", "pbft_replicated", "noshim"):
        assert name in output
    assert "knobs:" in output


def test_cli_set_overrides(tmp_path, capsys):
    store = str(tmp_path / "set.jsonl")
    args = [
        "run",
        "smoke",
        "--duration",
        "0.3",
        "--warmup",
        "0.05",
        "--store",
        store,
        "--set",
        "protocol.batch_size=7",
        "--set",
        "workload.write_fraction=0.9",
    ]
    assert sweep_cli(args) == 0
    assert "simulated=4 cached=0 failed=0" in capsys.readouterr().out
    # Same overrides hit the cache; different overrides are fresh points.
    assert sweep_cli(args + ["--expect-all-cached"]) == 0
    capsys.readouterr()


def test_cli_set_rejects_malformed_pairs(capsys):
    assert sweep_cli(["run", "smoke", "--set", "no-equals-sign"]) == 2
    assert "--set expects key=value" in capsys.readouterr().err
    assert sweep_cli(["run", "smoke", "--set", "warp_factor=9"]) == 2
