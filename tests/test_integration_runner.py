"""Integration tests for the full serverless-edge deployment (happy path)."""

import pytest

from tests.helpers import make_config, make_workload, run_simulation
from repro.core.config import SpawnPolicyName
from repro.errors import ConfigurationError
from repro.api import build_system


def test_transactions_flow_end_to_end():
    simulation, result = run_simulation()
    assert result.committed_txns > 0
    assert result.throughput_txn_per_sec > 0
    assert result.completed_requests > 0
    assert result.latency.mean > 0
    assert result.view_changes == 0
    assert result.messages_dropped == 0


def test_every_validated_sequence_is_contiguous_and_spawned():
    simulation, result = run_simulation()
    validated = simulation.verifier.validated_sequence_numbers
    assert validated == set(range(1, len(validated) + 1))
    # The primary spawned n_E executors per committed batch (primary spawning).
    spawned = result.spawned_executors
    assert spawned >= len(validated) * simulation.config.num_executors


def test_storage_receives_only_committed_writes():
    simulation, result = run_simulation()
    # Every write in the store has version >= 1 and the number of distinct
    # written keys is bounded by committed transactions times writes per txn.
    store = simulation.store
    writes_per_txn = simulation.workload_config.operations_per_transaction
    assert store.write_count <= (result.committed_txns + result.aborted_txns) * writes_per_txn
    assert store.write_count > 0


def test_client_latency_includes_wide_area_round_trips():
    _simulation, result = run_simulation()
    # Executors sit in remote regions: latency cannot be microseconds, and the
    # paper's minimum of ~30 ms is a sensible lower bound here too.
    assert result.latency.mean >= 0.020
    assert result.latency.p99 < 5.0


def test_same_seed_is_deterministic():
    _sim_a, result_a = run_simulation(tracer_enabled=False)
    _sim_b, result_b = run_simulation(tracer_enabled=False)
    assert result_a.committed_txns == result_b.committed_txns
    assert result_a.messages_sent == result_b.messages_sent
    assert result_a.latency.mean == pytest.approx(result_b.latency.mean)


def test_different_seed_changes_schedule_but_not_safety():
    config = make_config(seed=999)
    _simulation, result = run_simulation(config=config)
    assert result.committed_txns > 0
    assert result.aborted_txns <= result.committed_txns


def test_decentralized_spawning_spawns_from_every_node():
    config = make_config(spawn_policy=SpawnPolicyName.DECENTRALIZED)
    simulation, result = run_simulation(config=config)
    assert result.committed_txns > 0
    spawners = {node.name for node in simulation.nodes if node.spawned_executors > 0}
    assert len(spawners) == config.shim_nodes
    # Decentralized spawning costs roughly n_R times more executor invocations.
    assert result.cloud_invocations >= result.committed_txns / config.batch_size


def test_billing_report_accounts_lambda_and_vms():
    _simulation, result = run_simulation()
    assert result.billing.lambda_invocations > 0
    assert result.billing.lambda_cost > 0
    assert result.billing.vm_cost > 0
    assert result.cents_per_kilo_txn > 0


def test_verifier_flooding_counter_stays_low_without_attack():
    _simulation, result = run_simulation()
    # Honest executors send exactly one VERIFY each; only the post-quorum ones
    # are ignored.
    assert result.verifier_ignored_verify <= result.cloud_invocations


def test_invalid_run_parameters_rejected():
    simulation = build_system("serverless_bft", make_config(), make_workload())
    with pytest.raises(ConfigurationError):
        simulation.run(duration=0.0)
    with pytest.raises(ConfigurationError):
        simulation.run(duration=1.0, warmup=1.0)
    with pytest.raises(ConfigurationError):
        build_system("serverless_bft", make_config(), consensus_engine="raft")


def test_tracer_captures_protocol_milestones():
    simulation, _result = run_simulation(tracer_enabled=True)
    tracer = simulation.obs
    assert tracer.count("pbft.committed") > 0
    assert tracer.count("node.executors_spawned") > 0
    assert tracer.count("verifier.validated") > 0
    assert tracer.count("executor.verify_sent") > 0
