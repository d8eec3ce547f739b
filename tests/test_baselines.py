"""Integration tests for the NOSHIM, SERVERLESSCFT, and PBFT baselines."""

from tests.helpers import make_config, make_workload
from repro.api import build_system
from repro.perf import PERF
from repro.storage.kvstore import VersionedKVStore
from repro.workload.transactions import execute_batch


def small_run(simulation, duration=1.5, warmup=0.2):
    return simulation.run(duration=duration, warmup=warmup)


def test_noshim_collapses_to_a_single_node_and_commits():
    config = make_config(num_clients=40, client_groups=4)
    simulation = build_system("noshim", config, make_workload())
    assert simulation.config.shim_nodes == 1
    result = small_run(simulation)
    assert result.committed_txns > 0
    assert result.view_changes == 0
    assert result.spawned_executors > 0


def test_serverless_cft_uses_paxos_and_commits():
    config = make_config()
    simulation = build_system("serverless_cft", config, make_workload())
    assert simulation.consensus_engine == "paxos"
    result = small_run(simulation)
    assert result.committed_txns > 0
    # Paxos produces no commit certificates, so EXECUTE messages carry none.
    assert result.committed_txns > 0 and result.cloud_invocations > 0


def _record_executions(node, executed):
    """Wrap ``node``'s state transition to log what it executed, by sequence."""
    apply = node._after_execution

    def recording(entry, batch):
        executed.append((entry.seq, batch))
        apply(entry, batch)

    node._after_execution = recording


def test_pbft_replicated_executes_on_every_replica():
    config = make_config()
    simulation = build_system("pbft_replicated", config, make_workload(), execution_threads=4)
    executed_by = {node.name: [] for node in simulation.nodes}
    for node in simulation.nodes:
        _record_executions(node, executed_by[node.name])
    executions_before = PERF.batch_executions
    result = small_run(simulation)
    # A replica applies what a batch writes: it reads nothing and executes
    # nothing, since nothing verifies its result.
    assert PERF.batch_executions == executions_before
    assert all(node.store.read_count == 0 for node in simulation.nodes)
    assert result.committed_txns > 0
    assert result.spawned_executors == 0
    assert result.cloud_invocations == 0
    executed = [node.executed_batches for node in simulation.nodes]
    assert all(count > 0 for count in executed)
    # Replicas execute the same ordered batches, so their stores agree on the
    # keys they both wrote.
    store_a = simulation.nodes[0].store
    store_b = simulation.nodes[1].store
    common = set(store_a.keys()) & set(store_b.keys())
    assert common
    assert all(store_a.read(key) == store_b.read(key) for key in common)
    # Each store is what executing its batches in sequence order would leave:
    # the same values and versions on every key.
    for node in simulation.nodes:
        batches = executed_by[node.name]
        assert len(batches) == node.executed_batches
        reference = VersionedKVStore()
        for _seq, batch in sorted(batches, key=lambda item: item[0]):
            reads = reference.read_many(batch.storage_keys)
            executed = execute_batch(batch, reads.plain_values(), reads.versions_map())
            reference.apply_write_sets([txn.writes for txn in executed.txn_results])
        assert sorted(node.store.keys()) == sorted(reference.keys())
        assert all(node.store.read(key) == reference.read(key) for key in reference.keys())


def test_pbft_replicated_throughput_drops_with_fewer_execution_threads():
    config = make_config(num_clients=200, client_groups=8, batch_size=20)
    workload = make_workload(execution_seconds=0.05, clients=200)
    slow = build_system("pbft_replicated", config, workload, execution_threads=1)
    fast = build_system("pbft_replicated", config, workload, execution_threads=16)
    slow_result = small_run(slow, duration=2.0)
    fast_result = small_run(fast, duration=2.0)
    assert fast_result.committed_txns > slow_result.committed_txns


def test_offloading_beats_edge_only_execution_for_heavy_transactions():
    config = make_config(num_clients=200, client_groups=8, batch_size=20)
    workload = make_workload(execution_seconds=0.1, clients=200)
    serverless = build_system("serverless_bft", config, workload)
    edge_only = build_system("pbft_replicated", config, workload, execution_threads=1)
    serverless_result = small_run(serverless, duration=2.0)
    edge_result = small_run(edge_only, duration=2.0)
    assert serverless_result.committed_txns > edge_result.committed_txns


def test_billing_differs_between_architectures():
    config = make_config()
    workload = make_workload()
    serverless = build_system("serverless_bft", config, workload)
    edge_only = build_system("pbft_replicated", config, workload)
    serverless_result = small_run(serverless)
    edge_result = small_run(edge_only)
    assert serverless_result.billing.lambda_cost > 0
    assert edge_result.billing.lambda_cost == 0
    assert edge_result.billing.vm_cost > 0
