"""Unit tests for the YCSB workload generator and the transaction model."""

import pytest

from repro.api import RunSpec, build_deployment, build_system, resolve, spec_digest
from repro.core.config import ProtocolConfig
from repro.core.conflict import ConflictPlanner
from repro.errors import ConfigurationError, WorkloadError
from repro.workload.transactions import (
    Operation,
    Transaction,
    TransactionBatch,
    execute_batch,
)
from repro.workload.ycsb import YCSBConfig, YCSBWorkload


# ------------------------------------------------------------------ transaction model


def make_txn(txn_id, reads=(), writes=(), execution=0.0):
    operations = [Operation(key=key, is_write=False) for key in reads]
    operations += [Operation(key=key, is_write=True, value="v") for key in writes]
    return Transaction(
        txn_id=txn_id, client_id="c", operations=tuple(operations), execution_seconds=execution
    )


def write_keys(txn):
    return {key for key, is_write, _value in txn.operations if is_write}


def test_read_and_write_sets():
    # What the conflict planner reads: a batch's read and write sets, taken
    # from its transactions' operations.
    batch = TransactionBatch(
        "b1",
        (make_txn("t1", reads=("a", "b"), writes=("b", "c")), make_txn("t2", reads=("d",))),
    )
    assert batch.read_set == {"a", "b", "d"}
    assert batch.write_set == {"b", "c"}
    assert batch.storage_keys == ("a", "b", "c", "d")


def test_conflict_detection_requires_a_write():
    def dispatched_together(first, second):
        planner = ConflictPlanner()
        planner.add(1, TransactionBatch("b1", (first,)))
        planner.add(2, TransactionBatch("b2", (second,)))
        return [seq for seq, _batch in planner.ready()] == [1, 2]

    reader_a = make_txn("t1", reads=("x",))
    reader_b = make_txn("t2", reads=("x",))
    writer = make_txn("t3", writes=("x",))
    unrelated = make_txn("t4", writes=("y",))
    assert dispatched_together(reader_a, reader_b)
    assert not dispatched_together(reader_a, writer)
    assert not dispatched_together(writer, reader_a)
    assert dispatched_together(writer, unrelated)


def test_write_operation_gets_default_value():
    op = Operation(key="k", is_write=True)
    assert op.value == ""


def test_batch_aggregates_and_conflicts():
    batch_a = TransactionBatch("b1", (make_txn("t1", writes=("x",)),))
    batch_b = TransactionBatch("b2", (make_txn("t2", reads=("x",)),))
    batch_c = TransactionBatch("b3", (make_txn("t3", reads=("z",)),))
    # The conflict planner's view of a batch: its read and write sets.
    assert batch_a.write_set & (batch_b.read_set | batch_b.write_set)
    assert not batch_a.write_set & (batch_c.read_set | batch_c.write_set)
    assert not batch_c.write_set & (batch_a.read_set | batch_a.write_set)
    assert len(batch_a) == 1
    assert batch_a.write_set == {"x"}
    assert batch_b.read_set == {"x"}


def test_batch_execution_seconds_is_the_max_not_the_sum():
    batch = TransactionBatch(
        "b1",
        (make_txn("t1", execution=0.5), make_txn("t2", execution=2.0), make_txn("t3")),
    )
    assert batch.execution_seconds == pytest.approx(2.0)
    assert TransactionBatch("empty", ()).execution_seconds == 0.0


def test_execute_batch_is_deterministic_and_per_transaction():
    batch = TransactionBatch(
        "b1",
        (
            make_txn("t1", reads=("a",), writes=("b",)),
            make_txn("t2", writes=("c",)),
        ),
    )
    values = {"a": "va", "b": "vb", "c": "vc"}
    versions = {"a": 3, "b": 1, "c": 2}
    first = execute_batch(batch, values, versions)
    second = execute_batch(batch, values, versions)
    assert first == second
    assert first.result_digest == second.result_digest
    # One write set per transaction, in batch order: the batch's own memo.
    assert first.writes is batch.writes
    assert first.writes == ({"b": "v:t1"}, {"c": "v:t2"})
    # The versions read are reported as read; a transaction's share is its keys'.
    assert first.read_versions is versions
    t1 = batch.transactions[0]
    assert {key: first.read_versions[key] for key in t1.sorted_keys} == {"a": 3, "b": 1}


def test_execute_batch_result_changes_with_storage_state():
    batch = TransactionBatch("b1", (make_txn("t1", reads=("a",), writes=("b",)),))
    first = execute_batch(batch, {"a": "old"}, {"a": 1})
    second = execute_batch(batch, {"a": "new"}, {"a": 2})
    assert first.result_digest != second.result_digest


# ------------------------------------------------------------------ YCSB generator


def test_config_validation():
    with pytest.raises(WorkloadError):
        YCSBConfig(num_records=0)
    with pytest.raises(WorkloadError):
        YCSBConfig(write_fraction=1.5)
    with pytest.raises(WorkloadError):
        YCSBConfig(conflict_fraction=-0.1)
    with pytest.raises(WorkloadError):
        YCSBConfig(operations_per_transaction=0)
    with pytest.raises(WorkloadError):
        YCSBConfig(clients=0)
    with pytest.raises(WorkloadError):
        YCSBConfig(hot_keys=0)


def test_same_seed_generates_identical_workload():
    config = YCSBConfig(num_records=1000, clients=8, seed=99)
    first = [txn.canonical() for txn in YCSBWorkload(config).transactions(50)]
    second = [txn.canonical() for txn in YCSBWorkload(config).transactions(50)]
    assert first == second


def test_write_fraction_controls_writes():
    config = YCSBConfig(num_records=1000, operations_per_transaction=4, write_fraction=0.5)
    workload = YCSBWorkload(config)
    txn = workload.next_transaction()
    assert len(write_keys(txn)) >= 1
    read_only = YCSBWorkload(
        YCSBConfig(num_records=1000, operations_per_transaction=4, write_fraction=0.0)
    ).next_transaction()
    assert write_keys(read_only) == set()


def test_non_conflicting_transactions_from_distinct_clients_never_overlap():
    config = YCSBConfig(num_records=10_000, clients=8, conflict_fraction=0.0, seed=5)
    workload = YCSBWorkload(config)
    txns_client0 = workload.transactions(30, client_index=0)
    txns_client1 = workload.transactions(30, client_index=1)
    keys0 = set().union(*(txn.sorted_keys for txn in txns_client0))
    keys1 = set().union(*(txn.sorted_keys for txn in txns_client1))
    assert keys0.isdisjoint(keys1)


def test_conflicting_transactions_touch_the_hot_set():
    config = YCSBConfig(num_records=10_000, clients=8, conflict_fraction=1.0, hot_keys=4, seed=5)
    workload = YCSBWorkload(config)
    hot_keys = {f"user{i}" for i in range(4)}
    for txn in workload.transactions(20):
        assert write_keys(txn) & hot_keys


def test_conflict_fraction_roughly_respected():
    config = YCSBConfig(num_records=10_000, clients=8, conflict_fraction=0.3, hot_keys=4, seed=7)
    workload = YCSBWorkload(config)
    hot_keys = {f"user{i}" for i in range(4)}
    conflicting = sum(
        1 for txn in workload.transactions(500) if write_keys(txn) & hot_keys
    )
    assert 0.2 < conflicting / 500 < 0.4


def test_batches_have_unique_ids_and_requested_size():
    workload = YCSBWorkload(YCSBConfig(num_records=1000))
    batches = [workload.next_batch(20) for _ in range(3)]
    assert all(len(batch) == 20 for batch in batches)
    assert len({batch.batch_id for batch in batches}) == 3
    with pytest.raises(WorkloadError):
        workload.next_batch(0)


def test_execution_seconds_and_rw_flags_propagate():
    config = YCSBConfig(num_records=1000, execution_seconds=1.5, rw_sets_known=False)
    txn = YCSBWorkload(config).next_transaction()
    assert txn.execution_seconds == pytest.approx(1.5)
    assert txn.rw_sets_known is False


# ------------------------------------------------------------------ one client count


def test_a_second_client_count_is_refused():
    with pytest.raises(ConfigurationError, match="num_clients=200"):
        resolve(RunSpec(overrides={"workload.clients": 16}))
    with pytest.raises(ConfigurationError, match="workload.clients=8"):
        build_system(
            "serverless_bft", ProtocolConfig(num_clients=40, client_groups=4), YCSBConfig(clients=8)
        )


@pytest.mark.parametrize("base, clients", [("scale", 200), ("default", 1_600), ("paper", 80_000)])
def test_an_equal_client_count_is_the_unset_one(base, clients):
    unset = RunSpec(base=base, seed=1)
    equal = RunSpec(base=base, seed=1, overrides={"workload.clients": clients})
    assert resolve(unset)["workload"]["clients"] == clients
    assert spec_digest(equal) == spec_digest(unset)


def test_the_default_point_neither_aborts_nor_stalls():
    """Seed 6 of the default base, whose 1 600 clients once shared 16 key
    partitions: drawn without conflicts, it aborted and stalled until the
    partitions followed the client count."""
    spec = RunSpec(
        base="default",
        overrides={"protocol.crypto_backend": "fast"},
        duration=2.0,
        warmup=0.5,
        seed=6,
    )
    deployment = build_deployment(resolve(spec))
    result = deployment.run(duration=spec.duration, warmup=spec.warmup)
    assert result.aborted_txns == 0
    per_second = deployment.throughput.per_second_series()
    assert all(per_second.get(second, 0) > 0 for second in range(int(spec.duration)))
