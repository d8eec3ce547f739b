"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.consensus.quorums import QuorumTracker
from repro.core.conflict import ConflictPlanner
from repro.core.spawning import executors_per_node
from repro.crypto.hashing import digest
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import SignatureService
from repro.sim.rng import DeterministicRNG, spread_evenly
from repro.sim.stats import LatencyRecorder
from repro.storage.kvstore import VersionedKVStore
from repro.workload.transactions import (
    Operation,
    Transaction,
    TransactionBatch,
    execute_batch,
    transactions_conflict,
)
from repro.workload.ycsb import YCSBConfig, YCSBWorkload


# ------------------------------------------------------------------ quorums


@given(
    voters=st.lists(st.sampled_from([f"node-{i}" for i in range(8)]), min_size=0, max_size=30),
    threshold=st.integers(min_value=1, max_value=6),
)
def test_quorum_reached_iff_enough_distinct_voters(voters, threshold):
    tracker = QuorumTracker(threshold)
    fired = sum(1 for voter in voters if tracker.add("key", voter))
    distinct = len(set(voters))
    assert tracker.count("key") == distinct
    assert tracker.reached("key") == (distinct >= threshold)
    assert fired == (1 if distinct >= threshold else 0)


# ------------------------------------------------------------------ spawning equations


@given(
    num_executors=st.integers(min_value=1, max_value=200),
    shim_faults=st.integers(min_value=0, max_value=20),
    dark=st.booleans(),
)
def test_spawning_covers_required_executors(num_executors, shim_faults, dark):
    shim_nodes = 3 * shim_faults + 1
    per_node = executors_per_node(num_executors, shim_nodes, shim_faults, nodes_in_dark=dark)
    assert per_node >= 1
    honest_spawners = (shim_faults + 1) if dark else (2 * shim_faults + 1)
    if num_executors <= shim_nodes:
        # Equation (1)/(2), first case: one executor per node is enough because
        # at least f_E + 1 of the n_R >= n_E spawners are honest.
        assert per_node == 1
    else:
        # Even if only the guaranteed-honest spawners spawn, we reach n_E.
        assert per_node * honest_spawners >= num_executors


# ------------------------------------------------------------------ RNG


@given(seed=st.integers(min_value=0, max_value=2**32), population=st.integers(min_value=1, max_value=10_000))
def test_zipf_draws_stay_in_population(seed, population):
    rng = DeterministicRNG(seed)
    for theta in (0.0, 0.5, 0.99):
        value = rng.zipf_index(population, theta)
        assert 0 <= value <= population


@given(items=st.lists(st.integers(), max_size=200), buckets=st.integers(min_value=1, max_value=17))
def test_spread_evenly_conserves_items(items, buckets):
    spread = spread_evenly(items, buckets)
    assert len(spread) == buckets
    flattened = [item for bucket in spread for item in bucket]
    assert sorted(flattened) == sorted(items)
    sizes = [len(bucket) for bucket in spread]
    assert max(sizes) - min(sizes) <= 1


# ------------------------------------------------------------------ statistics


@given(samples=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=200))
def test_latency_percentiles_are_ordered_and_bounded(samples):
    recorder = LatencyRecorder()
    for sample in samples:
        recorder.record_value(sample)
    summary = recorder.summary()
    assert summary.minimum <= summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum
    # The mean is computed by summation, so allow for floating-point rounding.
    tolerance = 1e-9 * max(1.0, abs(summary.maximum))
    assert summary.minimum - tolerance <= summary.mean <= summary.maximum + tolerance
    assert summary.count == len(samples)


# ------------------------------------------------------------------ crypto


@given(payload=st.text(max_size=200))
def test_signature_roundtrip_for_arbitrary_payloads(payload):
    keystore = KeyStore()
    signer = SignatureService(keystore, "node-0")
    signature = signer.sign(payload)
    assert signer.verify(payload, signature)
    assert digest(payload) == signature.message_digest


@given(first=st.text(max_size=100), second=st.text(max_size=100))
def test_digest_equality_iff_payload_equality(first, second):
    if first == second:
        assert digest(first) == digest(second)
    else:
        assert digest(first) != digest(second)


# ------------------------------------------------------------------ storage


@given(
    writes=st.dictionaries(
        keys=st.text(min_size=1, max_size=8), values=st.text(max_size=8), max_size=20
    ),
    rounds=st.integers(min_value=1, max_value=5),
)
def test_kvstore_versions_grow_monotonically(writes, rounds):
    store = VersionedKVStore()
    for round_index in range(1, rounds + 1):
        versions = store.apply_writes(writes)
        for key in writes:
            assert versions[key] == round_index
            assert store.read(key).version == round_index
    snapshot = store.read_many(writes.keys())
    assert snapshot.matches_versions(store.current_versions(writes.keys()))


_store_key = st.sampled_from(["k0", "k1", "k2", "k3", "a", "b"])
_store_writes = st.dictionaries(_store_key, st.sampled_from(["", "v", "w"]), max_size=4)
_store_keys = st.lists(_store_key, max_size=5).map(tuple)
_store_op = st.one_of(
    st.tuples(st.just("load"), st.integers(0, 4), st.sampled_from(["x", "y"])),
    st.tuples(st.just("apply_writes"), _store_writes),
    st.tuples(st.just("apply_write_sets"), st.lists(_store_writes, max_size=3)),
    st.tuples(st.just("read"), _store_key),
    st.tuples(st.just("read_many"), _store_keys),
    st.tuples(st.just("current_versions"), _store_keys),
    st.tuples(st.just("keys_changed_since"), st.integers(0, 40), _store_keys),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_store_op, max_size=40))
def test_kvstore_matches_a_full_version_map(ops):
    # The store keeps version entries only for rewritten keys; a reference
    # holding every key's (value, version) must agree with it at every step.
    store = VersionedKVStore()
    model = {}
    history = []  # keys changed by each mutation (None = a bulk load)

    def expected(key):
        return model.get(key, ("", 0))

    for op in ops:
        kind = op[0]
        if kind == "load":
            _, count, value = op
            store.load(count, key_prefix="k", value=value)
            for index in range(count):
                model[f"k{index}"] = (value, 1)
            if count:
                history.append(None)
        elif kind == "apply_writes":
            bumped = {key: expected(key)[1] + 1 for key in op[1]}
            assert store.apply_writes(op[1]) == bumped
            model.update((key, (value, bumped[key])) for key, value in op[1].items())
            if bumped:
                history.append(set(bumped))
        elif kind == "apply_write_sets":
            store.apply_write_sets(op[1])
            changed = set()
            for writes in op[1]:
                for key, value in writes.items():
                    model[key] = (value, expected(key)[1] + 1)
                changed.update(writes)
            if changed:
                history.append(changed)
        elif kind == "read":
            got = store.read(op[1])
            assert tuple(got) == expected(op[1]) and type(got.version) is int
        elif kind == "read_many":
            got = store.read_many(op[1])
            assert got.plain_values() == {key: expected(key)[0] for key in op[1]}
            assert list(got.versions_map().items()) == [
                (key, expected(key)[1]) for key in dict.fromkeys(op[1])
            ]
        elif kind == "current_versions":
            got = store.current_versions(op[1])
            assert got == {key: expected(key)[1] for key in op[1]}
            assert all(type(version) is int for version in got.values())
        else:
            _, token, keys = op
            token = min(token, len(history))
            since = history[token:]
            exact = -1 if None in since else int(any(not c.isdisjoint(keys) for c in since))
            got = store.keys_changed_since(token, set(keys))
            # The store may forget history past its window, never misreport it.
            assert got == exact or (got == -1 and len(since) > 16)
        assert len(store) == len(model)
        assert store.keys() == list(model)
        assert store.mutation_count == len(history)
        for key in ("k0", "a", "z"):
            assert store.contains(key) == (key in model)
            assert store.get_value(key) == model.get(key, (None,))[0]


# ------------------------------------------------------------------ workload / execution


_key = st.text(alphabet="abcdef", min_size=1, max_size=3)


def _txn_strategy(txn_id):
    return st.builds(
        lambda reads, writes: Transaction(
            txn_id=txn_id,
            client_id="c",
            operations=tuple(
                [Operation(key=key, is_write=False) for key in reads]
                + [Operation(key=key, is_write=True, value="v") for key in writes]
            ),
        ),
        reads=st.lists(_key, max_size=3),
        writes=st.lists(_key, max_size=3),
    )


@given(first=_txn_strategy("t1"), second=_txn_strategy("t2"))
def test_conflict_relation_is_symmetric(first, second):
    assert transactions_conflict(first, second) == transactions_conflict(second, first)
    if not first.write_set and not second.write_set:
        assert not transactions_conflict(first, second)


@given(
    txns=st.lists(_txn_strategy("t"), min_size=1, max_size=5),
    values=st.dictionaries(keys=_key, values=st.text(max_size=4), max_size=10),
)
def test_execute_batch_is_a_pure_function(txns, values):
    txns = tuple(
        Transaction(
            txn_id=f"t{i}",
            client_id=txn.client_id,
            operations=txn.operations,
        )
        for i, txn in enumerate(txns)
    )
    batch = TransactionBatch(batch_id="b", transactions=txns)
    versions = {key: 1 for key in values}
    first = execute_batch(batch, values, versions)
    second = execute_batch(batch, values, versions)
    assert first == second
    assert {r.txn_id for r in first.txn_results} == {txn.txn_id for txn in txns}
    for result in first.txn_results:
        txn = next(t for t in txns if t.txn_id == result.txn_id)
        assert set(result.writes) == set(txn.write_set)
        assert set(result.read_versions) == set(txn.keys)


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    conflict=st.floats(min_value=0.0, max_value=1.0),
)
def test_ycsb_generator_respects_structure(seed, conflict):
    config = YCSBConfig(
        num_records=2_000, clients=4, conflict_fraction=conflict, hot_keys=4, seed=seed
    )
    workload = YCSBWorkload(config)
    for txn in workload.transactions(10):
        assert len(txn.operations) == config.operations_per_transaction
        assert all(op.key.startswith("user") for op in txn.operations)


# ------------------------------------------------------------------ conflict planner


@given(
    key_sets=st.lists(
        st.tuples(st.sets(_key, max_size=3), st.sets(_key, max_size=3)),
        min_size=1,
        max_size=12,
    )
)
def test_conflict_planner_never_dispatches_conflicting_batches_concurrently(key_sets):
    batches = []
    for index, (reads, writes) in enumerate(key_sets):
        operations = tuple(
            [Operation(key=key, is_write=False) for key in sorted(reads)]
            + [Operation(key=key, is_write=True, value="v") for key in sorted(writes)]
        )
        txn = Transaction(txn_id=f"t{index}", client_id="c", operations=operations)
        batches.append(TransactionBatch(batch_id=f"b{index}", transactions=(txn,)))

    planner = ConflictPlanner()
    in_flight = {}
    dispatched_total = set()

    def check_no_conflicts():
        live = list(in_flight.values())
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                assert not live[i].conflicts_with(live[j])

    for seq, batch in enumerate(batches, start=1):
        planner.add(seq, batch)
        for ready_seq, ready_batch in planner.ready():
            in_flight[ready_seq] = ready_batch
            dispatched_total.add(ready_seq)
        check_no_conflicts()
        # Complete the oldest in-flight batch half of the time to make room.
        if in_flight and seq % 2 == 0:
            oldest = min(in_flight)
            del in_flight[oldest]
            for ready_seq, ready_batch in planner.complete(oldest):
                in_flight[ready_seq] = ready_batch
                dispatched_total.add(ready_seq)
            check_no_conflicts()

    # Draining everything dispatches every batch exactly once.
    while in_flight:
        oldest = min(in_flight)
        del in_flight[oldest]
        for ready_seq, ready_batch in planner.complete(oldest):
            assert ready_seq not in dispatched_total
            in_flight[ready_seq] = ready_batch
            dispatched_total.add(ready_seq)
        check_no_conflicts()
    assert dispatched_total == set(range(1, len(batches) + 1))
