"""Property-based tests (hypothesis) on core data structures and invariants."""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.consensus.quorums import QuorumTracker
from repro.core.certificates import CommitCertificate
from repro.core.conflict import ConflictPlanner
from repro.core.messages import ResponseMsg, VerifyMsg
from repro.core.spawning import executors_per_node
from repro.core.verifier import Verifier
from repro.crypto.costs import CryptoCostModel
from repro.crypto.hashing import digest
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import SignatureService
from repro.sim.engine import Simulator
from repro.sim.network import Network, UniformLatencyModel
from repro.sim.rng import DeterministicRNG, spread_evenly
from repro.sim.stats import LatencyRecorder
from repro.storage.kvstore import VersionedKVStore, VersionedValue
from repro.workload.transactions import (
    ExecutionResult,
    Operation,
    Transaction,
    TransactionBatch,
    execute_batch,
    _execute_batch_py,
    execute_batch_cached,
)
from repro.workload.ycsb import YCSBConfig, YCSBWorkload


# ------------------------------------------------------------------ quorums


@given(
    voters=st.lists(st.sampled_from([f"node-{i}" for i in range(8)]), min_size=0, max_size=30),
    threshold=st.integers(min_value=1, max_value=6),
)
def test_quorum_reached_iff_enough_distinct_voters(voters, threshold):
    tracker = QuorumTracker(threshold)
    answers = [tracker.add("key", voter) for voter in voters]
    distinct = len(set(voters))
    assert sorted(tracker.voters("key")) == sorted(set(voters))
    assert sum(answers) == (1 if distinct >= threshold else 0)
    # Settling the key when it fires changes no answer ``add`` gives.
    settling = QuorumTracker(threshold)
    settled_answers = []
    for voter in voters:
        settled_answers.append(settling.add("key", voter))
        if settled_answers[-1]:
            settling.settle("key")
    assert settled_answers == answers


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
    assert snapshot.versions_map() == store.current_versions(writes.keys())


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
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_store_op, max_size=40))
def test_kvstore_matches_a_full_version_map(ops):
    # The store keeps version entries only for rewritten keys and caches
    # reads until the next write; a reference holding every key's
    # (value, version) must agree with it at every step.
    store = VersionedKVStore()
    model = {}

    def expected(key):
        return model.get(key, ("", 0))

    for op in ops:
        kind = op[0]
        if kind == "load":
            _, count, value = op
            store.load(count, key_prefix="k", value=value)
            for index in range(count):
                model[f"k{index}"] = (value, 1)
        elif kind == "apply_writes":
            bumped = {key: expected(key)[1] + 1 for key in op[1]}
            assert store.apply_writes(op[1]) == bumped
            model.update((key, (value, bumped[key])) for key, value in op[1].items())
        elif kind == "apply_write_sets":
            store.apply_write_sets(op[1])
            for writes in op[1]:
                for key, value in writes.items():
                    model[key] = (value, expected(key)[1] + 1)
        elif kind == "read":
            got = store.read(op[1])
            assert tuple(got) == expected(op[1]) and type(got.version) is int
        elif kind == "read_many":
            got = store.read_many(op[1])
            assert got.plain_values() == {key: expected(key)[0] for key in op[1]}
            assert list(got.versions_map().items()) == [
                (key, expected(key)[1]) for key in dict.fromkeys(op[1])
            ]
        else:
            got = store.current_versions(op[1])
            assert got == {key: expected(key)[1] for key in op[1]}
            assert all(type(version) is int for version in got.values())
        assert len(store) == len(model)
        assert store.keys() == list(model)
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


def _write_keys(txn):
    return {key for key, is_write, _value in txn.operations if is_write}


def _txns_conflict(first, second):
    """The oracle: two transactions conflict if they share a key and one writes it."""
    first_keys = {key for key, _is_write, _value in first.operations}
    second_keys = {key for key, _is_write, _value in second.operations}
    return bool(_write_keys(first) & second_keys or _write_keys(second) & first_keys)


@given(first=_txn_strategy("t1"), second=_txn_strategy("t2"))
def test_conflict_relation_is_symmetric(first, second):
    # The conflict planner's relation: two batches are dispatched together
    # exactly when they do not conflict, whichever of them came first.
    def dispatched_together(a, b):
        planner = ConflictPlanner()
        planner.add(1, TransactionBatch("a", (a,)))
        planner.add(2, TransactionBatch("b", (b,)))
        return len(planner.ready()) == 2

    together = dispatched_together(first, second)
    assert together == dispatched_together(second, first)
    assert together == (not _txns_conflict(first, second))
    if not _write_keys(first) and not _write_keys(second):
        assert together


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
    assert first.result_digest == second.result_digest
    assert len(first.writes) == len(txns)
    for txn, writes in zip(txns, first.writes):
        assert set(writes) == _write_keys(txn)
    assert first.read_versions is versions


def _batch_of(txns, batch_id="b"):
    """A batch of ``txns`` renumbered, one client request each."""
    return TransactionBatch(
        batch_id=batch_id,
        transactions=tuple(
            Transaction(
                txn_id=f"t{i}",
                client_id=txn.client_id,
                operations=txn.operations,
                origin="client-group-0",
                request_id=f"req-{i}",
            )
            for i, txn in enumerate(txns)
        ),
    )


def _store_with(writes_per_key):
    """A store in which each key was written the given number of times."""
    store = VersionedKVStore()
    for key, count in sorted(writes_per_key.items()):
        for n in range(count):
            store.apply_writes({key: f"{key}-{n}"})
    return store


def _verifier_split(store, batch, result):
    """What a verifier commits and aborts of ``batch`` given one VERIFY."""
    sim = Simulator()
    network = Network(sim, UniformLatencyModel(base_delay=0.0005, jitter=0.0), DeterministicRNG(1))
    keystore = KeyStore()
    replies = []
    network.register("client-group-0", "us-west-1", lambda msg, sender: replies.append(msg))
    verifier = Verifier(
        sim=sim,
        network=network,
        name="verifier",
        region="us-west-1",
        cores=1,
        store=store,
        signer=SignatureService(keystore, "verifier"),
        costs=CryptoCostModel(),
        shim_node_names=[],
        match_quorum=1,
        executor_faults=0,
        expected_executors=1,
    )
    batch_digest = digest(batch)
    unsigned = VerifyMsg(
        seq=1,
        batch=batch,
        digest=batch_digest,
        certificate=CommitCertificate(view=0, seq=1, digest=batch_digest),
        result=result,
        executor="executor-0",
    )
    signature = SignatureService(keystore, "executor-0").sign(unsigned.canonical())
    verifier.on_message(replace(unsigned, signature=signature), "executor-0")
    sim.run_until_idle()
    assert verifier.kmax == 2
    responses = [msg for msg in replies if isinstance(msg, ResponseMsg)]
    committed = {t for msg in responses for t in msg.committed_txn_ids}
    aborted = {t for msg in responses for t in msg.aborted_txn_ids}
    return committed, aborted


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=60)
@given(
    txns=st.lists(_txn_strategy("t"), min_size=1, max_size=5),
    writes_per_key=st.dictionaries(keys=_key, values=st.integers(0, 3), max_size=8),
    stale=st.sets(_key, max_size=3),
    data=st.data(),
)
def test_the_order_of_a_batch_read_changes_nothing(txns, writes_per_key, stale, data):
    batch = _batch_of(txns)
    keys = batch.storage_keys
    # One entry per key the batch touches, in first-occurrence order over
    # each transaction's sorted keys.
    flat = [key for txn in batch.transactions for key in txn.sorted_keys]
    assert len(set(keys)) == len(keys)
    assert set(keys) == set(flat)
    assert [flat.index(key) for key in keys] == sorted(flat.index(key) for key in keys)
    # Writes after the read make exactly the transactions touching them stale.
    expected_committed = {
        txn.txn_id for txn in batch.transactions if not set(txn.sorted_keys) & stale
    }
    expected_aborted = {txn.txn_id for txn in batch.transactions} - expected_committed

    digests = set()
    for order in (keys, tuple(data.draw(st.permutations(keys)))):
        for cached in (False, True):
            # A fresh batch and store per read, so no memo or cached read
            # carries one read order into the next.
            fresh = _batch_of(txns)
            store = _store_with(writes_per_key)
            read = store.read_many(order)
            values, versions = read.plain_values(), read.versions_map()
            if cached:
                result = execute_batch_cached(fresh, values, versions)
            else:
                result = execute_batch(fresh, values, versions)
            digests.add(result.result_digest)
            for key in sorted(stale):
                store.apply_writes({key: "late"})
            assert _verifier_split(store, fresh, result) == (expected_committed, expected_aborted)
    assert len(digests) == 1


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=80)
@given(
    txns=st.lists(_txn_strategy("t"), min_size=1, max_size=5),
    writes_per_key=st.dictionaries(keys=_key, values=st.integers(0, 3), max_size=8),
    data=st.data(),
)
def test_a_batch_commits_exactly_the_transactions_whose_reads_are_current(
    txns, writes_per_key, data
):
    batch = _batch_of(txns)
    keys = batch.storage_keys
    everyone = {txn.txn_id for txn in batch.transactions}
    # Observed versions, current or not, for exactly the batch's keys.
    observed = {key: data.draw(st.integers(0, 4)) for key in keys}
    store = _store_with(writes_per_key)
    current = store.current_versions(keys)
    before = {key: store.read(key) for key in store.keys()}
    result = ExecutionResult(batch.batch_id, "observed", batch.writes, observed)
    # The per-transaction reference: every version it read is still current.
    expected = {
        txn.txn_id
        for txn in batch.transactions
        if all(observed[key] == current[key] for key in txn.sorted_keys)
    }
    assert _verifier_split(store, batch, result) == (expected, everyone - expected)
    # Exactly the committed transactions' writes reach the store, in order.
    after = dict(before)
    for txn, writes in zip(batch.transactions, batch.writes):
        if txn.txn_id in expected:
            for key, value in writes.items():
                version = after[key].version if key in after else 0
                after[key] = VersionedValue(value, version + 1)
    assert {key: store.read(key) for key in store.keys()} == after

    # A report that names a key outside the batch, even at its current
    # version, omits one of the batch's keys, or leaves out a write set
    # aborts the whole sequence.
    malformed = [(batch.writes, dict(observed, zzz=0)), (batch.writes[:-1], observed)]
    if keys:
        omitted = data.draw(st.sampled_from(keys))
        malformed.append((batch.writes, {key: observed[key] for key in keys if key != omitted}))
    for writes, reported in malformed:
        store = _store_with(writes_per_key)
        result = ExecutionResult(batch.batch_id, "malformed", writes, reported)
        assert _verifier_split(store, batch, result) == (set(), everyone)
        assert {key: store.read(key) for key in store.keys()} == before


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


#: Uniform, conflicting (hot keys) and zipfian draws over a small key space.
_BATCH_KINDS = {
    "uniform": {},
    "conflicting": {"conflict_fraction": 0.5, "hot_keys": 2},
    "zipfian": {"zipfian_theta": 0.9},
}


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(sorted(_BATCH_KINDS)),
    seed=st.integers(min_value=0, max_value=1_000),
    size=st.integers(min_value=1, max_value=12),
    write_fraction=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    data=st.data(),
)
def test_batch_writes_are_what_execution_writes_over_any_reads(
    kind, seed, size, write_fraction, data
):
    workload = YCSBWorkload(
        YCSBConfig(
            num_records=40,
            clients=4,
            write_fraction=write_fraction,
            seed=seed,
            **_BATCH_KINDS[kind],
        )
    )
    drawn = workload.next_batch(size)
    # One more transaction writes the same key twice: the later write wins.
    twice = Transaction(
        txn_id="twice",
        client_id="c",
        operations=(
            Operation(key="user0", is_write=True, value="first"),
            Operation(key="user1", is_write=False),
            Operation(key="user0", is_write=True, value="second"),
        ),
    )
    batch = TransactionBatch(batch_id=drawn.batch_id, transactions=drawn.transactions + (twice,))
    keys = st.sampled_from(batch.storage_keys)
    values = data.draw(st.dictionaries(keys, st.text(max_size=4), max_size=8))
    versions = data.draw(st.dictionaries(keys, st.integers(0, 5), max_size=8))
    executed = _execute_batch_py(batch, values, versions)
    # The reference replays each transaction's operations in order.
    reference = []
    for txn in batch.transactions:
        writes = {}
        for operation in txn.operations:
            if operation.is_write:
                writes[operation.key] = f"{operation.value}:{txn.txn_id}"
        reference.append(writes)
    assert list(batch.writes) == reference
    assert executed.writes is batch.writes
    assert batch.writes[-1] == {"user0": "second:twice"}
    assert batch.writes is batch.writes  # memoised on the batch


# ------------------------------------------------------------------ conflict planner


def _batches_conflict(first, second):
    """Two batches conflict if any of their transactions do."""
    return any(
        _txns_conflict(a, b) for a in first.transactions for b in second.transactions
    )


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
                assert not _batches_conflict(live[i], live[j])

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
