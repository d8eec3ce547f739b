"""Retained-state audit: what a run keeps must not grow with its length.

Executors terminate (Figure 3, Line 20), the verifier forgets a sequence
number once it is validated and keeps replies only for each client
endpoint's latest request, a shim node forgets a committed entry once the
verifier has acknowledged it, the conflict planner retires verified
batches, and stable watermarks truncate the PBFT and Paxos logs and their
vote trackers — so the live per-executor, per-sequence and per-batch state
of a run is bounded by what is in flight, not by how long it has been
running.  A watermark truncates only a prefix the replica has decided, so
a replica with a hole in its log — one that was partitioned while its peers
checkpointed past it, or a Paxos follower that missed a LEARN — would hold
everything after the hole; such a replica counts the hole as decided once
its peers' checkpoints (PBFT) or the newest decided slot (Paxos) lie far
enough past it, and its watermark rejoins the cluster's.  The cloud drops
an invocation's record when it bills it, and the key store derives
executor keys instead of storing them, so neither grows with the number of
spawns either (PERFORMANCE.md).

The first half audits whole deployments at T and 3T virtual seconds; the
second half pins each retirement on its own: what is forgotten, and what
the protocol can still do afterwards.
"""

import gc

import pytest

from repro.api import RunSpec, build_system, result_digest
from repro.api.facade import build_deployment, resolve
from repro.cloud.billing import CostModel
from repro.cloud.lambda_cloud import ServerlessCloud, SpawnRequest
from repro.cloud.regions import RegionCatalog
from repro.consensus.log import CommittedEntry
from repro.consensus.messages import CommitMsg, PrepareMsg
from repro.consensus.paxos import PaxosLearnMsg
from repro.core.certificates import CommitCertificate
from repro.core.conflict import ConflictPlanner
from repro.core.executor import Executor
from repro.core.messages import ClientRequestMsg, ExecuteMsg, ResponseMsg, VerifyMsg
from repro.crypto.costs import CryptoCostModel
from repro.crypto.hashing import digest
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import SignatureService
from repro.errors import CloudError
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkFaultPlan, UniformLatencyModel
from repro.sim.rng import DeterministicRNG
from repro.storage.kvstore import VersionedKVStore
from repro.storage.service import StorageReadReply, StorageReadRequest
from repro.workload.transactions import Operation, Transaction, TransactionBatch
from tests.helpers import DRILL_OVERRIDES, make_config, make_workload, run_drill, run_simulation
from tests.test_paxos import PaxosCluster
from tests.test_pbft import Cluster as PBFTCluster
from tests.test_verifier_unit import Harness as VerifierHarness

OVERRIDES = {**DRILL_OVERRIDES, "protocol.crypto_backend": "fast"}

#: Batches the drill's closed loop can keep in flight: 40 clients, batch 10.
WINDOW = DRILL_OVERRIDES["protocol.num_clients"] // DRILL_OVERRIDES["protocol.batch_size"]


# ------------------------------------------------------------------ whole-run audit


def _tracker_keys(replica) -> int:
    """Vote keys in an ordering engine's largest per-sequence quorum tracker."""
    trackers = ("_prepare_quorum", "_commit_quorum", "_accepted_quorum")
    return max(
        len(getattr(replica, name).keys()) for name in trackers if hasattr(replica, name)
    )


def _audit(system: str, duration: float, overrides=None, scenarios=()) -> dict:
    """Run one drill and count what is still alive afterwards.

    Everything the run built dies with this frame, so back-to-back audits
    never count each other's objects.
    """
    spec = RunSpec(
        system=system,
        scenarios=scenarios,
        base="default",
        overrides={**OVERRIDES, **(overrides or {})},
        duration=duration,
        warmup=0.0,
    )
    deployment = build_deployment(resolve(spec))
    result = deployment.run(duration=duration, warmup=0.0)
    gc.collect()
    replicated = system == "pbft_replicated"  # every replica owns a store; no verifier, no cloud
    stores = [node.store for node in deployment.nodes] if replicated else [deployment.store]
    replicas = [node.replica for node in deployment.nodes]
    counts = {
        "committed": result.committed_txns,
        "endpoints": len(deployment.network._endpoints),
        "fixed_endpoints": len(deployment.nodes) + len(deployment.clients),
        "identities": len(deployment.keystore._keypairs),
        "fixed_identities": len(deployment.nodes) + len(deployment.clients),
        "running_executors": 0,
        "seq_state": 0,
        "committed_entries": max(
            len(getattr(node, "_committed_entries", ())) for node in deployment.nodes
        ),
        "read_cache": max(len(store._read_cache) for store in stores),
        "batches": sum(1 for obj in gc.get_objects() if type(obj) is TransactionBatch),
        "batch_bound": 2 * deployment.config.checkpoint_interval + 4 * WINDOW,
        "slot_bound": 2 * deployment.config.checkpoint_interval + WINDOW,
        "tracker_keys": max(_tracker_keys(replica) for replica in replicas),
        "log_slots": max(replica.log.slot_count for replica in replicas),
        "log_commits": max(replica.log.retained_commits for replica in replicas),
        "planner_pending": max(
            (len(node._planner._pending) for node in deployment.nodes if hasattr(node, "_planner")),
            default=0,
        ),
        "reply_endpoints": 0,
        "cached_replies": 0,
    }
    if not replicated:
        counts["fixed_endpoints"] += 2  # verifier + storage
        counts["fixed_identities"] += 1  # the verifier; storage signs nothing
        counts["seq_state"] = len(deployment.verifier._seq_state)
        latest = deployment.verifier._latest_requests.values()
        counts["reply_endpoints"] = len(latest)
        counts["cached_replies"] = sum(len(record.replies) for record in latest)
        handles = deployment.cloud.handles
        counts["running_executors"] = sum(1 for handle in handles if handle.start_time is not None)
        # The ledger lists invocations in flight only: a finished one is
        # billed and dropped.
        assert all(handle.finish_time is None for handle in handles)
        assert len(handles) == deployment.cloud.running_executors()
    return counts


@pytest.mark.parametrize(
    "system, overrides",
    [
        pytest.param("serverless_bft", None, id="serverless_bft"),
        pytest.param("serverless_cft", None, id="serverless_cft"),
        pytest.param("noshim", None, id="noshim"),
        pytest.param("pbft_replicated", None, id="pbft_replicated"),
        pytest.param(
            "serverless_bft",
            {"protocol.conflict_mode": "conflict_avoidance"},
            id="serverless_bft-conflict_avoidance",
        ),
    ],
)
def test_retained_state_does_not_scale_with_run_length(system, overrides):
    short, long = _audit(system, 1.0, overrides), _audit(system, 3.0, overrides)
    assert long["committed"] > 2 * short["committed"]  # the long run did ~3x the work
    groups = DRILL_OVERRIDES["protocol.client_groups"]
    for counts in (short, long):
        # Only executors that are running right now are on the network.
        assert counts["endpoints"] == counts["fixed_endpoints"] + counts["running_executors"]
        # Only long-lived components have stored keys: executor keys are derived.
        assert counts["identities"] == counts["fixed_identities"]
        assert counts["seq_state"] <= 4 * WINDOW
        assert counts["committed_entries"] <= 4 * WINDOW
        # The read cache holds only the reads since the store's last write,
        # never one per batch.
        assert counts["read_cache"] <= 64
        # Batches live in PBFT log slots (truncated at the stable checkpoint,
        # which trails by up to one interval) and in the in-flight window.
        assert counts["batches"] <= counts["batch_bound"]
        # The log's slots and each quorum tracker's vote keys (PBFT and
        # Paxos alike) stop at the stable watermark: at most two checkpoint
        # intervals plus the in-flight window.  The planner holds only
        # batches the verifier has not confirmed.
        assert counts["log_slots"] <= counts["slot_bound"]
        assert counts["tracker_keys"] <= counts["slot_bound"]
        assert counts["planner_pending"] <= WINDOW
        # One retransmission record per client endpoint, holding the replies
        # of its latest request (a request spans at most a few batches).
        assert counts["reply_endpoints"] <= groups
        assert counts["cached_replies"] <= 4 * groups


@pytest.mark.parametrize(
    "system, scenario",
    [
        ("serverless_bft", "region-outage-heal"),
        ("serverless_cft", "region-outage-heal"),
        ("serverless_cft", "checkpoint-lag"),
    ],
)
def test_a_replica_that_lagged_through_a_fault_rejoins_the_watermark(system, scenario):
    # The partitioned (or crashed) replica misses sequence numbers its peers
    # then truncate; every replica's log still ends within the bound.
    counts = _audit(system, 3.0, scenarios=(scenario,))
    assert counts["committed"] > 0
    for name in ("log_slots", "log_commits", "tracker_keys"):
        assert counts[name] <= counts["slot_bound"], (name, counts[name], counts["slot_bound"])


def test_a_fault_timeline_point_keeps_no_per_spawn_record():
    # geo-faults' shape at drill size: 11 executors per batch, real crypto,
    # crash / recover / partition through the run.
    spec = RunSpec(
        system="serverless_bft",
        base="default",
        overrides={
            **DRILL_OVERRIDES,
            "protocol.num_executors": 11,
            "protocol.num_executor_regions": 11,
            "protocol.fault_timeline": (
                "crash:primary@0.3;recover:primary@0.8;partition:node-1@1.0-1.2"
            ),
        },
        duration=1.6,
        warmup=0.0,
    )
    deployment = build_deployment(resolve(spec))
    result = deployment.run(duration=1.6, warmup=0.0)
    cloud = deployment.cloud
    assert result.committed_txns > 0 and cloud.spawn_count > 5 * 11
    assert len(cloud.handles) <= cloud.running_executors()
    long_lived = {*deployment.shim_names, "verifier", *(group.name for group in deployment.clients)}
    assert set(deployment.keystore._keypairs) == long_lived


def test_a_batch_in_flight_is_described_once():
    # The default point's shape (perfledger's default-point), short: a batch
    # keeps one key tuple and its digest, not a key frozenset beside it,
    # and not the canonical text its digest was taken from.
    spec = RunSpec(
        system="serverless_bft",
        base="default",
        overrides={"protocol.crypto_backend": "fast"},
        duration=0.4,
        warmup=0.1,
    )
    # Only this run's batches: other tests may leave theirs alive.
    before = {id(obj) for obj in gc.get_objects() if type(obj) is TransactionBatch}
    deployment = build_deployment(resolve(spec))
    result = deployment.run(duration=0.4, warmup=0.1)
    assert result.committed_txns > 0
    batches = [
        obj for obj in gc.get_objects() if type(obj) is TransactionBatch and id(obj) not in before
    ]
    assert any("_storage_keys" in batch.__dict__ for batch in batches)
    for batch in batches:
        memos = batch.__dict__
        assert "_canonical" not in memos
        assert not any(isinstance(value, frozenset) for value in memos.values()), sorted(memos)


# ------------------------------------------------------------------ verifier


def test_validated_sequence_is_forgotten_and_late_verify_still_ignored():
    harness = VerifierHarness()
    batch = harness.make_batch(1)
    harness.deliver(harness.make_verify(1, "executor-0", batch), "executor-0")
    assert 1 in harness.verifier._seq_state  # unsettled: votes are being counted
    harness.deliver(harness.make_verify(1, "executor-1", batch), "executor-1")
    assert harness.verifier.kmax == 2
    assert harness.verifier._seq_state == {}
    ignored = harness.verifier.ignored_verify_messages
    harness.deliver(harness.make_verify(1, "executor-2", batch), "executor-2")
    assert harness.verifier.ignored_verify_messages == ignored + 1
    assert harness.verifier._seq_state == {}  # a late VERIFY re-creates nothing
    assert len(harness.client_messages(ResponseMsg)) == 1
    assert harness.store.read("k1").version == 1


def test_aborted_sequence_is_forgotten_too():
    harness = VerifierHarness(quorum_timeout=0.2)
    batch = harness.make_batch(1)
    for executor in ("executor-0", "executor-1", "executor-2"):
        harness.deliver(harness.make_verify(1, executor, batch, corrupt=True), executor)
    harness.run()  # three distinct results: the quorum timer abort-tags the sequence
    assert harness.verifier.aborted_txns == 1
    assert harness.verifier.kmax == 2
    assert harness.verifier._seq_state == {}


def test_retransmission_of_a_settled_request_gets_the_cached_response():
    harness = VerifierHarness()
    batch = harness.make_batch(1, request_id="req-A")
    harness.deliver(harness.make_verify(1, "executor-0", batch), "executor-0")
    harness.deliver(harness.make_verify(1, "executor-1", batch), "executor-1")
    assert harness.verifier._seq_state == {}
    first = harness.client_messages(ResponseMsg)
    request = ClientRequestMsg(
        request_id="req-A", origin="client-group-0", transactions=batch.transactions
    )
    harness.deliver(request, "client-group-0")
    resent = harness.client_messages(ResponseMsg)
    assert len(resent) == 2 and resent[1] is first[0]
    assert harness.verifier.error_messages_sent == 0  # not "missing", not "stuck"


def _settle(harness, seq, request_id, keys=("k1",)):
    """Validate one batch carrying ``request_id`` at ``seq``."""
    batch = harness.make_batch(seq, keys=keys, request_id=request_id)
    harness.deliver(harness.make_verify(seq, "executor-0", batch), "executor-0")
    harness.deliver(harness.make_verify(seq, "executor-1", batch), "executor-1")
    return harness.client_messages(ResponseMsg)[-1]


def _retransmit(harness, request_id):
    request = ClientRequestMsg(request_id=request_id, origin="client-group-0", transactions=())
    harness.deliver(request, "client-group-0")


def _cached(harness):
    return {
        origin: (record.request_id, list(record.replies))
        for origin, record in harness.verifier._latest_requests.items()
    }


def test_an_endpoints_older_request_is_forgotten_once_its_next_is_answered():
    harness = VerifierHarness()
    _settle(harness, 1, "client-group-0-req-0")
    second = _settle(harness, 2, "client-group-0-req-1")
    assert _cached(harness) == {"client-group-0": ("client-group-0-req-1", [second])}
    # The endpoint never asks about a settled request again; if something
    # does, the verifier no longer knows it and reports it missing.
    _retransmit(harness, "client-group-0-req-0")
    assert harness.verifier.error_messages_sent == 1
    assert len(harness.client_messages(ResponseMsg)) == 2


def test_a_late_duplicate_of_an_older_request_keeps_the_newer_replies():
    harness = VerifierHarness()
    _settle(harness, 1, "client-group-0-req-9")
    newer = _settle(harness, 2, "client-group-0-req-10")
    # The primary ordered req-9 a second time (an ERROR-path re-order or a
    # duplicated client message); its batch validates after req-10's.
    duplicate = _settle(harness, 3, "client-group-0-req-9", keys=("k2",))
    assert duplicate.request_id == "client-group-0-req-9"  # answered as before
    assert _cached(harness) == {"client-group-0": ("client-group-0-req-10", [newer])}
    _retransmit(harness, "client-group-0-req-10")
    assert harness.client_messages(ResponseMsg)[-1] is newer
    assert harness.verifier.error_messages_sent == 0


# ------------------------------------------------------------------ ordering engines


def test_a_vote_at_or_below_the_stable_watermark_creates_no_slot_and_no_key():
    cluster = PBFTCluster(checkpoint_interval=2)
    for index in range(10):
        cluster.primary().propose(f"batch-{index}")
    cluster.run(until=2.0)
    replica = cluster.replicas["node-1"]
    stable = replica.log.stable_seq
    assert stable >= 8

    def tracked_seqs():
        keys = replica._prepare_quorum.keys() + replica._commit_quorum.keys()
        return {seq for _view, seq, _digest in keys}

    assert min(tracked_seqs(), default=stable + 1) > stable  # retired with the slots
    prepare = PrepareMsg(view=0, seq=1, digest="late", replica="node-2")
    unsigned = CommitMsg(view=0, seq=1, digest="late", replica="node-2")
    signature = SignatureService(cluster.keystore, "node-2").sign(unsigned)
    commit = CommitMsg(view=0, seq=1, digest="late", replica="node-2", signature=signature)
    replica.handle(prepare, "node-2")
    replica.handle(commit, "node-2")
    cluster.run(until=3.0)
    assert not replica.log.has_slot(1)
    assert 1 not in tracked_seqs()
    assert replica.log.is_committed(1)


def test_a_decided_vote_keeps_no_voters_and_a_committed_slot_no_signatures():
    # n = 7: a key decides on its 5th vote, so 2 of its 7 votes arrive late
    # at every replica; every vote is delivered.
    cluster = PBFTCluster(n=7)
    for index in range(6):
        cluster.primary().propose(f"batch-{index}")
    cluster.run(until=1.0)
    quorum = cluster.primary().quorum_size
    assert quorum == 5
    for name in cluster.names:
        replica, log = cluster.replicas[name], cluster.replicas[name].log
        assert [entry.seq for entry in cluster.committed[name]] == [1, 2, 3, 4, 5, 6]
        for tracker in (replica._prepare_quorum, replica._commit_quorum):
            assert len(tracker.keys()) == 6  # every key decided, none dropped ...
            assert all(tracker.voters(key) == [] for key in tracker.keys())  # ... and settled
        for seq, entry in log._committed.items():
            slot = log._slots[seq]
            assert slot.committed and slot.commit_signatures == {}
            assert len(entry.certificate) == quorum
            valid = replica._count_valid_certificate(seq, entry.digest, entry.certificate, entry.view)
            assert valid == quorum
            assert not hasattr(slot, "__dict__") and not hasattr(entry, "__dict__")
    # Paxos settles its accepted key the same way.
    paxos = PaxosCluster(n=5)
    for index in range(3):
        paxos.leader().propose(f"batch-{index}")
    paxos.run()
    accepted = paxos.leader()._accepted_quorum
    assert len(accepted.keys()) == 3
    assert all(accepted.voters(key) == [] for key in accepted.keys())


def test_a_replica_partitioned_past_a_checkpoint_rejoins_the_watermark():
    cluster = PBFTCluster(checkpoint_interval=4)
    lagging = cluster.replicas["node-3"]

    def propose(count: int, until: float) -> None:
        for _ in range(count):
            cluster.primary().propose(f"batch-{cluster.primary()._next_seq + 1}")
        cluster.run(until=until)

    propose(4, until=0.5)
    assert lagging.log.stable_seq == 4
    for peer in cluster.names[:3]:  # cut node-3 off both ways
        cluster.block(peer, "node-3")
        cluster.block("node-3", peer)
    propose(12, until=1.0)  # the peers commit 5-16 and truncate them
    assert lagging.log.max_committed_seq() == 4
    cluster.blocked_links.clear()  # heal
    propose(24, until=1.5)
    # No peer retains 5-16 any more, yet node-3 moved with the cluster: it
    # counts the hole as decided and keeps only what lies past the watermark.
    peers_stable = min(cluster.replicas[name].log.stable_seq for name in cluster.names[:3])
    assert lagging.log.stable_seq >= peers_stable - 4
    assert lagging.log.is_committed(10) and not lagging.log.has_slot(10)
    assert lagging.log.slot_count <= 8
    assert all(seq > lagging.log.stable_seq for _v, seq, _d in lagging._commit_quorum.keys())
    # The skipped sequence numbers were never handed up; the rest were, once.
    delivered = [entry.seq for entry in cluster.committed["node-3"]]
    assert delivered[:4] == [1, 2, 3, 4] and 10 not in delivered
    assert delivered == sorted(set(delivered)) and delivered[-1] == 40


def test_a_paxos_follower_counts_an_old_hole_as_decided():
    cluster = PaxosCluster(n=3, checkpoint_interval=4)
    route = cluster.route

    def drop_one_learn(src, dst, message):
        if not (dst == "node-2" and isinstance(message, PaxosLearnMsg) and message.seq == 3):
            route(src, dst, message)

    cluster.route = drop_one_learn
    for index in range(40):
        cluster.leader().propose(f"batch-{index}")
    cluster.run()
    follower = cluster.replicas["node-2"]
    assert [entry.seq for entry in cluster.committed["node-2"]] == [1, 2, *range(4, 41)]
    # The leader sends each LEARN once: two intervals on, the hole counts as
    # decided and the watermark passes it.
    assert follower.log.is_committed(3) and follower.log.committed_count() == 40
    assert follower.log.stable_seq >= 40 - 3 * 4
    assert follower.log.slot_count <= 3 * 4


# ------------------------------------------------------------------ conflict planner


def _planned_batch(seq: int) -> TransactionBatch:
    txn = Transaction(
        txn_id=f"txn-{seq}",
        client_id="client-0",
        operations=(Operation(key="hot", is_write=True, value="v"),),
    )
    return TransactionBatch(batch_id=f"batch-{seq}", transactions=(txn,))


def test_conflict_planner_retires_a_batch_verified_before_it_was_released():
    planner = ConflictPlanner()
    planner.add(1, _planned_batch(1))
    assert [seq for seq, _batch in planner.ready()] == [1]
    planner.add(2, _planned_batch(2))
    assert planner.ready() == []  # seq 2 waits for seq 1's lock on "hot"
    # A lagging node: the verifier confirms seq 2 before seq 1 released it.
    assert planner.complete(2) == []
    assert list(planner._pending) == [1]
    assert planner.complete(1) == []  # seq 2 is settled: never dispatched
    assert planner._pending == {} and planner.locked_items() == set()
    assert planner.outstanding == 0


# ------------------------------------------------------------------ shim node


def _entry(seq: int) -> CommittedEntry:
    txn = Transaction(
        txn_id=f"txn-{seq}",
        client_id="client-0",
        operations=(Operation(key=f"k{seq}", is_write=True, value="v"),),
    )
    batch = TransactionBatch(batch_id=f"batch-{seq}", transactions=(txn,))
    return CommittedEntry(seq=seq, view=0, digest=digest(batch), batch=batch, certificate=())


def _commit(node, seq: int) -> None:
    """Deliver a decision the way an ordering engine does: log it, then call back."""
    entry = _entry(seq)
    node.replica.log.record_commit(entry)
    node._on_committed(entry)


def test_shim_entry_retires_in_either_arrival_order():
    deployment = build_system("serverless_bft", make_config(), make_workload())
    primary = deployment.nodes[0]
    # Commit first, notice second: the usual order.  The notice is not kept.
    _commit(primary, 1)
    assert list(primary._committed_entries) == [1]
    primary.on_message(ResponseMsg(request_id="", seq=1, digest="d"), "verifier")
    assert primary._committed_entries == {}
    assert primary.verified_sequence_numbers == set()
    # Notice first (a lagging node): the notice waits for the commit, which
    # still spawns, consumes the notice and keeps nothing.
    primary.on_message(ResponseMsg(request_id="", seq=2, digest="d"), "verifier")
    assert primary.verified_sequence_numbers == {2}
    _commit(primary, 2)
    assert primary._committed_entries == {}
    assert primary.verified_sequence_numbers == set()
    deployment.sim.run(until=0.01)
    assert primary.spawned_executors == 2 * deployment.config.num_executors
    # A notice from anybody but the verifier retires nothing.
    _commit(primary, 3)
    primary.on_message(ResponseMsg(request_id="", seq=3, digest="d"), "node-1")
    assert list(primary._committed_entries) == [3]


def test_a_notice_for_a_skipped_sequence_goes_with_the_watermark():
    deployment = build_system("serverless_bft", make_config(), make_workload())
    node = deployment.nodes[3]
    # Notices for seqs 5 and 9 overtake this node's commits of them ...
    for seq in (5, 9):
        node.on_message(ResponseMsg(request_id="", seq=seq, digest="d"), "verifier")
    assert node.verified_sequence_numbers == {5, 9}
    # ... and then f+1 peers vouch for stable checkpoint 8: the replica skips
    # to it, so seq 5 never commits here and its notice goes.
    replica = node.replica
    replica._peer_stable_seqs.update({"node-1": 8, "node-2": 8})
    replica._maybe_skip_to_peer_stable()
    assert replica.log.stable_seq == 8
    assert node.verified_sequence_numbers == {9}


def test_new_primary_respawns_exactly_the_unverified_sequences():
    deployment = build_system("serverless_bft", make_config(), make_workload())
    deployment.run(duration=0.6, warmup=0.0)
    node = deployment.nodes[1]
    log = node.replica.log
    committed = [seq for seq in range(1, log.max_committed_seq() + 1) if log.is_committed(seq)]
    unverified = sorted(node._committed_entries)
    verified = [seq for seq in committed if seq not in node._committed_entries]
    assert unverified, "the run was cut mid-flight: some sequence must be unverified"
    assert len(verified) > len(unverified)
    # Whatever the verifier has not settled is still pending here.
    assert {seq for seq in committed if seq >= deployment.verifier.kmax} <= set(unverified)
    respawned = []
    node._spawn_for_seq = respawned.append
    node._on_view_installed(1, node.name)
    assert respawned == unverified
    # ... and a verifier ERROR names a sequence number: only a pending one respawns.
    respawned.clear()
    node._respawn_if_known(unverified[0])
    node._respawn_if_known(min(verified))
    assert respawned == [unverified[0]]


def test_view_change_drill_still_recovers_with_retired_state():
    # The byzantine primary withholds executors; the verifier's REPLACE elects
    # a new primary, which must find the stuck sequences among its entries.
    simulation, result = run_drill("fewer-executors", duration=3.0)
    assert result.view_changes > 0
    assert result.committed_txns > 0
    for node in simulation.nodes:
        # A node keeps a verifier notice only while it is ahead of its own commit.
        assert not any(node.replica.log.is_committed(seq) for seq in node._verified_seqs)


# ------------------------------------------------------------------ settled batches


def _payload_seqs(log) -> set:
    """Sequence numbers whose slot or retained entry still holds a batch."""
    return {seq for seq, slot in log._slots.items() if slot.batch is not None} | {
        seq for seq, entry in log._committed.items() if entry.batch is not None
    }


@pytest.mark.parametrize("system", ["serverless_bft", "serverless_cft", "pbft_replicated"])
def test_a_settled_sequence_keeps_only_its_certificate(system):
    spec = RunSpec(
        system=system, base="default", overrides=OVERRIDES, duration=3.0, warmup=0.0
    )
    deployment = build_deployment(resolve(spec))
    result = deployment.run(duration=3.0, warmup=0.0)
    assert result.committed_txns > 0
    for node in deployment.nodes:
        replica, log = node.replica, node.replica.log
        # No log holds a committed sequence's batch, settled or not ...
        assert not any(log.is_committed(seq) for seq in _payload_seqs(log))
        if system != "pbft_replicated":
            # ... the node itself keeps the batches the verifier has not
            # settled, for a new primary to spawn for.
            assert all(entry.batch is not None for entry in node._committed_entries.values())
            assert all(seq >= deployment.verifier.kmax - WINDOW for seq in node._committed_entries)
        # ... and the certificates of one checkpoint interval stay.
        assert log.retained_commits > WINDOW
        for seq, entry in log._committed.items():
            slot = log._slots[seq]
            assert slot.committed and slot.digest == entry.digest and slot.view == entry.view
            if system != "serverless_cft":  # Paxos decisions carry no signatures
                valid = replica._count_valid_certificate(
                    seq, entry.digest, entry.certificate, entry.view
                )
                assert valid >= replica.quorum_size


def test_a_committed_batch_leaves_the_log_in_either_arrival_order():
    deployment = build_system("serverless_bft", make_config(), make_workload())
    node = deployment.nodes[0]
    log = node.replica.log
    # Commit first, notice second: the log keeps the certificate only, and
    # the node keeps the batch until the notice.
    _commit(node, 1)
    assert _payload_seqs(log) == set()
    assert node._committed_entries[1].batch is not None
    assert log.committed_entries()[0].digest == node._committed_entries[1].digest
    node.on_message(ResponseMsg(request_id="", seq=1, digest="d"), "verifier")
    assert node._committed_entries == {}
    # Notice first: the proposed batch stays in its slot until this node's
    # own commit, which still spawns for it.
    proposal = _entry(2)
    slot = log.slot(2)
    slot.digest, slot.batch, slot.preprepared = proposal.digest, proposal.batch, True
    node.on_message(ResponseMsg(request_id="", seq=2, digest="d"), "verifier")
    assert _payload_seqs(log) == {2}
    log.record_commit(proposal)
    node._on_committed(proposal)
    assert _payload_seqs(log) == set()
    assert [entry.digest for entry in log.committed_entries()][1] == proposal.digest
    deployment.sim.run(until=0.01)
    assert node.spawned_executors == 2 * deployment.config.num_executors


def test_a_view_change_still_reproposes_an_uncommitted_slot_with_its_batch():
    cluster = PBFTCluster(request_timeout=10.0)
    cluster.primary().propose("settled")
    cluster.run(until=0.5)
    for name in cluster.names:
        assert cluster.committed[name][0].batch == "settled"
        assert _payload_seqs(cluster.replicas[name].log) == set()
    # Slot 2 prepared but did not commit before the view change: it keeps
    # its batch, so the new primary can re-propose it.
    for name in ("node-1", "node-2", "node-3"):
        slot = cluster.replicas[name].log.slot(2)
        slot.digest, slot.batch = digest("carried-batch"), "carried-batch"
        slot.preprepared = slot.prepared = True
    cluster.replicas["node-2"].request_view_change(reason="test")
    cluster.replicas["node-3"].request_view_change(reason="test")
    cluster.run(until=3.0)
    for name in cluster.names:
        assert cluster.replicas[name].view == 1
        assert [entry.seq for entry in cluster.committed[name]] == [1, 2]
        assert cluster.committed[name][1].batch == "carried-batch"
        assert _payload_seqs(cluster.replicas[name].log) == set()


def test_an_installed_view_leaves_no_view_change_votes():
    # Three requested view changes, the second past a silent primary: node-2
    # never gets a message out, so view 2 does not install and the others
    # escalate to view 3.  After each install no tracker keeps a vote for
    # the installed view or an older one.
    cluster = PBFTCluster(request_timeout=0.5)
    cluster.primary().propose("batch-0")
    cluster.run(until=0.5)
    for dst in cluster.names:
        cluster.block("node-2", dst)
    until = 0.5
    for expected_view in (1, 3, 4):
        for name in cluster.names:
            cluster.replicas[name].request_view_change(reason="test")
        until += 3.0
        cluster.run(until=until)
        for name in cluster.names:
            replica = cluster.replicas[name]
            if name != "node-2":
                assert replica.view == expected_view
            for tracker in (replica._viewchange_quorum, replica._viewchange_join):
                assert all(key > replica.view for key in tracker.keys()), (name, tracker.keys())


# ------------------------------------------------------------------ executor


class ExecutorHarness:
    """One executor between a scripted storage and a recording verifier."""

    def __init__(self, duplicate_after=None, keystore=None):
        self.sim = Simulator()
        self.network = Network(
            self.sim, UniformLatencyModel(base_delay=0.001, jitter=0.0), DeterministicRNG(1)
        )
        self.keystore = keystore or KeyStore()
        self.store = VersionedKVStore()
        self.verifies = []
        self.network.register("verifier", "us-west-1", lambda msg, sender: self.verifies.append(msg))
        self.network.register("storage", "us-west-1", self._serve_read)
        self.network.register("node-0", "us-west-1", lambda msg, sender: None)
        self._duplicate_after = duplicate_after
        self.cloud = ServerlessCloud(
            sim=self.sim,
            catalog=RegionCatalog(),
            cost_model=CostModel(),
            rng=DeterministicRNG(2),
            executor_factory=self._factory,
        )
        self.keystore.derive_issued(self.cloud.issued)  # as a deployment wires it
        self.executor = None

    def _serve_read(self, message, sender):
        assert isinstance(message, StorageReadRequest)
        reply = StorageReadReply(message.request_id, self.store.read_many(message.keys))
        self.network.send("storage", sender, reply, 160)
        if self._duplicate_after is not None:
            self.sim.schedule(self._duplicate_after, self.network.send, "storage", sender, reply, 160)

    def _factory(self, executor_id, region, spawner, payload):
        self.executor = Executor(
            sim=self.sim,
            network=self.network,
            name=executor_id,
            region=region,
            signer=SignatureService(self.keystore, executor_id),
            costs=CryptoCostModel(),
            cloud=self.cloud,
            storage_name="storage",
            verifier_name="verifier",
            required_certificate_signers=0,
        )
        self.executor.invoke(payload, spawner)

    def spawn(self):
        entry = _entry(1)
        certificate = CommitCertificate(view=0, seq=1, digest=entry.digest)
        execute = ExecuteMsg(
            seq=1, view=0, batch=entry.batch, digest=entry.digest,
            certificate=certificate, spawner="node-0",
        )
        handle = self.cloud.spawn(SpawnRequest("node-0", "us-west-1", execute))
        self.sim.run_until_idle()
        return handle


def test_executor_terminates_after_its_verify():
    harness = ExecutorHarness()
    handle = harness.spawn()
    assert [type(msg) for msg in harness.verifies] == [VerifyMsg]
    assert harness.executor._finished
    assert harness.executor._pending_execute is None  # the EXECUTE (and its batch) is let go
    assert not harness.network.has_endpoint(handle.executor_id)
    # The invocation is billed once and its record dropped.
    assert harness.cloud.handles == [] and handle.finish_time is not None
    report = harness.cloud.cost_model.report
    assert report.lambda_invocations == 1
    assert report.per_spawner_cost == {"node-0": handle.cost} and handle.cost > 0
    harness.cloud.finish(handle.executor_id)  # a second finish is a no-op
    assert report.lambda_invocations == 1 and report.per_spawner_cost == {"node-0": handle.cost}
    # A retired executor is still refused as a spawner.
    with pytest.raises(CloudError):
        harness.cloud.spawn(SpawnRequest(handle.executor_id, "us-west-1", "nested"))
    # The identity outlives the function without being stored: it is derived,
    # so a late VERIFY still verifies.
    assert handle.executor_id not in harness.keystore._keypairs
    verify = harness.verifies[0]
    assert SignatureService(harness.keystore, "verifier").verify(verify, verify.signature)


def test_a_retired_executors_late_verify_verifies_and_is_ignored():
    verifier = VerifierHarness()
    executor = ExecutorHarness(keystore=verifier.keystore)
    handle = executor.spawn()
    late = executor.verifies[0]
    assert late.executor == handle.executor_id and executor.cloud.handles == []
    # Two other executors settle the sequence before the retired one's VERIFY lands.
    for other in ("executor-7", "executor-8"):
        verifier.deliver(verifier.make_verify(1, other, late.batch), other)
    assert verifier.verifier.kmax == 2
    ignored = verifier.verifier.ignored_verify_messages
    verifier.deliver(late, handle.executor_id)
    # An invalid signature would be dropped before the count: it verified.
    assert verifier.verifier.ignored_verify_messages == ignored + 1


@pytest.mark.parametrize(
    "duplicate_after, dropped",
    [
        # Lands during the compute phase: delivered, and starts nothing.
        pytest.param(1e-5, 0, id="before-termination"),
        # Finds nobody home: the network drops it.
        pytest.param(0.5, 1, id="after-termination"),
    ],
)
def test_duplicate_storage_reply_sends_one_verify(duplicate_after, dropped):
    harness = ExecutorHarness(duplicate_after=duplicate_after)
    handle = harness.spawn()  # must not raise "unknown sender endpoint"
    assert len(harness.verifies) == 1
    assert handle.finish_time is not None
    assert harness.cloud.running_executors() == 0
    assert harness.network.messages_dropped == dropped


def test_duplicating_network_run_is_deterministic_and_one_verify_per_executor():
    def run():
        simulation, result = run_simulation(
            network_fault_plan=NetworkFaultPlan(duplicate_probability=0.2),
            tracer_enabled=True,
            duration=1.5,
        )
        sent = [event.actor for event in simulation.obs.events("executor.verify_sent")]
        return result, sent

    first, sent = run()
    second, _ = run()
    assert first.committed_txns > 0
    assert len(sent) > 50 and len(sent) == len(set(sent))  # nobody reported twice
    assert result_digest(first) == result_digest(second)


def test_lossy_network_preset_same_digest_twice():
    _, first = run_drill("lossy-network", duration=2.0, overrides={"protocol.crypto_backend": "fast"})
    _, second = run_drill("lossy-network", duration=2.0, overrides={"protocol.crypto_backend": "fast"})
    assert first.committed_txns > 0
    assert result_digest(first) == result_digest(second)


# ------------------------------------------------------------------ storage read cache


def test_a_write_empties_the_read_cache():
    store = VersionedKVStore()
    store.load(50)
    old = store.read_many(("user0", "user1"))
    assert store.read_many(("user0", "user1")) is old  # an unchanged store shares
    for write in (
        lambda: store.apply_writes({"other": "v"}),
        lambda: store.apply_write_sets([{"user0": "a"}, {"user1": "b"}]),
        lambda: store.load(2, value="new"),
    ):
        old = store.read_many(("user0", "user1"))
        write()
        assert store._read_cache == {}
        fresh = store.read_many(("user0", "user1"))
        assert fresh is not old
        assert fresh.plain_values() == {key: store.get_value(key) for key in ("user0", "user1")}
        assert fresh.versions_map() == store.current_versions(("user0", "user1"))
    assert fresh.plain_values() == {"user0": "new", "user1": "new"}
    assert fresh.versions_map() == {"user0": 1, "user1": 1}
    # Writes that change nothing keep what is cached.
    store.apply_writes({})
    store.apply_write_sets([{}])
    store.load(0)
    assert store.read_many(("user0", "user1")) is fresh


def test_read_cache_of_a_never_written_store_is_capped():
    store = VersionedKVStore()
    for index in range(VersionedKVStore._READ_CACHE_LIMIT + 10):
        store.read_many((f"k{index}",))
    assert len(store._read_cache) == VersionedKVStore._READ_CACHE_LIMIT
    assert ("k0",) not in store._read_cache  # oldest first, not "drop everything"
    assert (f"k{VersionedKVStore._READ_CACHE_LIMIT}",) in store._read_cache
