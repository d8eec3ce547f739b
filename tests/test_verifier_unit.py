"""Unit tests for the verifier's quorum matching, ordering, and recovery logic.

These tests drive a :class:`Verifier` directly with hand-built VERIFY and
client-request messages over a minimal network, without the rest of the
deployment, so each rule of Figure 3 (Lines 21–35) and Figure 4 (Lines 6–14)
can be exercised in isolation.
"""

from typing import List, Tuple

import pytest

from repro.core.certificates import CommitCertificate
from repro.core.messages import AbortMsg, AckMsg, ClientRequestMsg, ErrorMsg, ReplaceMsg, ResponseMsg, VerifyMsg
from repro.core.verifier import Verifier
from repro.crypto.costs import CryptoCostModel
from repro.crypto.hashing import digest
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import SignatureService
from repro.sim.engine import Simulator
from repro.sim.network import Network, UniformLatencyModel
from repro.sim.rng import DeterministicRNG
from repro.storage.kvstore import VersionedKVStore
from repro.workload.transactions import Operation, Transaction, TransactionBatch, execute_batch


class Harness:
    """A verifier plus captured traffic to clients and shim nodes."""

    def __init__(self, match_quorum=2, executor_faults=1, expected_executors=3,
                 quorum_timeout=0.5):
        self.sim = Simulator()
        self.network = Network(
            self.sim, UniformLatencyModel(base_delay=0.0005, jitter=0.0), DeterministicRNG(1)
        )
        self.keystore = KeyStore()
        self.store = VersionedKVStore()
        self.shim_names = ["node-0", "node-1", "node-2", "node-3"]
        self.to_clients: List[Tuple[str, object]] = []
        self.to_nodes: List[Tuple[str, object]] = []
        for name in self.shim_names:
            self.network.register(
                name, "us-west-1",
                lambda msg, sender, name=name: self.to_nodes.append((name, msg)),
            )
        self.network.register(
            "client-group-0", "us-west-1",
            lambda msg, sender: self.to_clients.append(("client-group-0", msg)),
        )
        self.verifier = Verifier(
            sim=self.sim,
            network=self.network,
            name="verifier",
            region="us-west-1",
            cores=8,
            store=self.store,
            signer=SignatureService(self.keystore, "verifier"),
            costs=CryptoCostModel(),
            shim_node_names=self.shim_names,
            match_quorum=match_quorum,
            executor_faults=executor_faults,
            expected_executors=expected_executors,
            quorum_timeout=quorum_timeout,
        )

    def make_batch(self, seq, keys=("k1",), request_id=None):
        request_id = request_id or f"req-{seq}"
        txn = Transaction(
            txn_id=f"txn-{seq}",
            client_id="client-0",
            operations=tuple(Operation(key=key, is_write=True, value="v") for key in keys),
            origin="client-group-0",
            request_id=request_id,
        )
        return TransactionBatch(batch_id=f"batch-{seq}", transactions=(txn,))

    def make_verify(self, seq, executor, batch=None, stale=False, corrupt=False):
        batch = batch or self.make_batch(seq)
        versions = {key: (99 if stale else self.store.read(key).version) for key in batch.keys}
        values = {key: self.store.read(key).value for key in batch.keys}
        result = execute_batch(batch, values, versions)
        if corrupt:
            from dataclasses import replace

            result = replace(result, result_digest=f"corrupt-{executor}")
        certificate = CommitCertificate(view=0, seq=seq, digest=digest(batch))
        unsigned = VerifyMsg(
            seq=seq, batch=batch, digest=digest(batch), certificate=certificate,
            result=result, executor=executor,
        )
        signature = SignatureService(self.keystore, executor).sign(unsigned.canonical())
        return VerifyMsg(
            seq=seq, batch=batch, digest=digest(batch), certificate=certificate,
            result=result, executor=executor, signature=signature,
        )

    def deliver(self, message, sender):
        self.verifier.on_message(message, sender)
        self.sim.run_until_idle()

    def run(self, until=None):
        self.sim.run(until=until) if until else self.sim.run_until_idle()

    def client_messages(self, kind):
        return [msg for _origin, msg in self.to_clients if isinstance(msg, kind)]

    def node_messages(self, kind):
        return [msg for _node, msg in self.to_nodes if isinstance(msg, kind)]


def test_matching_quorum_validates_and_replies():
    harness = Harness()
    batch = harness.make_batch(1)
    harness.deliver(harness.make_verify(1, "executor-0", batch), "executor-0")
    assert harness.client_messages(ResponseMsg) == []  # one VERIFY is not enough
    harness.deliver(harness.make_verify(1, "executor-1", batch), "executor-1")
    responses = harness.client_messages(ResponseMsg)
    assert len(responses) == 1
    assert responses[0].committed_txn_ids == ("txn-1",)
    assert harness.verifier.kmax == 2
    assert harness.store.read("k1").version == 1
    # Every shim node gets the "sequence verified" notice.
    notices = [msg for msg in harness.node_messages(ResponseMsg) if msg.seq == 1]
    assert len(notices) == len(harness.shim_names)


def test_out_of_order_sequences_wait_in_pi_until_kmax_advances():
    harness = Harness()
    batch2 = harness.make_batch(2, keys=("a",))
    harness.deliver(harness.make_verify(2, "executor-0", batch2), "executor-0")
    harness.deliver(harness.make_verify(2, "executor-1", batch2), "executor-1")
    # Sequence 2 matched but k_max = 1 is missing: nothing is applied yet.
    assert harness.client_messages(ResponseMsg) == []
    assert harness.store.write_count == 0
    batch1 = harness.make_batch(1, keys=("b",))
    harness.deliver(harness.make_verify(1, "executor-2", batch1), "executor-2")
    harness.deliver(harness.make_verify(1, "executor-3", batch1), "executor-3")
    # Both sequence numbers are now validated, in order.
    assert harness.verifier.kmax == 3
    assert len(harness.client_messages(ResponseMsg)) == 2


def test_mismatching_results_do_not_form_a_quorum():
    harness = Harness()
    batch = harness.make_batch(1)
    harness.deliver(harness.make_verify(1, "executor-0", batch), "executor-0")
    harness.deliver(harness.make_verify(1, "executor-1", batch, corrupt=True), "executor-1")
    assert harness.client_messages(ResponseMsg) == []
    # A third, honest executor completes the quorum of matching results.
    harness.deliver(harness.make_verify(1, "executor-2", batch), "executor-2")
    assert len(harness.client_messages(ResponseMsg)) == 1


def test_stale_reads_abort_the_transaction():
    harness = Harness()
    batch = harness.make_batch(1)
    harness.deliver(harness.make_verify(1, "executor-0", batch, stale=True), "executor-0")
    harness.deliver(harness.make_verify(1, "executor-1", batch, stale=True), "executor-1")
    responses = harness.client_messages(ResponseMsg)
    assert len(responses) == 1
    assert responses[0].aborted_txn_ids == ("txn-1",)
    assert harness.store.write_count == 0
    assert harness.verifier.aborted_txns == 1


def test_duplicate_and_post_quorum_verify_messages_are_ignored():
    harness = Harness()
    batch = harness.make_batch(1)
    verify = harness.make_verify(1, "executor-0", batch)
    harness.deliver(verify, "executor-0")
    harness.deliver(verify, "executor-0")  # duplicate from the same executor
    harness.deliver(harness.make_verify(1, "executor-1", batch), "executor-1")
    harness.deliver(harness.make_verify(1, "executor-2", batch), "executor-2")  # post-quorum
    assert harness.verifier.ignored_verify_messages >= 2
    assert len(harness.client_messages(ResponseMsg)) == 1


def test_invalid_signature_or_relayed_verify_rejected():
    harness = Harness()
    batch = harness.make_batch(1)
    verify = harness.make_verify(1, "executor-0", batch)
    # Relayed by a different sender than the claimed executor: rejected.
    harness.deliver(verify, "executor-9")
    # Unsigned message: rejected.
    from dataclasses import replace

    harness.deliver(replace(verify, signature=None), "executor-0")
    assert harness.verifier.kmax == 1
    assert len(harness.client_messages(ResponseMsg)) == 0


def test_client_retransmission_for_unknown_request_broadcasts_error():
    harness = Harness()
    request = ClientRequestMsg(
        request_id="req-lost", origin="client-group-0",
        transactions=harness.make_batch(9, request_id="req-lost").transactions,
    )
    harness.deliver(request, "client-group-0")
    errors = harness.node_messages(ErrorMsg)
    assert len(errors) == len(harness.shim_names)
    assert errors[0].request.request_id == "req-lost"
    assert harness.verifier.error_messages_sent == 1


def test_client_retransmission_after_response_resends_cached_reply():
    harness = Harness()
    batch = harness.make_batch(1, request_id="req-1")
    harness.deliver(harness.make_verify(1, "executor-0", batch), "executor-0")
    harness.deliver(harness.make_verify(1, "executor-1", batch), "executor-1")
    assert len(harness.client_messages(ResponseMsg)) == 1
    request = ClientRequestMsg(
        request_id="req-1", origin="client-group-0", transactions=batch.transactions
    )
    harness.deliver(request, "client-group-0")
    assert len(harness.client_messages(ResponseMsg)) == 2  # cached reply resent


def test_client_retransmission_for_stuck_sequence_reports_kmax_and_acks_later():
    harness = Harness()
    batch2 = harness.make_batch(2, request_id="req-2")
    harness.deliver(harness.make_verify(2, "executor-0", batch2), "executor-0")
    harness.deliver(harness.make_verify(2, "executor-1", batch2), "executor-1")
    request = ClientRequestMsg(
        request_id="req-2", origin="client-group-0", transactions=batch2.transactions
    )
    harness.deliver(request, "client-group-0")
    errors = harness.node_messages(ErrorMsg)
    assert errors and errors[0].missing_seq == 1
    # Once sequence 1 arrives and is validated, the verifier ACKs the shim.
    batch1 = harness.make_batch(1, request_id="req-1")
    harness.deliver(harness.make_verify(1, "executor-2", batch1), "executor-2")
    harness.deliver(harness.make_verify(1, "executor-3", batch1), "executor-3")
    assert harness.node_messages(AckMsg)
    assert harness.verifier.kmax == 3


def test_quorum_timeout_with_few_reports_blames_the_primary():
    harness = Harness(quorum_timeout=0.2)
    batch = harness.make_batch(1)
    harness.deliver(harness.make_verify(1, "executor-0", batch), "executor-0")
    harness.run(until=1.0)
    replaces = harness.node_messages(ReplaceMsg)
    assert len(replaces) >= len(harness.shim_names)
    assert harness.verifier.replace_messages_sent >= 1


def test_live_version_map_tracks_commits_and_matches_store():
    """Back-to-back commits on one key each validate against the store's versions.

    The verifier once mirrored the store's versions in a map of its own; it
    now reads the store, so what is left to pin is the outcome.
    """
    harness = Harness()
    for seq in (1, 2, 3):
        batch = harness.make_batch(seq, keys=("k1", f"k{seq}x"))
        harness.deliver(harness.make_verify(seq, "executor-0", batch), "executor-0")
        harness.deliver(harness.make_verify(seq, "executor-1", batch), "executor-1")
    assert harness.verifier.kmax == 4
    assert harness.verifier.aborted_txns == 0
    assert [r.committed_txn_ids for r in harness.client_messages(ResponseMsg)] == [
        ("txn-1",), ("txn-2",), ("txn-3",)
    ]
    assert harness.store.read("k1").version == 3  # bumped by every batch
    for seq in (1, 2, 3):
        assert harness.store.read(f"k{seq}x").version == 1


def test_live_version_map_consistent_after_aborts():
    """An aborted sequence leaves the store untouched."""
    harness = Harness()
    batch1 = harness.make_batch(1, keys=("k1",))
    harness.deliver(harness.make_verify(1, "executor-0", batch1), "executor-0")
    harness.deliver(harness.make_verify(1, "executor-1", batch1), "executor-1")
    assert harness.store.read("k1").version == 1
    # Stale reads on the same key: the transaction aborts, no version bump.
    batch2 = harness.make_batch(2, keys=("k1",))
    harness.deliver(harness.make_verify(2, "executor-0", batch2, stale=True), "executor-0")
    harness.deliver(harness.make_verify(2, "executor-1", batch2, stale=True), "executor-1")
    assert harness.verifier.aborted_txns == 1
    assert harness.store.read("k1").version == 1
    assert harness.store.write_count == 1
    # A later, fresh batch on the same key validates against the store.
    batch3 = harness.make_batch(3, keys=("k1",))
    harness.deliver(harness.make_verify(3, "executor-0", batch3), "executor-0")
    harness.deliver(harness.make_verify(3, "executor-1", batch3), "executor-1")
    assert harness.client_messages(ResponseMsg)[-1].committed_txn_ids == ("txn-3",)
    assert harness.verifier.aborted_txns == 1
    assert harness.store.read("k1").version == 2


def test_live_version_map_consistent_after_replace_timeout_abort():
    """After a timeout abort (REPLACE machinery) the next batch still validates."""
    harness = Harness(quorum_timeout=0.2, executor_faults=1, expected_executors=4)
    batch = harness.make_batch(1, keys=("k1",))
    harness.deliver(harness.make_verify(1, "executor-0", batch), "executor-0")
    harness.deliver(harness.make_verify(1, "executor-1", batch, corrupt=True), "executor-1")
    harness.deliver(harness.make_verify(1, "executor-2", batch, stale=True), "executor-2")
    harness.run(until=1.0)
    assert harness.client_messages(AbortMsg)  # abort-tagged via the timer
    assert harness.store.write_count == 0
    # The next sequence on the same key still validates and bumps correctly.
    batch2 = harness.make_batch(2, keys=("k1",))
    harness.deliver(harness.make_verify(2, "executor-0", batch2), "executor-0")
    harness.deliver(harness.make_verify(2, "executor-1", batch2), "executor-1")
    assert harness.client_messages(ResponseMsg)[-1].committed_txn_ids == ("txn-2",)
    assert harness.store.read("k1").version == 1


def test_foreign_store_write_invalidates_live_map():
    """A write bypassing the verifier counts: validation reads the store itself."""
    harness = Harness()
    batch1 = harness.make_batch(1, keys=("k1",))
    harness.deliver(harness.make_verify(1, "executor-0", batch1), "executor-0")
    harness.deliver(harness.make_verify(1, "executor-1", batch1), "executor-1")
    assert harness.store.read("k1").version == 1
    # Poke the store directly (no verifier involvement).
    harness.store.apply_writes({"k1": "foreign"})
    assert harness.store.read("k1").version == 2
    # Executors that observed the foreign version commit...
    batch2 = harness.make_batch(2, keys=("k1",))
    harness.deliver(harness.make_verify(2, "executor-0", batch2), "executor-0")
    harness.deliver(harness.make_verify(2, "executor-1", batch2), "executor-1")
    assert harness.client_messages(ResponseMsg)[-1].committed_txn_ids == ("txn-2",)
    assert harness.store.read("k1").version == 3
    # ...and executors that read k1 before the foreign write abort.
    batch3 = harness.make_batch(3, keys=("k1",))
    stale = [harness.make_verify(3, executor, batch3) for executor in ("executor-0", "executor-1")]
    harness.store.apply_writes({"k1": "foreign-again"})
    for verify in stale:
        harness.deliver(verify, verify.executor)
    assert harness.client_messages(ResponseMsg)[-1].aborted_txn_ids == ("txn-3",)
    assert harness.store.read("k1").version == 4


def test_fabricated_read_version_outside_batch_aborts():
    """Matching results reporting a key outside the batch must still abort.

    The old per-batch snapshot aborted such transactions because the key
    was missing from the snapshot; the incremental check must reproduce
    that via the batch-key containment test even when the fabricated
    version happens to equal the store's current version.
    """
    import hashlib
    from dataclasses import replace

    from repro.workload.transactions import ExecutionResult, TransactionResult

    harness = Harness()
    # Commit a first batch so the foreign key has a live, nonzero version.
    batch1 = harness.make_batch(1, keys=("zz",))
    harness.deliver(harness.make_verify(1, "executor-0", batch1), "executor-0")
    harness.deliver(harness.make_verify(1, "executor-1", batch1), "executor-1")
    assert harness.store.read("zz").version == 1

    batch2 = harness.make_batch(2, keys=("k1",))

    def fabricated_verify(executor: str) -> VerifyMsg:
        txn = batch2.transactions[0]
        fabricated = TransactionResult(
            txn_id=txn.txn_id,
            writes={"k1": "v"},
            # Correct version for k1 AND the true current version of the
            # foreign key zz — every (key, version) pair matches the store.
            read_versions={"k1": 0, "zz": 1},
        )
        result = ExecutionResult(
            batch_id=batch2.batch_id,
            result_digest=hashlib.sha256(b"fabricated").hexdigest(),
            txn_results=(fabricated,),
        )
        certificate = CommitCertificate(view=0, seq=2, digest=digest(batch2))
        unsigned = VerifyMsg(
            seq=2, batch=batch2, digest=digest(batch2), certificate=certificate,
            result=result, executor=executor,
        )
        signature = SignatureService(harness.keystore, executor).sign(unsigned.canonical())
        return replace(unsigned, signature=signature)

    harness.deliver(fabricated_verify("executor-0"), "executor-0")
    harness.deliver(fabricated_verify("executor-1"), "executor-1")
    responses = harness.client_messages(ResponseMsg)
    aborted = [r for r in responses if r.aborted_txn_ids]
    assert aborted and aborted[0].aborted_txn_ids == ("txn-2",)
    assert harness.store.read("k1").version == 0  # fabricated write rejected


def test_quorum_timeout_with_conflicting_reports_aborts():
    harness = Harness(quorum_timeout=0.2, executor_faults=1, expected_executors=4)
    batch = harness.make_batch(1)
    # 2 f_E + 1 = 3 executors answered, but their results never match.
    harness.deliver(harness.make_verify(1, "executor-0", batch), "executor-0")
    harness.deliver(harness.make_verify(1, "executor-1", batch, corrupt=True), "executor-1")
    harness.deliver(harness.make_verify(1, "executor-2", batch, stale=True), "executor-2")
    harness.run(until=1.0)
    aborts = harness.client_messages(AbortMsg)
    assert len(aborts) == 1
    assert harness.verifier.kmax == 2  # the aborted sequence still advances k_max
