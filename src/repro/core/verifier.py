"""The trusted verifier ``V``.

The verifier is a lightweight wrapper around the on-premise data store.  It
collects VERIFY messages from executors and, once it has ``f_E + 1``
*matching* results for a sequence number, validates that sequence number in
strict order (the ``k_max`` / ``π`` machinery of Figure 3, Lines 21–35):

* the read versions reported by the executors must still match the store
  (concurrency-control check) — stale transactions are aborted;
* writes of valid transactions are applied to the store;
* RESPONSE messages go to the submitting clients and to the shim.

The verifier also drives recovery from request-suppression attacks
(Figure 4): clients that time out retransmit to the verifier, which answers
with a cached RESPONSE, an ERROR (missing request / stuck ``k_max``), or a
REPLACE (byzantine primary), and later ACKs the shim once the problem is
resolved.  Flooding is mitigated by ignoring VERIFY messages for already
matched sequence numbers (Section V-C).

What the verifier keeps is what is in flight: per-sequence state until the
sequence number is settled, and per client endpoint only its latest request
(the one a closed-loop endpoint can still retransmit) with the replies sent
for it.  Concurrency control reads the store's own versions.

For conflicting transactions with unknown read-write sets (Section VI-B) the
verifier runs abort detection: a timer per sequence number that, on expiry,
either blames the primary (fewer than ``2f_E + 1`` VERIFY messages received)
or aborts the transaction (enough executors answered but their results do
not match because of the conflict).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.config import VERIFY_PROCESSING_COST
from repro.core.messages import (
    AbortMsg,
    AckMsg,
    ClientRequestMsg,
    ErrorMsg,
    ReplaceMsg,
    ResponseMsg,
    VerifyMsg,
)
from repro.crypto.costs import CryptoCostModel
from repro.crypto.signatures import SignatureService
from repro.perf import PERF
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import SimProcess
from repro.sim.stats import LatencyRecorder, ThroughputRecorder
from repro.storage.kvstore import VersionedKVStore


class _SeqState:
    """Per-sequence-number bookkeeping at the verifier.

    Lives from the first VERIFY of a sequence number until that number is
    validated or aborted; ``_finish_sequence`` deletes it, votes included.
    """

    def __init__(self) -> None:
        self.distinct_executors: Set[str] = set()
        # match key -> VERIFYs counted for it.  An executor is counted once
        # per sequence number (``distinct_executors``), so a count is a
        # number of distinct voters.
        self.votes: Dict[Tuple[int, str, str], int] = {}
        self.matched: Optional[VerifyMsg] = None
        self.abort_tagged = False
        self.representative: Optional[VerifyMsg] = None
        self.timer = None


class _LatestRequest:
    """Figure 4's retransmission record for one client endpoint.

    It holds the endpoint's newest request: the sequence number of its first
    VERIFY and every reply sent for it since.  A closed-loop endpoint sends
    its next request only once this one is answered, and it retransmits only
    its outstanding request, so a newer request replaces the record.
    """

    __slots__ = ("request_id", "seq", "replies")

    def __init__(self, request_id: str, seq: int) -> None:
        self.request_id = request_id
        self.seq = seq
        self.replies: List[Union[ResponseMsg, AbortMsg]] = []


class Verifier(SimProcess):
    """The trusted verifier plus its concurrency-control logic."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        region: str,
        cores: int,
        store: VersionedKVStore,
        signer: SignatureService,
        costs: CryptoCostModel,
        shim_node_names: List[str],
        match_quorum: int,
        executor_faults: int,
        expected_executors: int,
        quorum_timeout: float = 2.0,
        throughput: Optional[ThroughputRecorder] = None,
        obs=None,
    ) -> None:
        super().__init__(sim, name, region, cores=cores)
        self._network = network
        self._store = store
        self._signer = signer
        self._costs = costs
        self._shim_nodes = list(shim_node_names)
        self._match_quorum = max(1, match_quorum)
        self._executor_faults = executor_faults
        self._expected_executors = expected_executors
        self._quorum_timeout = quorum_timeout
        self._throughput = throughput or ThroughputRecorder()
        self._obs = obs

        # Validation is strictly in order: every sequence number below
        # ``_kmax`` is settled, and none at or above it is.
        self._kmax = 1
        # Unvalidated sequence numbers only: an entry pins its matched VERIFY
        # (batch + result), so it goes when the sequence number is settled.
        self._seq_state: Dict[int, _SeqState] = {}
        # Figure 4's retransmission cache, one record per client endpoint: a
        # client that times out on a settled request still gets its answer.
        self._latest_requests: Dict[str, _LatestRequest] = {}
        self._pending_errors: Dict[Tuple[str, object], bool] = {}

        self._committed_txns = 0
        self._aborted_txns = 0
        self._ignored_verify = 0
        self._replace_sent = 0
        self._errors_sent = 0
        network.register(name, region, self.on_message)

    # ------------------------------------------------------------------ metrics

    @property
    def kmax(self) -> int:
        return self._kmax

    @property
    def committed_txns(self) -> int:
        return self._committed_txns

    @property
    def aborted_txns(self) -> int:
        return self._aborted_txns

    @property
    def ignored_verify_messages(self) -> int:
        return self._ignored_verify

    @property
    def replace_messages_sent(self) -> int:
        return self._replace_sent

    @property
    def error_messages_sent(self) -> int:
        return self._errors_sent

    @property
    def validated_sequence_numbers(self) -> Set[int]:
        return set(range(1, self._kmax))

    # ------------------------------------------------------------------ dispatch

    def on_message(self, message, sender: str) -> None:
        if isinstance(message, VerifyMsg):
            cost = self._costs.ds_verify + VERIFY_PROCESSING_COST
            self.process(cost, self._handle_verify, message, sender)
        elif isinstance(message, ClientRequestMsg):
            self.process(self._costs.ds_verify, self._handle_client_request, message, sender)

    # ------------------------------------------------------------------ VERIFY path

    def _handle_verify(self, message: VerifyMsg, sender: str) -> None:
        if message.executor != sender or message.signature is None:
            return
        # The canonical form ignores the signature, so the digest memoised at
        # signing time is reused here — no re-serialisation of the batch.
        # The verification *outcome* is memoised per message instance as
        # well (like commit certificates already do): duplicate deliveries
        # and verify-flooding attacks re-send the same object, and validity
        # is a pure function of the deployment's shared key store.
        valid = message.__dict__.get("_sig_valid")
        if valid is None:
            valid = self._signer.verify(message, message.signature)
            object.__setattr__(message, "_sig_valid", valid)
        else:
            PERF.verify_signature_cache_hits += 1
        if not valid:
            return
        seq = message.seq
        if seq < self._kmax:
            self._ignored_verify += 1
            return
        state = self._seq_state.setdefault(seq, _SeqState())
        if state.matched is not None or state.abort_tagged:
            # Flooding mitigation: once matched, further VERIFYs are ignored.
            self._ignored_verify += 1
            return
        if sender in state.distinct_executors:
            self._ignored_verify += 1
            return
        state.distinct_executors.add(sender)
        if state.representative is None:
            state.representative = message
            if self._obs is not None:
                self._obs.begin_span("verify", seq, self.now, self.name)
            # Note this batch's requests once per sequence number; further
            # VERIFYs for the same seq carry the same (shared) batch.  A
            # request newer than its endpoint's record replaces it; an older
            # one (a duplicate ordered late) is not noted at all.  Requests
            # of one endpoint are numbered ``<endpoint>-req-<n>`` (see
            # ClientGroup), so the longer id is newer and equal lengths
            # compare as text.
            latest_requests = self._latest_requests
            for (origin, request_id), _txn_ids in message.batch.request_groups:
                latest = latest_requests.get(origin)
                if latest is None or (len(request_id), request_id) > (
                    len(latest.request_id),
                    latest.request_id,
                ):
                    latest_requests[origin] = _LatestRequest(request_id, seq)
        if state.timer is None:
            state.timer = self.set_timer(self._quorum_timeout, self._on_quorum_timeout, seq)
        votes = state.votes.get(message.match_key, 0) + 1
        state.votes[message.match_key] = votes
        if votes >= self._match_quorum:
            state.matched = message
            if state.timer is not None:
                state.timer.cancel()
                state.timer = None
            self._trace("verifier.matched", seq=seq, executors=len(state.distinct_executors))
            self._try_validate()

    def _try_validate(self) -> None:
        """Validate requests strictly in sequence order (Lines 24–27)."""
        while True:
            state = self._seq_state.get(self._kmax)
            if state is None:
                return
            if state.abort_tagged:
                self._abort_sequence(self._kmax, state)
                continue
            if state.matched is None:
                return
            self._validate_sequence(self._kmax, state.matched)

    def _validate_sequence(self, seq: int, message: VerifyMsg) -> None:
        # The unit of concurrency control is the whole batch: every transaction
        # is validated against the storage state *before* this sequence number
        # is applied (executors executed the batch against that same state), so
        # transactions inside one batch never abort each other.
        store = self._store
        batch = message.batch
        result = message.result
        reported = result.read_versions
        write_sets = result.writes
        aborted_ids: List[str] = []
        # The decision reads the report and the store alone, never an
        # attribute a host attached to the result object.  Against the
        # store's current versions of exactly the batch's keys, a report
        # naming any other key set, or whose write sets do not line up with
        # the batch's transactions, is malformed and aborts the whole
        # sequence; otherwise a transaction commits iff none of its keys is
        # stale — for an honest report, iff every version it read is still
        # current.  The stale set is one set difference, in C.
        current = store.current_versions(batch.storage_keys)
        if reported.keys() != current.keys() or len(write_sets) != len(batch):
            write_sets = ()
            aborted_ids = [txn.txn_id for txn in batch.transactions]
        else:
            stale = dict(reported.items() - current.items()).keys()
            if stale:
                committed_writes = []
                for txn, writes in zip(batch.transactions, write_sets):
                    if stale.isdisjoint(txn.sorted_keys):
                        committed_writes.append(writes)
                    else:
                        aborted_ids.append(txn.txn_id)
                write_sets = committed_writes
        store.apply_write_sets(write_sets)
        committed = len(batch) - len(aborted_ids)
        self._committed_txns += committed
        self._aborted_txns += len(aborted_ids)
        self._throughput.record_commit(self.now, committed)
        if aborted_ids:
            self._throughput.record_abort(self.now, len(aborted_ids))
        self._trace(
            "verifier.validated",
            seq=seq,
            committed=committed,
            aborted=len(aborted_ids),
        )

        # Reply per client request; the grouping is memoised on the batch.
        # With no aborts (the common case) every grouped transaction
        # committed, so the groups are the outcome verbatim.
        if aborted_ids:
            aborted_set = set(aborted_ids)
            outcomes = [
                (
                    origin,
                    request_id,
                    tuple(t for t in txn_ids if t not in aborted_set),
                    tuple(t for t in txn_ids if t in aborted_set),
                )
                for (origin, request_id), txn_ids in batch.request_groups
            ]
        else:
            outcomes = [
                (origin, request_id, txn_ids, ())
                for (origin, request_id), txn_ids in batch.request_groups
            ]
        for origin, request_id, committed_ids, aborted in outcomes:
            response = ResponseMsg(
                request_id=request_id,
                seq=seq,
                digest=message.digest,
                committed_txn_ids=committed_ids,
                aborted_txn_ids=aborted,
            )
            self._cache_reply(origin, request_id, response)
            if origin:
                self._network.send(self.name, origin, response, response.size_bytes)
            self._resolve_pending(("request", request_id))

        # Notify the shim that this sequence number is verified (the paper sends
        # the RESPONSE to the primary; we notify every shim node so conflict
        # planners and a future new primary stay in sync).
        notice = ResponseMsg(request_id="", seq=seq, digest=message.digest)
        self._network.broadcast(self.name, self._shim_nodes, notice, notice.size_bytes)

        self._finish_sequence(seq)

    def _abort_sequence(self, seq: int, state: _SeqState) -> None:
        """Abort every transaction of an un-matchable sequence number."""
        message = state.representative
        aborted = 0
        if message is not None:
            for (origin, request_id), txn_ids in message.batch.request_groups:
                abort = AbortMsg(request_id=request_id, seq=seq, txn_ids=txn_ids)
                self._cache_reply(origin, request_id, abort)
                if origin:
                    self._network.send(self.name, origin, abort, abort.size_bytes)
                aborted += len(txn_ids)
                self._resolve_pending(("request", request_id))
        self._aborted_txns += aborted
        if aborted:
            self._throughput.record_abort(self.now, aborted)
        self._trace("verifier.aborted_sequence", seq=seq, txns=aborted)
        self._finish_sequence(seq)

    def _finish_sequence(self, seq: int) -> None:
        if self._obs is not None:
            self._obs.end_span("verify", seq, self.now)
            self._obs.begin_span("commit", seq, self.now, self.name)
        # Settled: late VERIFYs are turned away by ``_kmax`` and client
        # retransmissions are answered from ``_latest_requests``, so nothing
        # reads the per-sequence state (and the batch it pins) again.
        state = self._seq_state.pop(seq, None)
        if state is not None and state.timer is not None:
            state.timer.cancel()
        self._resolve_pending(("seq", seq))
        self._kmax = seq + 1

    # ------------------------------------------------------------------ abort detection

    def _on_quorum_timeout(self, seq: int) -> None:
        """Verifier abort detection for conflicting transactions (Section VI-B)."""
        state = self._seq_state.get(seq)
        if state is None or state.matched is not None or seq < self._kmax:
            return
        state.timer = None
        received = len(state.distinct_executors)
        if received < 2 * self._executor_faults + 1:
            # Too few executors even reported: conservatively blame the primary.
            # The timer is re-armed only when a new VERIFY arrives for this
            # sequence number (fresh evidence), not unconditionally, so a run
            # always terminates once the network drains.
            self._broadcast_replace(ReplaceMsg(seq=seq, reason="missing-verify-quorum"))
            self._trace("verifier.blame_primary", seq=seq, received=received)
        else:
            # Enough executors answered but their results conflict: abort.
            state.abort_tagged = True
            self._trace("verifier.abort_tagged", seq=seq, received=received)
            self._try_validate()

    # ------------------------------------------------------------------ client retransmissions

    def _handle_client_request(self, request: ClientRequestMsg, sender: str) -> None:
        """Verifier action on receiving a client request (Figure 4, Lines 6–14)."""
        request_id = request.request_id
        latest = self._latest_requests.get(request.origin)
        if latest is None or latest.request_id != request_id:
            # No VERIFY of this request on record: tell the shim it is missing.
            self._errors_sent += 1
            self._pending_errors[("request", request_id)] = True
            error = ErrorMsg(request=request)
            self._network.broadcast(self.name, self._shim_nodes, error, error.size_bytes)
            self._trace("verifier.error_missing_request", request_id=request_id)
            return
        if latest.replies:
            target = request.origin or sender
            for reply in latest.replies:
                self._network.send(self.name, target, reply, reply.size_bytes)
            return
        seq = latest.seq
        state = self._seq_state.get(seq)
        if state is not None and (state.matched is not None or state.abort_tagged):
            # The request is matched but stuck behind k_max: report the gap.
            self._errors_sent += 1
            self._pending_errors[("seq", self._kmax)] = True
            error = ErrorMsg(missing_seq=self._kmax)
            self._network.broadcast(self.name, self._shim_nodes, error, error.size_bytes)
            self._trace("verifier.error_kmax", kmax=self._kmax, request_id=request_id)
        else:
            # We saw VERIFY messages but no f_E+1 matching quorum: blame the primary.
            self._broadcast_replace(ReplaceMsg(request_id=request_id, seq=seq))
            self._trace("verifier.replace_for_request", request_id=request_id, seq=seq)

    def _cache_reply(self, origin: str, request_id: str, reply) -> None:
        """Keep ``reply`` for a retransmission if it answers the endpoint's latest request."""
        latest = self._latest_requests.get(origin)
        if latest is not None and latest.request_id == request_id:
            latest.replies.append(reply)

    def _broadcast_replace(self, message: ReplaceMsg) -> None:
        self._replace_sent += 1
        self._network.broadcast(self.name, self._shim_nodes, message, message.size_bytes)

    def _resolve_pending(self, key: Tuple[str, object]) -> None:
        if not self._pending_errors.pop(key, None):
            return
        kind, value = key
        ack = AckMsg(
            missing_seq=value if kind == "seq" else None,
            request_id=value if kind == "request" else None,
        )
        self._network.broadcast(self.name, self._shim_nodes, ack, ack.size_bytes)

    def _trace(self, category: str, **details) -> None:
        if self._obs is not None:
            self._obs.record(self.now, category, self.name, **details)
