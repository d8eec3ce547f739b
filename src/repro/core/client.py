"""Clients of the edge application.

Every user of the edge application (each UAV in the motivating use case) is
a client that packages its work as a transaction, signs it, and sends it to
the shim's primary.  The client considers the transaction done only when the
trusted verifier replies.

For simulation efficiency a :class:`ClientGroup` represents a set of
co-located closed-loop clients (one outstanding transaction each): the group
sends one signed request carrying one transaction per simulated client and
issues the next request as soon as the previous one is fully answered.  With
``group_size = 1`` this degenerates to the paper's individual clients.

The group also implements the client side of the request-suppression
recovery (Figure 4): a timer per outstanding request, retransmission to the
verifier with exponential back-off, and completion on either RESPONSE or
ABORT messages.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.core.messages import AbortMsg, ClientRequestMsg, ResponseMsg
from repro.crypto.hashing import seed_cached_digest
from repro.crypto.costs import CryptoCostModel
from repro.crypto.signatures import SignatureService
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import SimProcess
from repro.sim.stats import LatencyRecorder
from repro.workload.ycsb import YCSBWorkload


class _OutstandingRequest:
    """Book-keeping for one in-flight client request."""

    def __init__(self, request: ClientRequestMsg, sent_at: float, timer) -> None:
        self.request = request
        self.sent_at = sent_at
        self.timer = timer
        self.remaining = {txn.txn_id for txn in request.transactions}
        self.committed = 0
        self.aborted = 0
        self.retransmissions = 0


class ClientGroup(SimProcess):
    """A group of closed-loop clients sharing one network endpoint."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        region: str,
        group_size: int,
        workload: YCSBWorkload,
        signer: SignatureService,
        costs: CryptoCostModel,
        primary_name: str,
        verifier_name: str,
        client_timeout: float = 4.0,
        stop_time: Optional[float] = None,
        latency_recorder: Optional[LatencyRecorder] = None,
        obs=None,
        client_index_offset: int = 0,
    ) -> None:
        super().__init__(sim, name, region, cores=None)
        self._network = network
        self._group_size = max(1, group_size)
        self._workload = workload
        self._signer = signer
        self._costs = costs
        self._primary_name = primary_name
        self._verifier_name = verifier_name
        self._client_timeout = client_timeout
        self._stop_time = stop_time
        self._latency = latency_recorder
        self._obs = obs
        self._client_index_offset = client_index_offset

        self._request_counter = itertools.count()
        self._outstanding: Dict[str, _OutstandingRequest] = {}
        self._completed_requests = 0
        self._committed_txns = 0
        self._aborted_txns = 0
        self._retransmissions = 0
        network.register(name, region, self.on_message)

    # ------------------------------------------------------------------ metrics

    @property
    def group_size(self) -> int:
        return self._group_size

    @property
    def completed_requests(self) -> int:
        return self._completed_requests

    @property
    def committed_txns(self) -> int:
        return self._committed_txns

    @property
    def aborted_txns(self) -> int:
        return self._aborted_txns

    @property
    def retransmissions(self) -> int:
        return self._retransmissions

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Issue the first request of this group."""
        self._send_next_request()

    def update_primary(self, primary_name: str) -> None:
        """Point future requests at a new primary (after a view change)."""
        self._primary_name = primary_name

    def _send_next_request(self) -> None:
        if self._stop_time is not None and self.now >= self._stop_time:
            return
        # ``<endpoint>-req-<n>`` with n counting up: the verifier tells this
        # endpoint's newer requests from older ones by that numbering.
        request_id = f"{self.name}-req-{next(self._request_counter)}"
        transactions = self._workload.next_transactions(
            self._group_size,
            client_index_offset=self._client_index_offset,
            origin=self.name,
            request_id=request_id,
        )
        unsigned = ClientRequestMsg(
            request_id=request_id, origin=self.name, transactions=transactions
        )
        signature = self._signer.sign(unsigned)
        request = ClientRequestMsg(
            request_id=request_id,
            origin=self.name,
            transactions=transactions,
            signature=signature,
        )
        seed_cached_digest(request, signature.message_digest)
        timer = self.set_timer(self._client_timeout, self._on_timeout, request_id, 1)
        self._outstanding[request_id] = _OutstandingRequest(request, self.now, timer)
        self._network.send(self.name, self._primary_name, request, request.size_bytes)
        if self._obs is not None:
            self._obs.record(self.now, "client.request_sent", self.name, request_id=request_id)
            self._obs.begin_span("request", request_id, self.now, self.name)

    # ------------------------------------------------------------------ handlers

    def on_message(self, message, sender: str) -> None:
        if isinstance(message, ResponseMsg):
            self._on_outcome(message.request_id, message.committed_txn_ids, message.aborted_txn_ids)
        elif isinstance(message, AbortMsg):
            self._on_outcome(message.request_id, (), message.txn_ids)

    def _on_outcome(self, request_id: str, committed_ids, aborted_ids) -> None:
        entry = self._outstanding.get(request_id)
        if entry is None:
            return
        # Set arithmetic instead of a per-id loop: only ids still awaited
        # count (duplicate RESPONSEs for already-settled transactions are
        # ignored, as before).
        remaining = entry.remaining
        if committed_ids:
            hits = remaining.intersection(committed_ids)
            if hits:
                remaining -= hits
                entry.committed += len(hits)
        if aborted_ids:
            hits = remaining.intersection(aborted_ids)
            if hits:
                remaining -= hits
                entry.aborted += len(hits)
        if remaining:
            return
        # The whole request is answered: record latency and issue the next one.
        entry.timer.cancel()
        del self._outstanding[request_id]
        self._completed_requests += 1
        self._committed_txns += entry.committed
        self._aborted_txns += entry.aborted
        if self._latency is not None:
            self._latency.record(entry.sent_at, self.now)
        if self._obs is not None:
            self._obs.record(
                self.now,
                "client.request_done",
                self.name,
                request_id=request_id,
                committed=entry.committed,
                aborted=entry.aborted,
            )
            self._obs.end_span("request", request_id, self.now)
        self._send_next_request()

    def _on_timeout(self, request_id: str, attempt: int) -> None:
        """Client action on timeout (Figure 4): forward the request to the verifier."""
        entry = self._outstanding.get(request_id)
        if entry is None:
            return
        entry.retransmissions += 1
        self._retransmissions += 1
        self._network.send(
            self.name, self._verifier_name, entry.request, entry.request.size_bytes
        )
        if self._obs is not None:
            self._obs.record(
                self.now, "client.retransmit", self.name, request_id=request_id, attempt=attempt
            )
        # Exponential back-off before trying again.
        backoff = self._client_timeout * (2 ** min(attempt, 6))
        entry.timer = self.set_timer(backoff, self._on_timeout, request_id, attempt + 1)
