"""PBFT ordering engine for the shim.

This module implements the three-phase PBFT protocol exactly as the paper
uses it at the shim (Figure 3): the primary assigns a sequence number in a
PREPREPARE (MAC-authenticated), nodes broadcast PREPARE (MAC), nodes that
collect ``2f_R + 1`` matching PREPAREs broadcast digitally signed COMMIT
messages, and a request is committed once ``2f_R + 1`` matching COMMITs are
collected.  The commit signatures double as the certificate ``C`` forwarded
to serverless executors.

Also included:

* PBFT view change / new view to replace a byzantine primary (Section V-A4);
* the paper's *featherweight checkpoints* (Section V-B) that let nodes kept
  in the dark catch up using only commit certificates;
* per-message CPU charging through the host node's CPU resource so the
  consensus cost scales with ``n_R`` and with the available cores, which is
  what drives Figures 5, 6(ix,x) and 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.consensus.log import CommittedEntry, ConsensusLog
from repro.consensus.messages import (
    COMMIT_BYTES,
    CheckpointMsg,
    CheckpointRequestMsg,
    CommitMsg,
    MessageRouter,
    NewViewMsg,
    PREPARE_BYTES,
    PREPREPARE_BYTES,
    PrePrepareMsg,
    PrepareMsg,
    ViewChangeMsg,
)
from repro.consensus.quorums import QuorumTracker
from repro.crypto.costs import CryptoCostModel
from repro.crypto.hashing import cached_digest, seed_cached_digest
from repro.crypto.signatures import Signature, SignatureService
from repro.errors import ProtocolViolation
from repro.perf import PERF


class ReplicaTransport:
    """Transport interface a host node provides to its ordering engine."""

    def send(self, dst: str, message: Any, size_bytes: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def broadcast(self, message: Any, size_bytes: int, targets: Optional[List[str]] = None) -> None:  # pragma: no cover
        raise NotImplementedError


class NetworkTransport(ReplicaTransport):
    """The simulated network as a hosted ordering engine sees it.

    The host sets :attr:`crashed` while it is down: a crashed node sends
    nothing, not even from CPU completions that were already in flight.
    """

    def __init__(self, network, name: str, replicas: List[str]) -> None:
        self._network = network
        self._name = name
        self._peers = [replica for replica in replicas if replica != name]
        self.crashed = False

    def send(self, dst: str, message: Any, size_bytes: int) -> None:
        if not self.crashed:
            self._network.send(self._name, dst, message, size_bytes)

    def broadcast(self, message: Any, size_bytes: int, targets: Optional[List[str]] = None) -> None:
        if not self.crashed:
            self._network.broadcast(
                self._name, self._peers if targets is None else targets, message, size_bytes
            )


@dataclass
class PBFTConfig:
    """Tunable knobs of the shim's PBFT instance."""

    checkpoint_interval: int = 64
    #: Also the base delay of the view-change escalation timer: after
    #: broadcasting a VIEWCHANGE, wait this long (doubling per attempt) for
    #: the new view to install before escalating to the next candidate view.
    request_timeout: float = 2.0


class PBFTReplica:
    """One replica's PBFT state machine.

    The replica is hosted inside a :class:`repro.core.shim_node.ShimNode`
    (or a baseline node) which supplies the transport, CPU charging, timers,
    and the ``on_committed`` callback invoked for every decided sequence
    number.
    """

    def __init__(
        self,
        replica_id: str,
        replicas: List[str],
        config: PBFTConfig,
        transport: ReplicaTransport,
        signer: SignatureService,
        cost_model: CryptoCostModel,
        host,
        on_committed: Callable[[CommittedEntry], None],
        on_view_installed: Optional[Callable[[int, str], None]] = None,
        obs=None,
        behaviour=None,
        on_stable: Optional[Callable[[int], None]] = None,
    ) -> None:
        if replica_id not in replicas:
            raise ProtocolViolation(f"replica {replica_id!r} is not part of the shim {replicas}")
        self._id = replica_id
        self._replicas = list(replicas)
        self._n = len(replicas)
        self._f = (self._n - 1) // 3
        self._quorum = 2 * self._f + 1
        self._config = config
        self._transport = transport
        self._signer = signer
        self._costs = cost_model
        self._host = host
        self._on_committed = on_committed
        self._on_view_installed = on_view_installed
        self._on_stable = on_stable
        self._obs = obs
        self._behaviour = behaviour

        self._view = 0
        self._next_seq = 0
        self._log = ConsensusLog()
        self._prepare_quorum: QuorumTracker = QuorumTracker(self._quorum)
        self._commit_quorum: QuorumTracker = QuorumTracker(self._quorum)
        self._viewchange_quorum: QuorumTracker = QuorumTracker(self._quorum)
        self._viewchange_join: QuorumTracker = QuorumTracker(self._f + 1)
        self._sent_viewchange_for: set = set()
        self._request_timers: Dict[int, Any] = {}
        self._view_changes_installed = 0
        self._viewchange_timer: Any = None
        self._viewchange_attempts = 0
        # Crash/recovery lifecycle (driven by fault timelines).
        self._crashed = False
        self._catching_up = False
        self._recovery_responders: set = set()
        # Checkpoint bookkeeping: highest up_to / stable watermark / view each
        # replica has reported, used to compute the 2f+1 stable checkpoint,
        # the f+1 recovery skip-ahead, and the f+1 view re-adoption.
        self._peer_checkpoint_seqs: Dict[str, int] = {}
        self._peer_stable_seqs: Dict[str, int] = {}
        self._peer_views: Dict[str, int] = {}
        self._checkpoints_sent = 0
        self._checkpoints_adopted = 0
        self._handlers = MessageRouter(
            (
                (PrePrepareMsg, self.on_preprepare),
                (PrepareMsg, self.on_prepare),
                (CommitMsg, self.on_commit),
                (ViewChangeMsg, self.on_view_change),
                (NewViewMsg, self.on_new_view),
                (CheckpointMsg, self.on_checkpoint),
                (CheckpointRequestMsg, self.on_checkpoint_request),
            )
        )

    # ------------------------------------------------------------------ properties

    @property
    def replica_id(self) -> str:
        return self._id

    @property
    def n(self) -> int:
        return self._n

    @property
    def f(self) -> int:
        return self._f

    @property
    def quorum_size(self) -> int:
        return self._quorum

    @property
    def view(self) -> int:
        return self._view

    @property
    def log(self) -> ConsensusLog:
        return self._log

    @property
    def view_changes_installed(self) -> int:
        return self._view_changes_installed

    @property
    def checkpoints_sent(self) -> int:
        return self._checkpoints_sent

    @property
    def checkpoints_adopted(self) -> int:
        """Checkpoint messages from which at least one decision was adopted."""
        return self._checkpoints_adopted

    @property
    def primary(self) -> str:
        return self.primary_of(self._view)

    def primary_of(self, view: int) -> str:
        """Nodes have a pre-decided rotation order for becoming primary."""
        return self._replicas[view % self._n]

    @property
    def is_primary(self) -> bool:
        return self.primary == self._id

    # ------------------------------------------------------------------ proposing

    def propose(self, batch: Any) -> int:
        """Primary only: assign the next sequence number and start consensus."""
        if self._crashed:
            raise ProtocolViolation(f"{self._id} is crashed and cannot propose")
        if not self.is_primary:
            raise ProtocolViolation(f"{self._id} is not the primary of view {self._view}")
        self._next_seq += 1
        seq = self._next_seq
        batch_digest = cached_digest(batch)
        message = PrePrepareMsg(view=self._view, seq=seq, digest=batch_digest, batch=batch)

        targets = [replica for replica in self._replicas if replica != self._id]
        equivocation = None
        if self._behaviour is not None:
            targets = self._behaviour.preprepare_targets(targets)
            equivocation = self._behaviour.equivocation(seq, batch)

        slot = self._log.slot(seq)
        slot.view = self._view
        slot.digest = batch_digest
        slot.batch = batch
        slot.preprepared = True

        # Hash the batch once and MAC it for every target.
        cost = self._costs.hash_cost(PREPREPARE_BYTES) + self._costs.mac_sign * len(targets)
        self._host.process(cost, self._emit_preprepare, message, targets, equivocation)
        self._trace("pbft.propose", seq=seq, digest=batch_digest)
        if self._obs is not None:
            self._obs.begin_span("consensus", seq, self._host.now, self._id)
        return seq

    def _emit_preprepare(self, message: PrePrepareMsg, targets: List[str], equivocation) -> None:
        if self._crashed:
            return
        if equivocation is not None:
            # A byzantine primary sends one batch to half the nodes and a
            # different batch (same sequence number) to the other half.
            other_batch, other_targets = equivocation
            other_message = PrePrepareMsg(
                view=message.view,
                seq=message.seq,
                digest=cached_digest(other_batch),
                batch=other_batch,
            )
            first_group = [t for t in targets if t not in set(other_targets)]
            self._transport.broadcast(message, PREPREPARE_BYTES, targets=first_group)
            self._transport.broadcast(other_message, PREPREPARE_BYTES, targets=list(other_targets))
        else:
            self._transport.broadcast(message, PREPREPARE_BYTES, targets=targets)
        # The primary also supports its own proposal with a PREPARE.
        self._after_preprepare_accepted(message)

    # ------------------------------------------------------------------ handlers

    def handle(self, message: Any, sender: str) -> bool:
        """Dispatch a consensus message.  Returns True if it was consumed."""
        if self._crashed:
            return True
        handler = self._handlers[type(message)]
        if handler is None:
            return False
        handler(message, sender)
        return True

    def on_preprepare(self, message: PrePrepareMsg, sender: str) -> None:
        if sender != self.primary_of(message.view) or message.view != self._view:
            return
        slot = self._log.slot(message.seq)
        if slot.preprepared and slot.digest != message.digest:
            # The primary equivocated: refuse the second proposal and complain.
            self._trace("pbft.equivocation_detected", seq=message.seq)
            self.request_view_change(reason="equivocation")
            return
        if slot.committed:
            return
        if cached_digest(message.batch) != message.digest:
            return
        slot.view = message.view
        slot.digest = message.digest
        slot.batch = message.batch
        slot.preprepared = True
        cost = self._costs.mac_verify + self._costs.hash_cost(PREPREPARE_BYTES)
        self._host.process(cost, self._after_preprepare_accepted, message)

    def _after_preprepare_accepted(self, message: PrePrepareMsg) -> None:
        if self._crashed:
            return
        self._start_request_timer(message.seq)
        prepare = PrepareMsg(
            view=message.view, seq=message.seq, digest=message.digest, replica=self._id
        )
        cost = self._costs.mac_sign * (self._n - 1)
        self._host.process(cost, self._transport.broadcast, prepare, PREPARE_BYTES)
        self._record_prepare(prepare, self._id)

    def on_prepare(self, message: PrepareMsg, sender: str) -> None:
        if message.view != self._view:
            return
        self._host.process(self._costs.mac_verify, self._record_prepare, message, sender)

    def _record_prepare(self, message: PrepareMsg, sender: str) -> None:
        # A vote at or below the stable watermark is for a truncated,
        # decided sequence number: counting it would re-create its slot and
        # tracker key (see _retire_votes).
        if self._crashed or message.seq <= self._log.stable_seq:
            return
        key = (message.view, message.seq, message.digest)
        if self._prepare_quorum.add(key, sender):
            self._prepare_quorum.settle(key)
            slot = self._log.slot(message.seq)
            slot.prepared = True
            self._trace("pbft.prepared", seq=message.seq)
            self._broadcast_commit(message.view, message.seq, message.digest)

    def _broadcast_commit(self, view: int, seq: int, batch_digest: str) -> None:
        unsigned = CommitMsg(view=view, seq=seq, digest=batch_digest, replica=self._id)
        signature = self._signer.sign(unsigned)
        commit = CommitMsg(
            view=view, seq=seq, digest=batch_digest, replica=self._id, signature=signature
        )
        # The canonical form ignores the signature field, so the signed copy
        # has the same digest as the unsigned payload: seed the memo so no
        # receiver ever re-serialises this commit.
        seed_cached_digest(commit, signature.message_digest)
        cost = self._costs.ds_sign
        self._host.process(cost, self._transport.broadcast, commit, COMMIT_BYTES)
        self._record_commit_vote(commit, self._id)

    def on_commit(self, message: CommitMsg, sender: str) -> None:
        if message.view != self._view or message.replica != sender:
            return
        if message.signature is None:
            return
        # A broadcast COMMIT is the same object at every receiver, and
        # signature validity depends only on the deployment's shared key
        # store: memoise the outcome per instance (the simulated ds_verify
        # CPU charge below is unchanged).
        valid = message.__dict__.get("_sig_valid")
        if valid is None:
            valid = self._signer.verify(message, message.signature)
            object.__setattr__(message, "_sig_valid", valid)
        else:
            PERF.verify_signature_cache_hits += 1
        if not valid:
            return
        self._host.process(self._costs.ds_verify, self._record_commit_vote, message, sender)

    def _record_commit_vote(self, message: CommitMsg, sender: str) -> None:
        if self._crashed or message.seq <= self._log.stable_seq:
            return
        slot = self._log.slot(message.seq)
        # A committed slot has its certificate: a late vote adds nothing.
        if slot.committed:
            return
        if message.signature is not None:
            slot.commit_signatures[sender] = message.signature
        key = (message.view, message.seq, message.digest)
        if self._commit_quorum.add(key, sender, payload=message.signature):
            self._commit_quorum.settle(key)
            slot.committed = True
            self._cancel_request_timer(message.seq)
            entry = CommittedEntry(
                seq=message.seq,
                view=message.view,
                digest=message.digest,
                batch=slot.batch,
                certificate=slot.certificate,
            )
            self._log.record_commit(entry)
            self._trace("pbft.committed", seq=message.seq, digest=message.digest)
            if self._obs is not None:
                self._obs.end_span("consensus", message.seq, self._host.now)
            self._maybe_checkpoint(message.seq)
            self._on_committed(entry)

    # ------------------------------------------------------------------ timers

    def _start_request_timer(self, seq: int) -> None:
        if seq in self._request_timers:
            return
        self._request_timers[seq] = self._host.set_timer(
            self._config.request_timeout, self._on_request_timeout, seq
        )

    def _cancel_request_timer(self, seq: int) -> None:
        timer = self._request_timers.pop(seq, None)
        if timer is not None:
            timer.cancel()

    def _on_request_timeout(self, seq: int) -> None:
        self._request_timers.pop(seq, None)
        if self._crashed or self._log.is_committed(seq):
            return
        self._trace("pbft.request_timeout", seq=seq)
        self.request_view_change(reason=f"timeout-seq-{seq}")

    # ------------------------------------------------------------------ view change

    def request_view_change(self, reason: str = "", target: Optional[int] = None) -> None:
        """Broadcast a VIEWCHANGE for ``target`` (default: the next view).

        Section V-A4.  Repeated failures escalate: every VIEWCHANGE arms the
        escalation timer, and if the requested view does not install before
        it expires the replica re-requests one view further with the timer
        delay doubled — so a run of consecutive bad primaries is skipped in
        O(k) view changes instead of stalling at v+1 forever.
        """
        if self._crashed:
            return
        new_view = target if target is not None else self._view + 1
        if new_view <= self._view or new_view in self._sent_viewchange_for:
            return
        self._sent_viewchange_for.add(new_view)
        prepared = tuple(
            (slot.seq, slot.digest or "")
            for slot in self._log.prepared_uncommitted()
        )
        unsigned = ViewChangeMsg(new_view=new_view, replica=self._id, prepared=prepared)
        signature = self._signer.sign(unsigned)
        message = ViewChangeMsg(
            new_view=new_view, replica=self._id, prepared=prepared, signature=signature
        )
        seed_cached_digest(message, signature.message_digest)
        self._trace("pbft.viewchange_requested", new_view=new_view, reason=reason)
        if self._obs is not None:
            self._obs.begin_span("view_change", new_view, self._host.now, self._id)
        self._host.process(
            self._costs.ds_sign,
            self._broadcast_message, message, message.size_bytes,
        )
        self._arm_viewchange_timer()
        self.on_view_change(message, self._id)

    def _arm_viewchange_timer(self) -> None:
        self._cancel_viewchange_timer()
        delay = self._config.request_timeout * (2 ** self._viewchange_attempts)
        self._viewchange_timer = self._host.set_timer(delay, self._on_viewchange_timeout)

    def _cancel_viewchange_timer(self) -> None:
        if self._viewchange_timer is not None:
            self._viewchange_timer.cancel()
            self._viewchange_timer = None

    def _on_viewchange_timeout(self) -> None:
        self._viewchange_timer = None
        if self._crashed or not self._sent_viewchange_for:
            return
        # The view we asked for never installed (its primary may be the next
        # faulty node in the rotation): escalate past it with backoff.
        self._viewchange_attempts += 1
        target = max(self._sent_viewchange_for) + 1
        self._trace("pbft.viewchange_escalated", target=target, attempt=self._viewchange_attempts)
        self.request_view_change(reason="escalation", target=target)

    def on_view_change(self, message: ViewChangeMsg, sender: str) -> None:
        if message.new_view <= self._view:
            return
        if message.replica != sender:
            return
        if message.signature is not None and not self._signer.verify(
            message, message.signature
        ):
            return
        key = message.new_view
        # Joining rule: seeing f+1 view-change requests for a higher view is
        # proof at least one honest node timed out, so join *that* view
        # change (not merely v+1 — joining an escalated view change must
        # target the escalated view, or the quorum can never form).
        if self._viewchange_join.add(key, sender) and sender != self._id:
            if key not in self._sent_viewchange_for:
                self.request_view_change(reason="join", target=key)
        if self._viewchange_quorum.add(key, sender, payload=message):
            if self.primary_of(key) == self._id:
                self._install_new_view_as_primary(key)

    def _install_new_view_as_primary(self, new_view: int) -> None:
        supporters = frozenset(self._viewchange_quorum.voters(new_view))
        reproposals: List[Tuple[int, str, Any]] = []
        seen: set = set()
        for vc in self._viewchange_quorum.payloads(new_view):
            if vc is None:
                continue
            for seq, slot_digest in vc.prepared:
                if seq in seen or self._log.is_committed(seq):
                    continue
                seen.add(seq)
                local = self._log.slot(seq)
                reproposals.append((seq, slot_digest, local.batch))
        unsigned = NewViewMsg(
            new_view=new_view,
            primary=self._id,
            reproposals=tuple(reproposals),
            supporters=supporters,
        )
        signature = self._signer.sign(unsigned)
        message = NewViewMsg(
            new_view=new_view,
            primary=self._id,
            reproposals=unsigned.reproposals,
            supporters=supporters,
            signature=signature,
        )
        seed_cached_digest(message, signature.message_digest)
        self._host.process(
            self._costs.ds_sign,
            self._broadcast_message, message, message.size_bytes,
        )
        self._adopt_view(new_view)
        self._trace("pbft.newview_sent", new_view=new_view, reproposals=len(reproposals))
        # Re-propose the prepared-but-uncommitted slots in the new view.
        for seq, slot_digest, batch in reproposals:
            if batch is not None:
                self._repropose(seq, batch)

    def on_new_view(self, message: NewViewMsg, sender: str) -> None:
        if message.new_view <= self._view:
            return
        if sender != message.primary or self.primary_of(message.new_view) != message.primary:
            return
        if message.signature is not None and not self._signer.verify(
            message, message.signature
        ):
            return
        self._host.process(self._costs.ds_verify, lambda: self._adopt_view(message.new_view))
        for seq, slot_digest, batch in message.reproposals:
            if batch is None or self._log.is_committed(seq):
                continue
            reproposal = PrePrepareMsg(
                view=message.new_view, seq=seq, digest=slot_digest, batch=batch
            )
            self.on_preprepare(reproposal, message.primary)

    def _adopt_view(self, new_view: int) -> None:
        if new_view <= self._view:
            return
        self._view = new_view
        self._view_changes_installed += 1
        # Clear any pending request timers: responsibility moves to the new primary.
        for timer in self._request_timers.values():
            timer.cancel()
        self._request_timers.clear()
        # The view change succeeded: disarm escalation and reset its backoff.
        self._cancel_viewchange_timer()
        self._viewchange_attempts = 0
        self._sent_viewchange_for = {
            pending for pending in self._sent_viewchange_for if pending > new_view
        }
        # ``on_view_change`` turns away every view up to this one, and a new
        # primary read its quorum's payloads before adopting the view.
        self._viewchange_quorum.drop_views_through(new_view)
        self._viewchange_join.drop_views_through(new_view)
        self._next_seq = max(self._next_seq, self._log.max_committed_seq())
        self._trace("pbft.view_installed", view=new_view, primary=self.primary)
        if self._obs is not None:
            self._obs.end_span("view_change", new_view, self._host.now)
        if self._on_view_installed is not None:
            self._on_view_installed(new_view, self.primary)

    def _repropose(self, seq: int, batch: Any) -> None:
        batch_digest = cached_digest(batch)
        message = PrePrepareMsg(view=self._view, seq=seq, digest=batch_digest, batch=batch)
        slot = self._log.slot(seq)
        slot.view = self._view
        slot.digest = batch_digest
        slot.batch = batch
        slot.preprepared = True
        targets = [replica for replica in self._replicas if replica != self._id]
        self._transport.broadcast(message, PREPREPARE_BYTES, targets=targets)
        self._after_preprepare_accepted(message)

    # ------------------------------------------------------------------ checkpoints

    def _maybe_checkpoint(self, seq: int) -> None:
        interval = self._config.checkpoint_interval
        if interval <= 0:
            return
        if seq - self._log.last_checkpoint_seq < interval:
            return
        self.send_checkpoint()

    def send_checkpoint(self) -> None:
        """Broadcast a featherweight checkpoint of everything committed so far."""
        since = self._log.last_checkpoint_seq
        entries = self._log.committed_since(since)
        if not entries:
            return
        message = self._build_checkpoint(since)
        self._log.advance_checkpoint(message.up_to_seq)
        self._note_peer_checkpoint(self._id, message.up_to_seq, self._log.stable_seq)
        if self._n == 1:
            # A one-replica shim (NOSHIM) is its own checkpoint quorum, and no
            # peer CHECKPOINT will ever arrive to advance the watermark.
            self._update_stable()
        self._checkpoints_sent += 1
        self._host.process(
            self._costs.ds_sign,
            self._broadcast_message, message, message.size_bytes,
        )
        self._trace(
            "pbft.checkpoint_sent",
            up_to=message.up_to_seq,
            entries=len(message.certificates),
        )

    def _build_checkpoint(self, since: int) -> CheckpointMsg:
        """A signed checkpoint carrying the certificates retained after ``since``."""
        entries = self._log.committed_since(since)
        certificates = {
            entry.seq: (entry.digest, entry.view, tuple(entry.certificate))
            for entry in entries
        }
        up_to = max(certificates) if certificates else max(self._log.max_committed_seq(), since)
        unsigned = CheckpointMsg(
            view=self._view,
            up_to_seq=up_to,
            replica=self._id,
            certificates=certificates,
            stable_seq=self._log.stable_seq,
        )
        signature = self._signer.sign(unsigned)
        message = CheckpointMsg(
            view=self._view,
            up_to_seq=up_to,
            replica=self._id,
            certificates=certificates,
            stable_seq=self._log.stable_seq,
            signature=signature,
        )
        seed_cached_digest(message, signature.message_digest)
        return message

    def on_checkpoint_request(self, message: CheckpointRequestMsg, sender: str) -> None:
        """Targeted state transfer for a recovering or dark node (Section V-B).

        Unlike the periodic broadcast, the reply is sent even when no
        retained certificate is newer than the requester's ``low_seq`` — it
        still carries this replica's stable watermark and current view,
        which is exactly what a node rejoining after total state loss needs.
        """
        if self._crashed or sender == self._id or message.replica != sender:
            return
        reply = self._build_checkpoint(max(message.low_seq, self._log.stable_seq))
        self._trace("pbft.checkpoint_reply", to=sender, low_seq=message.low_seq)
        self._host.process(
            self._costs.ds_sign,
            self._send_message, sender, reply, reply.size_bytes,
        )

    def on_checkpoint(self, message: CheckpointMsg, sender: str) -> None:
        if message.replica != sender:
            return
        if message.signature is not None and not self._signer.verify(
            message, message.signature
        ):
            return
        self._note_peer_checkpoint(sender, message.up_to_seq, message.stable_seq)
        previous_view = self._peer_views.get(sender, 0)
        self._peer_views[sender] = max(previous_view, message.view)
        if self._catching_up:
            self._recovery_responders.add(sender)
            self._maybe_skip_to_peer_stable()
            if len(self._recovery_responders) > self._f:
                self._catching_up = False
                self._trace("pbft.recovery_caught_up", up_to=self._log.max_committed_seq())
                if self._obs is not None:
                    self._obs.end_span("recovery", self._id, self._host.now)
        self._maybe_adopt_peer_view()
        adopted = 0
        verification_cost = 0.0
        for seq, (slot_digest, commit_view, signatures) in sorted(message.certificates.items()):
            if self._log.is_committed(seq):
                continue
            # Verify against the view the commit votes were signed in, not
            # the sender's current view — views may have moved on since.
            valid = self._count_valid_certificate(seq, slot_digest, signatures, commit_view)
            verification_cost += self._costs.ds_verify * len(signatures)
            if valid < self._quorum:
                continue
            entry = CommittedEntry(
                seq=seq,
                view=commit_view,
                digest=slot_digest,
                batch=self._log.slot(seq).batch,
                certificate=tuple(signatures),
            )
            self._log.record_commit(entry)
            self._cancel_request_timer(seq)
            adopted += 1
            self._on_committed(entry)
        if adopted:
            self._log.advance_checkpoint(message.up_to_seq)
            self._checkpoints_adopted += 1
            self._trace("pbft.checkpoint_adopted", from_replica=sender, adopted=adopted)
        self._update_stable()
        if not self._catching_up and (
            self._log.contiguous_committed_through() < self._log.max_committed_seq()
        ):
            # Partitioned past a checkpoint: the hole's certificates may be
            # truncated everywhere, so only the f+1 skip can move the watermark.
            self._maybe_skip_to_peer_stable()
        if verification_cost:
            self._host.process_parallel(verification_cost, 16, lambda: None)

    def _note_peer_checkpoint(self, replica: str, up_to_seq: int, stable_seq: int) -> None:
        if up_to_seq > self._peer_checkpoint_seqs.get(replica, 0):
            self._peer_checkpoint_seqs[replica] = up_to_seq
        if stable_seq > self._peer_stable_seqs.get(replica, 0):
            self._peer_stable_seqs[replica] = stable_seq

    def _update_stable(self) -> None:
        """Advance the stable watermark to the 2f+1-checkpointed prefix.

        The watermark is the quorum-th largest ``up_to`` any replica has
        checkpointed, clamped to the locally committed contiguous prefix so
        truncation never touches a sequence number this replica has not
        itself decided (which keeps fault-free runs bit-identical).
        """
        table = self._peer_checkpoint_seqs
        if len(table) < self._quorum:
            return
        values = sorted(table.values(), reverse=True)
        stable = min(values[self._quorum - 1], self._log.contiguous_committed_through())
        if stable > self._log.stable_seq:
            self._log.mark_stable(stable)
            self._log.advance_checkpoint(stable)
            self._retire_votes()
            self._trace("pbft.stable_checkpoint", stable=stable)

    def _retire_votes(self) -> None:
        """Drop the prepare and commit votes at or below the stable watermark.

        The log truncated those sequence numbers, and the vote handlers turn
        away any later vote for them, so the tracker keys are dead weight.
        The host hears of the new watermark too: no decision at or below it
        reaches ``on_committed`` again.
        """
        stable = self._log.stable_seq
        self._prepare_quorum.drop_through(stable)
        self._commit_quorum.drop_through(stable)
        if self._on_stable is not None:
            self._on_stable(stable)

    def _maybe_skip_to_peer_stable(self) -> None:
        """Skip-ahead: adopt an f+1-vouched stable watermark.

        f+1 signed checkpoints claiming ``stable >= S`` include at least one
        honest replica that truncated at S — which itself required a 2f+1
        checkpoint quorum — so the decisions below S are final even though
        their certificates are no longer retained anywhere.  A recovering
        replica runs this on every catch-up reply; a replica that was cut
        off (a partition) while its peers checkpointed past a hole in its
        log runs it on every CHECKPOINT, since no peer can send that hole's
        certificates again.
        """
        values = sorted(self._peer_stable_seqs.values(), reverse=True)
        if len(values) <= self._f:
            return
        candidate = values[self._f]
        if candidate > self._log.stable_seq:
            self._log.skip_to_stable(candidate)
            self._log.advance_checkpoint(candidate)
            self._retire_votes()
            self._next_seq = max(self._next_seq, candidate)
            self._trace("pbft.recovery_skip_ahead", stable=candidate)

    def _maybe_adopt_peer_view(self) -> None:
        """Re-learn the cluster's view after recovery (f+1 rule)."""
        values = sorted(self._peer_views.values(), reverse=True)
        if len(values) <= self._f:
            return
        candidate = values[self._f]
        if candidate > self._view:
            self._adopt_view(candidate)

    def _count_valid_certificate(
        self,
        seq: int,
        slot_digest: str,
        signatures: Tuple[Signature, ...],
        view: int,
    ) -> int:
        valid_signers = set()
        for signature in signatures:
            unsigned = CommitMsg(view=view, seq=seq, digest=slot_digest, replica=signature.signer)
            if self._signer.verify(unsigned, signature):
                valid_signers.add(signature.signer)
        return len(valid_signers)

    # ------------------------------------------------------------------ lifecycle

    def crash(self) -> None:
        """Lose all volatile state and stop processing (crash fault).

        The stable checkpoint watermark is the only thing that survives
        (stable checkpoints are durable by definition); slots, quorum
        trackers, timers, and the current view are all volatile.  The
        cumulative counters (view changes, checkpoints) survive too — they
        are measurement bookkeeping, not protocol state.
        """
        if self._crashed:
            return
        self._crashed = True
        for timer in self._request_timers.values():
            timer.cancel()
        self._request_timers.clear()
        self._cancel_viewchange_timer()
        self._viewchange_attempts = 0
        self._prepare_quorum = QuorumTracker(self._quorum)
        self._commit_quorum = QuorumTracker(self._quorum)
        self._viewchange_quorum = QuorumTracker(self._quorum)
        self._viewchange_join = QuorumTracker(self._f + 1)
        self._sent_viewchange_for = set()
        self._peer_checkpoint_seqs = {}
        self._peer_stable_seqs = {}
        self._peer_views = {}
        self._catching_up = False
        self._recovery_responders = set()
        self._log.drop_volatile()
        self._view = 0
        self._next_seq = self._log.max_committed_seq()
        self._trace("pbft.crashed")

    def recover(self) -> None:
        """Rejoin after a crash: ask peers for catch-up state.

        The replica resumes processing immediately and broadcasts a
        CHECKPOINT-REQUEST announcing how far its durable state reaches;
        peers reply with targeted featherweight checkpoints (and their
        stable watermark and view), from which the replica re-adopts the
        decisions and view it slept through.
        """
        if not self._crashed:
            return
        self._crashed = False
        self._catching_up = True
        self._recovery_responders = set()
        request = CheckpointRequestMsg(replica=self._id, low_seq=self._log.max_committed_seq())
        self._trace("pbft.recovery_requested", low_seq=request.low_seq)
        if self._obs is not None:
            self._obs.begin_span("recovery", self._id, self._host.now, self._id)
        self._host.process(
            self._costs.mac_sign * max(1, self._n - 1),
            self._broadcast_message, request, request.size_bytes,
        )

    # ------------------------------------------------------------------ helpers

    def _broadcast_message(self, message: Any, size_bytes: int) -> None:
        """Deferred broadcast, dropped if the replica crashed in the meantime."""
        if self._crashed:
            return
        self._transport.broadcast(message, size_bytes)

    def _send_message(self, dst: str, message: Any, size_bytes: int) -> None:
        if self._crashed:
            return
        self._transport.send(dst, message, size_bytes)

    def _trace(self, category: str, **details) -> None:
        if self._obs is not None:
            self._obs.record(self._host.now, category, self._id, **details)
