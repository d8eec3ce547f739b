"""Crash-fault-tolerant ordering (the SERVERLESSCFT baseline).

Figure 7 compares ServerlessBFT against a shim that runs "a crash
fault-tolerant protocol like Paxos": no digital signatures, linear
communication (replicas answer only to the leader), and majority quorums.
This module implements a stable-leader Multi-Paxos in the same host/transport
framework as :class:`repro.consensus.pbft.PBFTReplica` so the two can be
swapped inside a shim node.

Like PBFT's stable checkpoints, every ``checkpoint_interval`` commits a
replica moves its stable watermark to its contiguously committed prefix and
truncates the log and the accepted-vote keys at or below it.  The leader
never changes, so no replica ever asks for a decided slot again: the
watermark needs no checkpoint messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.consensus.log import CommittedEntry, ConsensusLog
from repro.consensus.messages import (
    PAXOS_ACCEPT_BYTES,
    PAXOS_ACCEPTED_BYTES,
    PaxosAcceptMsg,
    PaxosAcceptedMsg,
)
from repro.consensus.quorums import QuorumTracker
from repro.crypto.costs import CryptoCostModel
from repro.crypto.hashing import cached_digest
from repro.errors import ProtocolViolation


@dataclass(frozen=True)
class PaxosLearnMsg:
    """Leader's notification that a slot is chosen."""

    ballot: int
    seq: int
    digest: str
    batch: Any

    def canonical(self) -> str:
        return f"paxos-learn:{self.ballot}:{self.seq}:{self.digest}"


PAXOS_LEARN_BYTES = 160


@dataclass
class PaxosConfig:
    """Tunable knobs of the CFT shim."""

    checkpoint_interval: int = 64


class PaxosReplica:
    """A stable-leader Multi-Paxos replica ordering opaque batches."""

    def __init__(
        self,
        replica_id: str,
        replicas: List[str],
        config: PaxosConfig,
        transport,
        cost_model: CryptoCostModel,
        host,
        on_committed: Callable[[CommittedEntry], None],
        obs=None,
    ) -> None:
        if replica_id not in replicas:
            raise ProtocolViolation(f"replica {replica_id!r} is not part of the shim {replicas}")
        self._id = replica_id
        self._replicas = list(replicas)
        self._n = len(replicas)
        self._majority = self._n // 2 + 1
        self._config = config
        self._transport = transport
        self._costs = cost_model
        self._host = host
        self._on_committed = on_committed
        self._obs = obs

        self._ballot = 0
        self._next_seq = 0
        self._log = ConsensusLog()
        self._accepted_quorum: QuorumTracker = QuorumTracker(self._majority)

    @property
    def replica_id(self) -> str:
        return self._id

    @property
    def n(self) -> int:
        return self._n

    @property
    def majority(self) -> int:
        return self._majority

    @property
    def leader(self) -> str:
        return self._replicas[self._ballot % self._n]

    @property
    def is_primary(self) -> bool:
        return self.leader == self._id

    # Alias so shim nodes can treat PBFT and Paxos replicas uniformly.
    @property
    def is_leader(self) -> bool:
        return self.is_primary

    @property
    def view(self) -> int:
        return self._ballot

    @property
    def log(self) -> ConsensusLog:
        return self._log

    def propose(self, batch: Any) -> int:
        """Leader only: choose the next slot and replicate the batch."""
        if not self.is_leader:
            raise ProtocolViolation(f"{self._id} is not the Paxos leader")
        self._next_seq += 1
        seq = self._next_seq
        batch_digest = cached_digest(batch)
        slot = self._log.slot(seq)
        slot.view = self._ballot
        slot.digest = batch_digest
        slot.batch = batch
        slot.preprepared = True
        message = PaxosAcceptMsg(ballot=self._ballot, seq=seq, digest=batch_digest, batch=batch)
        # No signatures: only the batch hash plus cheap per-target MACs.
        cost = self._costs.hash_cost(PAXOS_ACCEPT_BYTES) + self._costs.mac_sign * (self._n - 1)
        self._host.process(cost, self._transport.broadcast, message, PAXOS_ACCEPT_BYTES)
        self._record_accepted(
            PaxosAcceptedMsg(ballot=self._ballot, seq=seq, digest=batch_digest, replica=self._id),
            self._id,
        )
        self._trace("paxos.propose", seq=seq)
        if self._obs is not None:
            self._obs.begin_span("consensus", seq, self._host.now, self._id)
        return seq

    def handle(self, message: Any, sender: str) -> bool:
        if isinstance(message, PaxosAcceptMsg):
            self.on_accept(message, sender)
        elif isinstance(message, PaxosAcceptedMsg):
            self.on_accepted(message, sender)
        elif isinstance(message, PaxosLearnMsg):
            self.on_learn(message, sender)
        else:
            return False
        return True

    def on_accept(self, message: PaxosAcceptMsg, sender: str) -> None:
        if sender != self.leader or message.ballot != self._ballot:
            return
        if message.seq > self._log.stable_seq:
            # A late duplicate for a truncated slot is still acknowledged,
            # but re-creates nothing.
            slot = self._log.slot(message.seq)
            slot.view = message.ballot
            slot.digest = message.digest
            slot.batch = message.batch
            slot.preprepared = True
            slot.prepared = True
        reply = PaxosAcceptedMsg(
            ballot=message.ballot, seq=message.seq, digest=message.digest, replica=self._id
        )
        cost = self._costs.mac_verify + self._costs.mac_sign
        self._host.process(
            cost, lambda: self._transport.send(self.leader, reply, PAXOS_ACCEPTED_BYTES)
        )

    def on_accepted(self, message: PaxosAcceptedMsg, sender: str) -> None:
        if not self.is_leader or message.ballot != self._ballot:
            return
        self._host.process(self._costs.mac_verify, self._record_accepted, message, sender)

    def _record_accepted(self, message: PaxosAcceptedMsg, sender: str) -> None:
        if message.seq <= self._log.stable_seq:
            return  # a late vote for a truncated slot
        key = (message.ballot, message.seq, message.digest)
        if self._accepted_quorum.add(key, sender):
            slot = self._log.slot(message.seq)
            if slot.committed:
                return
            learn = PaxosLearnMsg(
                ballot=message.ballot,
                seq=message.seq,
                digest=message.digest,
                batch=slot.batch,
            )
            self._host.process(
                self._costs.mac_sign * (self._n - 1),
                lambda: self._transport.broadcast(learn, PAXOS_LEARN_BYTES),
            )
            self._commit(message.seq, message.ballot, message.digest, slot.batch)

    def on_learn(self, message: PaxosLearnMsg, sender: str) -> None:
        if sender != self.leader:
            return
        if self._log.is_committed(message.seq):
            return
        self._host.process(
            self._costs.mac_verify,
            lambda: self._commit(message.seq, message.ballot, message.digest, message.batch),
        )

    def _commit(self, seq: int, ballot: int, batch_digest: str, batch: Any) -> None:
        if self._log.is_committed(seq):
            return
        slot = self._log.slot(seq)
        slot.committed = True
        slot.batch = batch if batch is not None else slot.batch
        entry = CommittedEntry(
            seq=seq, view=ballot, digest=batch_digest, batch=slot.batch, certificate=()
        )
        self._log.record_commit(entry)
        self._trace("paxos.committed", seq=seq)
        if self._obs is not None:
            self._obs.end_span("consensus", seq, self._host.now)
        self._maybe_truncate(seq)
        self._on_committed(entry)

    def _maybe_truncate(self, seq: int) -> None:
        """Every ``checkpoint_interval`` commits, truncate the decided prefix."""
        interval = self._config.checkpoint_interval
        if interval <= 0 or seq - self._log.last_checkpoint_seq < interval:
            return
        # The next check is one interval later even if a commit still missing
        # below ``seq`` holds the watermark back now.
        self._log.advance_checkpoint(seq)
        stable = self._log.contiguous_committed_through()
        if stable > self._log.stable_seq:
            self._log.mark_stable(stable)
            self._accepted_quorum.drop_through(stable)
            self._trace("paxos.stable_checkpoint", stable=stable)

    def _trace(self, category: str, **details) -> None:
        if self._obs is not None:
            self._obs.record(self._host.now, category, self._id, **details)
