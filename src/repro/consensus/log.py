"""Per-replica consensus log.

Each sequence number has a slot tracking how far it has progressed through
the PBFT phases, the batch proposed for it, and — once committed — the
commit certificate (the 2f_R + 1 commit signatures that the primary later
forwards to executors inside EXECUTE messages).

The log also maintains the *stable checkpoint* watermark (Section V-B):
once 2f+1 replicas have checkpointed through a sequence number — and this
replica has committed everything up to it — slots and retained entries at or
below the watermark are truncated, which is what bounds the log's memory
under long runs and rolling restarts.  (A Paxos replica moves the watermark
itself, to its committed prefix, every checkpoint interval.)  Truncated
sequence numbers still count as committed (``is_committed``), they just no
longer carry payloads.

A committed sequence number keeps its view, digest and certificate but not
its batch (:meth:`ConsensusLog.record_commit`): checkpoints and catch-up
replies carry only ``(digest, view, certificate)``, and view changes and
checkpoint adoption read the batches of uncommitted slots only.  The engine
hands the batch to the layer above in the entry it commits, and that layer
keeps it for as long as it still needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.signatures import Signature


@dataclass
class SlotState:
    """Progress of one sequence number at one replica."""

    seq: int
    view: int = 0
    digest: Optional[str] = None
    batch: Any = None
    preprepared: bool = False
    prepared: bool = False
    committed: bool = False
    commit_signatures: Dict[str, Signature] = field(default_factory=dict)
    prepare_voters: List[str] = field(default_factory=list)
    commit_voters: List[str] = field(default_factory=list)

    @property
    def certificate(self) -> Tuple[Signature, ...]:
        """Commit certificate: the distinct commit signatures collected."""
        return tuple(self.commit_signatures.values())


@dataclass(frozen=True)
class CommittedEntry:
    """A decision handed to the layer above the ordering engine.

    ``batch`` is None for a decision adopted from a checkpoint without its
    payload, and in every entry the log retains.
    """

    seq: int
    view: int
    digest: str
    batch: Any
    certificate: Tuple[Signature, ...]


class ConsensusLog:
    """Slot table plus commit bookkeeping for one replica."""

    def __init__(self) -> None:
        self._slots: Dict[int, SlotState] = {}
        self._committed: Dict[int, CommittedEntry] = {}
        self._last_checkpoint_seq = 0
        #: Highest truncated (stable-checkpointed) sequence number.  A plain
        #: attribute, not a property: every vote a replica counts reads it.
        #: Advanced only through :meth:`mark_stable` / :meth:`skip_to_stable`.
        self.stable_seq = 0
        self._total_committed = 0

    def slot(self, seq: int) -> SlotState:
        slot = self._slots.get(seq)
        if slot is None:
            slot = self._slots[seq] = SlotState(seq=seq)
        return slot

    def has_slot(self, seq: int) -> bool:
        return seq in self._slots

    def committed_entries(self) -> List[CommittedEntry]:
        """Retained (post-watermark) committed entries, in sequence order."""
        return [self._committed[seq] for seq in sorted(self._committed)]

    def committed_count(self) -> int:
        """Total sequence numbers known decided (monotone across truncation)."""
        return self._total_committed

    def is_committed(self, seq: int) -> bool:
        return seq <= self.stable_seq or seq in self._committed

    def record_commit(self, entry: CommittedEntry) -> None:
        """Record a decision; the log keeps its certificate, not its batch."""
        if entry.seq <= self.stable_seq:
            return
        if entry.seq not in self._committed:
            self._total_committed += 1
        if entry.batch is not None:
            entry = CommittedEntry(
                seq=entry.seq,
                view=entry.view,
                digest=entry.digest,
                batch=None,
                certificate=entry.certificate,
            )
        self._committed[entry.seq] = entry
        slot = self.slot(entry.seq)
        slot.committed = True
        slot.digest = entry.digest
        slot.view = entry.view
        slot.batch = None

    def committed_since(self, seq_exclusive: int) -> List[CommittedEntry]:
        return [entry for seq, entry in sorted(self._committed.items()) if seq > seq_exclusive]

    def max_committed_seq(self) -> int:
        retained = max(self._committed) if self._committed else 0
        return max(self.stable_seq, retained)

    def prepared_uncommitted(self) -> List[SlotState]:
        """Slots that prepared but did not commit (carried into view changes)."""
        return [
            slot
            for seq, slot in sorted(self._slots.items())
            if slot.prepared and not slot.committed
        ]

    @property
    def last_checkpoint_seq(self) -> int:
        return self._last_checkpoint_seq

    def advance_checkpoint(self, seq: int) -> None:
        self._last_checkpoint_seq = max(self._last_checkpoint_seq, seq)

    def missing_below(self, seq: int) -> List[int]:
        """Sequence numbers ≤ ``seq`` that this replica has not committed."""
        return [
            candidate
            for candidate in range(self.stable_seq + 1, seq + 1)
            if candidate not in self._committed
        ]

    # ------------------------------------------------------------------ checkpoints

    @property
    def retained_commits(self) -> int:
        """Committed entries still held in memory (post-watermark)."""
        return len(self._committed)

    @property
    def slot_count(self) -> int:
        return len(self._slots)

    def contiguous_committed_through(self) -> int:
        """Largest seq such that every sequence number ≤ it is committed."""
        seq = self.stable_seq
        while (seq + 1) in self._committed:
            seq += 1
        return seq

    def mark_stable(self, seq: int) -> None:
        """Advance the stable watermark and truncate at/below it.

        The caller guarantees every sequence number ≤ ``seq`` is locally
        committed (use :meth:`contiguous_committed_through` to clamp), so
        truncation never changes what ``is_committed`` reports.
        """
        if seq <= self.stable_seq:
            return
        self.stable_seq = seq
        self._truncate()

    def skip_to_stable(self, seq: int) -> None:
        """Recovery skip-ahead: adopt a peer-vouched stable watermark.

        Sequence numbers up to ``seq`` become committed-by-proxy (their
        certificates were truncated cluster-wide); used by a recovering node
        whose catch-up responders no longer retain the early certificates.
        """
        if seq <= self.stable_seq:
            return
        for candidate in range(self.stable_seq + 1, seq + 1):
            if candidate not in self._committed:
                self._total_committed += 1
        self.stable_seq = seq
        self._truncate()

    def drop_volatile(self) -> None:
        """Crash: volatile slots and retained entries vanish.

        Only the stable watermark survives a crash (stable checkpoints are
        durable by definition); everything after it must be re-learned
        through the state-transfer path.
        """
        self._slots.clear()
        self._committed.clear()
        self._total_committed = self.stable_seq
        self._last_checkpoint_seq = self.stable_seq

    def _truncate(self) -> None:
        stable = self.stable_seq
        for seq in [seq for seq in self._committed if seq <= stable]:
            del self._committed[seq]
        for seq in [seq for seq in self._slots if seq <= stable]:
            del self._slots[seq]
