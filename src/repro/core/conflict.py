"""Best-effort conflict avoidance (Section VI-C).

When the read-write sets of transactions are known to the shim before
execution, the primary borrows the queueing strategy of deterministic
databases (Calvin, QueCC, Q-Store): it keeps a *logical* lock map over
data items — no values, just who holds a lock — and only dispatches a batch
to the serverless executors once every data item it writes is unlocked by
all earlier batches.  Non-conflicting batches still execute in parallel;
conflicting ones wait, which trades a little parallelism for (near-)zero
aborts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.errors import ProtocolViolation
from repro.workload.transactions import TransactionBatch


@dataclass
class _PendingBatch:
    seq: int
    batch: TransactionBatch
    read_set: FrozenSet[str]
    write_set: FrozenSet[str]
    dispatched: bool = False


class ConflictPlanner:
    """Logical lock map plus dispatch queue used by the primary.

    Usage: ``add`` every committed batch, dispatch whatever ``ready()``
    returns, and call ``complete(seq)`` when the verifier confirms a batch —
    the return value lists batches that became dispatchable.  A confirmed
    batch is retired, dispatched or not, so the planner holds only the
    batches still awaiting the verifier.
    """

    def __init__(self) -> None:
        self._pending: Dict[int, _PendingBatch] = {}
        self._locked_writes: Dict[str, int] = {}
        self._locked_reads: Dict[str, Set[int]] = {}

    # ------------------------------------------------------------------ queries

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def locked_items(self) -> Set[str]:
        return set(self._locked_writes) | set(self._locked_reads)

    # ------------------------------------------------------------------ lifecycle

    def add(self, seq: int, batch: TransactionBatch) -> None:
        """Register a committed batch, keyed by its sequence number."""
        if seq in self._pending:
            raise ProtocolViolation(f"batch for sequence {seq} already registered")
        self._pending[seq] = _PendingBatch(
            seq=seq,
            batch=batch,
            read_set=batch.read_set,
            write_set=batch.write_set,
        )

    def ready(self) -> List[Tuple[int, TransactionBatch]]:
        """Batches that can be dispatched now (locks acquired as a side effect)."""
        dispatchable: List[Tuple[int, TransactionBatch]] = []
        for seq in sorted(self._pending):
            entry = self._pending[seq]
            if entry.dispatched:
                continue
            if self._conflicts_with_dispatched(entry):
                # Batches must be considered in sequence order; a blocked batch
                # also blocks later batches that conflict with *it*, which is
                # handled implicitly because its locks are not yet acquired and
                # later conflicting batches will conflict with whatever blocks it
                # or with it once dispatched.
                continue
            self._acquire(entry)
            entry.dispatched = True
            dispatchable.append((seq, entry.batch))
        return dispatchable

    def complete(self, seq: int) -> List[Tuple[int, TransactionBatch]]:
        """Retire a verified batch; returns newly dispatchable batches."""
        entry = self._pending.pop(seq, None)
        if entry is None:
            return []
        self._release(entry)
        return self.ready()

    # ------------------------------------------------------------------ internals

    def _conflicts_with_dispatched(self, entry: _PendingBatch) -> bool:
        for key in entry.write_set:
            holder = self._locked_writes.get(key)
            if holder is not None and holder != entry.seq:
                return True
            readers = self._locked_reads.get(key, set())
            if readers - {entry.seq}:
                return True
        for key in entry.read_set:
            holder = self._locked_writes.get(key)
            if holder is not None and holder != entry.seq:
                return True
        return False

    def _acquire(self, entry: _PendingBatch) -> None:
        for key in entry.write_set:
            self._locked_writes[key] = entry.seq
        for key in entry.read_set:
            self._locked_reads.setdefault(key, set()).add(entry.seq)

    def _release(self, entry: _PendingBatch) -> None:
        for key in entry.write_set:
            if self._locked_writes.get(key) == entry.seq:
                del self._locked_writes[key]
        for key in entry.read_set:
            readers = self._locked_reads.get(key)
            if readers is not None:
                readers.discard(entry.seq)
                if not readers:
                    del self._locked_reads[key]
