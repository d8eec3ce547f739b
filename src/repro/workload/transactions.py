"""Transaction model.

A transaction is an ordered list of read and write operations over the
on-premise key-value store plus an optional compute phase (the "execution
length" knob of Figure 6 v/vi and Figure 8).  Executors execute transactions
deterministically, so two honest executors always produce identical results
for the same transaction over the same storage state — the property the
verifier's ``f_E + 1`` matching-results quorum relies on.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro import kernel
from repro.perf import PERF


class Operation(namedtuple("_OperationBase", ("key", "is_write", "value"))):
    """One read or write of a single key.

    A namedtuple rather than a frozen dataclass: the workload generator
    allocates one per operation on the hottest path of a run, and the
    generator constructs them via ``tuple.__new__`` entirely in C (no
    per-instance ``__dict__``).  Field access, equality, and keyword
    construction are unchanged for callers; a write without an explicit
    value still normalises it to ``""``.
    """

    __slots__ = ()

    def __new__(cls, key: str, is_write: bool = False, value: Optional[str] = None):
        if is_write and value is None:
            value = ""
        return tuple.__new__(cls, (key, is_write, value))


@dataclass(frozen=True)
class Transaction:
    """A client transaction ``T``.

    ``execution_seconds`` is the synthetic compute time of the transaction's
    expensive phase; ``rw_sets_known`` says whether the shim can see the
    read-write sets before execution (Section VI-C vs VI-B).  ``origin`` and
    ``request_id`` identify the client endpoint awaiting the RESPONSE and the
    client-side request this transaction belongs to.
    """

    txn_id: str
    client_id: str
    operations: Tuple[Operation, ...]
    execution_seconds: float = 0.0
    rw_sets_known: bool = True
    origin: str = ""
    request_id: str = ""

    # The read/write sets and the canonical form of a frozen transaction are
    # immutable, yet they are recomputed on every access across the protocol's
    # hot paths (conflict planning, storage reads, request/batch hashing).
    # They are memoised on the instance; frozen dataclasses still carry a
    # ``__dict__``, so ``object.__setattr__`` works.  Each memo reads through
    # to a class-level ``None`` until it is set (ClassVars, not fields), so a
    # first access is a plain miss, not a raised AttributeError.  Both YCSB
    # generators (pure Python and compiled) seed ``_canonical`` and
    # ``_sorted_keys`` while they draw a transaction, so generated
    # transactions never miss those.
    _read_set: ClassVar[Optional[FrozenSet[str]]] = None
    _write_set: ClassVar[Optional[FrozenSet[str]]] = None
    _keys: ClassVar[Optional[FrozenSet[str]]] = None
    _sorted_keys: ClassVar[Optional[Tuple[str, ...]]] = None
    _canonical: ClassVar[Optional[str]] = None

    # Operations are namedtuples, so the comprehensions below unpack them
    # directly (C-level) instead of reading attributes one by one.

    @property
    def read_set(self) -> FrozenSet[str]:
        cached = self._read_set
        if cached is None:
            cached = frozenset(key for key, is_write, _value in self.operations if not is_write)
            object.__setattr__(self, "_read_set", cached)
        return cached

    @property
    def write_set(self) -> FrozenSet[str]:
        cached = self._write_set
        if cached is None:
            cached = frozenset(key for key, is_write, _value in self.operations if is_write)
            object.__setattr__(self, "_write_set", cached)
        return cached

    @property
    def keys(self) -> FrozenSet[str]:
        cached = self._keys
        if cached is None:
            # Computed straight from the operations (== read_set | write_set)
            # so the hot execution path doesn't materialise both sub-sets.
            cached = frozenset(key for key, _w, _v in self.operations)
            object.__setattr__(self, "_keys", cached)
        return cached

    @property
    def sorted_keys(self) -> Tuple[str, ...]:
        """The transaction's distinct keys in sorted order.

        What batch execution iterates when recording observed versions —
        identical ordering to ``sorted(self.keys)``, without materialising
        the frozenset on that path.
        """
        cached = self._sorted_keys
        if cached is None:
            cached = tuple(sorted({key for key, _w, _v in self.operations}))
            object.__setattr__(self, "_sorted_keys", cached)
        return cached

    def canonical(self) -> str:
        cached = self._canonical
        if cached is None:
            cached = _transaction_canonical_py(self)
            object.__setattr__(self, "_canonical", cached)
        return cached


def transactions_conflict(first: Transaction, second: Transaction) -> bool:
    """Two transactions conflict if they share a key and at least one writes it."""
    if first.write_set & second.keys:
        return True
    if second.write_set & first.keys:
        return True
    return False


@dataclass(frozen=True)
class TransactionBatch:
    """A batch of client transactions ordered together by the shim.

    The paper batches 100 client transactions per consensus by default.
    """

    batch_id: str
    transactions: Tuple[Transaction, ...]

    def __len__(self) -> int:
        return len(self.transactions)

    # Like Transaction, batch-level aggregates are memoised on the instance:
    # every executor spawned for a batch (3+ per commit) re-reads them.

    @property
    def read_set(self) -> FrozenSet[str]:
        cached = self.__dict__.get("_read_set")
        if cached is None:
            keys: set = set()
            for txn in self.transactions:
                keys |= txn.read_set
            cached = frozenset(keys)
            object.__setattr__(self, "_read_set", cached)
        return cached

    @property
    def write_set(self) -> FrozenSet[str]:
        cached = self.__dict__.get("_write_set")
        if cached is None:
            keys: set = set()
            for txn in self.transactions:
                keys |= txn.write_set
            cached = frozenset(keys)
            object.__setattr__(self, "_write_set", cached)
        return cached

    @property
    def storage_keys(self) -> Tuple[str, ...]:
        """Every key the batch touches, once, in first-occurrence order.

        The keys of each transaction's memoised ``sorted_keys`` in batch
        order, duplicates dropped (``dict.fromkeys``, no frozenset and no
        sort): what an executor reads from storage and the verifier's
        probe asks versions for.  Nothing depends on the order — the
        result digest walks each transaction's own sorted keys.
        """
        cached = self.__dict__.get("_storage_keys")
        if cached is None:
            cached = tuple(
                dict.fromkeys(chain.from_iterable([txn.sorted_keys for txn in self.transactions]))
            )
            object.__setattr__(self, "_storage_keys", cached)
        return cached

    @property
    def writes(self) -> Tuple[Dict[str, str], ...]:
        """Each transaction's write set, in batch order.

        ``{key: f"{value}:{txn_id}"}`` per transaction, a later write to a
        key in the same transaction winning.  What a write stores does not
        depend on what was read, so every :func:`execute_batch` result of
        the batch carries this very tuple as its ``writes``, and a replica
        that nobody verifies applies it instead of executing the batch.
        """
        cached = self.__dict__.get("_writes")
        if cached is None:
            cached = tuple(
                [
                    {
                        key: f"{value}:{txn.txn_id}"
                        for key, is_write, value in txn.operations
                        if is_write
                    }
                    for txn in self.transactions
                ]
            )
            object.__setattr__(self, "_writes", cached)
        return cached

    @property
    def request_groups(self) -> Tuple[Tuple[Tuple[str, str], Tuple[str, ...]], ...]:
        """Transaction ids grouped by ``(origin, request_id)``, in batch order.

        The verifier replies per client request; the grouping depends only
        on the (frozen) batch, so it is computed once per batch instead of
        once per validated sequence number.
        """
        cached = self.__dict__.get("_request_groups")
        if cached is None:
            groups: Dict[Tuple[str, str], List[str]] = {}
            for txn in self.transactions:
                groups.setdefault((txn.origin, txn.request_id), []).append(txn.txn_id)
            cached = tuple((key, tuple(ids)) for key, ids in groups.items())
            object.__setattr__(self, "_request_groups", cached)
        return cached

    @property
    def operation_count(self) -> int:
        """Total operations across the batch (drives per-operation CPU cost)."""
        cached = self.__dict__.get("_operation_count")
        if cached is None:
            cached = sum(len(txn.operations) for txn in self.transactions)
            object.__setattr__(self, "_operation_count", cached)
        return cached

    @property
    def execution_seconds(self) -> float:
        """Synthetic compute time of the batch's expensive phase.

        The paper's "execution length" knob models one compute-intensive task
        (e.g. an ML inference over the batched sensor data) per invocation,
        so the batch-level cost is the largest per-transaction requirement,
        not the sum.
        """
        cached = self.__dict__.get("_execution_seconds")
        if cached is None:
            if not self.transactions:
                cached = 0.0
            else:
                cached = max(txn.execution_seconds for txn in self.transactions)
            object.__setattr__(self, "_execution_seconds", cached)
        return cached

    def canonical(self) -> str:
        # Not memoised: only the batch's digest is read again, and
        # ``cached_digest`` keeps that; the ~11 KB text is built once.
        return f"batch:{self.batch_id}:" + "|".join(
            [txn.canonical() for txn in self.transactions]
        )


@dataclass(frozen=True)
class ExecutionResult:
    """The deterministic result of executing a batch against a storage snapshot.

    ``writes`` is the batch's own :attr:`TransactionBatch.writes` (what a
    write stores does not depend on what was read) and ``read_versions``
    the key → version map the execution read, every key of
    :attr:`TransactionBatch.storage_keys` for a storage read; both are
    shared, never copied, so treat them as read-only.  The verifier checks
    the reported versions against the store and aborts exactly the
    transactions that touch a stale key (Section IV-D and VI-B).
    """

    batch_id: str
    result_digest: str
    writes: Tuple[Dict[str, str], ...]
    read_versions: Mapping[str, int]


def execute_batch_cached(
    batch: TransactionBatch,
    read_values: Mapping[str, str],
    read_versions: Mapping[str, int],
) -> ExecutionResult:
    """Memoising wrapper around :func:`execute_batch`.

    Honest execution is a pure function of the batch and the storage state it
    observed, and a key's value is determined by its version (versions bump on
    every write).  The paper spawns ``3f_E + 1`` executors per committed
    batch, so in the common race-free case the same (batch, versions) pair is
    executed several times — the memo, stored on the (shared) batch instance
    and keyed on the observed versions alone, collapses those to one real
    execution.  Executors that observed *different* versions (a racing
    commit) miss the memo and execute for real, preserving the
    conflict/abort behaviour bit-for-bit.  Byzantine result corruption
    happens *after* this call, so it never pollutes the memo.
    """
    memo = batch.__dict__.get("_execution_memo")
    if memo is None:
        memo = {}
        object.__setattr__(batch, "_execution_memo", memo)
    # Keys and versions as two flat tuples: the same equality relation as
    # the (key, version) pairs, without one 2-tuple per key on every miss.
    versions_key = (tuple(read_versions), tuple(read_versions.values()))
    result = memo.get(versions_key)
    if result is None:
        result = execute_batch(batch, read_values, read_versions)
        memo[versions_key] = result
    else:
        PERF.batch_execution_cache_hits += 1
    return result


def execute_batch(
    batch: TransactionBatch,
    read_values: Mapping[str, str],
    read_versions: Mapping[str, int],
) -> ExecutionResult:
    """Deterministically execute a batch given the values it read.

    A write stores ``f"{value}:{txn_id}"``, the operation's own value and
    the transaction id, so the result's writes are the batch's own
    :attr:`TransactionBatch.writes`; the values and versions read enter
    only the result digest, and ``read_versions`` is kept as passed.  So
    any two honest executors that observed the same storage state produce
    equal :class:`ExecutionResult` objects (and byzantine executors that
    fabricate results will not match them).

    Dispatches to the active kernel variant (see :mod:`repro.kernel`); the
    compiled and pure-Python digests are bit-identical, gated by
    ``tests/test_kernel.py``.
    """
    return _execute_batch_impl(batch, read_values, read_versions)


def _execute_batch_py(
    batch: TransactionBatch,
    read_values: Mapping[str, str],
    read_versions: Mapping[str, int],
) -> ExecutionResult:
    """The authoritative pure-Python batch execution loop.

    Only the digest is computed: the writes are the batch's memo and the
    versions are kept as passed.
    """
    PERF.batch_executions += 1
    # Digest chunks are accumulated as *strings* and encoded in one pass at
    # the end: UTF-8 encoding distributes over concatenation, so the hashed
    # bytes — and therefore the result digest — are byte-identical to the
    # old chunk-by-chunk encoding.
    chunks: List[str] = [batch.batch_id]
    append_chunk = chunks.append
    values_get = read_values.get
    versions_get = read_versions.get
    for txn in batch.transactions:
        txn_id = txn.txn_id
        for key, is_write, value in txn.operations:
            append_chunk(f"{key}={values_get(key, '')}")
            if is_write:
                append_chunk(f"{value}:{txn_id}")
        # The digest covers the observed versions too: VERIFY messages only
        # "match" (Figure 3, Line 23) when the executors saw the same storage
        # state, which is what the verifier's concurrency check relies on.
        for key in txn.sorted_keys:
            append_chunk(f"{key}@{versions_get(key, 0)}")
    return ExecutionResult(
        batch.batch_id,
        hashlib.sha256("".join(chunks).encode("utf-8")).hexdigest(),
        batch.writes,
        read_versions,
    )


def _execute_batch_c(
    batch: TransactionBatch,
    read_values: Mapping[str, str],
    read_versions: Mapping[str, int],
) -> ExecutionResult:
    """Compiled batch execution (bit-identical to :func:`_execute_batch_py`).

    The C loop operates on plain dicts; exotic mappings (none on the hot
    path today) take the authoritative Python loop instead.
    """
    if type(read_values) is not dict or type(read_versions) is not dict:
        return _execute_batch_py(batch, read_values, read_versions)
    PERF.batch_executions += 1
    PERF.ckernel_batches_executed += 1
    return ExecutionResult(
        batch.batch_id,
        _c_execute_batch(batch.batch_id, batch.transactions, read_values, read_versions),
        batch.writes,
        read_versions,
    )


def _transaction_canonical_py(txn: Transaction) -> str:
    """Uncached canonical-string construction (the memo lives in
    :meth:`Transaction.canonical`; both generators seed it with this exact
    string as they draw)."""
    ops = ";".join(
        [
            f"{'W' if is_write else 'R'}:{key}:{value or ''}"
            for key, is_write, value in txn.operations
        ]
    )
    return f"txn:{txn.txn_id}:{txn.client_id}:{ops}:{txn.execution_seconds}"


# --------------------------------------------------------------------------
# Kernel wiring: register this module's types with the chooser and bind the
# hot-floor implementations once, at import (repro.kernel decided the
# variant when *it* was imported).  KER006 keeps all of this routed through
# repro.kernel — nothing here touches repro._ckernel directly.
kernel.configure_types(Operation, Transaction)
_c_execute_batch = kernel.c_execute_batch()
_execute_batch_impl = _execute_batch_py if _c_execute_batch is None else _execute_batch_c
