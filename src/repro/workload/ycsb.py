"""YCSB-style workload generator.

Mirrors the paper's benchmark setup (Section IX): key-value transactions
over a 600 k-record table, each transaction performing a small number of
read and write operations, with

* a configurable read/write mix,
* zipfian or uniform key selection,
* a controllable percentage of *conflicting* transactions (Figure 6 xi/xii)
  — conflicting transactions write a small hot set of keys shared by all
  clients, non-conflicting ones touch per-client key partitions so they can
  never overlap,
* an optional synthetic compute phase per transaction ("execution length",
  Figures 6 v/vi and 8), and
* batching of client transactions (Figure 6 iii/iv).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro import kernel
from repro.errors import WorkloadError
from repro.perf import PERF
from repro.sim.rng import DeterministicRNG
from repro.workload.transactions import Operation, Transaction, TransactionBatch


@dataclass(frozen=True)
class YCSBConfig:
    """Parameters of the YCSB-style workload."""

    num_records: int = 600_000
    operations_per_transaction: int = 4
    write_fraction: float = 0.5
    zipfian_theta: float = 0.0
    conflict_fraction: float = 0.0
    hot_keys: int = 16
    clients: int = 16
    execution_seconds: float = 0.0
    rw_sets_known: bool = True
    value_size_bytes: int = 100
    seed: int = 2023

    def __post_init__(self) -> None:
        if self.num_records <= 0:
            raise WorkloadError("num_records must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError("write_fraction must be within [0, 1]")
        if not 0.0 <= self.conflict_fraction <= 1.0:
            raise WorkloadError("conflict_fraction must be within [0, 1]")
        if self.operations_per_transaction <= 0:
            raise WorkloadError("operations_per_transaction must be positive")
        if self.clients <= 0:
            raise WorkloadError("clients must be positive")
        if self.hot_keys <= 0:
            raise WorkloadError("hot_keys must be positive")


class YCSBWorkload:
    """Deterministic transaction/batch generator for one experiment run."""

    def __init__(self, config: YCSBConfig) -> None:
        self._config = config
        self._rng = DeterministicRNG(config.seed).child("ycsb")
        self._txn_counter = itertools.count()
        self._batch_counter = itertools.count()
        # Per-client private key ranges guarantee non-conflicting transactions
        # from different clients never touch the same key.
        self._partition_size = max(1, config.num_records // config.clients)
        self._client_ids = [f"client-{index}" for index in range(config.clients)]
        # Pre-built samplers for the constant bounds of this workload: each is
        # draw-for-draw identical to randint (see DeterministicRNG), minus the
        # stdlib wrapper frames — next_transaction draws ~6 of these per call.
        # The bounds are recorded alongside the samplers: the compiled kernel
        # re-derives the same rejection loops from them (drawing through the
        # same ``getrandbits``), so C and Python draws stay sequence-identical.
        self._client_bound = config.clients
        self._value_bound = 10**9 + 1
        self._draw_client = self._rng.bounded_int_fn(self._client_bound)
        self._draw_hot = self._rng.bounded_int_fn(config.hot_keys)
        self._draw_offset = self._rng.bounded_int_fn(self._partition_size)
        self._draw_value = self._rng.bounded_int_fn(self._value_bound)
        # Per-transaction constants, hoisted out of the generation loop.
        self._writes_target = round(
            config.operations_per_transaction * config.write_fraction
        )
        self._private_modulus = max(1, config.num_records - config.hot_keys)
        # conflict_fraction == 0 means chance() never draws; skip the call.
        self._has_conflicts = config.conflict_fraction > 0.0
        # With no conflicts and uniform keys the per-transaction dispatch in
        # next_transaction is constant: branch once here, not per call.
        self._uniform_only = not self._has_conflicts and config.zipfian_theta <= 0
        # Key-choice tables and per-transaction attribute hoists: the frozen
        # config never changes after construction, so every per-call config
        # attribute read in the generation loop is precomputable.  None of
        # this changes a single RNG draw — only how the drawn values are
        # turned into keys and transactions.
        self._conflict_fraction = config.conflict_fraction
        self._execution_seconds = config.execution_seconds
        self._rw_sets_known = config.rw_sets_known
        self._num_client_ids = len(self._client_ids)
        self._client_starts = tuple(
            (index * self._partition_size) % config.num_records
            for index in range(config.clients)
        )
        self._write_flags = tuple(
            op_index < self._writes_target
            for op_index in range(config.operations_per_transaction)
        )
        self._chance = self._rng.chance
        self._next_txn_index = self._txn_counter.__next__
        self._next_batch_index = self._batch_counter.__next__
        self._hot_count = config.hot_keys
        self._num_records = config.num_records
        # Compiled generation fast path, bound per instance so tests can
        # force the pure-Python loop (``workload._c_generate = None``) for
        # in-process A/B comparisons.  ``None`` whenever the chooser picked
        # the pure-Python kernel.
        self._c_generate = kernel.c_generate_transactions()

    @property
    def config(self) -> YCSBConfig:
        return self._config

    # ------------------------------------------------------------- transactions

    def next_transaction(
        self,
        client_index: Optional[int] = None,
        origin: str = "",
        request_id: str = "",
    ) -> Transaction:
        """Generate the next transaction, optionally pinned to a client.

        ``origin``/``request_id`` let callers stamp the delivery metadata at
        construction time instead of rebuilding the frozen transaction with
        ``dataclasses.replace`` afterwards (the client hot path).
        """
        if client_index is None:
            client_index = self._draw_client()
        if client_index < self._num_client_ids:
            client_id = self._client_ids[client_index]
        else:
            client_id = f"client-{client_index}"
        txn_id = f"txn-{self._next_txn_index()}"
        if self._uniform_only:
            operations = self._build_operations_uniform(client_index)
        else:
            conflicting = self._has_conflicts and self._chance(self._conflict_fraction)
            operations = self._build_operations(client_index, conflicting)
        # Fast frozen-dataclass construction: a generated transaction is the
        # single hottest allocation in a run (batch size x clients per
        # second), and the frozen __init__'s per-field object.__setattr__
        # overhead is measurable.  Filling __dict__ directly is equivalent —
        # dataclass equality/hash read the same attributes.
        txn = object.__new__(Transaction)
        txn_dict = txn.__dict__
        txn_dict["txn_id"] = txn_id
        txn_dict["client_id"] = client_id
        txn_dict["operations"] = operations
        txn_dict["execution_seconds"] = self._execution_seconds
        txn_dict["rw_sets_known"] = self._rw_sets_known
        txn_dict["origin"] = origin
        txn_dict["request_id"] = request_id
        return txn

    def next_transactions(
        self,
        count: int,
        client_index_offset: int = 0,
        origin: str = "",
        request_id: str = "",
    ) -> Tuple[Transaction, ...]:
        """Generate ``count`` transactions pinned to consecutive client slots.

        Draw-for-draw identical to calling :meth:`next_transaction` with
        ``client_index = client_index_offset + slot`` for each slot; the
        hoisted loop serves the client group's request path (one request per
        round trip carrying ``group_size`` transactions), where the
        per-transaction attribute reads of the single-transaction entry
        point are measurable.
        """
        c_generate = self._c_generate
        if c_generate is not None:
            txns = c_generate(self, count, client_index_offset, origin, request_id, False)
            PERF.ckernel_txns_generated += count
            return txns
        uniform_only = self._uniform_only
        build_general = self._build_operations
        has_conflicts = self._has_conflicts
        chance = self._chance
        conflict_fraction = self._conflict_fraction
        client_ids = self._client_ids
        num_ids = self._num_client_ids
        next_index = self._next_txn_index
        execution_seconds = self._execution_seconds
        rw_sets_known = self._rw_sets_known
        txn_new = Transaction.__new__
        # Locals for the inlined uniform-key operation builder (identical
        # draws and results to _build_operations_uniform, minus one call
        # frame and its locals re-binding per transaction).
        write_flags = self._write_flags
        hot_keys = self._hot_count
        modulus = self._private_modulus
        draw_offset = self._draw_offset
        draw_value = self._draw_value
        starts = self._client_starts
        num_starts = len(starts)
        partition_size = self._partition_size
        num_records = self._num_records
        tuple_new = tuple.__new__
        transactions: List[Transaction] = []
        append = transactions.append
        for slot in range(count):
            client_index = client_index_offset + slot
            if client_index < num_ids:
                client_id = client_ids[client_index]
            else:
                client_id = f"client-{client_index}"
            txn_id = f"txn-{next_index()}"
            if uniform_only:
                if client_index < num_starts:
                    start = starts[client_index]
                else:
                    start = (client_index * partition_size) % num_records
                op_list: List[Operation] = []
                op_append = op_list.append
                for is_write in write_flags:
                    index = hot_keys + (start + draw_offset()) % modulus
                    op_append(
                        tuple_new(
                            Operation,
                            (
                                f"user{index}",
                                is_write,
                                f"val-{draw_value()}" if is_write else None,
                            ),
                        )
                    )
                operations = tuple(op_list)
            else:
                conflicting = has_conflicts and chance(conflict_fraction)
                operations = build_general(client_index, conflicting)
            txn = txn_new(Transaction)
            txn_dict = txn.__dict__
            txn_dict["txn_id"] = txn_id
            txn_dict["client_id"] = client_id
            txn_dict["operations"] = operations
            txn_dict["execution_seconds"] = execution_seconds
            txn_dict["rw_sets_known"] = rw_sets_known
            txn_dict["origin"] = origin
            txn_dict["request_id"] = request_id
            append(txn)
        return tuple(transactions)

    def transactions(self, count: int, client_index: Optional[int] = None) -> List[Transaction]:
        next_transaction = self.next_transaction
        return [next_transaction(client_index) for _ in range(count)]

    def transaction_stream(self) -> Iterator[Transaction]:
        while True:
            yield self.next_transaction()

    # ------------------------------------------------------------------ batches

    def next_batch(self, batch_size: int) -> TransactionBatch:
        """Generate a batch of ``batch_size`` transactions (paper default 100)."""
        if batch_size <= 0:
            raise WorkloadError("batch_size must be positive")
        batch_id = f"batch-{self._next_batch_index()}"
        c_generate = self._c_generate
        if c_generate is not None:
            # draw_client=True: the C loop draws the client per transaction,
            # exactly as next_transaction() does below.
            transactions = c_generate(self, batch_size, 0, "", "", True)
            PERF.ckernel_txns_generated += batch_size
            return TransactionBatch(batch_id=batch_id, transactions=transactions)
        next_transaction = self.next_transaction
        return TransactionBatch(
            batch_id=batch_id,
            transactions=tuple(next_transaction() for _ in range(batch_size)),
        )

    def batches(self, count: int, batch_size: int) -> List[TransactionBatch]:
        return [self.next_batch(batch_size) for _ in range(count)]

    # ---------------------------------------------------------------- internals

    def _build_operations(self, client_index: int, conflicting: bool) -> Tuple[Operation, ...]:
        config = self._config
        if not conflicting and config.zipfian_theta <= 0:
            return self._build_operations_uniform(client_index)
        operations: List[Operation] = []
        append = operations.append
        tuple_new = tuple.__new__
        for op_index, is_write in enumerate(self._write_flags):
            if conflicting and op_index == 0:
                # Conflicting transactions contend on the shared hot set, and the
                # contended operation is always a write so any two of them conflict.
                key = self._hot_key()
                is_write = True
            else:
                key = self._private_key(client_index)
            value = f"val-{self._draw_value()}" if is_write else None
            # C-level namedtuple construction; ycsb always passes a non-None
            # value for writes, so Operation's normalisation is a no-op here.
            append(tuple_new(Operation, (key, is_write, value)))
        return tuple(operations)

    def _build_operations_uniform(self, client_index: int) -> Tuple[Operation, ...]:
        """The non-conflicting uniform-key path, fully inlined.

        Identical draws and results to the general loop above — this is the
        default workload's innermost loop (hundreds of thousands of calls per
        simulated second), so the key-draw helpers are expanded in place.
        """
        operations: List[Operation] = []
        append = operations.append
        starts = self._client_starts
        if client_index < len(starts):
            start = starts[client_index]
        else:
            start = (client_index * self._partition_size) % self._num_records
        hot_keys = self._hot_count
        modulus = self._private_modulus
        draw_offset = self._draw_offset
        draw_value = self._draw_value
        tuple_new = tuple.__new__
        for is_write in self._write_flags:
            index = hot_keys + (start + draw_offset()) % modulus
            append(
                tuple_new(
                    Operation,
                    (f"user{index}", is_write, f"val-{draw_value()}" if is_write else None),
                )
            )
        return tuple(operations)

    def _hot_key(self) -> str:
        return f"user{self._draw_hot()}"

    def _private_key(self, client_index: int) -> str:
        config = self._config
        starts = self._client_starts
        if client_index < len(starts):
            start = starts[client_index]
        else:
            start = (client_index * self._partition_size) % self._num_records
        if config.zipfian_theta > 0:
            offset = self._rng.zipf_index(self._partition_size, config.zipfian_theta)
        else:
            offset = self._draw_offset()
        # Skip the hot range so private keys never collide with hot keys.
        return f"user{self._hot_count + (start + offset) % self._private_modulus}"
