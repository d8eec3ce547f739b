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
from typing import List, Optional, Tuple

from repro import kernel
from repro.errors import WorkloadError
from repro.perf import PERF
from repro.sim.rng import DeterministicRNG
from repro.workload.config import YCSBConfig
from repro.workload.transactions import Operation, Transaction, TransactionBatch


class YCSBWorkload:
    """Deterministic transaction/batch generator for one experiment run."""

    def __init__(self, config: YCSBConfig) -> None:
        self._config = config
        self._rng = DeterministicRNG(config.seed).child("ycsb")
        self._txn_counter = itertools.count()
        self._batch_counter = itertools.count()
        # Per-client private key ranges guarantee non-conflicting transactions
        # from different clients never touch the same key.  A standalone
        # config given no client count draws as one client.
        clients = config.clients or 1
        self._partition_size = max(1, config.num_records // clients)
        # Per-client-index tables (id string, partition start).  They start at
        # ``clients`` entries; a standalone caller pinning a higher index
        # grows them on demand.
        self._client_ids: List[str] = []
        self._client_starts: Tuple[int, ...] = ()
        self._num_records = config.num_records
        self._grow_client_tables(clients)
        # The constant bounds of this workload.  The general operation
        # builder draws through bounded_int_fn samplers; the generation loop
        # and the compiled kernel both re-derive the same rejection loops
        # from the bounds (drawing through the same ``getrandbits``), so every
        # path's draw sequence is identical to randint's.
        self._client_bound = clients
        self._value_bound = 10**9 + 1
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
        # With no conflicts and uniform keys every transaction takes the
        # uniform builder, the one shape the compiled kernel draws.
        self._uniform_only = not self._has_conflicts and config.zipfian_theta <= 0
        # Per-transaction attribute hoists: the frozen config never changes
        # after construction.  None of this changes a single RNG draw — only
        # how the drawn values are turned into keys and transactions.
        self._conflict_fraction = config.conflict_fraction
        self._execution_seconds = config.execution_seconds
        self._execution_text = f"{config.execution_seconds}"
        self._rw_sets_known = config.rw_sets_known
        self._write_flags = tuple(
            op_index < self._writes_target
            for op_index in range(config.operations_per_transaction)
        )
        self._chance = self._rng.chance
        self._next_txn_index = self._txn_counter.__next__
        self._next_batch_index = self._batch_counter.__next__
        self._hot_count = config.hot_keys
        # Compiled generation fast path, bound per instance so tests can
        # force the pure-Python loop (``workload._c_generate = None``) for
        # in-process A/B comparisons.  ``None`` whenever the chooser picked
        # the pure-Python kernel or the workload is not uniform-only (the
        # compiled loop refuses conflicting and zipfian draws).
        self._c_generate = (
            kernel.c_generate_transactions() if self._uniform_only else None
        )

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

        Without ``client_index`` the client is drawn.  ``origin`` /
        ``request_id`` stamp the delivery metadata at construction time
        instead of rebuilding the frozen transaction afterwards.
        """
        if client_index is None:
            return self._generate(1, 0, origin, request_id, True)[0]
        return self._generate(1, client_index, origin, request_id, False)[0]

    def next_transactions(
        self,
        count: int,
        client_index_offset: int = 0,
        origin: str = "",
        request_id: str = "",
    ) -> Tuple[Transaction, ...]:
        """Generate ``count`` transactions pinned to consecutive client slots.

        Draw-for-draw identical to calling :meth:`next_transaction` with
        ``client_index = client_index_offset + slot`` for each slot; this is
        the client group's request path (one request per round trip carrying
        ``group_size`` transactions).
        """
        return self._generate(count, client_index_offset, origin, request_id, False)

    def transactions(self, count: int, client_index: Optional[int] = None) -> List[Transaction]:
        next_transaction = self.next_transaction
        return [next_transaction(client_index) for _ in range(count)]

    # ------------------------------------------------------------------ batches

    def next_batch(self, batch_size: int) -> TransactionBatch:
        """Generate a batch of ``batch_size`` transactions (paper default 100),
        each from a drawn client."""
        if batch_size <= 0:
            raise WorkloadError("batch_size must be positive")
        batch_id = f"batch-{self._next_batch_index()}"
        return TransactionBatch(
            batch_id=batch_id, transactions=self._generate(batch_size, 0, "", "", True)
        )

    # ---------------------------------------------------------------- internals

    def _generate(
        self,
        count: int,
        client_index_offset: int,
        origin: str,
        request_id: str,
        draw_client: bool,
    ) -> Tuple[Transaction, ...]:
        """Every entry point's dispatch: the compiled loop when the chooser
        bound one, else :meth:`_generate_py` (same arguments, same draws)."""
        c_generate = self._c_generate
        if c_generate is None:
            return self._generate_py(count, client_index_offset, origin, request_id, draw_client)
        PERF.ckernel_txns_generated += count
        return c_generate(self, count, client_index_offset, origin, request_id, draw_client)

    def _generate_py(
        self,
        count: int,
        client_index_offset: int,
        origin: str,
        request_id: str,
        draw_client: bool,
    ) -> Tuple[Transaction, ...]:
        """The authoritative generation loop: draw and describe in one pass.

        Each transaction leaves with its canonical string and sorted keys
        memoised (``_canonical`` / ``_sorted_keys``, the exact values
        :meth:`Transaction.canonical` and :attr:`Transaction.sorted_keys`
        would build), so neither the client's request digest nor batch
        execution walks its operations again.  The client draw and the
        uniform path's key and value draws inline ``bounded_int_fn``'s
        rejection loop, ``getrandbits`` call for ``getrandbits`` call;
        conflicting and zipfian transactions take :meth:`_build_operations`.
        """
        if not draw_client and client_index_offset + count > len(self._client_ids):
            self._grow_client_tables(client_index_offset + count)
        client_ids = self._client_ids
        starts = self._client_starts
        next_index = self._next_txn_index
        has_conflicts = self._has_conflicts
        chance = self._chance
        conflict_fraction = self._conflict_fraction
        zipfian = self._config.zipfian_theta > 0
        build_general = self._build_operations
        execution_seconds = self._execution_seconds
        execution_text = self._execution_text
        rw_sets_known = self._rw_sets_known
        getrandbits = self._rng.getrandbits
        client_bound = self._client_bound
        client_bits = client_bound.bit_length()
        partition_size = self._partition_size
        offset_bits = partition_size.bit_length()
        value_bound = self._value_bound
        value_bits = value_bound.bit_length()
        hot_keys = self._hot_count
        modulus = self._private_modulus
        # write_flags is writes-first, so the uniform builder runs two loops.
        write_slots = range(self._writes_target)
        read_slots = range(len(self._write_flags) - self._writes_target)
        txn_new = Transaction.__new__
        tuple_new = tuple.__new__
        transactions: List[Transaction] = []
        append = transactions.append
        for slot in range(count):
            if draw_client:
                client_index = getrandbits(client_bits)
                while client_index >= client_bound:
                    client_index = getrandbits(client_bits)
            else:
                client_index = client_index_offset + slot
            client_id = client_ids[client_index]
            txn_id = f"txn-{next_index()}"
            conflicting = has_conflicts and chance(conflict_fraction)
            if conflicting or zipfian:
                operations = build_general(client_index, conflicting)
                parts = [f"{'W' if is_write else 'R'}:{key}:{value or ''}"
                         for key, is_write, value in operations]
                keys = [op[0] for op in operations]
            else:
                start = starts[client_index]
                ops: List[Operation] = []
                parts = []
                keys = []
                for _ in write_slots:
                    offset = getrandbits(offset_bits)
                    while offset >= partition_size:
                        offset = getrandbits(offset_bits)
                    key = f"user{hot_keys + (start + offset) % modulus}"
                    drawn = getrandbits(value_bits)
                    while drawn >= value_bound:
                        drawn = getrandbits(value_bits)
                    value = f"val-{drawn}"
                    ops.append(tuple_new(Operation, (key, True, value)))
                    parts.append(f"W:{key}:{value}")
                    keys.append(key)
                for _ in read_slots:
                    offset = getrandbits(offset_bits)
                    while offset >= partition_size:
                        offset = getrandbits(offset_bits)
                    key = f"user{hot_keys + (start + offset) % modulus}"
                    ops.append(tuple_new(Operation, (key, False, None)))
                    parts.append(f"R:{key}:")
                    keys.append(key)
                operations = tuple(ops)
            # Fast frozen-dataclass construction: filling __dict__ directly
            # is equivalent (dataclass equality/hash read the same fields).
            txn = txn_new(Transaction)
            txn_dict = txn.__dict__
            txn_dict["txn_id"] = txn_id
            txn_dict["client_id"] = client_id
            txn_dict["operations"] = operations
            txn_dict["execution_seconds"] = execution_seconds
            txn_dict["rw_sets_known"] = rw_sets_known
            txn_dict["origin"] = origin
            txn_dict["request_id"] = request_id
            txn_dict["_canonical"] = (
                f"txn:{txn_id}:{client_id}:{';'.join(parts)}:{execution_text}"
            )
            txn_dict["_sorted_keys"] = tuple(sorted(set(keys)))
            append(txn)
        return tuple(transactions)

    def _grow_client_tables(self, size: int) -> None:
        """Extend the per-client-index tables to cover indices below ``size``."""
        first = len(self._client_ids)
        self._client_ids.extend(f"client-{index}" for index in range(first, size))
        self._client_starts += tuple(
            (index * self._partition_size) % self._num_records for index in range(first, size)
        )

    def _build_operations(self, client_index: int, conflicting: bool) -> Tuple[Operation, ...]:
        """Conflicting or zipfian-keyed operations (the generation loop's
        general builder; the compiled kernel never draws these)."""
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

    def _hot_key(self) -> str:
        return f"user{self._draw_hot()}"

    def _private_key(self, client_index: int) -> str:
        config = self._config
        start = self._client_starts[client_index]
        if config.zipfian_theta > 0:
            offset = self._rng.zipf_index(self._partition_size, config.zipfian_theta)
        else:
            offset = self._draw_offset()
        # Skip the hot range so private keys never collide with hot keys.
        return f"user{self._hot_count + (start + offset) % self._private_modulus}"
