"""Process-global hot-path counters.

The counters quantify how well the PR's memoisation layers work on a given
workload (digest cache hit rate, batch-execution reuse, heap compaction).
They measure *implementation* efficiency only — nothing in the simulation's
virtual-time behaviour reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping


@dataclass
class PerfCounters:
    """Mutable counters incremented by the simulator's hot paths."""

    #: Full digest computations (SHA-256 over the canonical bytes).
    digests_computed: int = 0
    #: ``cached_digest`` calls answered from a per-object memo.
    digest_cache_hits: int = 0
    #: Deterministic batch executions actually run by ``execute_batch``.
    batch_executions: int = 0
    #: Batch executions answered from the per-batch/versions memo.
    batch_execution_cache_hits: int = 0
    #: Always 0: the kernel's deferred slot is gone.  The field stays because
    #: ``perfledger/child.py`` reads it (``sim.engine.coalesced_ratio``) and
    #: that directory changes only in benchmark PRs.
    events_coalesced: int = 0
    #: Cancelled events removed by batched heap compaction.
    events_compacted: int = 0
    #: CPU jobs that queued behind busy cores and completed through the
    #: resource's intrusive FIFO (back-to-back completions).
    cpu_jobs_coalesced: int = 0
    #: Commit-certificate verifications answered from the per-instance memo.
    certificate_cache_hits: int = 0
    #: VERIFY-message signature checks answered from the per-instance memo
    #: (duplicate deliveries and verify-flooding re-sends).
    verify_signature_cache_hits: int = 0
    #: Batches executed by the compiled kernel (``repro._ckernel``) rather
    #: than the pure-Python ``execute_batch`` loop.
    ckernel_batches_executed: int = 0
    #: Transactions assembled by the compiled kernel's YCSB generator.
    ckernel_txns_generated: int = 0

    def reset(self) -> None:
        """Zero every counter (e.g. between benchmark iterations)."""
        for field in fields(self):
            setattr(self, field.name, 0)

    def snapshot(self) -> dict:
        """Counter values as a plain dict (stable field order)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def delta_since(self, baseline: Mapping[str, int]) -> dict:
        """Counter increments since a :meth:`snapshot` baseline.

        The per-run discipline for the process-global :data:`PERF` object:
        snapshot at run start, delta at collect, so back-to-back runs and
        warm pool workers report their own work instead of process-lifetime
        totals.  Counters absent from the baseline count from zero.
        """
        return {
            field.name: getattr(self, field.name) - baseline.get(field.name, 0)
            for field in fields(self)
        }


#: The process-global counter set used by the hot paths.
PERF = PerfCounters()
