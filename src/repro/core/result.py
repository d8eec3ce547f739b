"""What one run reports: :class:`SimulationResult`.

The result is data that specs, sweeps, stores and reports pass around
long after the deployment that produced it is gone, so it lives apart from
the deployments (:mod:`repro.core.runner`) and imports only the two
summaries it nests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cloud.billing import BillingReport
from repro.sim.stats import LatencySummary


@dataclass
class SimulationResult:
    """Metrics of one simulation run."""

    duration: float
    warmup: float
    committed_txns: int
    aborted_txns: int
    throughput_txn_per_sec: float
    latency: LatencySummary
    completed_requests: int
    client_retransmissions: int
    spawned_executors: int
    cloud_invocations: int
    view_changes: int
    verifier_ignored_verify: int
    verifier_replace_sent: int
    verifier_errors_sent: int
    messages_sent: int
    messages_dropped: int
    bytes_sent: int
    #: Host wall-clock seconds the run took and the resulting kernel
    #: event rate — the perf-trajectory metrics recorded by the benches.
    wall_clock_seconds: float = 0.0
    events_processed: int = 0
    billing: BillingReport = field(default_factory=BillingReport)
    cents_per_kilo_txn: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    #: Observability payload (metrics/spans/trace) of a traced run; None
    #: when observability was off.  Host-side diagnostics only: excluded
    #: from ``simulated_fingerprint`` like ``wall_clock_seconds``, so a
    #: traced and an untraced run of the same point share one digest.
    obs: Optional[Dict[str, object]] = None

    @property
    def abort_rate(self) -> float:
        total = self.committed_txns + self.aborted_txns
        return self.aborted_txns / total if total else 0.0

    @property
    def events_per_second(self) -> float:
        """Kernel events executed per wall-clock second (host speed, not simulated time)."""
        if self.wall_clock_seconds <= 0:
            return 0.0
        return self.events_processed / self.wall_clock_seconds
