"""SimulationResult <-> plain-dict round-tripping.

Sweep workers run in separate processes and the result store persists
results as JSONL, so a :class:`~repro.core.result.SimulationResult` must
survive dict/JSON round trips losslessly.  ``simulated_fingerprint``
additionally strips the host-speed fields (wall-clock) so two runs of the
same point can be compared for *simulated* bit-identity regardless of how
fast the host happened to execute them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping

from repro.cloud.billing import BillingReport
from repro.core.result import SimulationResult
from repro.sim.stats import LatencySummary

# The schema tag — a fingerprint of the result layout derived from the
# dataclass fields, so stale store records register as cache misses
# instead of deserialisation crashes — now lives with the store-record
# schema it stamps (every warehouse backend shares it); re-exported here
# because this module is where result-layout code has always found it.
from repro.store.record import RESULT_SCHEMA_TAG

__all__ = [
    "HOST_SPEED_FIELDS",
    "RESULT_SCHEMA_TAG",
    "SIMULATED_RESULT_FIELDS",
    "result_from_dict",
    "result_to_dict",
    "simulated_fingerprint",
]


def result_to_dict(result: SimulationResult) -> Dict[str, object]:
    """Serialise a result (nested dataclasses included) to JSON-able types."""
    return dataclasses.asdict(result)


def result_from_dict(payload: Mapping[str, object]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict` output."""
    data = dict(payload)
    data["latency"] = LatencySummary(**data["latency"])  # type: ignore[arg-type]
    data["billing"] = BillingReport(**data["billing"])  # type: ignore[arg-type]
    return SimulationResult(**data)  # type: ignore[arg-type]


#: Result fields that depend on host speed, not on the simulated run.
#: ``obs`` joins them: the flight-recorder payload carries host-speed
#: perf-counter deltas and exists only when tracing is on, so it must never
#: contribute to a simulated fingerprint (obs on/off digests stay identical).
HOST_SPEED_FIELDS = ("wall_clock_seconds", "obs")

#: Every other :class:`SimulationResult` field — a pure function of the
#: resolved point spec, covered by ``simulated_fingerprint`` and therefore
#: by every serial-vs-pool / crypto-backend / obs-on-off A/B identity suite.
#: The DIG002 lint rule requires ``HOST_SPEED_FIELDS`` and this tuple to
#: partition the dataclass exactly, so a new result field cannot land
#: without deciding which side of the fingerprint it lives on (the bug
#: class PR 7 had to design around when attaching ``obs``).
SIMULATED_RESULT_FIELDS = (
    "duration",
    "warmup",
    "committed_txns",
    "aborted_txns",
    "throughput_txn_per_sec",
    "latency",
    "completed_requests",
    "client_retransmissions",
    "spawned_executors",
    "cloud_invocations",
    "view_changes",
    "verifier_ignored_verify",
    "verifier_replace_sent",
    "verifier_errors_sent",
    "messages_sent",
    "messages_dropped",
    "bytes_sent",
    "events_processed",
    "billing",
    "cents_per_kilo_txn",
    "extra",
)


def simulated_fingerprint(payload: Mapping[str, object]) -> Dict[str, object]:
    """The simulated-time metrics of a result dict, host-speed fields removed.

    Everything left is a pure function of the resolved point spec: two runs
    of the same point — serial or parallel, cached or fresh — must produce
    identical fingerprints (``tests/test_sweep_runner.py`` enforces this).
    """
    return {
        key: value for key, value in payload.items() if key not in HOST_SPEED_FIELDS
    }
