"""repro.obs — the per-run recorder (flight recorder).

One :class:`~repro.obs.context.ObsContext` per traced run owns the event
log of protocol milestones, the commit-path span log
(:class:`~repro.obs.spans.SpanLog`) and the run's counters and gauges; the
runner collects them into a digest-neutral JSON payload on
``SimulationResult.obs`` that survives pool workers and the result store,
exports to schema-versioned JSONL (:mod:`repro.obs.export`), and renders
through ``python -m repro.obs`` (:mod:`repro.obs.cli`).
"""

from repro.obs.context import (
    COMMIT_PHASES,
    FAULT_PHASES,
    TRACE_CAPACITY,
    ObsContext,
    TraceEvent,
)
from repro.obs.export import (
    OBS_SCHEMA_VERSION,
    payload_to_records,
    read_jsonl,
    records_to_payload,
    validate_records,
    write_jsonl,
)
from repro.obs.spans import DEFAULT_SPAN_CAPACITY, Span, SpanLog

__all__ = [
    "COMMIT_PHASES",
    "DEFAULT_SPAN_CAPACITY",
    "FAULT_PHASES",
    "OBS_SCHEMA_VERSION",
    "ObsContext",
    "Span",
    "SpanLog",
    "TRACE_CAPACITY",
    "TraceEvent",
    "payload_to_records",
    "read_jsonl",
    "records_to_payload",
    "validate_records",
    "write_jsonl",
]
