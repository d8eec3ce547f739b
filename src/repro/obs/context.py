"""The per-run recorder.

One :class:`ObsContext` per traced deployment records everything the run is
later asked about: the bounded log of protocol milestones (consensus
started, request committed, executors spawned, transaction verified, attack
detected, view change, …) that tests and examples read back to assert
protocol-level properties without poking at component internals, the
commit-path span log, the process-global :data:`repro.perf.PERF` counters
(absorbed as a per-run snapshot/delta), and the watchdog's loose
``result.extra`` keys (mirrored as ``fault.*`` gauges).  A traced deployment
hands the context to every component; an untraced one hands them ``None``
and builds no context at all, so it pays one ``is not None`` test per
instrumentation site and nothing else.

The collected payload is attached to ``SimulationResult.obs``, which is a
*host-side* field: it is excluded from ``simulated_fingerprint`` exactly like
``wall_clock_seconds``, so observability on/off can never change a result
digest (the A/B suite in ``tests/test_obs.py`` enforces this across all
four systems).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Optional

from repro.obs.export import OBS_SCHEMA_VERSION
from repro.obs.spans import SpanLog
from repro.perf import PERF
from repro.sim.stats import LatencyRecorder

#: Bound on retained trace events per run: the first ``TRACE_CAPACITY`` are
#: kept, the rest counted (the exported header's ``trace_dropped``).
TRACE_CAPACITY = 250_000

#: Span names of the commit path, in pipeline order (used by the CLI and
#: report layer to order phase columns deterministically).
COMMIT_PHASES = ("request", "consensus", "spawn", "execute", "verify", "commit")

#: Fault-path span names (present only in runs that exercised them).
FAULT_PHASES = ("view_change", "recovery")


@dataclass(frozen=True)
class TraceEvent:
    """One recorded milestone."""

    time: float
    category: str
    actor: str
    details: Dict[str, Any] = field(default_factory=dict)


class ObsContext:
    """Owns the event log and the span log of one run and assembles its payload."""

    def __init__(self) -> None:
        self.spans = SpanLog()
        self._events: List[TraceEvent] = []
        self._dropped = 0
        self._perf_baseline: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------ event log

    @property
    def dropped(self) -> int:
        """Events discarded because the log was already at capacity."""
        return self._dropped

    def record(self, time: float, category: str, actor: str, **details: Any) -> None:
        """Append one milestone; past capacity, count it instead.

        Keep-first-N: tests read the start of a run, and a silent discard
        would make a truncated trace look complete — so the first drop
        warns, once, and every drop is counted.
        """
        if len(self._events) >= TRACE_CAPACITY:
            if self._dropped == 0:
                warnings.warn(
                    f"trace capacity {TRACE_CAPACITY} reached; further events "
                    f"are dropped (counted in ObsContext.dropped)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self._dropped += 1
            return
        self._events.append(TraceEvent(time=time, category=category, actor=actor, details=details))

    def events(self, category: Optional[str] = None, actor: Optional[str] = None) -> List[TraceEvent]:
        """Return recorded events, optionally filtered by category and actor."""
        result = self._events
        if category is not None:
            result = [event for event in result if event.category == category]
        if actor is not None:
            result = [event for event in result if event.actor == actor]
        return list(result)

    def count(self, category: str) -> int:
        return sum(1 for event in self._events if event.category == category)

    def last(self, category: str) -> Optional[TraceEvent]:
        for event in reversed(self._events):
            if event.category == category:
                return event
        return None

    # ------------------------------------------------------------------ spans

    def begin_span(self, name: str, key: Hashable, time: float, actor: str) -> None:
        self.spans.begin(name, key, time, actor)

    def end_span(self, name: str, key: Hashable, time: float) -> None:
        self.spans.end(name, key, time)

    # ------------------------------------------------------------------ perf

    def on_run_start(self) -> None:
        """Snapshot the process-global PERF counters at the start of a run.

        Per-run discipline: the payload reports the *delta* over this
        baseline, so back-to-back runs (and pool workers that reuse a warm
        process) report their own work, never process-lifetime totals.
        """
        self._perf_baseline = PERF.snapshot()

    # ------------------------------------------------------------------ collect

    def finalize(
        self, duration: float, extra: Optional[Mapping[str, float]] = None
    ) -> Dict[str, object]:
        """Assemble the run's JSON-able observability payload."""
        perf = PERF.delta_since(self._perf_baseline or {})
        counters = {f"perf.{name}": float(value) for name, value in perf.items()}
        gauges = {f"fault.{name}": float(value) for name, value in (extra or {}).items()}
        gauges["run.duration"] = float(duration)

        phases: Dict[str, Dict[str, float]] = {}
        durations = self.spans.durations_by_name()
        ordered = [name for name in COMMIT_PHASES + FAULT_PHASES if name in durations]
        ordered += sorted(name for name in durations if name not in ordered)
        for name in ordered:
            recorder = LatencyRecorder(warmup=0.0)
            for value in durations[name]:
                recorder.record_value(value)
            summary = recorder.summary()
            phases[name] = {
                "count": summary.count,
                "mean": summary.mean,
                "p50": summary.p50,
                "p95": summary.p95,
                "p99": summary.p99,
                "minimum": summary.minimum,
                "maximum": summary.maximum,
            }

        events: List[Dict[str, object]] = [
            {
                "time": event.time,
                "category": event.category,
                "actor": event.actor,
                "details": dict(event.details),
            }
            for event in self._events
        ]
        return {
            "schema": OBS_SCHEMA_VERSION,
            "metrics": {
                "counters": dict(sorted(counters.items())),
                "gauges": dict(sorted(gauges.items())),
            },
            "phases": phases,
            "spans": [span.to_dict() for span in self.spans.spans()],
            "spans_open": self.spans.open_count,
            "spans_dropped": self.spans.dropped,
            "trace": {"events": events, "dropped": self._dropped},
        }
