"""The result-record schema shared by every warehouse backend.

One store record describes one finished point: the content address of its
resolved spec, the spec itself, the simulated result, and host-side
provenance (which sweep produced it, timing, retries).  Every backend —
JSONL file, sqlite database, sharded directory — persists exactly this
shape, so records migrate between backends losslessly and a report reads
identically from any of them.

The fields partition into two declared groups, mirroring the
``SIMULATED_RESULT_FIELDS`` / ``HOST_SPEED_FIELDS`` discipline the DIG002
lint rule enforces for :class:`~repro.core.result.SimulationResult`:

* ``ADDRESSED_RECORD_FIELDS`` — determined by the point's content address.
  ``point`` is what the digest hashes, ``digest`` is that hash, and
  ``result``/``result_schema`` are pure functions of the point (the A/B
  determinism suites are exactly the proof).  Two records for the same
  digest must agree on every addressed field; a shard merge treats a
  disagreement as a determinism violation, not a tie to break.
* ``HOST_SIDE_RECORD_FIELDS`` — provenance of the run that happened to
  produce the record (sweep name, labels, host timing, worker retries,
  observability summary).  Never part of the record's identity: a merge
  resolves host-side differences deterministically and a re-run on a
  different host may legitimately disagree here.

DIG002 checks the partition statically (every ``StoreRecord`` field must
appear in exactly one group) and ``tests/test_lint.py`` re-checks it
against ``dataclasses.fields`` at runtime.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.cloud.billing import BillingReport
from repro.core.result import SimulationResult
from repro.sim.stats import LatencySummary


def _schema_tag() -> str:
    """A short fingerprint of the result layout, derived from the dataclass
    fields themselves: any change to ``SimulationResult`` (or its nested
    latency/billing summaries) yields a new tag automatically, so stale
    store records register as cache misses instead of crashing
    ``result_from_dict`` — no manual version bump to forget."""
    names = []
    for cls in (SimulationResult, LatencySummary, BillingReport):
        names.append(cls.__name__)
        names.extend(sorted(f.name for f in dataclasses.fields(cls)))
    return hashlib.sha256("/".join(names).encode("utf-8")).hexdigest()[:12]


#: Tag stamped on every record; records carrying another tag are cache
#: misses (the point digest only covers the *input* spec, so a result-layout
#: change must invalidate old records, not crash deserialisation).
RESULT_SCHEMA_TAG = _schema_tag()


@dataclass(frozen=True)
class StoreRecord:
    """The canonical record shape — the schema anchor DIG002 checks.

    Backends trade in plain dicts (JSON round-trips are the persistence
    format), but this dataclass is the single declaration of which fields
    exist and which side of the addressed/host-side line each lives on.
    The optional-field convention: ``timing``/``obs_summary`` are omitted
    when absent and ``retries`` when zero (see :func:`make_record`).
    """

    digest: str
    point: Dict[str, object]
    result: Dict[str, object]
    result_schema: str
    sweep: str = ""
    labels: Dict[str, object] = field(default_factory=dict)
    timing: Optional[Dict[str, float]] = None
    retries: int = 0
    obs_summary: Optional[Dict[str, object]] = None


#: Fields determined by the point's content address (see module docstring).
ADDRESSED_RECORD_FIELDS = ("digest", "point", "result", "result_schema")

#: Host-side provenance: never part of the record's identity, resolved by
#: deterministic tie-break when shards disagree.
HOST_SIDE_RECORD_FIELDS = ("sweep", "labels", "timing", "retries", "obs_summary")


def make_record(
    digest: str,
    resolved_point: Mapping[str, object],
    result: Mapping[str, object],
    sweep_name: str = "",
    timing: Optional[Mapping[str, float]] = None,
    retries: int = 0,
) -> Dict[str, object]:
    """Build the record dict for one finished point (all backends share it).

    ``timing`` (optional) records the host-side setup/simulate/collect split
    of the run that produced the result; ``retries`` (recorded only when
    nonzero) counts worker deaths the point survived.  A traced result also
    gets a compact ``obs_summary`` so phase means and drop counts are
    greppable from the store alone (the full payload stays inside
    ``result["obs"]``).
    """
    record: Dict[str, object] = {
        "digest": digest,
        "sweep": sweep_name,
        "labels": resolved_point.get("labels", {}),
        "result_schema": RESULT_SCHEMA_TAG,
        "point": dict(resolved_point),
        "result": dict(result),
    }
    if timing is not None:
        record["timing"] = dict(timing)
    if retries:
        record["retries"] = int(retries)
    obs = result.get("obs")
    if isinstance(obs, Mapping):
        trace = obs.get("trace", {})
        record["obs_summary"] = {
            "spans": len(obs.get("spans", ())),
            "spans_dropped": obs.get("spans_dropped", 0),
            "trace_events": len(trace.get("events", ())),
            "trace_dropped": trace.get("dropped", 0),
            "phase_mean_seconds": {
                name: summary.get("mean")
                for name, summary in obs.get("phases", {}).items()
            },
        }
    return record


def canonical_line(record: Mapping[str, object]) -> str:
    """The record's canonical JSONL serialisation (no trailing newline).

    Key-sorted JSON — the byte form every backend appends and the total
    order shard merges sort by, so merged bytes cannot depend on which
    worker wrote what.
    """
    return json.dumps(record, sort_keys=True)


#: ``record_status`` verdicts.
STATUS_OK = "ok"
STATUS_INVALID = "invalid"
STATUS_STALE_SCHEMA = "stale-schema"


def record_status(record: object) -> str:
    """Classify a parsed record: loadable, malformed, or stale-layout.

    ``stale-schema`` records are well-formed data written by an older
    ``SimulationResult`` layout — they must count as cache *misses*, and
    (unlike torn lines) they are countable, so "why is my cache cold" is
    diagnosable from ``repro.store stat``.
    """
    if not isinstance(record, Mapping):
        return STATUS_INVALID
    if not isinstance(record.get("digest"), str) or "result" not in record:
        return STATUS_INVALID
    if record.get("result_schema") != RESULT_SCHEMA_TAG:
        return STATUS_STALE_SCHEMA
    return STATUS_OK


def addressed_view(record: Mapping[str, object]) -> Dict[str, object]:
    """The addressed-field projection used for merge-conflict detection."""
    return {name: record.get(name) for name in ADDRESSED_RECORD_FIELDS}
