"""Record filtering shared by every backend's ``select`` and the store CLI.

A *where* clause is a flat mapping of dotted record paths to required
values: ``{"sweep": "smoke", "labels.batch_size": 25}`` matches records
whose ``sweep`` field equals ``"smoke"`` and whose ``labels`` dict carries
``batch_size == 25``.  Paths walk nested mappings (``point.system``,
``result.committed_txns``, ``labels.clients``); a missing segment never
matches.  Backends may push whatever subset of a clause they can into
their native query engine (sqlite pushes sweep/system/scenario columns and
``labels.*`` via JSON1), but every yielded record is re-checked with
:func:`matches`, so filtering semantics are identical across backends by
construction.
"""

from __future__ import annotations

from typing import Mapping, Optional


def resolve_record_path(record: Mapping[str, object], path: str) -> object:
    """Walk a dotted ``path`` into a record or a result dict; ``None`` when absent.

    ``"extra.unavailability_seconds"`` resolves ``result["extra"][
    "unavailability_seconds"]``.  A missing segment (or a non-mapping in the
    middle of the path) yields ``None`` rather than raising, so optional
    fields and metrics can be probed record by record.  The one dotted-path
    reader: the store's where clauses, the report's optional columns and
    the sweep runner's metric lookups all walk through here.
    """
    value: object = record
    for part in path.split("."):
        if not isinstance(value, Mapping) or part not in value:
            return None
        value = value[part]
    return value


def matches(record: Mapping[str, object], where: Optional[Mapping[str, object]]) -> bool:
    """Whether ``record`` satisfies every path=value constraint of ``where``."""
    if not where:
        return True
    for path, wanted in where.items():
        value = resolve_record_path(record, path)
        if isinstance(wanted, bool) or isinstance(value, bool):
            # JSON backends may surface bools as 0/1; compare identity-of-
            # truth explicitly so True never silently equals 1.0 one way
            # and not the other.
            if bool(value) is not bool(wanted) or (value is None) != (wanted is None):
                return False
            continue
        if value != wanted:
            return False
    return True

