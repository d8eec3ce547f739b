"""Safety and liveness checks over finished runs, by invariant.

Nothing here pins a digest or a count: a later legitimate behaviour change
shows up in the ``sim_*`` metrics, not as a wedged check.  Every function
returns a list of violation strings (empty = holds) and reads the program
through public accessors only, the way CI's chaos job does.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

#: A healthy replica retains at most this many checkpoint intervals of slots
#: past its stable watermark (CI's rolling-restart check uses 8; the runs
#: here keep up to 16 batches in flight, well inside 4 intervals).
RETAINED_INTERVALS = 4

#: A fault-free closed loop keeps every client busy: by Little's law
#: finished txn/s x mean latency / clients is 1.  Below this the run spent
#: part of its window stalled (the verifier's 2 s quorum timeout, README).
MIN_OCCUPANCY = 0.9


def closed_loop_occupancy(result, clients: int) -> float:
    """Share of the measurement window the closed-loop clients were busy."""
    window = result.duration - result.warmup
    finished = result.committed_txns + result.aborted_txns
    return finished / window * result.latency.mean / clients


def safety_violations(deployment, checkpoint_interval: int) -> List[str]:
    """Safety invariants of one finished deployment (serverless shim)."""
    violations: List[str] = []

    # No sequence number carries two digests on any two replicas, through
    # crashes, recoveries, partitions and view changes.
    digests: Dict[int, str] = {}
    logs = [node.replica.log for node in deployment.nodes]
    for node, log in zip(deployment.nodes, logs):
        for entry in log.committed_entries():
            seen = digests.setdefault(entry.seq, entry.digest)
            if seen != entry.digest:
                violations.append(
                    f"safety: seq {entry.seq} committed as {seen[:16]} and as "
                    f"{entry.digest[:16]} (second copy on {node.name})"
                )

    # Bounded logs: checkpoints truncate every log; a replica may still hold
    # what it lags behind the cluster's stable point, plus a few intervals.
    cluster_stable = max(log.stable_seq for log in logs)
    for node, log in zip(deployment.nodes, logs):
        allowed = (cluster_stable - log.stable_seq) + RETAINED_INTERVALS * checkpoint_interval
        if log.slot_count > allowed:
            violations.append(
                f"bounded-log: {node.name} holds {log.slot_count} slots at stable "
                f"seq {log.stable_seq} (cluster {cluster_stable}, allowed {allowed})"
            )
    return violations


def liveness_violations(
    deployment, result, clients: int, last_heal: Optional[float] = None
) -> List[str]:
    """Did the run make progress throughout?

    Fault-free (``last_heal is None``): the closed loop stayed busy.  With
    faults: commits continue after the last fault healed, in every whole
    virtual second left of the run.
    """
    if result.committed_txns <= 0:
        return ["liveness: nothing committed inside the window"]
    if last_heal is None:
        busy = closed_loop_occupancy(result, clients)
        if busy < MIN_OCCUPANCY:
            return [f"liveness: closed-loop occupancy {busy:.3f} < {MIN_OCCUPANCY}"]
        return []
    series = deployment.throughput.per_second_series()
    return [
        f"liveness: no commit in virtual second {second}, after the last fault "
        f"healed at {last_heal:g}s"
        for second in range(math.ceil(last_heal), int(result.duration))
        if series.get(second, 0) <= 0
    ]


def addressed(record: Mapping[str, object]) -> Dict[str, object]:
    """A record's addressed fields, its result without the host-speed fields."""
    from repro.store.record import addressed_view
    from repro.sweep import simulated_fingerprint

    view = addressed_view(record)
    view["result"] = simulated_fingerprint(view["result"])
    return view


def _addressed(store) -> Dict[str, Mapping[str, object]]:
    return {record["digest"]: addressed(record) for record in store.iter_records()}


def check_store_pair(store_a, store_b, what: str) -> List[str]:
    """Two stores of the same sweep agree on every addressed field."""
    a, b = _addressed(store_a), _addressed(store_b)
    violations = [
        f"{what}: digest {digest[:16]} is in only one of the two stores"
        for digest in sorted(set(a) ^ set(b))
    ]
    for digest in sorted(set(a) & set(b)):
        if a[digest] != b[digest]:
            fields = [name for name in a[digest] if a[digest][name] != b[digest][name]]
            violations.append(
                f"{what}: digest {digest[:16]} differs in addressed field(s) {fields}"
            )
    return violations


def check_render_stable(store) -> List[str]:
    """Two renders of one store are byte-identical."""
    from repro.report import render_markdown

    first, second = render_markdown(store), render_markdown(store)
    if first != second:
        return ["render: two renders of the same store differ"]
    if "| " not in first:
        return ["render: the store rendered no table row"]
    return []
