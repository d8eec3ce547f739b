"""Soak: one system at the paper's run length, checked for bounded state.

Section IX reports every configuration from 180 s runs.  This runs one
system on the drill config (40 clients, batch 10, fast crypto) for SECONDS
virtual seconds, twice, and probes its per-run protocol containers every
virtual second through the first third.  It fails unless

* the two runs have equal result digests;
* no audited container is larger at the end than its high-water over the
  first third;
* no container that holds only work in flight exceeds its bound at any
  probe (``in_flight_bounds``);
* peak RSS grows over the last two thirds by no more than what still grows
  on purpose: the latency recorder's one sample per request
  (``BYTES_PER_REQUEST``) and a small residual per spawn (``BYTES_PER_SPAWN``).

The first third must span many checkpoint intervals for its high-water to
be the steady state's; a run of a few seconds fails on in-flight noise
alone.  Live batches, the log slots that still hold one and the store's
cached reads are such noise even in a long run: they swing with the phase
of the closed loop, so a once-a-second probe need not catch their
high-water.  Each is held to an explicit bound from the config instead,
with WINDOW = ``num_clients // batch_size`` batches of requests in flight
(4 on the drill config):

* ``batches`` <= 4 * WINDOW.  A batch stays alive while it is ordered,
  executed and verified, and while a late executor of a settled sequence
  still runs or its VERIFY is on the wire (three windows), plus the
  unsettled entries a replica partitioned through a verifier notice keeps
  (a fourth).  Probed every 0.1 s over the whole run, the five serverless
  CI cases peak at 16 in the start-up burst and hold 8-12 after it (16
  with a healed partition); pbft_replicated peaks at 4.
* ``log_payloads`` <= WINDOW.  A log keeps the batch of an uncommitted
  slot only; the cases peak at 4 (pbft_replicated, ordering the whole
  window at once) and at 3 elsewhere.
* ``cached_reads`` <= 2 * the store's history window.  A cached read lives
  no longer than the history (``VersionedKVStore._MUTATION_LOG_LIMIT``), one
  per batch read within it plus racing re-reads; the cases peak at 41.

An optional third argument names a scenario preset to compose, so
a fault early in the run (``region-outage-heal`` partitions a node from
0.3 s to 0.9 s) must leave the state as bounded as a fault-free run.  CI's
``soak`` job runs serverless_bft, serverless_cft and noshim at 180 s,
pbft_replicated at 60 s, and serverless_bft and serverless_cft with
``region-outage-heal`` at 60 s (about 3 minutes on a 2-core host):

    PYTHONPATH=src python benchmarks/soak.py serverless_bft 180
    PYTHONPATH=src python benchmarks/soak.py serverless_cft 60 region-outage-heal
"""

from __future__ import annotations

import gc
import resource
import sys
from typing import Dict, List, Optional, Tuple

from repro.api import RunSpec, result_digest
from repro.api.facade import build_deployment, resolve
from repro.storage.kvstore import VersionedKVStore
from repro.workload.transactions import TransactionBatch

#: The drill config of ``tests/helpers.py`` with fast crypto.
DRILL = {
    "protocol.shim_nodes": 4,
    "protocol.num_executors": 3,
    "protocol.num_executor_regions": 3,
    "protocol.batch_size": 10,
    "protocol.num_clients": 40,
    "protocol.client_groups": 4,
    "protocol.storage_records": 2_000,
    "workload.num_records": 2_000,
    "workload.clients": 40,
    "workload.operations_per_transaction": 4,
    "workload.write_fraction": 0.5,
    "protocol.crypto_backend": "fast",
}
#: What a spawn may still leave behind: nothing of its own.  The cloud drops
#: an invocation's record when it bills it and executor keys are derived, not
#: stored (``audit`` tracks both, as ``ledger`` and ``identities``).  The
#: residual left after the request term, about 27-36 B per spawn at 180 s on
#: the drill config, is the primary's request -> sequence map (one entry per
#: request, about three spawns per request here); the allowance is about
#: twice that, since peak RSS moves in allocator arenas.
BYTES_PER_SPAWN = 64
#: The latency recorder keeps one sample per request for exact percentiles:
#: 8 B in its array, and as much again for the sorted runs while a summary
#: merges them.  pbft_replicated spawns nothing, and its 180 s soak grows
#: 18 B per request; the allowance is about twice that.
BYTES_PER_REQUEST = 40


def audit(deployment) -> Dict[str, int]:
    """Sizes of the per-run protocol containers (the largest node's for per-node ones)."""
    gc.collect()
    sizes = {"batches": sum(1 for obj in gc.get_objects() if type(obj) is TransactionBatch)}

    def note(name: str, value: int) -> None:
        sizes[name] = max(sizes.get(name, 0), value)

    for node in deployment.nodes:
        replica = node.replica
        log = replica.log
        note("log_slots", log.slot_count)
        note("log_commits", log.retained_commits)
        # A log keeps the batch of an uncommitted slot only.
        payloads = {seq for seq, slot in log._slots.items() if slot.batch is not None}
        payloads.update(seq for seq, entry in log._committed.items() if entry.batch is not None)
        note("log_payloads", len(payloads))
        for tracker in ("_prepare_quorum", "_commit_quorum", "_accepted_quorum"):
            if hasattr(replica, tracker):
                note("tracker_keys", len(getattr(replica, tracker).keys()))
        note("shim_entries", len(getattr(node, "_committed_entries", ())))
        if hasattr(node, "_planner"):
            note("planner", len(node._planner._pending))
    # The replicated baseline has no shared store: each replica owns one.
    shared = getattr(deployment, "store", None)
    stores = [shared] if shared is not None else [node.store for node in deployment.nodes]
    for store in stores:
        note("store_history", len(store._mutation_log))
        # The version map holds only rewritten keys: at most store_keys.
        note("store_keys", len(store))
        note("store_versions", len(store._versions))
        note("cached_reads", len(store._read_cache))
    verifier = getattr(deployment, "verifier", None)
    if verifier is not None:
        note("seq_state", len(verifier._seq_state))
        records = verifier._latest_requests.values()
        note("reply_records", len(records))
        note("cached_replies", sum(len(record.replies) for record in records))
        note("endpoints", len(deployment.network._endpoints))
        note("ledger", len(deployment.cloud.handles))
    note("identities", len(deployment.keystore._keypairs))
    return sizes


def in_flight_bounds(config) -> Dict[str, int]:
    """Bounds on the containers that hold only work in flight (see above)."""
    window = config.num_clients // config.batch_size
    return {
        "batches": 4 * window,
        "log_payloads": window,
        "cached_reads": 2 * VersionedKVStore._MUTATION_LOG_LIMIT,
    }


def soak(
    system: str, seconds: float, scenario: Optional[str] = None
) -> Tuple[str, List[dict], Dict[str, int]]:
    """One run: its result digest, a probe per virtual second of the first
    third plus one at the end, and its in-flight bounds."""
    spec = RunSpec(
        system=system,
        scenarios=(scenario,) if scenario else (),
        base="default",
        overrides=DRILL,
        duration=seconds,
        warmup=1.0,
        seed=1,
    )
    deployment = build_deployment(resolve(spec))
    cloud = getattr(deployment, "cloud", None)
    probes = []

    def probe() -> None:
        probes.append(
            {
                "t": deployment.sim.now,
                "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "spawns": cloud.spawn_count if cloud is not None else 0,
                "requests": sum(group.completed_requests for group in deployment.clients),
                "sizes": audit(deployment),
            }
        )

    for second in range(1, int(seconds / 3) + 1):
        deployment.sim.schedule(float(second), probe)
    result = deployment.run(duration=seconds, warmup=1.0)
    probe()
    return result_digest(result), probes, in_flight_bounds(deployment.config)


def main(system: str, seconds: float, scenario: Optional[str] = None) -> int:
    (first, probes, bounds), (second, _, _) = (
        soak(system, seconds, scenario),
        soak(system, seconds, scenario),
    )
    third, end = probes[-2], probes[-1]
    early = {name: max(p["sizes"][name] for p in probes[:-1]) for name in end["sizes"]}
    spawns = end["spawns"] - third["spawns"]
    requests = end["requests"] - third["requests"]
    growth_mb = end["peak_mb"] - third["peak_mb"]
    allowed_mb = (BYTES_PER_SPAWN * spawns + BYTES_PER_REQUEST * requests) / 2**20
    label = f"{system} + {scenario}" if scenario else system
    print(
        f"{label} {seconds:g} s: digest {first[:16]}, peak RSS {third['peak_mb']:.1f} MB at "
        f"{third['t']:g} s -> {end['peak_mb']:.1f} MB, +{growth_mb:.1f} MB over {spawns} "
        f"spawns and {requests} requests (allowed +{allowed_mb:.1f} MB)"
    )
    print(f"  first third (max): {early}")
    print(f"  end:               {end['sizes']}")
    print(f"  in-flight bounds:  {bounds}")
    grown = [name for name in early if name not in bounds and end["sizes"][name] > early[name]]
    over = sorted(
        {name for p in probes for name, bound in bounds.items() if p["sizes"][name] > bound}
    )
    failures = []
    if first != second:
        failures.append("two runs of one spec disagree")
    if grown:
        failures.append(f"containers larger at the end than in the first third: {grown}")
    if over:
        failures.append(f"in-flight containers over their bound: {over}")
    if growth_mb > allowed_mb:
        failures.append("run state grows with run length again")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2]), *sys.argv[3:4]))
