"""Soak: one system at the paper's run length, checked for bounded state.

Section IX reports every configuration from 180 s runs.  This runs one
system on the drill config (40 clients, batch 10, fast crypto) for SECONDS
virtual seconds, twice, and probes its per-run protocol containers every
virtual second through the first third.  It fails unless

* the two runs have equal result digests;
* no audited container is larger at the end than its high-water over the
  first third;
* peak RSS grows over the last two thirds by no more than what still grows
  on purpose: the latency recorder's one sample per request
  (``BYTES_PER_REQUEST``) and a small residual per spawn (``BYTES_PER_SPAWN``).

The first third must span many checkpoint intervals for its high-water to
be the steady state's; a run of a few seconds fails on in-flight noise
alone.  An optional third argument names a scenario preset to compose, so
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
#: a float, its list slot, and the slot of the summary's merged copy.
BYTES_PER_REQUEST = 96


def audit(deployment) -> Dict[str, int]:
    """Sizes of the per-run protocol containers (the largest node's for per-node ones)."""
    gc.collect()
    sizes = {"batches": sum(1 for obj in gc.get_objects() if type(obj) is TransactionBatch)}

    def note(name: str, value: int) -> None:
        sizes[name] = max(sizes.get(name, 0), value)

    for node in deployment.nodes:
        replica = node.replica
        note("log_slots", replica.log.slot_count)
        note("log_commits", replica.log.retained_commits)
        for tracker in ("_prepare_quorum", "_commit_quorum", "_accepted_quorum"):
            if hasattr(replica, tracker):
                note("tracker_keys", len(getattr(replica, tracker).keys()))
        note("shim_entries", len(getattr(node, "_committed_entries", ())))
        if hasattr(node, "_planner"):
            note("planner", len(node._planner._pending))
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


def soak(system: str, seconds: float, scenario: Optional[str] = None) -> Tuple[str, List[dict]]:
    """One run: its result digest and a probe per virtual second of the first
    third, plus one at the end."""
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
    return result_digest(result), probes


def main(system: str, seconds: float, scenario: Optional[str] = None) -> int:
    (first, probes), (second, _) = soak(system, seconds, scenario), soak(system, seconds, scenario)
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
    grown = [name for name in end["sizes"] if end["sizes"][name] > early[name]]
    failures = []
    if first != second:
        failures.append("two runs of one spec disagree")
    if grown:
        failures.append(f"containers larger at the end than in the first third: {grown}")
    if growth_mb > allowed_mb:
        failures.append("run state grows with run length again")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2]), *sys.argv[3:4]))
