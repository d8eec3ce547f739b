#!/usr/bin/env python3
"""UAV delivery fleet: the paper's motivating use case (Section II).

A fleet of delivery drones (UAVs) flying over a region acts as the shim:
the drones order each other's data-processing requests with PBFT, offload
the compute-intensive work (image recognition, route re-planning over the
collected video) to serverless executors spawned at the nearest cloud
regions, and the enterprise's on-premise verifier applies the results to
the delivery database.

The example contrasts two fleets:

* a small neighbourhood fleet of 4 drones, and
* a metropolitan fleet of 16 drones,

both processing transactions with a 100 ms compute phase (a small ML
inference per batch of telemetry).  Each fleet is one ``RunSpec`` — the
fleet size is the only override that changes.

Run with:  python examples/uav_delivery.py
(CI runs every example with REPRO_EXAMPLE_DURATION=0.4 as a smoke test.)
"""

from _common import example_duration

from repro.api import RunSpec, run


def run_fleet(drones: int) -> None:
    duration = example_duration(3.0)
    spec = RunSpec(
        system="serverless_bft",
        base="default",
        overrides={
            "protocol.shim_nodes": drones,
            "protocol.shim_cores": 8,             # drones carry modest compute
            "protocol.num_executors": 3,
            "protocol.num_executor_regions": 3,   # nearest cloud regions to the fleet
            "protocol.batch_size": 25,
            "protocol.num_clients": 200,          # each drone also issues client requests
            "protocol.client_groups": 8,
            "workload.num_records": 10_000,
            "workload.operations_per_transaction": 4,
            "workload.write_fraction": 0.5,
            "workload.execution_seconds": 0.1,    # on-flight ML inference, offloaded
        },
        duration=duration,
        warmup=min(0.5, duration / 4),
    )
    result = run(spec)

    print(f"fleet of {drones:2d} drones:"
          f"  throughput {result.throughput_txn_per_sec:8,.0f} txn/s"
          f"  mean latency {result.latency.mean * 1000:7.1f} ms"
          f"  executors spawned {result.spawned_executors:5d}"
          f"  cost {result.cents_per_kilo_txn:6.3f} c/ktxn")


def main() -> None:
    print("UAV delivery fleets offloading inference to the serverless cloud")
    print("-" * 78)
    for drones in (4, 16):
        run_fleet(drones)
    print()
    print("A larger fleet pays more consensus cost per request (more drones to")
    print("coordinate) but tolerates more byzantine drones: f_R = (n_R - 1) / 3.")


if __name__ == "__main__":
    main()
