#!/usr/bin/env python3
"""Quickstart: run a small ServerlessBFT deployment end to end.

One :class:`repro.api.RunSpec` declares the whole experiment — the system
(any name in the registry), dotted-key overrides for the protocol and the
workload, optional scenario presets, seed, and duration — and
``repro.api.run`` builds the full serverless-edge architecture (clients, a
4-node PBFT shim, a serverless cloud spawning 3 executors per batch in 3
regions, the trusted verifier, the on-premise storage), runs it for a few
seconds of virtual time, and returns the metrics the paper reports.

Run with:  python examples/quickstart.py
(CI runs every example with REPRO_EXAMPLE_DURATION=0.4 as a smoke test.)
"""

from _common import example_duration

from repro.api import RunSpec, run


def main() -> None:
    spec = RunSpec(
        system="serverless_bft",
        base="default",
        overrides={
            "protocol.shim_nodes": 4,           # n_R = 3 f_R + 1 with f_R = 1
            "protocol.num_executors": 3,        # n_E = 2 f_E + 1 with f_E = 1
            "protocol.num_executor_regions": 3,
            "protocol.batch_size": 50,
            "protocol.num_clients": 400,
            "protocol.client_groups": 8,
            "workload.num_records": 10_000,
            "workload.operations_per_transaction": 4,
            "workload.write_fraction": 0.5,
        },
        duration=example_duration(3.0),
        warmup=min(0.5, example_duration(3.0) / 4),
    )
    result = run(spec)

    print("ServerlessBFT quickstart")
    print("-" * 40)
    print(f"committed transactions : {result.committed_txns}")
    print(f"aborted transactions   : {result.aborted_txns}")
    print(f"throughput             : {result.throughput_txn_per_sec:,.0f} txn/s")
    print(f"mean latency           : {result.latency.mean * 1000:.1f} ms")
    print(f"p99 latency            : {result.latency.p99 * 1000:.1f} ms")
    print(f"executors spawned      : {result.spawned_executors}")
    print(f"view changes           : {result.view_changes}")
    print(f"lambda invocations     : {result.billing.lambda_invocations}")
    print(f"monetary cost          : {result.cents_per_kilo_txn:.3f} cents per 1k txns")


if __name__ == "__main__":
    main()
