#!/usr/bin/env python3
"""Task-offloading economics (the Figure 8 story).

An edge application whose transactions carry a compute-intensive phase
(video analytics, ML scoring) can either execute everything on its edge
devices (classic replicated PBFT) or offload execution to serverless
executors (ServerlessBFT).  This example quantifies both options — peak
throughput and cents per thousand transactions — first with the analytical
model over the paper's full sweep and then with one measured simulation
point per system.  Both measured points are the *same* ``RunSpec`` with a
different ``system``: the registry builds whichever deployment the name
selects.

Run with:  python examples/offload_economics.py
(CI runs every example with REPRO_EXAMPLE_DURATION=0.4 as a smoke test.)
"""

from _common import example_duration

from repro.api import RunSpec, run
from repro.perfmodel import evaluate_sweep
from repro.report import markdown_table
from repro.sweep import build_sweep


def model_sweep() -> None:
    table = evaluate_sweep(build_sweep("fig8-offloading", base="paper"))
    print(markdown_table(table))


def measured_point(execution_ms: int = 100) -> None:
    duration = example_duration(2.0)

    def spec(system: str, execution_threads: int = 16) -> RunSpec:
        return RunSpec(
            system=system,
            base="default",
            overrides={
                "protocol.shim_nodes": 4,
                "protocol.num_executors": 3,
                "protocol.num_executor_regions": 3,
                "protocol.batch_size": 25,
                "protocol.num_clients": 200,
                "protocol.client_groups": 8,
                "workload.num_records": 10_000,
                "workload.execution_seconds": execution_ms / 1000.0,
            },
            execution_threads=execution_threads,
            duration=duration,
            warmup=min(0.4, duration / 5),
        )

    serverless_result = run(spec("serverless_bft"))
    edge_result = run(spec("pbft_replicated", execution_threads=1))

    print(f"\nmeasured point ({execution_ms} ms execution per batch):")
    print(
        f"  ServerlessBFT : {serverless_result.throughput_txn_per_sec:9,.0f} txn/s"
        f"   {serverless_result.cents_per_kilo_txn:8.3f} c/ktxn"
    )
    print(
        f"  PBFT (1 ET)   : {edge_result.throughput_txn_per_sec:9,.0f} txn/s"
        f"   {edge_result.cents_per_kilo_txn:8.3f} c/ktxn"
    )


def main() -> None:
    print("Task offloading: serverless-edge vs edge-only execution")
    print("=" * 70)
    model_sweep()
    measured_point()


if __name__ == "__main__":
    main()
