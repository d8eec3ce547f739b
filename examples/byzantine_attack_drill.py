#!/usr/bin/env python3
"""Byzantine attack drill: inject the paper's attacks and watch the recovery.

Three scenarios from Section V and VI:

1. **Request suppression** — the primary drops every client request.  Client
   timers expire, clients retransmit to the verifier, the verifier broadcasts
   ERROR/REPLACE messages, and the shim replaces the primary via view change.
2. **Fewer executors** — the primary commits requests but spawns only one
   executor, so the verifier never sees f_E + 1 matching VERIFY messages; its
   abort-detection timer blames the primary and triggers a view change.
3. **Byzantine executors** — up to f_E executors return fabricated results
   and flood the verifier with duplicates; the matching quorum filters them
   out and the storage is updated only with the honest result.

Each attack is a *scenario preset* (``request-suppression``,
``fewer-executors``, ``byzantine-executors``, ``verify-flooding``) — the
same names work in sweeps (``python -m repro.sweep run scenario-drills``),
compose with other presets (``scenarios=["request-suppression",
"skewed-ycsb"]``), and keep the run content-addressable.  A scenario is the
only way a ``RunSpec`` names faults; to inject a custom fault object,
register a scenario that builds it (``repro.api.register_scenario``).

Run with:  python examples/byzantine_attack_drill.py
(CI runs every example with REPRO_EXAMPLE_DURATION=0.4 as a smoke test.)
"""

from _common import example_duration

from repro.api import RunSpec, run

#: Small deployment with tight timeouts so recovery fits in a short run.
#: (The drill presets default to the same aggressive timers; pinning them
#: here keeps the drill reproducible even if the presets evolve.)
BASE_OVERRIDES = {
    "protocol.shim_nodes": 4,
    "protocol.num_executors": 3,
    "protocol.num_executor_regions": 3,
    "protocol.batch_size": 10,
    "protocol.num_clients": 40,
    "protocol.client_groups": 4,
    "protocol.client_timeout": 0.5,
    "protocol.node_request_timeout": 0.8,
    "protocol.verifier_quorum_timeout": 0.5,
    "protocol.retransmission_timeout": 0.5,
    "workload.num_records": 5_000,
    "workload.clients": 40,
}


def drill_spec(duration: float, *scenarios: str) -> RunSpec:
    return RunSpec(
        system="serverless_bft",
        base="default",
        overrides=BASE_OVERRIDES,
        scenarios=scenarios,
        duration=duration,
        warmup=0.0,
    )


def scenario_request_suppression() -> None:
    print("\n[1] Request suppression: byzantine primary drops every request")
    result = run(drill_spec(example_duration(6.0), "request-suppression"))
    print(f"    client retransmissions to the verifier : {result.client_retransmissions}")
    print(f"    verifier ERROR broadcasts               : {result.verifier_errors_sent}")
    print(f"    view changes installed                  : {result.view_changes}")
    print(f"    transactions committed despite attack   : {result.committed_txns}")


def scenario_fewer_executors() -> None:
    print("\n[2] Fewer executors: byzantine primary spawns only 1 of 3 executors")
    result = run(drill_spec(example_duration(6.0), "fewer-executors"))
    print(f"    REPLACE messages from the verifier      : {result.verifier_replace_sent}")
    print(f"    view changes installed                  : {result.view_changes}")
    print(f"    transactions committed despite attack   : {result.committed_txns}")


def scenario_byzantine_executors() -> None:
    print("\n[3] Byzantine executors: f_E executors fabricate results and flood")
    result = run(drill_spec(example_duration(4.0), "byzantine-executors"))
    print(f"    transactions committed                  : {result.committed_txns}")
    print(f"    transactions aborted                    : {result.aborted_txns}")
    print(f"    duplicate/ignored VERIFY messages       : {result.verifier_ignored_verify}")

    result = run(drill_spec(example_duration(4.0), "verify-flooding"))
    print(f"    with flooding executors, ignored VERIFY : {result.verifier_ignored_verify}")
    print(f"    throughput still sustained              : {result.throughput_txn_per_sec:,.0f} txn/s")


def main() -> None:
    print("ServerlessBFT byzantine attack drill")
    print("=" * 60)
    scenario_request_suppression()
    scenario_fewer_executors()
    scenario_byzantine_executors()


if __name__ == "__main__":
    main()
