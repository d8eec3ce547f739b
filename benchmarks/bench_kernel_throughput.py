"""Kernel and end-to-end simulator throughput (host speed, not virtual time).

Every figure of the paper is regenerated by driving the message-level
simulator, so host-side events/sec bounds how many scenario points we can
sweep.  This bench measures:

* the raw kernel: how many schedule/dispatch cycles per second the event
  loop sustains with trivial callbacks;
* the default ``serverless_bft`` point (default :class:`ProtocolConfig`,
  3 s run / 0.5 s warm-up; its rows keep the historical ``simulate_point/*``
  labels so the baseline matches) with the real crypto backend and with the
  ``FastCryptoBackend`` — ``tests/test_perf_determinism.py`` proves both
  produce bit-identical simulated-time results.

There are deliberately no timing assertions in the measured entry point:
numbers go into the emitted table so the trajectory is tracked across PRs.
``--json PATH`` writes the same numbers (plus the per-layer PERF counter
snapshots) machine-readably; ``BENCH_kernel.json`` in the repo root is the
checked-in baseline, and ``--check BENCH_kernel.json`` re-runs the bench at
the baseline's duration and fails on a >30% events/sec regression (a
deliberately generous bound — CI runners are noisy and heterogeneous; raw
kernel dispatch is excluded from the check as a microbenchmark).  Run
standalone with::

    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py [--smoke] \
        [--json out.json] [--check BENCH_kernel.json]

Reference points (noisy shared host, default workload, wall-clock): seed
~8.7 k events/sec; PR 1 ~24-26 k events/sec (real crypto); PR 5 (second
hot-path overhaul) — see PERFORMANCE.md for the measured table.
"""

from __future__ import annotations

import json
import time

from repro import kernel
from repro.api import build_system
from repro.bench.harness import ExperimentTable, format_table
from repro.core.config import ProtocolConfig
from repro.perf import PERF
from repro.sim.engine import Simulator

#: Bump when the JSON layout changes.  Schema 2 adds ``kernel_variant`` and
#: the per-floor ``micro/*`` workloads (see PERFORMANCE.md).
JSON_SCHEMA = 2
#: Workloads compared by ``--check`` (raw kernel and the ``micro/*`` floor
#: benches are microbenchmarks and too volatile for a regression gate).
CHECKED_WORKLOADS = ("simulate_point/real", "simulate_point/fast")
DEFAULT_TOLERANCE = 0.30


def _raw_kernel_events_per_sec(total_events: int = 200_000) -> float:
    """Pure event-loop throughput: schedule + dispatch of empty callbacks."""
    sim = Simulator()
    remaining = [total_events]

    def tick() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.schedule_fast(1e-6, tick)

    fanout = 64
    for _ in range(fanout):
        sim.schedule_fast(0.0, tick)
    started = time.perf_counter()
    sim.run_until_idle()
    elapsed = time.perf_counter() - started
    return sim.events_processed / elapsed if elapsed > 0 else 0.0


def _ycsb_generation_txns_per_sec(total_txns: int = 20_000) -> "tuple[int, float]":
    """Floor 2 microbench: YCSB transaction generation, whichever kernel
    variant is active (the draws are sequence-identical either way)."""
    from repro.workload.ycsb import YCSBConfig, YCSBWorkload

    workload = YCSBWorkload(YCSBConfig(num_records=100_000, clients=8))
    generated = 0
    started = time.perf_counter()
    while generated < total_txns:
        generated += len(
            workload.next_transactions(
                500, client_index_offset=0, origin="bench", request_id="req"
            )
        )
    return generated, time.perf_counter() - started


def _execute_batch_batches_per_sec(
    batches: int = 300, batch_size: int = 32
) -> "tuple[int, float]":
    """Floor 1 microbench: deterministic batch execution over a fixed
    snapshot.  Batches are pre-generated so only ``execute_batch`` is timed;
    each batch executes once (first-touch memo behaviour included, as in a
    real run)."""
    from repro.workload.transactions import execute_batch
    from repro.workload.ycsb import YCSBConfig, YCSBWorkload

    workload = YCSBWorkload(
        YCSBConfig(num_records=50_000, clients=8, conflict_fraction=0.2)
    )
    prepared = [workload.next_batch(batch_size) for _ in range(batches)]
    read_values = {f"user{i}": f"val-{i}" for i in range(0, 50_000, 5)}
    read_versions = {f"user{i}": i % 9 for i in range(0, 50_000, 3)}
    started = time.perf_counter()
    for batch in prepared:
        execute_batch(batch, read_values, read_versions)
    return batches, time.perf_counter() - started


def kernel_throughput_report(duration: float = 3.0, warmup: float = 0.5) -> dict:
    """Measure raw kernel plus the default ``serverless_bft`` point.

    Returns the machine-readable report dict (``--json`` shape); use
    :func:`report_table` to render it as an :class:`ExperimentTable`.
    """
    report: dict = {
        "schema": JSON_SCHEMA,
        "duration": duration,
        "warmup": warmup,
        "kernel_variant": kernel.active_variant(),
        "kernel_inactive_reason": kernel.inactive_reason(),
        "workloads": {
            "raw-kernel": {
                "events": 200_000,
                "wall_clock_s": 0.0,
                "events_per_sec": _raw_kernel_events_per_sec(),
                "messages_per_sec": 0.0,
                "throughput_txn_s": 0.0,
            }
        },
    }
    # Per-floor microbenches.  Rates land in ``events_per_sec`` so the table
    # renders uniformly; the floor-specific key repeats the rate under its
    # natural unit for the JSON artifact.  Both run whichever kernel variant
    # is active — too volatile for the --check gate, recorded for the
    # PERFORMANCE.md trajectory only.
    txns, wall = _ycsb_generation_txns_per_sec()
    report["workloads"]["micro/ycsb-gen"] = {
        "events": txns,
        "wall_clock_s": wall,
        "events_per_sec": txns / wall if wall > 0 else 0.0,
        "txns_per_sec": txns / wall if wall > 0 else 0.0,
    }
    batches, wall = _execute_batch_batches_per_sec()
    report["workloads"]["micro/execute-batch"] = {
        "events": batches,
        "wall_clock_s": wall,
        "events_per_sec": batches / wall if wall > 0 else 0.0,
        "batches_per_sec": batches / wall if wall > 0 else 0.0,
    }
    for backend in ("real", "fast"):
        # Per-run delta discipline (not PERF.reset()): each backend's row
        # reports only its own counter activity, and the bench no longer
        # clobbers counters accumulated by whatever ran before it.
        perf_baseline = PERF.snapshot()
        deployment = build_system("serverless_bft", ProtocolConfig(crypto_backend=backend))
        result = deployment.run(duration=duration, warmup=warmup)
        wall = max(result.wall_clock_seconds, 1e-9)
        report["workloads"][f"simulate_point/{backend}"] = {
            "events": result.events_processed,
            "wall_clock_s": result.wall_clock_seconds,
            "events_per_sec": result.events_per_second,
            "messages_per_sec": result.messages_sent / wall,
            "throughput_txn_s": result.throughput_txn_per_sec,
            "perf_counters": PERF.delta_since(perf_baseline),
        }
    return report


def report_table(report: dict) -> ExperimentTable:
    table = ExperimentTable(
        name="kernel-throughput",
        columns=(
            "workload",
            "events",
            "wall_clock_s",
            "events_per_sec",
            "messages_per_sec",
            "throughput_txn_s",
        ),
    )
    for workload, stats in report["workloads"].items():
        table.add(
            workload=workload,
            **{key: stats[key] for key in table.columns if key in stats},
        )
    return table


def kernel_throughput_table(duration: float = 3.0, warmup: float = 0.5) -> ExperimentTable:
    return report_table(kernel_throughput_report(duration=duration, warmup=warmup))


def check_against_baseline(
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    report: dict = None,
) -> int:
    """Compare a run at the baseline's duration; fail on a big events/sec drop.

    Returns a process exit code (0 = within tolerance).  ``report`` lets a
    caller reuse an already-measured run (e.g. one that was also written
    with ``--json``); omitted, a fresh run is taken.  Only the
    ``simulate_point`` workloads gate; raw kernel numbers are printed for
    context.
    """
    if report is None:
        report = kernel_throughput_report(
            duration=float(baseline.get("duration", 3.0)),
            warmup=float(baseline.get("warmup", 0.5)),
        )
    print(format_table(report_table(report), float_format="{:,.1f}"))
    print(
        f"[check] kernel variant: {report.get('kernel_variant', 'py')} "
        f"(baseline recorded {baseline.get('kernel_variant', 'py')})"
    )
    failures = []
    for workload in CHECKED_WORKLOADS:
        reference = baseline.get("workloads", {}).get(workload)
        current = report["workloads"].get(workload)
        if not reference or not current:
            continue
        ref_rate = float(reference["events_per_sec"])
        cur_rate = float(current["events_per_sec"])
        floor = ref_rate * (1.0 - tolerance)
        status = "ok" if cur_rate >= floor else "REGRESSION"
        print(
            f"[check] {workload}: {cur_rate:,.0f} events/sec vs baseline "
            f"{ref_rate:,.0f} (floor {floor:,.0f}) — {status}"
        )
        if cur_rate < floor:
            failures.append(workload)
    if failures:
        print(f"[check] FAILED: >{tolerance:.0%} events/sec regression in {failures}")
        return 1
    print(f"[check] passed (tolerance {tolerance:.0%})")
    return 0


def test_kernel_throughput(benchmark):
    """Measured bench entry point (no timing assertions, numbers only)."""
    table = benchmark.pedantic(kernel_throughput_table, rounds=1, iterations=1)
    from conftest import emit

    emit(table)
    events_per_sec = table.column("events_per_sec")
    assert all(value > 0 for value in events_per_sec)
    # The two backends must simulate the *same* run (the determinism test
    # checks this exhaustively; this is the bench-level smoke version).
    throughput = table.series("workload", "throughput_txn_s")
    assert throughput["simulate_point/real"] == throughput["simulate_point/fast"]


if __name__ == "__main__":
    import argparse
    import os
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short run (0.5 s virtual) proving the bench executes",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the machine-readable report (events/sec, messages/sec, "
        "both crypto backends, per-layer PERF counters) to PATH",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare a fresh run against a baseline JSON and exit non-zero "
        "on a large events/sec regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", DEFAULT_TOLERANCE)),
        help="allowed fractional events/sec drop for --check (default 0.30)",
    )
    args = parser.parse_args()

    def write_json(report: dict) -> None:
        if not args.json:
            return
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[bench] wrote {args.json}")

    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        # One measured run serves both the gate and (with --json) the
        # archived artifact.
        report = kernel_throughput_report(
            duration=float(baseline.get("duration", 3.0)),
            warmup=float(baseline.get("warmup", 0.5)),
        )
        write_json(report)
        sys.exit(
            check_against_baseline(baseline, tolerance=args.tolerance, report=report)
        )
    if args.smoke:
        report = kernel_throughput_report(duration=0.5, warmup=0.1)
    else:
        report = kernel_throughput_report()
    print(format_table(report_table(report), float_format="{:,.1f}"))
    print()
    print(PERF.format())
    write_json(report)
