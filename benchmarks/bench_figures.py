"""The figures' simulated claims — every figure preset, run at its own scale.

Each of the eleven figures of :mod:`repro.sweep.presets` is simulated message
by message through ``run_sweep`` (exactly what ``python -m repro.sweep run
<figure>`` does) and the trend the paper draws from that figure is asserted
on the preset's own axis values.  The model-side claims on the paper's grids
are closed-form and live in tier-1 (``tests/test_bench_experiments.py``);
these points cost seconds each, so CI runs this file in ``report-smoke``:

    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py -q    # ~35 s
"""

from __future__ import annotations

import pytest

from repro.sweep import build_sweep, figure_names, run_sweep

METRICS = (
    ("throughput_txn_s", "throughput_txn_per_sec"),
    ("latency_s", "latency.mean"),
    ("abort_rate", "abort_rate"),
    ("cloud_invocations", "cloud_invocations"),
    ("spawned_executors", "spawned_executors"),
)


def _claim_fig5(table):
    throughput = table.series("shim_nodes", "throughput_txn_s")
    # The smaller shim sustains at least as much throughput as the larger one.
    assert throughput[4] >= 0.8 * throughput[8]


def _claim_executors(table):
    for shim in (4, 7):
        throughput = table.series("num_executors", "throughput_txn_s", shim_nodes=shim)
        invocations = table.series("num_executors", "cloud_invocations", shim_nodes=shim)
        # Every configuration makes progress; more executors cost proportionally
        # more serverless invocations (the throughput side of Section IX-B needs
        # a saturated shim — the model's claim; these points are unsaturated).
        assert min(throughput.values()) > 0
        assert invocations[7] > 1.5 * invocations[3]


def _claim_batching(table):
    for shim in (4, 7):
        throughput = table.series("batch_size", "throughput_txn_s", shim_nodes=shim)
        # Larger batches amortise consensus cost in this (unsaturated) regime.
        assert throughput[25] >= 0.8 * throughput[5]


def _claim_execution(table):
    latency = table.series("execution_seconds", "latency_s")
    # The compute phase dominates latency.
    assert latency[0.2] > latency[0.0] and latency[0.2] >= 0.2


def _claim_regions(table):
    # Spreading the executors over more regions never stops progress.
    assert min(table.column("throughput_txn_s")) > 0


def _claim_cores(table):
    throughput = table.series("shim_cores", "throughput_txn_s")
    assert throughput[16] >= throughput[2]


def _claim_conflicts(table):
    aborts = table.series("conflict_fraction", "abort_rate")
    # Conflicting transactions lead to verifier-side aborts.
    assert aborts[0.5] > aborts[0.0]


def _claim_fig7(table):
    throughput = table.series("system", "throughput_txn_s")
    # Every system makes progress, and removing consensus (NOSHIM) is at
    # least as fast as running BFT consensus at the shim.
    assert min(throughput.values()) > 0
    assert throughput["noshim"] >= 0.8 * throughput["serverless_bft"]


def _claim_fig8(table):
    kept = {}
    for system in ("serverless_bft", "pbft_replicated"):
        throughput = table.series("execution_seconds", "throughput_txn_s", system=system)
        kept[system] = throughput[0.1] / throughput[0.0]
    # A 100 ms compute phase costs the resource-bounded edge a far larger
    # share of its throughput than it costs the deployment that offloads it.
    # (The paper's absolute crossover needs the single-threaded edge, which
    # is on the figure's paper grid — the model's claim — not on this one.)
    assert kept["pbft_replicated"] < 0.5 * kept["serverless_bft"]


def _claim_spawning(table):
    spawned = table.series("spawn_policy", "spawned_executors")
    assert spawned["decentralized"] > spawned["primary"]


def _claim_conflict_avoidance(table):
    aborts = table.series("conflict_mode", "abort_rate")
    # The lock map removes (nearly) all aborts.  At the default sweep seed the
    # optimistic point is one of the runs ROADMAP item 1 describes — a
    # conflicting batch sits out the verifier's 2 s quorum timeout, so nothing
    # commits in this 2 s run (7 of seeds 1–8 commit ~4 600 at abort rate
    # ~0.32) — the ordering holds either way.
    assert aborts["conflict_avoidance"] <= aborts["optimistic"]


CLAIMS = {
    "fig5-clients": _claim_fig5,
    "fig6-executors": _claim_executors,
    "fig6-batching": _claim_batching,
    "fig6-execution": _claim_execution,
    "fig6-regions": _claim_regions,
    "fig6-cores": _claim_cores,
    "fig6-conflicts": _claim_conflicts,
    "fig7-baselines": _claim_fig7,
    "fig8-offloading": _claim_fig8,
    "ablation-spawning": _claim_spawning,
    "ablation-conflict-avoidance": _claim_conflict_avoidance,
}


@pytest.mark.parametrize("name", figure_names())
def test_simulated_figure_claim(name):
    report = run_sweep(build_sweep(name))
    assert report.failed == 0, report.summary()
    CLAIMS[name](report.table(metrics=METRICS))
