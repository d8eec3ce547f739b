"""Tests for the benchmark harness and per-figure experiment definitions."""

import warnings

import pytest

from repro.bench import experiments
from repro.bench.defaults import PAPER, SCALE
from repro.bench.harness import (
    DuplicateSeriesKeyWarning,
    ExperimentTable,
    format_table,
)


# ------------------------------------------------------------------ harness


def test_experiment_table_series_and_filters():
    table = ExperimentTable(name="t", columns=("system", "x", "y"))
    table.add(system="A", x=1, y=10.0)
    table.add(system="A", x=2, y=20.0)
    table.add(system="B", x=1, y=5.0)
    assert len(table) == 3
    assert table.column("x") == [1, 2, 1]
    assert table.series("x", "y", system="A") == {1: 10.0, 2: 20.0}
    assert table.series("x", "y", system="B") == {1: 5.0}


def test_series_warns_on_duplicate_keys():
    table = ExperimentTable(name="dups", columns=("system", "x", "y"))
    table.add(system="A", x=1, y=10.0)
    table.add(system="B", x=1, y=5.0)
    # Without a system filter both rows collapse onto key 1: that silently
    # dropped data before — now it must warn (last row still wins)...
    with pytest.warns(DuplicateSeriesKeyWarning, match="duplicate series key 1"):
        series = table.series("x", "y")
    assert series == {1: 5.0}
    # ...or raise in strict mode.
    with pytest.raises(ValueError, match="duplicate series key"):
        table.series("x", "y", strict=True)
    # A filter that uniquely identifies rows stays silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert table.series("x", "y", system="A") == {1: 10.0}


def test_format_table_renders_all_rows():
    table = ExperimentTable(name="demo", columns=("a", "b"))
    table.add(a="x", b=1.5)
    table.add(a="longer-value", b=2.25)
    rendered = format_table(table)
    assert "demo" in rendered
    assert "longer-value" in rendered
    assert rendered.count("\n") >= 4


def test_paper_setup_constants_match_the_paper():
    assert PAPER.medium_shim == 8
    assert PAPER.large_shim == 32
    assert PAPER.default_batch_size == 100
    assert PAPER.max_regions == 11
    assert PAPER.ycsb_records == 600_000
    assert max(PAPER.replica_sweep) == 128
    assert max(PAPER.executor_sweep) == 21
    config = PAPER.protocol_config(8)
    assert config.shim_nodes == 8 and config.batch_size == 100
    workload = PAPER.workload_config()
    assert workload.num_records == 600_000


def test_simulation_scale_runs_fast_configs():
    config = SCALE.protocol_config()
    workload = SCALE.workload_config()
    assert config.shim_nodes <= 8
    assert workload.num_records <= 10_000


# ------------------------------------------------------------------ per-figure experiments


@pytest.mark.parametrize(
    "factory,key_column",
    [
        (experiments.client_congestion, "clients"),
        (experiments.executor_scaling, "executors"),
        (experiments.batching, "batch_size"),
        (experiments.expensive_execution, "execution_s"),
        (experiments.region_distribution, "regions"),
        (experiments.computing_power, "cores"),
        (experiments.conflicting_transactions, "conflict_pct"),
    ],
)
def test_figure6_style_experiments_cover_both_shim_sizes(factory, key_column):
    table = factory()
    assert key_column in table.columns
    systems = {row["system"] for row in table.rows}
    assert systems == {"SERVBFT-8", "SERVBFT-32"}
    for row in table.rows:
        assert row["throughput_txn_s"] > 0


def test_figure5_has_all_client_counts():
    table = experiments.client_congestion()
    assert len(table) == 2 * len(PAPER.client_sweep)


def test_figure7_covers_all_systems_and_replica_counts():
    table = experiments.baseline_comparison()
    systems = {row["system"] for row in table.rows}
    assert systems == {"SERVERLESSBFT", "SERVERLESSCFT", "PBFT", "NOSHIM"}
    assert len(table) == 4 * len(PAPER.replica_sweep)


def test_figure8_covers_serverless_and_thread_variants():
    table = experiments.task_offloading()
    systems = {row["system"] for row in table.rows}
    assert systems == {"SERVBFT-32", "PBFT-1-ET", "PBFT-8-ET", "PBFT-16-ET"}
    assert all(row["cents_per_ktxn"] >= 0 for row in table.rows)


def test_spawning_ablation_matches_equation_one():
    table = experiments.spawning_policy_ablation(shim_nodes=4, executor_counts=(3, 21))
    rows = {row["executors"]: row for row in table.rows}
    assert rows[3]["decentralized_spawned"] == 4     # e = 1, n_R = 4
    assert rows[21]["decentralized_spawned"] == 28   # e = ceil(21/3) = 7, n_R = 4


def test_conflict_avoidance_ablation_rows():
    table = experiments.conflict_avoidance_ablation()
    modes = {row["mode"] for row in table.rows}
    assert modes == {"optimistic", "conflict_avoidance"}
