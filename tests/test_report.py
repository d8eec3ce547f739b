"""Tests for the replicate-aggregation and EXPERIMENTS.md rendering layer.

The load-bearing guarantees (ISSUE 4 acceptance criteria):

* percentiles are **never averaged** across seeds — the renderer reports
  the per-seed spread, and the pooled-percentile helper demonstrates why
  the mean of per-seed p99s is the wrong statistic;
* rendering the same store twice produces byte-identical documents;
* rendering is purely a store read — no simulation can be triggered.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.report import (
    aggregate_records,
    latency_stats,
    load_store_points,
    markdown_table,
    metric_stats,
    pooled_mean,
    pooled_percentile,
    render_markdown,
)
from repro.report.cli import main as report_cli
from repro.store import JsonlBackend


def fake_result(throughput=100.0, committed=100, aborted=0, count=50,
                mean=0.05, p50=0.05, p95=0.08, p99=0.09,
                minimum=0.01, maximum=0.1):
    return {
        "throughput_txn_per_sec": throughput,
        "committed_txns": committed,
        "aborted_txns": aborted,
        "latency": {
            "count": count, "mean": mean, "p50": p50, "p95": p95,
            "p99": p99, "minimum": minimum, "maximum": maximum,
        },
    }


def fake_record(digest, sweep="unit", labels=None, system="serverless_bft",
                scenario="baseline", **result_kwargs):
    return {
        "digest": digest,
        "sweep": sweep,
        "labels": dict(labels or {}),
        "point": {"system": system, "scenario": scenario},
        "result": fake_result(**result_kwargs),
    }


# ------------------------------------------------------------------ statistics


def test_metric_stats_mean_and_sample_std():
    stats = metric_stats([10.0, 14.0])
    assert stats.n == 2 and stats.mean == 12.0
    assert stats.std == pytest.approx(2.0 ** 0.5 * 2.0)  # ddof=1
    assert (stats.minimum, stats.maximum) == (10.0, 14.0)
    single = metric_stats([7.0])
    assert single.std == 0.0 and single.mean == 7.0


def test_latency_mean_is_pooled_not_averaged():
    # Seed A: 10 samples at mean 0.1; seed B: 90 samples at mean 0.2.
    # The pooled mean is 0.19 — an unweighted average would claim 0.15.
    stats = latency_stats([
        {"count": 10, "mean": 0.1, "p50": 0.1, "p95": 0.1, "p99": 0.1,
         "minimum": 0.1, "maximum": 0.1},
        {"count": 90, "mean": 0.2, "p50": 0.2, "p95": 0.2, "p99": 0.2,
         "minimum": 0.2, "maximum": 0.2},
    ])
    assert stats.mean == pytest.approx(0.19)
    assert stats.mean != pytest.approx(0.15)
    assert stats.samples == 100 and stats.seeds == 2
    assert pooled_mean([10, 90], [0.1, 0.2]) == pytest.approx(0.19)


def test_percentiles_are_spreads_never_averages():
    """The mean-of-percentiles bug must be impossible to reintroduce.

    Per-seed p99s of 0.1 and 0.5: the aggregate must carry the envelope
    (0.1, 0.5) — there is no field anywhere in which the misleading 0.3
    average could even be stored.
    """
    stats = latency_stats([
        {"count": 100, "mean": 0.05, "p50": 0.04, "p95": 0.08, "p99": 0.1,
         "minimum": 0.01, "maximum": 0.12},
        {"count": 100, "mean": 0.06, "p50": 0.05, "p95": 0.2, "p99": 0.5,
         "minimum": 0.01, "maximum": 0.6},
    ])
    p99 = stats.spreads[-1]
    assert p99.name == "p99" and (p99.low, p99.high) == (0.1, 0.5)
    # Exact pooled extrema.
    assert stats.minimum == 0.01 and stats.maximum == 0.6
    # LatencyStats has no averaged-percentile field at all.
    assert not any("p99" in field and "mean" in field
                   for field in type(stats).__dataclass_fields__)


def test_pooled_percentile_differs_from_mean_of_percentiles():
    # One well-behaved seed, one heavy-tailed seed.  The p99 of the pooled
    # distribution sits near the tail seed's p99; the mean of per-seed p99s
    # splits the difference and understates the tail.
    calm = [0.01] * 99 + [0.02]
    spiky = [0.01] * 50 + [1.0] * 50
    from repro.sim.stats import _percentile

    per_seed_p99 = [_percentile(sorted(seed), 0.99) for seed in (calm, spiky)]
    mean_of_p99 = sum(per_seed_p99) / 2
    pooled = pooled_percentile([calm, spiky], 0.99)
    assert pooled == pytest.approx(1.0)
    assert mean_of_p99 == pytest.approx(0.51, abs=0.01)
    assert pooled > mean_of_p99 * 1.9


def test_pooled_percentile_of_one_seed_matches_recorder_summary():
    from repro.sim.stats import LatencyRecorder

    recorder = LatencyRecorder()
    samples = [0.001 * index for index in range(1, 200)]
    for sample in samples:
        recorder.record_value(sample)
    summary = recorder.summary()
    assert pooled_percentile([samples], 0.99) == pytest.approx(summary.p99)
    assert pooled_percentile([samples], 0.50) == pytest.approx(summary.p50)


# ------------------------------------------------------------------ grouping


def test_aggregate_groups_replicates_and_strips_the_label():
    records = [
        fake_record("d0", labels={"batch_size": 5, "replicate": 0}, throughput=100.0),
        fake_record("d1", labels={"batch_size": 5, "replicate": 1}, throughput=120.0),
        fake_record("d2", labels={"batch_size": 25}, throughput=300.0),
    ]
    points = aggregate_records(records)
    assert len(points) == 2
    replicated = points[0]
    assert replicated.labels == (("batch_size", 5),)
    assert replicated.replicates == 2
    assert replicated.digests == ("d0", "d1")
    assert replicated.metrics["throughput_txn_s"].mean == pytest.approx(110.0)
    single = points[1]
    assert single.replicates == 1
    assert single.metrics["throughput_txn_s"].std == 0.0


def test_aggregate_orders_by_content_not_insertion():
    # Completion-order stores (parallel sweeps) must render identically to
    # serial ones: 25 arrives first here but sorts after 5 numerically.
    records = [
        fake_record("d-b", labels={"batch_size": 25}),
        fake_record("d-a", labels={"batch_size": 5}),
    ]
    points = aggregate_records(records)
    assert [point.label("batch_size") for point in points] == [5, 25]


def test_aggregate_never_pools_different_configs_with_same_labels():
    """Regression: a replicate family is (labels AND resolved config minus
    seeds).  Two ad-hoc runs with different knobs but identical (empty)
    labels must render as two rows, not one bogus 2-seed average."""
    records = [
        dict(fake_record("d0", sweep="api-run", throughput=100.0),
             point={"system": "serverless_bft", "scenario": "baseline",
                    "config": {"batch_size": 5, "seed": 1},
                    "workload": {"seed": 2}}),
        dict(fake_record("d1", sweep="api-run", throughput=900.0),
             point={"system": "serverless_bft", "scenario": "baseline",
                    "config": {"batch_size": 25, "seed": 1},
                    "workload": {"seed": 2}}),
    ]
    points = aggregate_records(records)
    assert len(points) == 2
    assert all(point.replicates == 1 for point in points)
    # True replicates — same config, different materialised seeds — still pool.
    replicates = [
        dict(fake_record(f"r{i}", sweep="api-run",
                         labels={"replicate": i}, throughput=100.0 + i),
             point={"system": "serverless_bft", "scenario": "baseline",
                    "config": {"batch_size": 5, "seed": 10 + i},
                    "workload": {"seed": 20 + i}})
        for i in range(2)
    ]
    assert len(aggregate_records(replicates)) == 1


def test_aggregate_separates_systems_with_identical_labels():
    records = [
        fake_record("d0", labels={"clients": 40}, system="serverless_bft"),
        fake_record("d1", labels={"clients": 40}, system="noshim"),
    ]
    points = aggregate_records(records)
    assert len(points) == 2
    assert {point.system for point in points} == {"serverless_bft", "noshim"}


# ------------------------------------------------------------------ rendering


def _replicated_store(tmp_path):
    store = JsonlBackend(str(tmp_path / "results.jsonl"))
    for index, (throughput, p99) in enumerate(((100.0, 0.1), (120.0, 0.5))):
        record = fake_record(
            f"digest-{index}",
            labels={"batch_size": 5, "replicate": index},
            throughput=throughput,
            p99=p99,
        )
        store.put(record["digest"], {"labels": record["labels"],
                                     **{"system": "serverless_bft",
                                        "scenario": "baseline"}},
                  record["result"], sweep_name="unit")
    return store


def test_render_shows_spread_not_averaged_p99(tmp_path):
    store = _replicated_store(tmp_path)
    document = render_markdown(store)
    # The spread of the two per-seed p99s...
    assert "0.1000–0.5000" in document
    # ...and under no circumstances their average.
    assert "0.3000" not in document
    assert "mean ± std" in document  # the legend explains the error bars
    assert "never averaged" in document


def test_render_is_byte_stable_across_renders(tmp_path):
    store = _replicated_store(tmp_path)
    first = render_markdown(store)
    second = render_markdown(JsonlBackend(store.path))  # fresh load from disk
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")


def test_render_single_run_has_no_error_bars(tmp_path):
    store = JsonlBackend(str(tmp_path / "single.jsonl"))
    record = fake_record("d0", labels={"batch_size": 5}, throughput=100.0)
    store.put("d0", {"labels": record["labels"], "system": "serverless_bft",
                     "scenario": "baseline"}, record["result"], sweep_name="solo")
    document = render_markdown(store)
    data_rows = [line for line in document.splitlines()
                 if line.startswith("| 5 |")]
    assert len(data_rows) == 1
    assert "100.0" in data_rows[0] and "±" not in data_rows[0]
    assert "–" not in data_rows[0]  # no spread for a single seed either


def test_recovery_metrics_aggregate_only_when_present():
    plain = fake_record("d-plain", labels={"batch_size": 5})
    fault = fake_record("d-fault", labels={"batch_size": 25})
    fault["result"]["view_changes"] = 3
    fault["result"]["extra"] = {
        "unavailability_seconds": 1.25,
        "time_to_recovery_seconds": 0.4,
        "checkpoints_sent": 7,
    }
    points = aggregate_records([plain, fault])
    by_batch = {point.label("batch_size"): point for point in points}
    assert "unavailability_s" not in by_batch[5].metrics
    assert by_batch[25].metrics["unavailability_s"].mean == pytest.approx(1.25)
    assert by_batch[25].metrics["recovery_ttr_s"].mean == pytest.approx(0.4)
    assert by_batch[25].metrics["view_changes"].mean == pytest.approx(3.0)
    assert by_batch[25].metrics["checkpoints"].mean == pytest.approx(7.0)


def test_render_recovery_columns_only_for_fault_runs(tmp_path):
    # A store with no fault-timeline records renders exactly as before...
    plain_store = JsonlBackend(str(tmp_path / "plain.jsonl"))
    plain = fake_record("d-plain", labels={"batch_size": 5})
    plain_store.put("d-plain", {"labels": plain["labels"],
                                "system": "serverless_bft",
                                "scenario": "baseline"},
                    plain["result"], sweep_name="chaos")
    assert "unavailability_s" not in render_markdown(plain_store)
    # ...while a fault run adds the watchdog columns, and rows without the
    # metrics render empty cells.
    store = JsonlBackend(str(tmp_path / "chaos.jsonl"))
    store.put("d-plain", {"labels": plain["labels"],
                          "system": "serverless_bft",
                          "scenario": "baseline"},
              plain["result"], sweep_name="chaos")
    fault = fake_record("d-fault", labels={"batch_size": 25})
    fault["result"]["extra"] = {
        "unavailability_seconds": 1.25,
        "time_to_recovery_seconds": 0.4,
        "checkpoints_sent": 7,
    }
    store.put("d-fault", {"labels": fault["labels"],
                          "system": "serverless_bft",
                          "scenario": "primary-crash"},
              fault["result"], sweep_name="chaos")
    document = render_markdown(store)
    assert "unavailability_s" in document and "recovery_ttr_s" in document
    fault_rows = [line for line in document.splitlines() if line.startswith("| 25 |")]
    assert len(fault_rows) == 1 and "1.250" in fault_rows[0]
    plain_rows = [line for line in document.splitlines() if line.startswith("| 5 |")]
    assert len(plain_rows) == 1 and "|  |" in plain_rows[0]


def test_markdown_table_renders_experiment_table():
    from repro.report.tables import ExperimentTable

    table = ExperimentTable(name="demo", columns=("a", "b"))
    table.add(a="x", b=1.5)
    table.add(a="y", b=2.0)
    table.add(a="z", b=None)
    rendered = markdown_table(table)
    assert rendered.startswith("| a | b |")
    assert "| x | 1.500 |" in rendered and "| y | 2.000 |" in rendered
    assert "| z |  |" in rendered  # a missing metric is a blank cell


def test_model_preset_tables_cover_the_figures():
    from repro.perfmodel import evaluate_sweep
    from repro.report.cli import _model_preset_sections
    from repro.sweep import build_sweep, figure_names

    assert {"fig5-clients", "fig7-baselines", "fig8-offloading",
            "ablation-spawning"} <= set(figure_names())
    assert len(evaluate_sweep(build_sweep("fig5-clients", base="paper"))) > 0
    with pytest.raises(ConfigurationError):
        build_sweep("fig99-imaginary", base="paper")
    with pytest.raises(ConfigurationError):
        build_sweep("smoke", base="paper")  # a drill has no paper grid
    # The section renderer the report CLI embeds: one heading per figure.
    fragment = _model_preset_sections()
    assert [line[3:] for line in fragment.splitlines() if line.startswith("## ")] \
        == figure_names()
    assert "| shim_nodes | num_clients |" in fragment
    assert fragment == _model_preset_sections()  # byte-stable


# ------------------------------------------------------------------ CLI


def test_report_cli_renders_and_fail_empty(tmp_path, capsys):
    store = _replicated_store(tmp_path)
    output = tmp_path / "EXPERIMENTS.md"
    assert report_cli(["--store", store.path, "--output", str(output),
                       "--fail-empty"]) == 0
    document = output.read_text()
    assert "## unit" in document and "0.1000–0.5000" in document

    empty = str(tmp_path / "empty.jsonl")
    open(empty, "w").close()
    assert report_cli(["--store", empty, "--fail-empty"]) == 4
    assert "no " in capsys.readouterr().err


def test_fail_empty_not_masked_by_model_presets_or_bad_filter(tmp_path, capsys):
    """--fail-empty judges the measured tables: the always-populated model
    presets (and a --sweep filter matching nothing) must not mask an empty
    store render."""
    empty = str(tmp_path / "empty.jsonl")
    open(empty, "w").close()
    assert report_cli(["--store", empty, "--fail-empty", "--model-presets"]) == 4
    capsys.readouterr()

    store = _replicated_store(tmp_path)
    assert report_cli(["--store", store.path, "--fail-empty",
                       "--sweep", "no-such-sweep"]) == 4
    assert "--sweep filter" in capsys.readouterr().err


def test_sweep_cli_report_alias(tmp_path, capsys):
    from repro.sweep.cli import main as sweep_cli

    store = _replicated_store(tmp_path)
    assert sweep_cli(["report", "--store", store.path, "--fail-empty"]) == 0
    assert "## unit" in capsys.readouterr().out


def test_replicated_run_to_report_cycle(tmp_path, capsys):
    """The CI report-smoke flow: replicated sweep -> cached re-run -> render."""
    from repro.sweep.cli import main as sweep_cli

    store = str(tmp_path / "cycle.jsonl")
    run_args = ["run", "smoke", "--duration", "0.3", "--warmup", "0.05",
                "--replicates", "2", "--store", store, "--quiet"]
    assert sweep_cli(run_args) == 0
    assert "simulated=8 cached=0 failed=0" in capsys.readouterr().out
    assert sweep_cli(run_args + ["--expect-all-cached"]) == 0
    capsys.readouterr()

    output = tmp_path / "EXPERIMENTS.md"
    assert report_cli(["--store", store, "--output", str(output),
                       "--fail-empty"]) == 0
    document = output.read_text()
    assert "## smoke" in document
    # 4 grid points aggregated from 8 stored runs, 2 seeds each.
    assert "8 stored run(s)" in document and "4 aggregated point(s)" in document
    assert document.count("| 2 |") >= 4  # the seeds column


def test_report_never_simulates(tmp_path, monkeypatch):
    """Rendering must be a pure store read: block every construction path."""
    import repro.api.facade as facade

    def explode(*_args, **_kwargs):
        raise AssertionError("report rendering tried to build a deployment")

    monkeypatch.setattr(facade, "build_deployment", explode)
    monkeypatch.setattr(facade, "run", explode)
    store = _replicated_store(tmp_path)
    document = render_markdown(JsonlBackend(store.path))
    assert "## unit" in document
