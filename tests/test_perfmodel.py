"""Tests for the analytical performance model and its agreement with the simulator."""

import pytest

from tests.helpers import DRILL_OVERRIDES
from repro.api import RunSpec, get_system, resolve, run
from repro.core.config import ConflictMode, ProtocolConfig
from repro.errors import ConfigurationError
from repro.perfmodel import evaluate_point
from repro.perfmodel.model import AnalyticalModel, SystemKind
from repro.workload.ycsb import YCSBConfig


def paper_config(**overrides) -> ProtocolConfig:
    params = dict(shim_nodes=8, batch_size=100, num_executors=3, num_executor_regions=3,
                  num_clients=80_000, client_groups=32)
    params.update(overrides)
    return ProtocolConfig(**params)


def paper_workload(**overrides) -> YCSBConfig:
    params = dict(num_records=600_000)
    params.update(overrides)
    return YCSBConfig(**params)


def test_breakdown_is_positive_and_names_a_bottleneck():
    model = AnalyticalModel(paper_config(), paper_workload())
    breakdown = model.breakdown()
    assert breakdown.primary_cpu_seconds > 0
    assert breakdown.replica_cpu_seconds > 0
    assert breakdown.verifier_cpu_seconds > 0
    assert breakdown.executor_seconds > 0
    assert breakdown.base_latency_seconds > 0.02
    assert breakdown.max_batches_per_second > 0
    assert breakdown.bottleneck in (
        "primary-cpu", "replica-cpu", "verifier-cpu", "executor-pool", "primary-nic",
    )


def test_throughput_saturates_with_clients():
    model = AnalyticalModel(paper_config(), paper_workload())
    low, low_latency = model.throughput_latency(1_000)
    mid, _ = model.throughput_latency(20_000)
    high, high_latency = model.throughput_latency(80_000)
    assert low < mid <= high * 1.001
    assert high_latency > low_latency
    with pytest.raises(ConfigurationError):
        model.throughput_latency(0)


def test_more_shim_nodes_reduce_throughput():
    small = AnalyticalModel(paper_config(shim_nodes=8), paper_workload())
    large = AnalyticalModel(paper_config(shim_nodes=32), paper_workload())
    assert small.throughput_latency()[0] > large.throughput_latency()[0]


def test_more_cores_increase_throughput():
    few = AnalyticalModel(paper_config(shim_cores=2), paper_workload())
    many = AnalyticalModel(paper_config(shim_cores=16), paper_workload())
    assert many.throughput_latency()[0] > few.throughput_latency()[0]


def test_more_executors_reduce_throughput():
    few = AnalyticalModel(paper_config(num_executors=3), paper_workload())
    many = AnalyticalModel(paper_config(num_executors=21, num_executor_regions=7), paper_workload())
    assert few.throughput_latency()[0] > many.throughput_latency()[0]


def test_execution_time_dominates_latency():
    heavy = AnalyticalModel(paper_config(), paper_workload(execution_seconds=8.0))
    _tput, latency = heavy.throughput_latency()
    assert latency >= 8.0


def test_system_ordering_matches_figure7():
    # Each system's pinned fields (lighter ingest, NOSHIM's one node) come
    # from its adapter, as they do for every modelled point.
    throughputs = {}
    for name in ("serverless_bft", "serverless_cft", "pbft_replicated", "noshim"):
        adapter = get_system(name)
        config = adapter.effective_config(paper_config(shim_nodes=32))
        system = SystemKind(name)
        model = AnalyticalModel(config, paper_workload(), system=system)
        throughputs[system] = model.throughput_latency()[0]
    assert set(throughputs) == set(SystemKind)
    assert throughputs[SystemKind.SERVERLESS_BFT] < throughputs[SystemKind.PBFT_REPLICATED]
    assert throughputs[SystemKind.PBFT_REPLICATED] < throughputs[SystemKind.SERVERLESS_CFT]
    assert throughputs[SystemKind.SERVERLESS_CFT] < throughputs[SystemKind.NOSHIM]


def test_conflicts_reduce_goodput_but_avoidance_recovers_it():
    optimistic = AnalyticalModel(
        paper_config(conflict_mode=ConflictMode.OPTIMISTIC),
        paper_workload(conflict_fraction=0.5, rw_sets_known=False),
    )
    avoidance = AnalyticalModel(
        paper_config(conflict_mode=ConflictMode.CONFLICT_AVOIDANCE),
        paper_workload(conflict_fraction=0.5),
    )
    clean = AnalyticalModel(paper_config(), paper_workload())
    assert optimistic.throughput_latency()[0] < clean.throughput_latency()[0]
    assert avoidance.throughput_latency()[0] > optimistic.throughput_latency()[0]


def test_offloading_cost_model():
    heavy = paper_workload(execution_seconds=1.0)
    serverless = AnalyticalModel(paper_config(shim_nodes=32), heavy)
    edge_1_thread = AnalyticalModel(
        paper_config(shim_nodes=32), heavy, system=SystemKind.PBFT_REPLICATED, execution_threads=1
    )
    assert serverless.cost_cents_per_kilo_txn() < edge_1_thread.cost_cents_per_kilo_txn()
    assert serverless.cost_cents_per_kilo_txn() > 0


def test_region_spread_leaves_throughput_roughly_constant():
    narrow = AnalyticalModel(
        paper_config(num_executors=11, num_executor_regions=5), paper_workload()
    )
    wide = AnalyticalModel(
        paper_config(num_executors=11, num_executor_regions=11), paper_workload()
    )
    narrow_tput = narrow.throughput_latency()[0]
    wide_tput = wide.throughput_latency()[0]
    assert abs(narrow_tput - wide_tput) <= 0.1 * narrow_tput


def test_calibration_simulator_and_model_agree_within_an_order_of_magnitude():
    # make_config(num_clients=200, client_groups=8, batch_size=25) and
    # make_workload(num_records=20_000) with their default seeds,
    # as one resolved point both the simulator and the model answer.
    spec = RunSpec(
        base="default",
        seed=1,
        duration=2.0,
        warmup=0.4,
        overrides={
            **DRILL_OVERRIDES,
            "protocol.num_clients": 200,
            "protocol.client_groups": 8,
            "protocol.batch_size": 25,
            "workload.num_records": 20_000,
            "workload.seed": 2023,
        },
    )
    simulated = run(spec)
    modelled = evaluate_point(resolve(spec))
    assert simulated.throughput_txn_per_sec > 0
    assert modelled["throughput_txn_per_sec"] > 0
    # The model ignores queueing jitter and batching delay, so we only require
    # agreement within an order of magnitude on this small configuration.
    assert 0.1 <= simulated.throughput_txn_per_sec / modelled["throughput_txn_per_sec"] <= 10.0
    assert 0.1 <= simulated.latency.mean / modelled["latency"]["mean"] <= 10.0
