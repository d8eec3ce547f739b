"""Unit tests for the regions, serverless cloud, and billing substrates."""

import pytest

from repro.cloud.billing import BillingReport, CostModel, LambdaPricing, VmPricing
from repro.cloud.lambda_cloud import ServerlessCloud, SpawnRequest
from repro.cloud.regions import DEFAULT_REGIONS, GeoLatencyModel, RegionCatalog, great_circle_km
from repro.errors import CloudError, ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRNG


# ------------------------------------------------------------------ regions


def test_default_catalog_has_the_papers_11_regions():
    catalog = RegionCatalog()
    assert len(catalog) == 11
    assert catalog.names[0] == "us-west-1"       # North California first
    assert "ap-southeast-1" in catalog.names     # Singapore last group


def test_first_regions_follow_paper_order():
    catalog = RegionCatalog()
    assert catalog.first(3) == ["us-west-1", "us-west-2", "us-east-2"]
    with pytest.raises(ConfigurationError):
        catalog.first(100)


def test_latency_grows_with_distance():
    catalog = RegionCatalog()
    near = catalog.one_way_latency("us-west-1", "us-west-2")
    far = catalog.one_way_latency("us-west-1", "ap-southeast-1")
    same = catalog.one_way_latency("us-west-1", "us-west-1")
    assert same < near < far
    assert far > 0.05  # Singapore is more than 50 ms away one-way


def test_nearest_ordering_from_home_region():
    catalog = RegionCatalog()
    ordered = catalog.nearest("us-west-1", ["ap-southeast-1", "us-west-2", "eu-west-2"])
    assert ordered[0] == "us-west-2"
    assert ordered[-1] == "ap-southeast-1"


def test_unknown_region_rejected():
    catalog = RegionCatalog()
    with pytest.raises(ConfigurationError):
        catalog.get("mars-north-1")


def test_great_circle_distance_sanity():
    california = DEFAULT_REGIONS[0]
    singapore = DEFAULT_REGIONS[-1]
    assert 12_000 < great_circle_km(california, singapore) < 15_000
    assert great_circle_km(california, california) == pytest.approx(0.0)


def test_geo_latency_model_includes_bandwidth():
    catalog = RegionCatalog()
    model = GeoLatencyModel(catalog, bandwidth_bytes_per_sec=1e6, jitter_fraction=0.0)
    rng = DeterministicRNG(1)
    small = model.one_way_delay("us-west-1", "us-west-2", 0, rng)
    large = model.one_way_delay("us-west-1", "us-west-2", 1_000_000, rng)
    assert large == pytest.approx(small + 1.0)


# ------------------------------------------------------------------ billing


def test_lambda_invocation_cost_components():
    pricing = LambdaPricing()
    base = pricing.invocation_cost(0.0)
    assert base == pytest.approx(pricing.price_per_request + 0.001 * pricing.price_per_gb_second)
    one_second = pricing.invocation_cost(1.0)
    assert one_second > base


def test_vm_cost_scales_with_cores_and_time():
    pricing = VmPricing()
    small = pricing.vm_cost(cores=8, memory_gb=8, duration_seconds=3600)
    large = pricing.vm_cost(cores=16, memory_gb=16, duration_seconds=3600)
    assert large == pytest.approx(2 * small)
    assert pricing.vm_cost(8, 8, 0) == 0.0


def test_cost_model_accumulates_and_reports_cents_per_ktxn():
    model = CostModel()
    model.charge_invocation("node-0", duration_seconds=0.5)
    model.charge_invocation("node-1", duration_seconds=0.5)
    model.charge_vm_fleet(machines=4, cores=16, memory_gb=16, duration_seconds=3600)
    report = model.report
    assert report.lambda_invocations == 2
    assert report.vm_cost > 0
    assert report.total_cost == pytest.approx(report.lambda_cost + report.vm_cost)
    assert set(report.per_spawner_cost) == {"node-0", "node-1"}
    assert report.cents_per_kilo_txn(10_000) > 0
    assert report.cents_per_kilo_txn(0) == 0.0
    model.reset()
    assert model.report.lambda_invocations == 0


# ------------------------------------------------------------------ serverless cloud


class _FactorySpy:
    def __init__(self):
        self.started = []

    def __call__(self, executor_id, region, spawner, payload):
        self.started.append((executor_id, region, spawner, payload))


def build_cloud(**kwargs):
    sim = Simulator()
    factory = _FactorySpy()
    cloud = ServerlessCloud(
        sim=sim,
        catalog=RegionCatalog(),
        cost_model=CostModel(),
        rng=DeterministicRNG(1),
        executor_factory=factory,
        **kwargs,
    )
    return sim, cloud, factory


def test_spawn_starts_executor_after_cold_start():
    sim, cloud, factory = build_cloud(cold_start_latency=0.2, warm_start_latency=0.01)
    handle = cloud.spawn(SpawnRequest(spawner="node-0", region="us-west-1", payload="job"))
    assert factory.started == []
    sim.run_until_idle()
    assert len(factory.started) == 1
    assert handle.start_time >= 0.2
    assert cloud.spawn_count == 1


def test_warm_start_is_faster_after_finish():
    sim, cloud, factory = build_cloud(cold_start_latency=0.2, warm_start_latency=0.01)
    first = cloud.spawn(SpawnRequest("node-0", "us-west-1", "job"))
    sim.run_until_idle()
    cloud.finish(first.executor_id)
    second = cloud.spawn(SpawnRequest("node-0", "us-west-1", "job"))
    sim.run_until_idle()
    assert second.start_time - second.spawn_time == pytest.approx(0.01, abs=1e-6)


def test_finish_bills_the_spawner_and_frees_the_slot():
    sim, cloud, factory = build_cloud()
    handle = cloud.spawn(SpawnRequest("node-3", "us-west-1", "job"))
    sim.run_until_idle()
    assert cloud.running_executors("us-west-1") == 1
    assert cloud.handles == [handle]
    cloud.finish(handle.executor_id)
    assert handle.cost > 0
    assert cloud.running_executors("us-west-1") == 0
    report = cloud.cost_model.report
    assert report.per_spawner_cost == {"node-3": handle.cost}
    # The bill is all that is kept: the invocation's record is dropped.
    assert cloud.handles == []
    # Finishing twice is a no-op: billed once, the slot freed once.
    cloud.finish(handle.executor_id)
    assert report.lambda_invocations == 1 and report.per_spawner_cost == {"node-3": handle.cost}
    assert cloud.running_executors("us-west-1") == 0


def test_issued_ids_are_recognised_without_a_record():
    sim, cloud, factory = build_cloud()
    handles = cloud.spawn_many("node-0", ["us-west-1", "us-west-2"], "job")
    assert [h.executor_id for h in handles] == ["executor-0", "executor-1"]
    sim.run_until_idle()
    for handle in handles:
        cloud.finish(handle.executor_id)
    assert cloud.issued("executor-0") and cloud.issued("executor-1")
    for never in ("executor-2", "executor-01", "executor--1", "executor-1 ", "node-0", "executor-"):
        assert not cloud.issued(never)
    with pytest.raises(CloudError):
        cloud.finish("executor-2")


def test_concurrency_limit_queues_spawns():
    sim, cloud, factory = build_cloud(concurrency_limit_per_region=1)
    first = cloud.spawn(SpawnRequest("node-0", "us-west-1", "one"))
    cloud.spawn(SpawnRequest("node-0", "us-west-1", "two"))
    sim.run_until_idle()
    assert len(factory.started) == 1  # the second waits for a slot
    cloud.finish(first.executor_id)
    sim.run_until_idle()
    assert len(factory.started) == 2


def test_executors_cannot_spawn_executors():
    sim, cloud, factory = build_cloud()
    handle = cloud.spawn(SpawnRequest("node-0", "us-west-1", "job"))
    sim.run_until_idle()
    with pytest.raises(CloudError):
        cloud.spawn(SpawnRequest(handle.executor_id, "us-west-1", "nested"))
    assert cloud.rejected_spawns == 1


def test_unknown_region_and_missing_factory_rejected():
    sim, cloud, factory = build_cloud()
    with pytest.raises(CloudError):
        cloud.spawn(SpawnRequest("node-0", "moon-base-1", "job"))
    cloud.set_executor_factory(None)
    with pytest.raises(CloudError):
        cloud.spawn(SpawnRequest("node-0", "us-west-1", "job"))
    with pytest.raises(CloudError):
        cloud.finish("executor-unknown")


def test_spawn_many_places_one_executor_per_region():
    sim, cloud, factory = build_cloud()
    handles = cloud.spawn_many("node-0", ["us-west-1", "us-west-2", "us-east-2"], "job")
    sim.run_until_idle()
    assert len(handles) == 3
    assert sorted(h.region for h in handles) == ["us-east-2", "us-west-1", "us-west-2"]
    assert len(factory.started) == 3
