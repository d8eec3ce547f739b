"""Golden digests: refactors must not move a content address or a result.

``(spec_digest, result_digest)`` literals for the four systems on the small
drill config, plus one composed byzantine + fault-timeline run, recorded at
the commit before the ``Deployment`` base class was extracted (PR 13), the
network-fault scenarios (``GOLDEN_NETWORK_SCENARIOS``) and a point with more
clients than key partitions (``GOLDEN_CLIENT_OVERFLOW``).  They are stable
across ``PYTHONHASHSEED``, kernel variant and obs on/off; a digest that
varies with any of those is a determinism bug to report, not a literal to
re-pin.  Re-pin only for a change that *means* to alter simulated behaviour,
and say so in CHANGES.md.  A spec half alone moves when the settable spec
changes shape; the result half must not move with it.
"""

import pytest

from repro.api import RunSpec, result_digest, run, spec_digest
from tests.helpers import DRILL_OVERRIDES

OVERRIDES = {**DRILL_OVERRIDES, "protocol.crypto_backend": "fast"}

GOLDEN = {
    "serverless_bft": (
        "9cd0cdbd228298dac3823c34d7f72efce058ac85e8dd5f014172687ce4ff48dd",
        "bb783174e14413897d69566ccb4a677626a3031d3a0c99b4bcbaeb3f88ad294f",
    ),
    "serverless_cft": (
        "5780670224a134bbabb5a3c197a20649528616c8a177899a1b634d5b66a22019",
        "b9fe180d45b574c2abc26190a3ef46983b68c30f260d293630cd831352452c3f",
    ),
    "pbft_replicated": (
        "8fce9b0dca4af4994a70323705b45fe17c26223e691279dc9d5e58308f5812f6",
        "7ce96b330bdd576f95a89620c9431c9f1207ee4b9d6b98f4ab152e67ca4c787e",
    ),
    "noshim": (
        "fa6a86b608c6e531bf9bf49f2c03cf488bfbe31d1b8e2430772e8422ac60d25e",
        "118ad8add16a84725a8a55ec67b5e732163facd68041518577c03fe7d42b48bd",
    ),
}

GOLDEN_BYZANTINE_TIMELINE = (
    "654ed77b2a882ea382ac42c77bec6e41a2e41f1064ddc1e5688535f6901d53a3",
    "df17cd1d706792da0769d205a93647c7847d803ed7837fc4650b976ae8b74a54",
)

#: The network-fault scenarios, recorded while the region outage was still a
#: ``NetworkFaultPlan`` subclass bound to the live network after construction.
GOLDEN_NETWORK_SCENARIOS = {
    ("serverless_bft", "lossy-network"): (
        "3d0dfae0b3458035e92e7ebe9d3e8909e85eb838f5244dad99a1c2d8c9f24fcf",
        "02ce0d430ebf727450dc589822935fac60a1081fde90596e94a69ae4d3ef2852",
    ),
    ("serverless_bft", "network-partition"): (
        "45fdf2c9f96e6ef61ee41f242d39fbc37e1caa61a06747d3d3190aaa0992c070",
        "881e8dec4353d95aef8e99f310e6f7cbb2d63ff1c8f69552155a2a6ea80ecf71",
    ),
    ("serverless_bft", "region-outage"): (
        "36c0438e0dade2a01bfdd68de83f185edf951b1d4c3254ba1fd084d578ec3362",
        "a3435d85cbe5fa71382e3e6bbd33d92803f6ef4aee444b9915d620ece043235c",
    ),
    ("serverless_bft", "region-outage+skewed-ycsb"): (
        "23ddffa1f638e9f91aed434381c5979ef16e3ac85387a3f015ec6c038731f362",
        "070d4e3b0cae3295838c211da5ac9a41a9cd703c52b2675af93951caacfd681b",
    ),
    ("noshim", "region-outage"): (
        "563d1d4cbcb3bb419887195b25ca7ca5ee1970a6c892d2faf2b16eda55aef165",
        "250f06f15ad3bc144f16d8afe15240bf5455e64dae9ad2a24a96984b9e234aeb",
    ),
}


#: Eight key partitions under forty clients, recorded before the generation
#: loop grew per-client-index tables: client indices 8..39 are the branch
#: the default base takes for 1 584 of its 1 600 clients.
GOLDEN_CLIENT_OVERFLOW = (
    "d0674bf2ebac134248d673ec22340a4b260ec629bae3b75456684280e3b95e1e",
    "c4129203ca5663efaa99cdde403199c3bea88787ad1fbac112ed1702cd303fe3",
)


def _spec(system: str, scenarios=(), **extra_overrides) -> RunSpec:
    return RunSpec(
        system=system,
        base="default",
        scenarios=list(scenarios),
        overrides={**OVERRIDES, **extra_overrides},
        duration=0.6,
        warmup=0.1,
        seed=11,
    )


@pytest.mark.parametrize("system", sorted(GOLDEN))
def test_system_digests_match_golden(system):
    spec = _spec(system)
    assert (spec_digest(spec), result_digest(run(spec))) == GOLDEN[system]


def test_byzantine_executors_with_fault_timeline_matches_golden():
    spec = _spec(
        "serverless_bft",
        scenarios=["byzantine-executors"],
        **{"protocol.fault_timeline": "crash:primary@0.2; recover:primary@0.4"},
    )
    assert (spec_digest(spec), result_digest(run(spec))) == GOLDEN_BYZANTINE_TIMELINE


@pytest.mark.parametrize(
    "system, scenarios",
    sorted(GOLDEN_NETWORK_SCENARIOS),
    ids=[f"{system}-{scenarios}" for system, scenarios in sorted(GOLDEN_NETWORK_SCENARIOS)],
)
def test_network_scenario_digests_match_golden(system, scenarios):
    spec = _spec(system, scenarios=scenarios.split("+"))
    expected = GOLDEN_NETWORK_SCENARIOS[system, scenarios]
    assert (spec_digest(spec), result_digest(run(spec))) == expected


def test_client_index_overflow_matches_golden():
    spec = _spec("serverless_bft", **{"workload.clients": 8})
    assert (spec_digest(spec), result_digest(run(spec))) == GOLDEN_CLIENT_OVERFLOW
