"""Cloud regions and the geographic latency model.

The evaluation spawns executors in up to 11 AWS regions, in this order:
North California, Oregon, Ohio, Canada, Frankfurt, Ireland, London, Paris,
Stockholm, Seoul, and Singapore; the verifier, shim, and clients run in
North California (Oracle Cloud).  We model one-way latency between regions
as speed-of-light-in-fibre propagation over the great-circle distance plus a
fixed per-hop overhead and jitter — this reproduces the realistic ordering
of inter-region latencies (nearby North-American/European regions respond
first, Seoul/Singapore last), which is what drives Figure 6(vii–viii).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.sim.network import LatencyModel
from repro.sim.rng import DeterministicRNG


@dataclass(frozen=True)
class Region:
    """A cloud region with its geographic coordinates."""

    name: str
    latitude: float
    longitude: float
    provider: str = "aws"


#: The 11 regions used by the paper, in the paper's order.
DEFAULT_REGIONS: List[Region] = [
    Region("us-west-1", 37.35, -121.96, "aws"),      # North California
    Region("us-west-2", 45.52, -122.68, "aws"),      # Oregon
    Region("us-east-2", 40.00, -83.00, "aws"),       # Ohio
    Region("ca-central-1", 45.50, -73.57, "aws"),    # Canada (Montreal)
    Region("eu-central-1", 50.11, 8.68, "aws"),      # Frankfurt
    Region("eu-west-1", 53.33, -6.25, "aws"),        # Ireland
    Region("eu-west-2", 51.51, -0.13, "aws"),        # London
    Region("eu-west-3", 48.86, 2.35, "aws"),         # Paris
    Region("eu-north-1", 59.33, 18.07, "aws"),       # Stockholm
    Region("ap-northeast-2", 37.57, 126.98, "aws"),  # Seoul
    Region("ap-southeast-1", 1.35, 103.82, "aws"),   # Singapore
]

#: Region hosting the shim, clients, and verifier in the paper's setup.
HOME_REGION = "us-west-1"

_EARTH_RADIUS_KM = 6371.0
# Effective signal speed in fibre (~2/3 c) with a routing-indirection factor.
_FIBRE_KM_PER_SEC = 200_000.0
_ROUTE_INDIRECTION = 1.4


def great_circle_km(a: Region, b: Region) -> float:
    """Great-circle distance between two regions in kilometres."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * _EARTH_RADIUS_KM * math.asin(math.sqrt(h))


class RegionCatalog:
    """Lookup table of regions plus pairwise one-way latency estimates."""

    def __init__(self, regions: Sequence[Region] = DEFAULT_REGIONS) -> None:
        if not regions:
            raise ConfigurationError("a region catalog needs at least one region")
        self._regions: Dict[str, Region] = {region.name: region for region in regions}
        self._order = [region.name for region in regions]
        self._latency_cache: Dict[tuple, float] = {}

    @property
    def names(self) -> List[str]:
        return list(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def __len__(self) -> int:
        return len(self._regions)

    def get(self, name: str) -> Region:
        try:
            return self._regions[name]
        except KeyError:
            raise ConfigurationError(f"unknown region {name!r}")

    def first(self, count: int) -> List[str]:
        """The first ``count`` regions in the paper's ordering."""
        if count > len(self._order):
            raise ConfigurationError(
                f"requested {count} regions but only {len(self._order)} are defined"
            )
        return self._order[:count]

    def one_way_latency(self, src: str, dst: str) -> float:
        """Median one-way latency (seconds) between two regions."""
        key = (src, dst)
        latency = self._latency_cache.get(key)
        if latency is None:
            if src == dst:
                latency = 0.0005
            else:
                distance = great_circle_km(self.get(src), self.get(dst))
                latency = 0.002 + (distance * _ROUTE_INDIRECTION) / _FIBRE_KM_PER_SEC
            self._latency_cache[key] = latency
        return latency

    def nearest(self, origin: str, candidates: Sequence[str]) -> List[str]:
        """Candidates sorted by latency from ``origin`` (closest first)."""
        return sorted(candidates, key=lambda name: self.one_way_latency(origin, name))


class GeoLatencyModel(LatencyModel):
    """Latency model combining the region catalog with bandwidth and jitter."""

    def __init__(
        self,
        catalog: RegionCatalog,
        bandwidth_bytes_per_sec: float = 1.25e9,
        jitter_fraction: float = 0.05,
    ) -> None:
        self._catalog = catalog
        self._bandwidth = bandwidth_bytes_per_sec
        self._jitter_fraction = jitter_fraction

    @property
    def catalog(self) -> RegionCatalog:
        return self._catalog

    def one_way_delay(
        self,
        src_region: str,
        dst_region: str,
        size_bytes: int,
        rng: DeterministicRNG,
    ) -> float:
        return self.bind(rng)(src_region, dst_region, size_bytes)

    def bind(self, rng: DeterministicRNG) -> Callable[[str, str, int], float]:
        """Delay function over a per-region-pair table of ``(base, jitter span)``."""
        one_way_latency = self._catalog.one_way_latency
        bandwidth = self._bandwidth
        jitter_fraction = self._jitter_fraction
        random = rng.random
        pairs: Dict[tuple, tuple] = {}

        def delay(src_region: str, dst_region: str, size_bytes: int) -> float:
            pair = (src_region, dst_region)
            try:
                base, span = pairs[pair]
            except KeyError:
                base = one_way_latency(src_region, dst_region)
                span = base * jitter_fraction
                pairs[pair] = base, span
            if jitter_fraction > 0:
                # Bit-exact inline of rng.uniform(0.0, span): uniform computes
                # ``0.0 + (span - 0.0) * random()`` == ``span * random()``,
                # one stdlib frame cheaper per message.
                base += span * random()
            if bandwidth > 0 and size_bytes > 0:
                base += size_bytes / bandwidth
            return base

        return delay
