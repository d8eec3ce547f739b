"""The YCSB workload's parameters, apart from its generator.

A spec, a sweep or a model names a workload by this frozen dataclass, and
none of them needs the generator (:mod:`repro.workload.ycsb`) or the kernel
it draws through: this module imports neither.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigurationError, WorkloadError


@dataclass(frozen=True)
class YCSBConfig:
    """Parameters of the YCSB-style workload."""

    num_records: int = 600_000
    operations_per_transaction: int = 4
    write_fraction: float = 0.5
    zipfian_theta: float = 0.0
    conflict_fraction: float = 0.0
    hot_keys: int = 16
    clients: Optional[int] = None  # key partitions; see follow_clients
    execution_seconds: float = 0.0
    rw_sets_known: bool = True
    seed: int = 2023

    def __post_init__(self) -> None:
        if self.num_records <= 0:
            raise WorkloadError("num_records must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError("write_fraction must be within [0, 1]")
        if not 0.0 <= self.conflict_fraction <= 1.0:
            raise WorkloadError("conflict_fraction must be within [0, 1]")
        if self.operations_per_transaction <= 0:
            raise WorkloadError("operations_per_transaction must be positive")
        if self.clients is not None and self.clients <= 0:
            raise WorkloadError("clients must be positive")
        if self.hot_keys <= 0:
            raise WorkloadError("hot_keys must be positive")


def follow_clients(workload: YCSBConfig, num_clients: int) -> YCSBConfig:
    """``workload`` with one key partition per deployment client, so a
    non-conflicting transaction stays in its client's own keys (Section VI-B).

    Every spec, deployment and model takes its workload through here.  An
    explicit ``clients`` other than ``num_clients`` raises.
    """
    if workload.clients not in (None, num_clients):
        raise ConfigurationError(
            f"workload.clients={workload.clients} differs from protocol.num_clients="
            f"{num_clients}; leave workload.clients unset"
        )
    return replace(workload, clients=num_clients)
