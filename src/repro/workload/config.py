"""The YCSB workload's parameters, apart from its generator.

A spec, a sweep or a model names a workload by this frozen dataclass, and
none of them needs the generator (:mod:`repro.workload.ycsb`) or the kernel
it draws through: this module imports neither.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError


@dataclass(frozen=True)
class YCSBConfig:
    """Parameters of the YCSB-style workload."""

    num_records: int = 600_000
    operations_per_transaction: int = 4
    write_fraction: float = 0.5
    zipfian_theta: float = 0.0
    conflict_fraction: float = 0.0
    hot_keys: int = 16
    clients: int = 16
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
        if self.clients <= 0:
            raise WorkloadError("clients must be positive")
        if self.hot_keys <= 0:
            raise WorkloadError("hot_keys must be positive")
