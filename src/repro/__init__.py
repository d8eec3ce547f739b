"""ServerlessBFT: reliable transactions in a serverless-edge architecture.

This package is a from-scratch Python reproduction of the ICDE 2023 paper
"Reliable Transactions in Serverless-Edge Architecture" (ServerlessBFT).
It contains the protocol itself (``repro.core``), every substrate the paper
depends on (discrete-event simulation, network, cryptography, storage,
serverless cloud, YCSB workloads), the baselines used in the evaluation,
and one preset per figure of the paper's evaluation (simulated at a
scaled-down grid, modelled at the paper's).

Typical entry points:

* :mod:`repro.api` — the front door: ``run(RunSpec(...))`` builds and runs
  any registered system with composed scenarios and dotted-key overrides.
* :class:`repro.core.config.ProtocolConfig` — configure a deployment.
* :mod:`repro.sweep.presets` — the paper's figures by name
  (``python -m repro.sweep run fig6-batching``; :mod:`repro.perfmodel`
  answers their paper-scale grids).
"""

from repro.core.config import ProtocolConfig
from repro.core.runner import SimulationResult
from repro.workload.ycsb import YCSBConfig, YCSBWorkload

__all__ = [
    "ProtocolConfig",
    "RunSpec",
    "SimulationResult",
    "YCSBConfig",
    "YCSBWorkload",
    "__version__",
    "run",
]


def __getattr__(name: str):
    # Lazy so that ``import repro`` stays light; the facade pulls in the
    # sweep/scenario layers.
    if name in ("RunSpec", "run"):
        from repro.api import RunSpec, run

        return {"RunSpec": RunSpec, "run": run}[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "1.0.0"
