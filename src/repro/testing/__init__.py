"""Chaos-engineering harness: deterministic fault injection for tests.

Everything here exists to *prove* the fault-tolerance layer
(:mod:`repro.runtime.faults`) and the store server
(:mod:`repro.serve`) — inject provider faults, store I/O faults,
scoring-worker deaths and *server-side* faults (overload refusals,
SIGTERM drain, ``kill -9``) on a fixed seed, then assert the harness
heals around them with bit-identical results.
"""

from repro.testing.faults import (
    FaultPlan,
    FaultyProvider,
    FaultyStore,
    faulty_models,
    kill_pool_workers,
)
from repro.testing.servers import (
    ChaosStoreServer,
    InProcessServer,
    ServerProcess,
)

__all__ = [
    "FaultPlan",
    "FaultyProvider",
    "FaultyStore",
    "faulty_models",
    "kill_pool_workers",
    "ChaosStoreServer",
    "InProcessServer",
    "ServerProcess",
]
