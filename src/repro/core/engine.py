"""The EtaGraph engine's result record: :class:`TraversalResult`.

Procedure 1 of the paper, per traversal:

1. Topology (CSR, unmodified) is placed in Unified Memory — prefetched
   up front (``cudaMemPrefetchAsync``, the default) or migrated on demand
   ("w/o UMP") — or copied to device memory in the "w/o UM" ablation.
2. Each iteration, the active set is transformed *on the fly* into the
   virtual active set by Unified Degree Cut (``actSet2virtActSet``), then
   one thread per shadow vertex runs the traversal kernel, optionally with
   Shared Memory Prefetch.
3. On-demand page migrations overlap kernel execution (Section IV-B); the
   timeline records both activities for the Fig. 4 analysis.

The engine is *functionally exact* (labels match the CPU oracles
bit-for-bit) while all performance numbers come from the GPU model.

The traversal loop itself lives in :mod:`repro.core.session`:
:class:`~repro.core.session.EngineSession` places topology once and
serves many queries against warm residency, and a one-shot traversal
(:class:`~repro.core.api.EtaGraph`) is a session of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import EtaGraphConfig
from repro.core.stats import TraversalStats
from repro.gpu.profiler import Profiler
from repro.gpu.timeline import Timeline


@dataclass
class TraversalResult:
    """Outcome of one traversal: labels plus the full measurement record."""

    labels: np.ndarray
    source: int
    problem_name: str
    #: The paper's reported metric: H2D transfer + kernel execution (ms).
    total_ms: float
    kernel_ms: float
    transfer_ms: float
    d2h_ms: float
    stats: TraversalStats
    timeline: Timeline
    profiler: Profiler
    config: EtaGraphConfig
    device_bytes: int = 0
    um_bytes: int = 0
    oversubscribed: bool = False
    #: Topology-placement time paid during *this* call (ms).  Non-zero
    #: only for the query that triggered session setup — a one-shot
    #: ``run()`` or the first query of a fresh
    #: :class:`~repro.core.session.EngineSession`; warm queries report 0.
    setup_ms: float = 0.0
    extras: dict = field(default_factory=dict)
    #: A :class:`repro.observability.Trace` of this query when the
    #: session ran with ``telemetry=True`` (or an external tracer was
    #: attached); ``None`` otherwise.
    trace: object | None = None

    @property
    def query_ms(self) -> float:
        """This query's own execution time: ``total_ms`` minus the shared
        topology setup paid during the call."""
        return self.total_ms - self.setup_ms

    @property
    def iterations(self) -> int:
        return self.stats.num_iterations

    @property
    def visited(self) -> int:
        return self.stats.total_visited

    @property
    def gteps(self) -> float:
        """Giga-traversed-edges per second over the total (transfer +
        kernel) time — the conventional traversal throughput metric."""
        if self.total_ms <= 0:
            return 0.0
        return self.stats.total_edges_scanned / (self.total_ms * 1e-3) / 1e9

    @property
    def kernel_gteps(self) -> float:
        """GTEPS over kernel time only (what baseline papers report)."""
        if self.kernel_ms <= 0:
            return 0.0
        return self.stats.total_edges_scanned / (self.kernel_ms * 1e-3) / 1e9

    def __repr__(self) -> str:
        return (
            f"TraversalResult({self.problem_name}, src={self.source}, "
            f"{self.iterations} iters, {self.visited} visited, "
            f"{self.total_ms:.3f} ms)"
        )
