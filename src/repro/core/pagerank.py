"""Delta (push-based) PageRank on the EtaGraph machinery.

Section II-C contrasts traversal with "PageRank-like algorithms" that
update every vertex each iteration.  *Delta* PageRank bridges the two:
each vertex accumulates a residual, and only vertices whose residual
exceeds a threshold push ``damping * residual / out_degree`` to their
neighbors — an active-set algorithm with EtaGraph's exact shape, except
the reduction is **additive** (atomicAdd) rather than a min/max, so it
supplies its own step instead of a :class:`TraversalProblem`.

:func:`pagerank` drives that step through an
:class:`~repro.core.session.EngineSession`, the way
:func:`repro.core.msbfs.run_wave` drives the wave's lane-mask OR: the
iteration pipeline — frontier memo, UDC transform kernel, topology
charges under the session's placement, SMP vertex kernel, overlap — is
the session's own, shared with :meth:`EngineSession.query`.  So
PageRank pays what a query over the same frontier pays, and gets the
session's shared-memory fit for SMP.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.core.config import EtaGraphConfig
from repro.core.session import EngineSession, fill_result
from repro.core.stats import TraversalStats
from repro.errors import ConfigError
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.gpu.profiler import Profiler
from repro.gpu.timeline import Timeline
from repro.graph.csr import CSRGraph

#: What the session's pipeline reads of a problem to place and cost
#: PageRank: an unweighted push, one atomicAdd per edge.
_DELTA_PUSH = SimpleNamespace(needs_weights=False, instr_per_edge=9.0)


@dataclass
class PageRankResult:
    """Ranks plus the simulated measurement record."""

    ranks: np.ndarray
    total_ms: float
    kernel_ms: float
    stats: TraversalStats
    timeline: Timeline
    profiler: Profiler | None = None
    trace: object | None = None

    @property
    def iterations(self) -> int:
        return self.stats.num_iterations

    @property
    def d2h_ms(self) -> float:
        """The residual readback after the loop (not in ``total_ms``)."""
        return self.profiler.d2h_time_ms if self.profiler is not None else 0.0

    @property
    def active_history(self) -> list[int]:
        """Active-set size at each iteration."""
        return [s.active_vertices for s in self.stats.iterations]

    def top_vertices(self, k: int = 10) -> np.ndarray:
        return np.argsort(self.ranks)[::-1][:k]


def pagerank(
    session: EngineSession,
    *,
    damping: float = 0.85,
    tolerance: float = 1e-4,
    max_iterations: int = 1000,
) -> PageRankResult:
    """Push-based delta PageRank on ``session``'s resident topology.

    ``tolerance`` is the per-vertex residual threshold below which a
    vertex stops pushing; the returned ranks satisfy the PageRank
    recurrence to within the total leftover residual.
    """
    if not 0.0 < damping < 1.0:
        raise ConfigError(f"damping must be in (0, 1), got {damping}")
    if tolerance <= 0:
        raise ConfigError(f"tolerance must be > 0, got {tolerance}")
    csr = session.csr
    n = csr.num_vertices
    if n == 0:
        raise ConfigError("empty graph")

    run = session._open(_DELTA_PUSH, "pagerank", max_iterations,
                        damping=damping)
    residual_arr = session._buffer(
        "residual", np.full(n, 1.0 - damping, dtype=np.float64)
    )
    residual = residual_arr.data
    ranks = np.zeros(n, dtype=np.float64)
    degrees = csr.out_degrees().astype(np.int64)

    def push(active, entry, iteration):
        # Settle the active residuals into the ranks, then push
        # damping * residual / degree along out-edges.  Sinks have no
        # shadows: their mass simply stops (standard delta-PR).
        src = entry.ids64
        share = damping * residual[src] / degrees[src]
        ranks[active] += residual[active]
        residual[active] = 0.0
        np.add.at(residual, entry.wide_nbr(),
                  np.repeat(share, entry.shadows.degrees))
        return len(entry.nbr), np.flatnonzero(residual > tolerance), 0, False

    session._traverse(
        run, _DELTA_PUSH, residual_arr, np.arange(n, dtype=np.int64), push,
        name="pagerank", label="residual",
        trace_meta={"problem": "pagerank"},
    )
    # The pipeline skips the step for a frontier of sinks alone, which
    # ends the loop with their residuals unsettled.
    left = residual > tolerance
    ranks[left] += residual[left]

    return fill_result(PageRankResult, run.measured(session), ranks=ranks)


def delta_pagerank(
    csr: CSRGraph,
    *,
    damping: float = 0.85,
    tolerance: float = 1e-4,
    max_iterations: int = 1000,
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
) -> PageRankResult:
    """:func:`pagerank` on a session of one: ``total_ms`` includes the
    full topology placement, as a one-shot
    :class:`~repro.core.api.EtaGraph` query does."""
    with EngineSession(csr, config, device) as session:
        return pagerank(session, damping=damping, tolerance=tolerance,
                        max_iterations=max_iterations)


def pagerank_reference(
    csr: CSRGraph, damping: float = 0.85, iterations: int = 200
) -> np.ndarray:
    """Dense power-iteration PageRank (unnormalized delta-PR convention:
    ranks sum to ~|V| * (1 - damping) / (1 - damping) mass pushed from a
    uniform (1 - damping) source per vertex)."""
    n = csr.num_vertices
    ranks = np.zeros(n, dtype=np.float64)
    residual = np.full(n, 1.0 - damping, dtype=np.float64)
    degrees = csr.out_degrees().astype(np.float64)
    src = csr.edge_sources().astype(np.int64)
    dst = csr.column_indices.astype(np.int64)
    for _ in range(iterations):
        ranks += residual
        push = np.zeros(n, dtype=np.float64)
        rate = np.divide(residual * damping, degrees,
                         out=np.zeros(n), where=degrees > 0)
        np.add.at(push, dst, rate[src])
        residual = push
    return ranks
