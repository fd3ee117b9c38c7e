"""Public EtaGraph API.

The class-based interface::

    from repro import EtaGraph
    eta = EtaGraph(graph)                 # graph: repro.graph.CSRGraph
    result = eta.bfs(source=0)
    result.labels                          # BFS levels
    result.total_ms                        # simulated transfer + kernel time

the one-shot helpers :func:`bfs`, :func:`sssp`, :func:`sswp`, or — for
repeated queries over one graph — a topology-resident session::

    with eta.session() as session:
        for source in sources:
            session.query("bfs", source)   # topology placed once
"""

from __future__ import annotations

import numpy as np

from repro.core.config import EtaGraphConfig
from repro.core.engine import TraversalResult
from repro.core.session import EngineSession
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.graph.csr import CSRGraph


class EtaGraph:
    """User-facing handle: a graph bound to an engine configuration."""

    def __init__(
        self,
        graph: CSRGraph,
        config: EtaGraphConfig | None = None,
        device: DeviceSpec = GTX_1080TI,
    ):
        self.graph = graph
        self.config = config or EtaGraphConfig()
        self.device = device
        self._path_session: EngineSession | None = None

    def session(self) -> EngineSession:
        """A topology-resident :class:`~repro.core.session.EngineSession`:
        the first query places (and prefetches) topology, every further
        query runs against the warm residency.  The caller owns it —
        use as a context manager or call ``close()``."""
        return EngineSession(self.graph, self.config, self.device)

    def _once(self, problem: str, source: int, **kwargs) -> TraversalResult:
        """A session of one: ``total_ms`` includes the full topology
        placement (``result.setup_ms``), faithful to standalone use."""
        with self.session() as session:
            return session.query(problem, source, **kwargs)

    def bfs(self, source: int, target: int | None = None) -> TraversalResult:
        """Breadth-first search from ``source``; labels are BFS levels.

        With ``target``, the traversal exits early once the target's
        level is settled (point-to-point reachability query).  Only BFS
        may exit early: its labels are final on first assignment, while
        weighted labels (SSSP/SSWP) may still improve later.
        """
        return self._once("bfs", source, target=target)

    def shortest_hop_path(self, source: int, target: int) -> list[int]:
        """A minimum-hop path ``source -> target`` (BFS + parent pointers).

        Raises :class:`repro.algorithms.paths.PathError` if unreachable.

        Path queries share one session per handle and ask it for
        parents per query, so repeated calls reuse the resident topology
        instead of re-placing it per query.
        """
        from repro.algorithms.paths import reconstruct_path

        if self._path_session is None or self._path_session.closed:
            self._path_session = self.session()
        result = self._path_session.query(
            "bfs", source, target=target, parents=True,
        )
        return reconstruct_path(result.extras["parents"], source, target)

    def sssp(self, source: int) -> TraversalResult:
        """Single-source shortest paths; requires edge weights."""
        return self._once("sssp", source)

    def sswp(self, source: int) -> TraversalResult:
        """Single-source widest paths; requires edge weights."""
        return self._once("sswp", source)

    def run(self, problem: str, source: int) -> TraversalResult:
        """Run any registered traversal problem by name."""
        return self._once(problem, source)

    def reachable_from(self, source: int) -> np.ndarray:
        """Boolean reachability mask derived from a BFS run."""
        result = self.bfs(source)
        return np.isfinite(result.labels)

    def __repr__(self) -> str:
        return f"EtaGraph({self.graph!r}, K={self.config.degree_limit})"


def bfs(
    graph: CSRGraph,
    source: int,
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
) -> TraversalResult:
    """One-shot BFS via EtaGraph."""
    return EtaGraph(graph, config, device).bfs(source)


def sssp(
    graph: CSRGraph,
    source: int,
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
) -> TraversalResult:
    """One-shot SSSP via EtaGraph."""
    return EtaGraph(graph, config, device).sssp(source)


def sswp(
    graph: CSRGraph,
    source: int,
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
) -> TraversalResult:
    """One-shot SSWP via EtaGraph."""
    return EtaGraph(graph, config, device).sswp(source)
