"""Typed request/response objects of the traversal service.

The request surface is modeled on swh-graph's traversal API (visit,
neighborhood, shortest-path, stats) plus Gunrock's observation that one
frontend should expose many primitives — PageRank rides along as the
first non-traversal endpoint.  Every request is a frozen dataclass, so a
request is a value: hashable, comparable, replayable from a log line.

Common SLO fields (every request):

* ``tenant`` — the accounting identity; quotas, metrics series and span
  labels all key on it.
* ``deadline_ms`` — simulated latency budget measured from *arrival*.
  The admission queue rejects a request whose budget is already spent
  (:class:`~repro.errors.DeadlineExceededError` before any work), the
  EDF scheduler orders by the implied absolute deadline, and the
  dispatcher sheds a request whose deadline expired while it queued.
  ``None`` means best-effort (scheduled after every deadlined request).
* ``iteration_budget`` — per-request traversal iteration cap, threaded
  through :class:`~repro.resilience.RetryPolicy` to the engine.
* ``arrival_ms`` — explicit arrival time on the service's simulated
  clock (load generators replaying a schedule); ``None`` arrives "now".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, InvalidLaunchError

#: Endpoint names, in the service's documentation order.
ENDPOINTS = ("visit", "neighborhood", "shortest_path", "pagerank", "stats")


@dataclass(frozen=True)
class TraversalRequest:
    """Base of every service request: tenant identity + SLO budgets."""

    tenant: str = "default"
    #: Simulated deadline budget (ms) from arrival; ``None`` = best-effort.
    deadline_ms: float | None = None
    #: Per-request traversal iteration cap; ``None`` = the config's own.
    iteration_budget: int | None = None
    #: Arrival time on the service clock; ``None`` = on submission.
    arrival_ms: float | None = None

    #: Endpoint name (class attribute, overridden per request type).
    endpoint = ""

    def __post_init__(self):
        if not self.tenant:
            raise ConfigError("tenant must be a non-empty string")
        if self.deadline_ms is not None and self.deadline_ms < 0:
            raise ConfigError(
                f"deadline_ms must be >= 0, got {self.deadline_ms}"
            )
        if self.iteration_budget is not None and self.iteration_budget < 1:
            raise ConfigError(
                f"iteration_budget must be >= 1, got {self.iteration_budget}"
            )
        if self.arrival_ms is not None and self.arrival_ms < 0:
            raise ConfigError(
                f"arrival_ms must be >= 0, got {self.arrival_ms}"
            )

    def validate(self, csr) -> None:
        """Cheap admission-time validation against the served graph.

        Raises a typed error *before* the request consumes queue space —
        malformed requests must never reach a worker.
        """

    def _check_vertex(self, csr, vertex: int, what: str) -> None:
        if not 0 <= vertex < csr.num_vertices:
            raise InvalidLaunchError(
                f"{what} {vertex} out of range [0, {csr.num_vertices})"
            )

    def describe(self) -> str:
        return f"{self.endpoint}[{self.tenant}]"


@dataclass(frozen=True)
class VisitRequest(TraversalRequest):
    """Run one traversal (bfs / sssp / sswp / cc) and return its labels —
    swh-graph's ``visit`` surface generalized over the problem set."""

    problem: str = "bfs"
    source: int = 0
    #: BFS early-exit target (point-to-point reachability).
    target: int | None = None

    endpoint = "visit"

    def validate(self, csr) -> None:
        from repro.algorithms.base import get_problem

        problem = get_problem(self.problem)  # raises ConfigError if unknown
        problem.check_graph(csr)
        self._check_vertex(csr, self.source, "source")
        if self.target is not None:
            if self.problem != "bfs":
                raise ConfigError(
                    "early-exit target is only sound for BFS "
                    f"(got {self.problem})"
                )
            self._check_vertex(csr, self.target, "target")

    def describe(self) -> str:
        return f"visit/{self.problem}[{self.tenant}] src={self.source}"


@dataclass(frozen=True)
class NeighborhoodRequest(TraversalRequest):
    """Vertices within ``hops`` BFS levels of ``source`` (swh-graph's
    neighborhood/``visit_nodes`` query), with their levels."""

    source: int = 0
    hops: int = 1

    endpoint = "neighborhood"

    def __post_init__(self):
        super().__post_init__()
        if self.hops < 0:
            raise ConfigError(f"hops must be >= 0, got {self.hops}")

    def validate(self, csr) -> None:
        self._check_vertex(csr, self.source, "source")

    def describe(self) -> str:
        return (
            f"neighborhood[{self.tenant}] src={self.source} hops={self.hops}"
        )


@dataclass(frozen=True)
class ShortestPathRequest(TraversalRequest):
    """A minimum-hop path ``source -> target``: one BFS with parents on
    the dispatching lane's resident session."""

    source: int = 0
    target: int = 0

    endpoint = "shortest_path"

    def validate(self, csr) -> None:
        self._check_vertex(csr, self.source, "source")
        self._check_vertex(csr, self.target, "target")

    def describe(self) -> str:
        return (
            f"shortest_path[{self.tenant}] {self.source}->{self.target}"
        )


@dataclass(frozen=True)
class PageRankRequest(TraversalRequest):
    """Delta PageRank over the served graph (the Gunrock-style analytics
    primitive riding the same frontend)."""

    damping: float = 0.85
    tolerance: float = 1e-4

    endpoint = "pagerank"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.damping < 1.0:
            raise ConfigError(
                f"damping must be in (0, 1), got {self.damping}"
            )
        if self.tolerance <= 0:
            raise ConfigError(
                f"tolerance must be > 0, got {self.tolerance}"
            )

    def describe(self) -> str:
        return f"pagerank[{self.tenant}] d={self.damping:g}"


@dataclass(frozen=True)
class StatsRequest(TraversalRequest):
    """Graph summary statistics (swh-graph's ``stats`` endpoint): vertex
    and edge counts, degree shape, largest-component fraction."""

    endpoint = "stats"

    def describe(self) -> str:
        return f"stats[{self.tenant}]"


@dataclass
class TraversalResponse:
    """One terminal outcome per admitted request — served, errored or
    shed; an admitted request always gets exactly one of these."""

    request: TraversalRequest
    #: Admission sequence number (ties in EDF order break on this).
    seq: int
    ok: bool
    #: Trace context assigned at admission (``""`` for requests refused
    #: at the door, which never got one).  ``summarize --request <id>``
    #: renders the span tree this id names.
    request_id: str = ""
    #: Endpoint payload: labels (visit), ``{"vertices", "levels"}``
    #: (neighborhood), vertex list (shortest_path), ranks (pagerank),
    #: summary dict (stats).  ``None`` on error or shed.
    value: object = None
    #: ``"ErrorType: message"`` for typed failures (incl. shed reasons).
    error: str | None = None
    #: True when the request was load-shed before any work started.
    shed: bool = False
    # Simulated-clock accounting (ms on the service clock).
    arrival_ms: float = 0.0
    start_ms: float = 0.0
    finish_ms: float = 0.0
    #: Pool lane that served the request (-1 = never dispatched).
    worker: int = -1
    #: Ladder rung that produced the answer ("" = not served).
    placement: str = ""
    degraded: bool = False
    attempts: int = 0
    #: The underlying engine result, when the endpoint ran a traversal.
    result: object = None
    #: Injected faults observed while serving (resilient worker path).
    faults_seen: list = field(default_factory=list)
    #: Whether the self-healing plane launched a hedge leg for this
    #: request, and whether that leg's finish won the race.  A won hedge
    #: moves only ``finish_ms`` to the leg's earlier finish: worker,
    #: placement, attempts and ``result`` stay the primary's (the legs'
    #: labels are identical, by asserted contract).
    hedged: bool = False
    hedge_won: bool = False

    @property
    def tenant(self) -> str:
        return self.request.tenant

    @property
    def endpoint(self) -> str:
        return self.request.endpoint

    @property
    def queue_ms(self) -> float:
        """Simulated time spent waiting for a worker lane."""
        return self.start_ms - self.arrival_ms

    @property
    def service_ms(self) -> float:
        """Simulated time the worker spent producing the answer."""
        return self.finish_ms - self.start_ms

    @property
    def latency_ms(self) -> float:
        """End-to-end simulated latency (queue + service)."""
        return self.finish_ms - self.arrival_ms

    @property
    def labels(self) -> np.ndarray | None:
        """The label vector, when the endpoint produced one (``None``
        for results without labels, such as PageRank ranks)."""
        return getattr(self.result, "labels", None)

    def __repr__(self) -> str:
        state = "shed" if self.shed else ("ok" if self.ok else "error")
        return (
            f"TraversalResponse({self.request.describe()}, {state}, "
            f"latency {self.latency_ms:.3f} ms)"
        )
