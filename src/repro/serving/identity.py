"""The service-vs-session bit-identity gate.

The serving layer must be a *frontend*, not a different engine: every
engine result a service hands back has to be bit-identical — labels
**and** simulated clock readings — to the same query on a bare
:class:`~repro.core.session.EngineSession`.  The subtlety is state:
warm-query timing depends on the full history a session has served
(cache hierarchy, frontier memo, UM residency), so the reference run
must replay *each lane's exact subsequence* on a fresh bare session, in
dispatch order — not the global stream on one session.  The default
stream mixes visits with shortest paths, which run on the dispatching
lane: a path replays as a BFS with parents, and its parent array must
match byte for byte.

:func:`check_service_identity` does exactly that and returns the list
of digest mismatches (empty = identical), using the same
:func:`~repro.resilience.chaos.result_digest` hash the chaos gate uses.
CI runs it via ``python -m repro.serving identity``.

:func:`check_health_identity` is the companion gate for the self-healing
plane (:mod:`repro.serving.health`): on a healthy (fault-free) request
stream the plane must be purely observational, so the same batch served
with ``health=True`` and ``health=None`` must agree on *every* response
fact — labels, simulated arrival/start/finish clocks, lane, placement
and sequence number.  CI runs it via ``python -m repro.serving identity
--health``.
"""

from __future__ import annotations

from repro.core.config import EtaGraphConfig
from repro.core.session import EngineSession
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.graph.csr import CSRGraph
from repro.resilience.chaos import result_digest
from repro.serving.requests import (
    ShortestPathRequest,
    TraversalResponse,
    VisitRequest,
)
from repro.serving.service import TraversalService

#: The default query stream the CLI gate serves: ``(problem, source)``
#: visits and ``("path", source, target)`` shortest paths, placed so
#: that each of two lanes serves a path between visits.
DEFAULT_QUERIES: tuple[tuple, ...] = (
    ("bfs", 0), ("bfs", 1), ("path", 0, 5), ("path", 2, 7), ("cc", 0),
    ("bfs", 0), ("cc", 2), ("bfs", 3),
)


def _requests(queries: tuple[tuple, ...], **kwargs) -> list:
    """The requests for a gate's ``queries`` stream (see
    :data:`DEFAULT_QUERIES`), each built with ``kwargs``."""
    return [
        ShortestPathRequest(source=query[1], target=query[2], **kwargs)
        if query[0] == "path"
        else VisitRequest(problem=query[0], source=query[1], **kwargs)
        for query in queries
    ]


def replay_mismatches(
    csr: CSRGraph,
    responses: list[TraversalResponse],
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
) -> list[str]:
    """Replay each lane's served subsequence on a fresh bare session and
    describe every result-digest mismatch (empty = bit-identical).  A
    shortest-path request replays as a BFS with parents, and its parent
    array must match byte for byte too."""
    config = config or EtaGraphConfig()
    lanes: dict[int, list[TraversalResponse]] = {}
    for response in responses:
        if response.result is None:
            continue  # shed / errored: no engine result to compare
        lanes.setdefault(response.worker, []).append(response)

    mismatches = []
    for lane in sorted(lanes):
        with EngineSession(csr, config, device) as session:
            for response in lanes[lane]:
                request = response.request
                path = isinstance(request, ShortestPathRequest)
                reference = session.query(
                    request.problem if isinstance(request, VisitRequest)
                    else "bfs",
                    request.source,
                    target=getattr(request, "target", None),
                    parents=path,
                )
                got = result_digest(response.result)
                want = result_digest(reference)
                if got != want:
                    mismatches.append(
                        f"lane {lane} seq {response.seq} "
                        f"{request.describe()}: service {got} != "
                        f"session {want}"
                    )
                elif path and (
                    response.result.extras["parents"].tobytes()
                    != reference.extras["parents"].tobytes()
                ):
                    mismatches.append(
                        f"lane {lane} seq {response.seq} "
                        f"{request.describe()}: service parents != "
                        "session parents"
                    )
    return mismatches


def check_service_identity(
    csr: CSRGraph,
    queries: tuple[tuple, ...] = DEFAULT_QUERIES,
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
    *,
    pool_size: int = 1,
) -> list[str]:
    """Serve ``queries`` (no deadlines, FIFO order) through a service
    with ``pool_size`` bare lanes and compare every engine result
    against per-lane bare-session replays.  Returns mismatch
    descriptions; empty means the service is bit-identical to the
    sessions it fronts."""
    config = config or EtaGraphConfig()
    with TraversalService(
        csr, config, device, pool_size=pool_size,
    ) as service:
        responses = service.serve(_requests(queries))
    bad = [r for r in responses if not r.ok]
    if bad:
        return [f"seq {r.seq} {r.request.describe()} failed: {r.error}"
                for r in bad]
    return replay_mismatches(csr, responses, config, device)


def _response_facts(response: TraversalResponse) -> tuple:
    """Everything a healthy-path response commits to: identity of the
    answer *and* of the simulated schedule that produced it."""
    result = response.result
    return (
        response.seq,
        response.ok,
        response.shed,
        response.error,
        response.worker,
        response.placement,
        response.degraded,
        response.attempts,
        round(response.arrival_ms, 9),
        round(response.start_ms, 9),
        round(response.finish_ms, 9),
        result_digest(result) if result is not None else None,
    )


def check_health_identity(
    csr: CSRGraph,
    queries: tuple[tuple, ...] = DEFAULT_QUERIES,
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
    *,
    pool_size: int = 2,
    resilient: bool = False,
) -> list[str]:
    """Serve the same healthy batch with the self-healing plane off and
    on, and describe every response-fact divergence (empty = the plane
    is purely observational on healthy paths).

    Unlike :func:`check_service_identity` this compares the two service
    runs against *each other* — labels **and** simulated clocks, lane
    assignment, placement, sequence — because the plane's no-op contract
    is about the whole schedule, not just the answer bits.  With
    ``resilient=True`` the gate reruns over resilient (retry-capable)
    lanes with no fault plan, covering the retry-wrapper path too.
    """
    config = config or EtaGraphConfig()
    requests = _requests(queries)
    runs = {}
    for health in (None, True):
        with TraversalService(
            csr, config, device, pool_size=pool_size,
            resilient=resilient, health=health,
        ) as service:
            runs[bool(health)] = service.serve(list(requests))
            if health and service.health.level != 0:
                return [
                    "healthy stream raised brownout level "
                    f"{service.health.level}: plane is not observational"
                ]
    mismatches = []
    for off, on in zip(runs[False], runs[True]):
        facts_off, facts_on = _response_facts(off), _response_facts(on)
        if facts_off != facts_on:
            mismatches.append(
                f"seq {off.seq} {off.request.describe()}: "
                f"health-off {facts_off} != health-on {facts_on}"
            )
    return mismatches


def check_trace_identity(
    csr: CSRGraph,
    queries: tuple[tuple, ...] = DEFAULT_QUERIES,
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
    *,
    pool_size: int = 2,
    resilient: bool = False,
) -> list[str]:
    """Serve the same batch with the full observability stack off and
    on — request-scoped tracing, SLO burn-rate monitors and the flight
    recorder all enabled on the on-leg — and describe every
    response-fact divergence (empty = telemetry is purely
    observational: same labels, same simulated clocks, same schedule).

    Also asserts the on-leg actually *observed* the run: every admitted
    request must have a ``request`` span carrying its ``request_id``,
    and the SLO monitor must have one sample per terminal response —
    a gate that silently records nothing would be vacuous.
    """
    from repro.observability.slo import SLOMonitor, SLOPolicy

    config = config or EtaGraphConfig()
    requests = _requests(queries, tenant="gate", deadline_ms=50.0)
    runs = {}
    for telemetry in (False, True):
        kwargs = {}
        if telemetry:
            kwargs = {
                "telemetry": True,
                "slo": SLOMonitor(SLOPolicy(objective=0.5)),
                "recorder": True,
            }
        with TraversalService(
            csr, config, device, pool_size=pool_size,
            resilient=resilient, **kwargs,
        ) as service:
            runs[telemetry] = service.serve(list(requests))
            if telemetry:
                trace = service.trace()
                ids = {
                    r.attrs.get("request_id")
                    for r in trace.spans("service", "request")
                }
                missing = [
                    resp.request_id for resp in runs[True]
                    if resp.request_id and resp.request_id not in ids
                ]
                if missing:
                    return [
                        f"request(s) {missing} produced no request span "
                        "— trace propagation is broken"
                    ]
                samples = sum(
                    s["samples"]
                    for s in service.slo.snapshot().values()
                )
                if samples != len(runs[True]):
                    return [
                        f"SLO monitor saw {samples} samples for "
                        f"{len(runs[True])} responses"
                    ]
    mismatches = []
    for off, on in zip(runs[False], runs[True]):
        facts_off, facts_on = _response_facts(off), _response_facts(on)
        if facts_off != facts_on:
            mismatches.append(
                f"seq {off.seq} {off.request.describe()}: "
                f"telemetry-off {facts_off} != telemetry-on {facts_on}"
            )
    return mismatches
