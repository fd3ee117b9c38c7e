"""Closed-loop multi-tenant load generator: ``python -m repro.bench serve``.

Drives a :class:`~repro.serving.TraversalService` with a fixed tenant
mix under a *closed loop*: each simulated client has at most one
request outstanding, and its next arrival is its previous completion
plus a think time — the classic serving-benchmark shape (offered load
rises with the client count, never past the service's capacity times
the client population).

The sweep runs the same deterministic workload at increasing client
counts and reports, per tenant and per load point, the simulated
latency percentiles (p50/p95/p99), the shed rate, a typed-error
taxonomy, the tenant's SLO burn rate against its declared
deadline-hit-rate objective (see :mod:`repro.observability.slo`) and a
*worst-request trace pointer* — the ``request_id`` of the slowest
served request, renderable via ``python -m repro.observability
summarize <trace> --request <id>`` on a traced rerun.  Every choice is
seeded and the latencies, shed rates, burn rates and counters are read
off the simulated clock, so they repeat exactly run to run — facts
about the scheduler, not about the host — and CI gates them against
``benchmarks/baseline_pr10/``.  Two kinds of leaf are not exact: the
``wall_*`` leaves are host wall-clock, and ``recovery_ms`` is a
difference of two wall-contaminated instants (see
:func:`run_recovery_scenario`), equal between runs only up to float
rounding in its last bits.

The headline invariant (asserted by the chaos tests, visible here):
**shed rate is monotone in offered load** — more clients can only shed
more, never less.

Two self-healing scenarios ride along (the ``health`` section of the
report): **straggler** runs the same fault-absorbing workload with
hedged requests off and on and shows the p99 drop at zero digest
change, and **recovery** times one breaker's open → half-open → closed
arc on the simulated clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bench.runner import BenchContext, ExperimentReport
from repro.serving.admission import TenantQuota
from repro.serving.requests import (
    NeighborhoodRequest,
    PageRankRequest,
    ShortestPathRequest,
    StatsRequest,
    TraversalRequest,
    VisitRequest,
)
from repro.serving.service import TraversalService
from repro.utils.tables import render_table


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's workload shape in the mix."""

    name: str
    #: ``(endpoint, weight)`` pairs the tenant draws requests from.
    endpoints: tuple[tuple[str, float], ...]
    #: Per-request simulated deadline budget (None = best-effort).
    deadline_ms: float | None
    #: Simulated think time between a completion and the next arrival.
    think_ms: float
    #: Admission quota for the tenant.
    quota: TenantQuota


#: The canonical three-tenant mix: a latency-sensitive interactive
#: tenant, a deadline-free batch tenant, and an analytics tenant whose
#: occasional PageRank is the queue's elephant.
DEFAULT_MIX: tuple[TenantProfile, ...] = (
    TenantProfile(
        name="interactive",
        endpoints=(("visit", 0.5), ("neighborhood", 0.3),
                   ("shortest_path", 0.2)),
        deadline_ms=1.5,
        think_ms=0.2,
        quota=TenantQuota(max_pending=16, deadline_ms=1.5),
    ),
    TenantProfile(
        name="batch",
        endpoints=(("visit", 0.8), ("stats", 0.2)),
        deadline_ms=None,
        think_ms=0.1,
        quota=TenantQuota(max_pending=32),
    ),
    TenantProfile(
        name="analytics",
        endpoints=(("pagerank", 0.3), ("visit", 0.4), ("stats", 0.3)),
        deadline_ms=6.0,
        think_ms=0.5,
        quota=TenantQuota(max_pending=16, deadline_ms=6.0),
    ),
)

#: Declared deadline-hit-rate objectives per tenant, from which the
#: bench's per-tenant burn rates are computed (burn 1.0 = exactly
#: consuming the tenant's error budget).
DEFAULT_OBJECTIVES: dict[str, float] = {
    "interactive": 0.9,
    "batch": 0.5,
    "analytics": 0.8,
}


@dataclass(frozen=True)
class LoadSettings:
    """One serve-bench run's shape."""

    graph: str = "slashdot"
    pool_size: int = 2
    #: Client counts swept (total, split round-robin over the mix).
    client_counts: tuple[int, ...] = (3, 6, 12)
    #: Requests each client issues per load point.
    requests_per_client: int = 20
    seed: int = 0
    mix: tuple[TenantProfile, ...] = DEFAULT_MIX

    @classmethod
    def quick(cls) -> "LoadSettings":
        return cls(client_counts=(3, 6), requests_per_client=8)


def _make_request(
    profile: TenantProfile, endpoint: str, rng: np.random.Generator,
    num_vertices: int, arrival_ms: float,
) -> TraversalRequest:
    source = int(rng.integers(0, num_vertices))
    common = dict(
        tenant=profile.name, deadline_ms=profile.deadline_ms,
        arrival_ms=arrival_ms,
    )
    if endpoint == "visit":
        return VisitRequest(problem="bfs", source=source, **common)
    if endpoint == "neighborhood":
        return NeighborhoodRequest(
            source=source, hops=int(rng.integers(1, 4)), **common,
        )
    if endpoint == "shortest_path":
        return ShortestPathRequest(
            source=source, target=int(rng.integers(0, num_vertices)),
            **common,
        )
    if endpoint == "pagerank":
        return PageRankRequest(**common)
    return StatsRequest(**common)


def run_closed_loop(
    service: TraversalService,
    settings: LoadSettings,
    clients: int,
) -> list:
    """Run one load point: ``clients`` closed-loop clients over the
    tenant mix, each issuing ``requests_per_client`` requests.  Returns
    every terminal response."""
    mix = settings.mix
    rng = np.random.default_rng((settings.seed, clients))
    n = service.csr.num_vertices
    # Client i belongs to tenant i % len(mix); each keeps one request in
    # flight.  next_arrival starts staggered so lanes fill gradually.
    state = [
        {"profile": mix[i % len(mix)],
         "next_ms": 0.05 * i,
         "left": settings.requests_per_client}
        for i in range(clients)
    ]
    responses = []
    while True:
        live = [c for c in state if c["left"] > 0]
        if not live:
            break
        client = min(live, key=lambda c: c["next_ms"])
        profile = client["profile"]
        names = [name for name, _ in profile.endpoints]
        weights = np.array([w for _, w in profile.endpoints])
        endpoint = str(rng.choice(names, p=weights / weights.sum()))
        request = _make_request(
            profile, endpoint, rng, n, client["next_ms"],
        )
        # Typed failures (unreachable path target, spent deadline, ...)
        # come back as terminal responses, never as raises.
        response = service.call(request)
        responses.append(response)
        client["left"] -= 1
        client["next_ms"] = max(
            response.finish_ms, client["next_ms"],
        ) + profile.think_ms
    return responses


def _tenant_stats(
    responses: list, tenant: str, *, monitor=None, now_ms: float = 0.0,
) -> dict:
    mine = [r for r in responses if r.tenant == tenant]
    served = [r for r in mine if r.ok]
    shed = sum(1 for r in mine if r.shed)
    # An all-shed tenant (high-load sweep points) has no latencies to
    # summarize: report None, never a fabricated 0.0 percentile.  For
    # the rest, method="nearest" makes every reported percentile an
    # *observed* latency — no interpolation between samples, identical
    # across numpy versions.
    if served:
        latencies = np.array([r.latency_ms for r in served])
        p50, p95, p99 = (
            float(np.percentile(latencies, q, method="nearest"))
            for q in (50, 95, 99)
        )
    else:
        p50 = p95 = p99 = None
    # Typed-error taxonomy: failure counts by exception type name, shed
    # excluded (sheds are accounted separately).  Faults absorbed =
    # injected faults the resilience ladder ate on the way to an ``ok``.
    taxonomy: dict[str, int] = {}
    for r in mine:
        error = getattr(r, "error", None)
        if r.ok or r.shed or not error:
            continue
        name = error.split(":", 1)[0]
        taxonomy[name] = taxonomy.get(name, 0) + 1
    # Worst-request trace pointer: the request_id of the slowest served
    # request — the handle `python -m repro.observability summarize
    # <trace> --request <id>` renders on a traced rerun of the same
    # seeded workload.
    worst = max(
        served,
        key=lambda r: (r.latency_ms, getattr(r, "seq", 0)),
        default=None,
    )
    # Burn rate against the tenant's declared deadline-hit-rate
    # objective, read off the service's SLO monitor at sweep end (slow
    # window — the paging-grade signal).
    slo: dict = {"burn_rate": None, "slo_state": None, "objective": None}
    if monitor is not None:
        status = monitor.snapshot(now_ms).get(tenant)
        if status is not None:
            slo = {
                "burn_rate": status["slow_burn"],
                "slo_state": status["state"],
                "objective": status["objective"],
            }
    return {
        "requests": len(mine),
        "served": len(served),
        "shed": shed,
        "shed_rate": shed / max(len(mine), 1),
        "errors": sum(1 for r in mine if not r.ok and not r.shed),
        "error_taxonomy": dict(sorted(taxonomy.items())),
        "faults_absorbed": sum(
            len(getattr(r, "faults_seen", ())) for r in served
        ),
        "p50_ms": p50,
        "p95_ms": p95,
        "p99_ms": p99,
        "degraded": sum(1 for r in mine if r.degraded),
        "worst_request": (
            None if worst is None else getattr(worst, "request_id", None)
        ),
        "worst_latency_ms": None if worst is None else worst.latency_ms,
        **slo,
    }


def run_straggler_scenario(
    csr, *, queries: int = 60, pool_size: int = 2,
) -> dict:
    """Hedge-off vs hedge-on on a straggler lane, digest-gated.

    Lane 0 carries periodic transfer-fault bursts that the retry ladder
    always absorbs (every answer stays correct, on the entry rung), so
    its serves are slow-but-right — the classic straggler.  The same
    sequential query stream runs with hedging off and on; the scenario
    reports both p99s, the hedge win rate, and asserts per-request
    ``result_digest`` equality between the legs (a won hedge moves only
    the finish time, never the payload).  Sources are distinct so a
    hedge leg's warm-up on the standby lane cannot leak into a later
    repeat of the same query.
    """
    from repro.resilience.chaos import result_digest
    from repro.resilience.faults import FaultPlan, FaultSpec
    from repro.resilience.session import RetryPolicy
    from repro.serving.health import HealthPolicy

    queries = min(queries, csr.num_vertices)
    specs = tuple(
        FaultSpec(kind="transfer_fault", at=at, count=2)
        for at in range(4, 2 * queries, 12)
    )
    legs = {}
    for hedge in (False, True):
        with TraversalService(
            csr, pool_size=pool_size,
            fault_plans={0: FaultPlan(specs=specs)},
            policy=RetryPolicy(max_retries=6, backoff_base_ms=2.0),
            health=HealthPolicy(
                breakers=False, brownout=False, hedge=hedge,
            ),
            default_quota=TenantQuota(max_pending=max(queries, 8)),
        ) as service:
            outcomes = []
            for source in range(queries):
                response = service.call(
                    VisitRequest(problem="bfs", source=source)
                )
                if not response.ok:
                    raise AssertionError(
                        f"straggler scenario query {source} failed "
                        f"({'on' if hedge else 'off'}): {response.error}"
                    )
                outcomes.append(
                    (result_digest(response.result), response.service_ms)
                )
            legs[hedge] = {
                "outcomes": outcomes,
                "hedges": service.health.hedges,
                "hedge_wins": service.health.hedge_wins,
            }
    digest_mismatches = sum(
        1 for (off_d, _), (on_d, _) in
        zip(legs[False]["outcomes"], legs[True]["outcomes"])
        if off_d != on_d
    )
    p99 = {
        hedge: float(np.percentile(
            [ms for _, ms in legs[hedge]["outcomes"]], 99,
            method="nearest",
        ))
        for hedge in (False, True)
    }
    hedges = legs[True]["hedges"]
    return {
        "queries": queries,
        "p99_off_ms": p99[False],
        "p99_on_ms": p99[True],
        "hedges": hedges,
        "hedge_wins": legs[True]["hedge_wins"],
        "hedge_win_rate": legs[True]["hedge_wins"] / max(hedges, 1),
        "digest_mismatches": digest_mismatches,
    }


def run_recovery_scenario(csr, *, pool_size: int = 2) -> dict:
    """Time one breaker's full self-healing arc on the simulated clock.

    Lane 0 fails fast (no retries) through a finite sustained
    transfer-fault window: the breaker opens, the lane is quarantined
    and standby-replaced at the open instant, half-open probes re-admit
    it after the quarantine window, and clean probes close it.
    ``recovery_ms`` is first-close minus first-open in simulated
    milliseconds.  Both instants carry wall-clock fallback durations
    that cancel in the difference, so ``recovery_ms`` matches between
    runs up to float rounding in its last bits, not bit-for-bit.
    """
    from repro.resilience.faults import FaultPlan, FaultSpec
    from repro.resilience.session import RetryPolicy
    from repro.serving.health import HealthPolicy

    plan = FaultPlan(
        specs=(FaultSpec(kind="transfer_fault", at=0, count=12),)
    )
    with TraversalService(
        csr, pool_size=pool_size, fault_plans={0: plan},
        policy=RetryPolicy(max_retries=0),
        health=HealthPolicy(open_ms=2.0),
        default_quota=TenantQuota(max_pending=128),
    ) as service:
        for _ in range(4):
            service.serve([
                VisitRequest(problem="bfs", source=i % csr.num_vertices)
                for i in range(30)
            ])
        events = service.health.events
        opened = next((e.t_ms for e in events if e.kind == "open"), None)
        closed = next((e.t_ms for e in events if e.kind == "closed"), None)
        return {
            "opens": sum(lane.opens for lane in service.health.lanes),
            "closes": sum(lane.closes for lane in service.health.lanes),
            # Absolute instants are wall-contaminated: the fail-fast
            # window's CPU-fallback serves carry wall-clock durations
            # (the one deliberate wall leak in the simulator), so only
            # their *difference* — the quarantine arc, which contains no
            # fallback — is deterministic.  The ``wall_`` prefix puts
            # them under the loose regression-only compare regime.
            "wall_first_open_ms": opened,
            "wall_first_close_ms": closed,
            "recovery_ms": (
                closed - opened
                if opened is not None and closed is not None else None
            ),
            "generations": [
                worker.generation for worker in service.pool.workers
            ],
        }


def run_serve(
    quick: bool = False, ctx: BenchContext | None = None, *,
    settings: LoadSettings | None = None,
) -> ExperimentReport:
    """The full load sweep; returns a saveable report.

    ``data`` maps ``clients_<n>`` to per-tenant latency/shed stats plus
    a ``total`` aggregate; ``sweep`` holds the shed-rate-vs-load curve
    the monotonicity claim is read off, and ``wall_s`` the host cost of
    the whole run (a ``wall_`` metric: compared only loosely).
    """
    ctx = ctx or BenchContext()
    if settings is None:
        settings = LoadSettings.quick() if quick else LoadSettings()
    csr, _ = ctx.load(settings.graph, weighted=False)
    quotas = {p.name: p.quota for p in settings.mix}

    data: dict = {"settings": {
        "graph": settings.graph,
        "pool_size": settings.pool_size,
        "client_counts": list(settings.client_counts),
        "requests_per_client": settings.requests_per_client,
        "seed": settings.seed,
        "tenants": [p.name for p in settings.mix],
    }}
    sweep = []
    rows = []
    wall_total = 0.0
    for clients in settings.client_counts:
        from repro.observability.slo import SLOMonitor

        t0 = time.perf_counter()
        monitor = SLOMonitor(objectives=dict(DEFAULT_OBJECTIVES))
        with TraversalService(
            csr, pool_size=settings.pool_size, quotas=quotas,
            slo=monitor,
        ) as service:
            responses = run_closed_loop(service, settings, clients)
            now_ms = service.clock_ms
        wall = time.perf_counter() - t0
        wall_total += wall

        point: dict = {}
        for profile in settings.mix:
            stats = _tenant_stats(
                responses, profile.name, monitor=monitor, now_ms=now_ms,
            )
            point[profile.name] = stats
            rows.append([
                clients, profile.name, stats["requests"],
                *(
                    "-" if stats[k] is None else f"{stats[k]:.3f}"
                    for k in ("p50_ms", "p95_ms", "p99_ms")
                ),
                f"{100 * stats['shed_rate']:.1f}%",
                (
                    "-" if stats["burn_rate"] is None
                    else f"{stats['burn_rate']:.2f}"
                ),
                stats["worst_request"] or "-",
            ])
        total_shed = sum(point[p.name]["shed"] for p in settings.mix)
        total_requests = sum(
            point[p.name]["requests"] for p in settings.mix
        )
        point["total"] = {
            "requests": total_requests,
            "shed": total_shed,
            "shed_rate": total_shed / max(total_requests, 1),
            "wall_s": wall,
        }
        data[f"clients_{clients}"] = point
        sweep.append({
            "clients": clients,
            "shed_rate": point["total"]["shed_rate"],
        })
    data["sweep"] = sweep
    data["wall_s"] = wall_total

    # Self-healing scenarios: hedging's p99 effect at zero digest
    # change, and one breaker's simulated recovery time.
    straggler = run_straggler_scenario(
        csr, queries=30 if quick else 60,
        pool_size=settings.pool_size,
    )
    recovery = run_recovery_scenario(csr, pool_size=settings.pool_size)
    data["health"] = {"straggler": straggler, "recovery": recovery}

    text = render_table(
        ["clients", "tenant", "requests", "p50 ms", "p95 ms", "p99 ms",
         "shed", "burn", "worst req"],
        rows,
        title=(
            f"Closed-loop serve: {settings.graph}, "
            f"{settings.pool_size} lanes, "
            f"{settings.requests_per_client} requests/client"
        ),
    )
    text += "\n" + render_table(
        ["scenario", "p99 off ms", "p99 on ms", "hedge win rate",
         "digest mismatches", "recovery ms"],
        [[
            "straggler+recovery",
            f"{straggler['p99_off_ms']:.3f}",
            f"{straggler['p99_on_ms']:.3f}",
            f"{100 * straggler['hedge_win_rate']:.0f}%",
            straggler["digest_mismatches"],
            (
                "-" if recovery["recovery_ms"] is None
                else f"{recovery['recovery_ms']:.3f}"
            ),
        ]],
        title="Self-healing: hedged requests and breaker recovery",
    )
    return ExperimentReport(
        experiment="serve",
        title="Multi-tenant traversal service under closed-loop load",
        text=text,
        data=data,
    )
