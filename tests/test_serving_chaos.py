"""Chaos battery for the serving layer: 200+ seeded multi-tenant mixes.

The serving contract under fire is the same one the resilience layer
promises (docs/resilience.md), lifted to the request/response frontend:
every admitted request gets exactly one terminal response, and that
response is either a *correct* result or a typed ``ReproError`` — never
a wrong answer, never a bare traceback, never a request that silently
vanishes.  On top of that the scheduler must not starve best-effort
work, and shedding must be monotone in offered load.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

import repro.errors as errors_mod
from repro.algorithms.paths import PathError, verify_path
from repro.errors import ReproError
from repro.graph.properties import GraphSummary
from repro.resilience import FaultPlan
from repro.serving import (
    NeighborhoodRequest,
    PageRankRequest,
    ShortestPathRequest,
    StatsRequest,
    TenantQuota,
    TraversalService,
    VisitRequest,
)
from repro.serving.loadgen import DEFAULT_MIX, LoadSettings, run_closed_loop
from repro.testing.differential import oracle_labels
from repro.testing.fuzz import random_graph

NUM_MIXES = 200
_TENANTS = ("alpha", "beta", "gamma")


def _typed_error_name(response) -> str:
    """The exception class name recorded on a failed response."""
    assert response.error, f"failed response without an error: {response}"
    return response.error.split(":", 1)[0]


def _assert_typed(response) -> None:
    name = _typed_error_name(response)
    exc_type = getattr(errors_mod, name, None) or \
        (PathError if name == "PathError" else None)
    assert exc_type is not None and issubclass(exc_type, ReproError), \
        f"untyped failure {response.error!r}"


def _random_request(rng: np.random.Generator, graph, tenant: str):
    """One random request, biased toward the traversal endpoints."""
    n = graph.num_vertices
    source = int(rng.integers(n))
    # Deadlines: mostly best-effort, sometimes generous, sometimes so
    # tight the scheduler has to shed.
    roll = rng.random()
    deadline = None if roll < 0.5 else \
        (0.05 if roll < 0.7 else float(rng.uniform(1.0, 8.0)))
    kind = int(rng.integers(10))
    if kind < 5:
        problem = "bfs" if rng.integers(2) else "cc"
        return VisitRequest(problem=problem, source=source, tenant=tenant,
                            deadline_ms=deadline)
    if kind < 7:
        return NeighborhoodRequest(source=source,
                                   hops=int(rng.integers(1, 4)),
                                   tenant=tenant, deadline_ms=deadline)
    if kind == 7:
        return ShortestPathRequest(source=source,
                                   target=int(rng.integers(n)),
                                   tenant=tenant, deadline_ms=deadline)
    if kind == 8:
        return PageRankRequest(tenant=tenant, deadline_ms=deadline)
    return StatsRequest(tenant=tenant, deadline_ms=deadline)


def _check_response(graph, response) -> None:
    """One terminal response is a correct answer or a typed refusal."""
    request = response.request
    if response.shed:
        assert not response.ok
        assert _typed_error_name(response) == "DeadlineExceededError"
        # Shedding spends no simulated worker time.
        assert response.finish_ms == response.start_ms
        return
    if not response.ok:
        _assert_typed(response)
        return
    if isinstance(request, VisitRequest):
        np.testing.assert_array_equal(
            response.labels,
            oracle_labels(graph, request.problem, request.source),
        )
    elif isinstance(request, NeighborhoodRequest):
        levels = oracle_labels(graph, "bfs", request.source)
        want = np.flatnonzero(
            np.isfinite(levels) & (levels <= request.hops)
        )
        np.testing.assert_array_equal(response.value["vertices"], want)
    elif isinstance(request, ShortestPathRequest):
        levels = oracle_labels(graph, "bfs", request.source)
        assert verify_path(graph, response.value, levels, "bfs")
    elif isinstance(request, PageRankRequest):
        ranks = response.value
        assert ranks.shape == (graph.num_vertices,)
        assert np.all(np.isfinite(ranks)) and np.all(ranks >= 0)
    elif isinstance(request, StatsRequest):
        assert response.value == asdict(GraphSummary.of(graph))


class TestChaosMixes:
    def test_200_seeded_mixes_hold_the_contract(self):
        """NUM_MIXES random (graph, tenants, faults, deadlines) services:
        every batch request gets one terminal response, every response is
        correct-or-typed.  A failure prints its mix seed for replay."""
        failures = []
        for seed in range(NUM_MIXES):
            rng = np.random.default_rng(seed)
            graph = random_graph(rng, weighted=False, max_vertices=48)
            # Half the mixes run bare, half through resilient lanes with
            # a seeded fault plan riding the degradation ladder.
            plan = FaultPlan.random(seed, max_faults=int(rng.integers(1, 4))) \
                if seed % 2 else None
            quotas = {
                t: TenantQuota(max_pending=int(rng.integers(2, 9)))
                for t in _TENANTS
            }
            requests = [
                _random_request(rng, graph, _TENANTS[i % len(_TENANTS)])
                for i in range(int(rng.integers(4, 9)))
            ]
            try:
                with TraversalService(
                    graph, pool_size=int(rng.integers(1, 4)),
                    quotas=quotas, fault_plan=plan,
                ) as service:
                    responses = service.serve(requests)
                assert len(responses) == len(requests), \
                    f"{len(requests)} in, {len(responses)} out"
                for response in responses:
                    _check_response(graph, response)
            except Exception as exc:  # noqa: BLE001 — replay coordinates
                failures.append(f"mix seed {seed}: {type(exc).__name__}: {exc}")
        assert not failures, "\n".join(failures)


class TestNoStarvation:
    def test_every_admitted_request_terminates(self, skewed_graph):
        """Best-effort requests behind a wall of deadlined ones still get
        dispatched: the drain returns one terminal response per admitted
        seq, none pending afterwards."""
        rng = np.random.default_rng(7)
        with TraversalService(
            skewed_graph, pool_size=2,
            quotas={t: TenantQuota(max_pending=32) for t in _TENANTS},
        ) as service:
            admitted = []
            for i in range(30):
                deadline = float(rng.uniform(0.05, 2.0)) \
                    if i % 3 else None
                request = VisitRequest(
                    problem="bfs", source=int(rng.integers(
                        skewed_graph.num_vertices)),
                    tenant=_TENANTS[i % len(_TENANTS)],
                    deadline_ms=deadline,
                )
                admitted.append(service.submit(request))
            responses = service.drain()
            assert len(service.queue) == 0
        assert {r.seq for r in responses} == {a.seq for a in admitted}
        for response in responses:
            # Terminal: an answer, a typed error, or an explicit shed.
            assert response.ok or response.error
        # The best-effort third was not starved by the deadlined work.
        best_effort = [r for r in responses
                       if r.request.deadline_ms is None]
        assert best_effort and all(r.ok for r in best_effort)


class TestMonotoneShedding:
    def test_shed_rate_rises_with_offered_load(self, skewed_graph):
        """The closed-loop sweep's headline invariant: more clients can
        only shed more.  Fresh service per load point, same seed."""
        settings = LoadSettings(
            pool_size=1, requests_per_client=6, seed=0, mix=DEFAULT_MIX,
        )
        quotas = {p.name: p.quota for p in DEFAULT_MIX}
        rates = []
        for clients in (3, 6, 12):
            with TraversalService(
                skewed_graph, pool_size=settings.pool_size, quotas=quotas,
            ) as service:
                responses = run_closed_loop(service, settings, clients)
            assert len(responses) == clients * settings.requests_per_client
            for response in responses:
                assert response.ok or response.error
            shed = sum(1 for r in responses if r.shed)
            rates.append(shed / len(responses))
        assert rates == sorted(rates), \
            f"shed rate not monotone in load: {rates}"
        # Twelve closed-loop clients against one lane must actually shed.
        assert rates[-1] > 0.0
