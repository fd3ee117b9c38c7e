"""Tests of the self-healing service plane: lane health scoring,
circuit breakers with warm standby, hedged requests, brownout control,
retry jitter, and the health on/off bit-identity gate."""

import numpy as np
import pytest

from repro.errors import ConfigError, QuotaExceededError
from repro.graph import generators
from repro.resilience.chaos import result_digest
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.session import ResilientSession, RetryPolicy
from repro.serving import (
    HealthPlane,
    HealthPolicy,
    SessionPool,
    ShortestPathRequest,
    TenantQuota,
    TraversalService,
    VisitRequest,
    check_health_identity,
)


@pytest.fixture
def graph():
    """A 40-vertex random graph, large enough for multi-level BFS."""
    return generators.erdos_renyi(40, 160, seed=7)


def _sick_lane_service(graph, *, max_retries=0, health=None, **kwargs):
    """Pool of 2 where lane 0 fails through a finite sustained
    transfer-fault window and lane 1 stays clean."""
    plan = FaultPlan(
        specs=(FaultSpec(kind="transfer_fault", at=0, count=12),)
    )
    return TraversalService(
        graph, pool_size=2, fault_plans={0: plan},
        policy=RetryPolicy(max_retries=max_retries),
        health=health if health is not None else HealthPolicy(open_ms=2.0),
        default_quota=TenantQuota(max_pending=256),
        **kwargs,
    )


class TestHealthPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            HealthPolicy(ewma_alpha=0.0)
        with pytest.raises(ConfigError):
            HealthPolicy(tainted_quality=1.0)
        with pytest.raises(ConfigError):
            HealthPolicy(failure_threshold=0)
        with pytest.raises(ConfigError):
            HealthPolicy(hedge_min_samples=0)
        with pytest.raises(ConfigError):
            # Ladder thresholds must be ordered.
            HealthPolicy(brownout_admission=0.9, brownout_hedge=0.5)

    def test_defaults_construct(self):
        policy = HealthPolicy()
        assert policy.breakers and policy.hedge and policy.brownout


class TestScoring:
    def test_clean_serves_keep_score_at_exactly_one(self, graph):
        with TraversalService(graph, pool_size=2, health=True) as service:
            for i in range(10):
                assert service.call(VisitRequest(source=i)).ok
            # The EWMA of a constant 1.0 is exactly 1.0 — the fixed
            # point the on/off identity gate relies on.
            assert service.lane_health == {0: 1.0, 1: 1.0}
            assert service.health.level == 0
            assert not service.health.events

    def test_infra_failures_sink_the_score(self, graph):
        with _sick_lane_service(
            graph, health=HealthPolicy(breakers=False, brownout=False),
        ) as service:
            for i in range(20):
                service.call(VisitRequest(source=i % 40))
            assert service.lane_health[0] < 1.0
            assert service.lane_health[1] == 1.0

    def test_non_infra_errors_are_neutral(self, graph):
        with TraversalService(graph, pool_size=1, health=True) as service:
            # A spent deadline says nothing about the lane underneath.
            response = service.call(VisitRequest(source=0, deadline_ms=0.0))
            assert not response.ok
            assert service.lane_health[0] == 1.0

    def test_stats_endpoint_exposes_health(self, graph):
        from repro.serving import StatsRequest

        with TraversalService(graph, pool_size=2, health=True) as service:
            value = service.call(StatsRequest()).value
            assert value["num_vertices"] == graph.num_vertices
            snapshot = value["health"]
            assert snapshot["brownout_level"] == 0
            assert [lane["state"] for lane in snapshot["lanes"]] == \
                ["closed", "closed"]
        # Health off: the stats payload is exactly the graph summary.
        with TraversalService(graph, pool_size=1) as service:
            assert "health" not in service.call(StatsRequest()).value


class TestBreakerLifecycle:
    def test_open_swaps_in_warm_standby_at_same_instant(self, graph):
        with _sick_lane_service(graph) as service:
            for _ in range(2):
                service.serve([
                    VisitRequest(source=i % 40) for i in range(30)
                ])
            events = service.health.events
            opens = [e for e in events if e.kind == "open"]
            assert opens
            for open_event in opens:
                # Standby built before retirement: every open pairs with
                # a same-lane replace at the same simulated instant, so
                # capacity never dips.
                index = events.index(open_event)
                replace = events[index + 1]
                assert replace.kind == "replace"
                assert replace.lane == open_event.lane == 0
                assert replace.t_ms == open_event.t_ms
            assert service.pool.size == 2
            assert service.pool.workers[0].generation == len(opens)
            assert service.pool.workers[1].generation == 0

    def test_quarantine_pushes_busy_until_past_window(self, graph):
        with _sick_lane_service(
            graph, health=HealthPolicy(open_ms=50.0),
        ) as service:
            service.serve([VisitRequest(source=i) for i in range(12)])
            lane = service.health.lanes[0]
            assert lane.state == "open"
            assert service.pool.workers[0].busy_until_ms >= lane.open_until

    def test_standby_inherits_injector(self, graph):
        with _sick_lane_service(
            graph, health=HealthPolicy(open_ms=50.0),
        ) as service:
            old_injector = service.pool.workers[0].session.injector
            service.serve([VisitRequest(source=i) for i in range(12)])
            assert service.pool.workers[0].generation == 1
            # Fault-event counters keep advancing across the swap: the
            # finite window drains instead of restarting.
            assert service.pool.workers[0].session.injector is old_injector

    def test_full_recovery_arc(self, graph):
        with _sick_lane_service(graph) as service:
            for _ in range(4):
                service.serve([
                    VisitRequest(source=i % 40) for i in range(30)
                ])
            kinds = [e.kind for e in service.health.events]
            for kind in ("open", "replace", "half_open", "closed"):
                assert kind in kinds, f"missing {kind} in {kinds}"
            assert kinds.index("open") < kinds.index("half_open") \
                < kinds.index("closed")
            lane = service.health.lanes[0]
            assert lane.state == "closed"
            assert lane.closes >= 1
            assert lane.opens >= lane.closes

    def test_min_active_floor_skips_quarantine(self, graph):
        # A 1-lane pool can't quarantine its only lane: the standby
        # still swaps in, but the lane stays dispatchable.
        plan = FaultPlan(
            specs=(FaultSpec(kind="transfer_fault", at=0, count=16),)
        )
        with TraversalService(
            graph, pool_size=1, fault_plans={0: plan},
            policy=RetryPolicy(max_retries=0, allow_cpu_fallback=False),
            health=HealthPolicy(open_ms=50.0),
            default_quota=TenantQuota(max_pending=256),
        ) as service:
            responses = service.serve([
                VisitRequest(source=i % 40) for i in range(30)
            ])
            assert len(responses) == 30
            lane = service.health.lanes[0]
            assert lane.opens >= 1
            # No 50 ms dead air: the clock never jumped the full window.
            assert any(r.ok for r in responses[-5:])


def _straggler_service(graph, hedge=True):
    """Pool of 2 where lane 0 absorbs a pair of transfer faults every
    12 events (retried, so it straggles) and lane 1 stays clean."""
    specs = tuple(
        FaultSpec(kind="transfer_fault", at=at, count=2)
        for at in range(4, 120, 12)
    )
    return TraversalService(
        graph, pool_size=2, fault_plans={0: FaultPlan(specs=specs)},
        policy=RetryPolicy(max_retries=6, backoff_base_ms=2.0),
        health=HealthPolicy(breakers=False, brownout=False, hedge=hedge),
        default_quota=TenantQuota(max_pending=256),
    )


class TestHedging:
    def _straggler(self, graph, hedge):
        service = _straggler_service(graph, hedge)
        responses = []
        with service:
            for i in range(40):
                response = service.call(VisitRequest(source=i))
                assert response.ok, response.error
                responses.append(response)
            stats = (service.health.hedges, service.health.hedge_wins)
        return responses, stats

    def test_hedge_cuts_p99_without_changing_digests(self, graph):
        off, _ = self._straggler(graph, hedge=False)
        on, (hedges, wins) = self._straggler(graph, hedge=True)
        assert hedges > 0 and wins > 0
        assert [result_digest(r.result) for r in off] == \
            [result_digest(r.result) for r in on]
        p99_off, p99_on = (
            float(np.percentile([r.service_ms for r in leg], 99))
            for leg in (off, on)
        )
        assert p99_on < p99_off

    def test_hedged_runs_are_deterministic(self, graph):
        a, stats_a = self._straggler(graph, hedge=True)
        b, stats_b = self._straggler(graph, hedge=True)
        assert stats_a == stats_b
        assert [(r.finish_ms, r.hedged, r.hedge_won) for r in a] == \
            [(r.finish_ms, r.hedged, r.hedge_won) for r in b]

    def test_won_hedge_moves_only_the_finish(self, graph):
        off, _ = self._straggler(graph, hedge=False)
        on, _ = self._straggler(graph, hedge=True)
        winners = 0
        for base, hedged in zip(off, on):
            # Lane attribution, placement and start stay the primary's;
            # only a *won* hedge moves the finish (earlier, never later).
            assert hedged.worker == base.worker
            assert hedged.placement == base.placement
            assert hedged.start_ms == base.start_ms
            if hedged.hedge_won:
                winners += 1
                assert hedged.finish_ms < base.finish_ms
            else:
                assert hedged.finish_ms == base.finish_ms
        assert winners > 0

    def test_healthy_lanes_never_hedge(self, graph):
        with TraversalService(graph, pool_size=2, health=True) as service:
            for i in range(30):
                service.call(VisitRequest(source=i))
            assert service.health.hedges == 0


class TestPathServes:
    """Shortest paths run on the dispatching lane, so its health plane
    sees them: breakers, standby replacement and hedging cover paths."""

    @staticmethod
    def _paths(graph, count):
        from repro.core.api import EtaGraph

        eta = EtaGraph(graph)
        requests = []
        for i in range(count):
            levels = eta.bfs(i % graph.num_vertices).labels
            reached = np.flatnonzero(np.isfinite(levels))
            requests.append(ShortestPathRequest(
                source=i % graph.num_vertices,
                target=int(reached[(7 * i) % len(reached)]),
            ))
        return requests

    def test_breakers_open_and_replace_on_path_serves(self, graph):
        with _sick_lane_service(graph) as service:
            for _ in range(2):
                service.serve(self._paths(graph, 30))
            kinds = [(e.kind, e.lane) for e in service.health.events]
            assert ("open", 0) in kinds and ("replace", 0) in kinds
            assert service.pool.workers[0].generation >= 1
            assert service.pool.workers[1].generation == 0

    def test_hedge_leg_returns_the_same_path(self, graph, monkeypatch):
        legs = []
        run = TraversalService._run_shortest_path

        def spy(service, worker, response, request, adm, tracer=None):
            service_ms = run(service, worker, response, request, adm,
                             tracer=tracer)
            legs.append((adm.seq, worker is service._hedge_worker,
                         response.value))
            return service_ms

        monkeypatch.setattr(TraversalService, "_run_shortest_path", spy)
        with _straggler_service(graph) as service:
            responses = [service.call(r) for r in self._paths(graph, 40)]
            assert all(r.ok for r in responses)
            assert service.health.hedges > 0
        primary = {seq: path for seq, hedge, path in legs if not hedge}
        hedged = [(seq, path) for seq, hedge, path in legs if hedge]
        assert len(hedged) == sum(r.hedged for r in responses) > 0
        for seq, path in hedged:
            assert path == primary[seq]


class TestBrownout:
    def _plane(self, graph, pool_size=2, **policy):
        pool = SessionPool(graph, size=pool_size)
        return HealthPlane(HealthPolicy(**policy), pool), pool

    def test_ladder_levels(self, graph):
        plane, pool = self._plane(graph, breakers=False)
        worker = pool.workers[0]
        levels = [plane.level]
        for _ in range(30):
            plane.observe(worker, ok=False, error_type="TransferError")
            if plane.level != levels[-1]:
                levels.append(plane.level)
        # One lane dying drags a 2-lane mean through the ladder.
        assert levels[0] == 0
        assert levels == sorted(levels)
        assert plane.level >= 2
        assert plane.effective_wave_width(8) == 4
        pool.close()

    def test_level_four_refuses_admissions(self, graph):
        with TraversalService(
            graph, pool_size=1,
            policy=RetryPolicy(max_retries=0, allow_cpu_fallback=False),
            fault_plans={0: FaultPlan(specs=(
                FaultSpec(kind="transfer_fault", at=0, count=200),
            ))},
            health=HealthPolicy(breakers=False),
            default_quota=TenantQuota(max_pending=512),
        ) as service:
            # Sink the only lane, then offer a fresh batch: admission
            # itself is refused at level 4, as a terminal typed response.
            # The sink requests carry deadlines so level-3 best-effort
            # shedding can't starve the observation feed on the way down.
            service.serve([
                VisitRequest(source=i, deadline_ms=10000.0)
                for i in range(12)
            ])
            assert service.health.level == 4
            with pytest.raises(QuotaExceededError):
                service.submit(VisitRequest(source=0))
            responses = service.serve(
                [VisitRequest(source=i) for i in range(6)]
            )
            assert len(responses) == 6
            for response in responses:
                assert not response.ok
                assert response.error.startswith("QuotaExceededError")
                assert "brownout" in response.error

    def test_level_three_sheds_best_effort_only(self, graph):
        with TraversalService(
            graph, pool_size=1,
            policy=RetryPolicy(max_retries=0),
            fault_plans={0: FaultPlan(specs=(
                FaultSpec(kind="transfer_fault", at=0, count=30),
            ))},
            health=HealthPolicy(
                breakers=False, brownout_admission=0.01,
            ),
            default_quota=TenantQuota(max_pending=512),
        ) as service:
            # Sink the lane first, then offer a mixed batch.
            service.serve([VisitRequest(source=i) for i in range(12)])
            assert service.health.shed_best_effort
            responses = service.serve(
                [VisitRequest(source=0)]
                + [VisitRequest(source=1, deadline_ms=1000.0)]
            )
            best_effort, deadlined = responses
            assert best_effort.shed
            assert "brownout" in best_effort.error
            assert not deadlined.shed


class TestHealthIdentity:
    def test_plane_is_observational_on_healthy_paths(self, graph):
        assert check_health_identity(graph) == []
        assert check_health_identity(graph, resilient=True) == []

    def test_identity_covers_clocks_not_just_labels(self, graph):
        # The gate must compare schedules: build two services and check
        # the full response facts agree, including finish_ms.
        from repro.serving.identity import _response_facts

        runs = []
        for health in (None, True):
            with TraversalService(
                graph, pool_size=2, health=health,
            ) as service:
                runs.append(service.serve(
                    [VisitRequest(source=i) for i in range(6)]
                ))
        for off, on in zip(*runs):
            assert _response_facts(off) == _response_facts(on)


class TestRetryJitter:
    def test_jitter_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.5)

    def _backoff(self, graph, jitter, jitter_seed):
        plan = FaultPlan(
            specs=(FaultSpec(kind="transfer_fault", at=0, count=1),)
        )
        with ResilientSession(
            graph, fault_plan=plan,
            policy=RetryPolicy(max_retries=2, backoff_base_ms=1.0,
                               jitter=jitter),
            jitter_seed=jitter_seed,
        ) as session:
            outcome = session.run("bfs", 0)
            assert outcome.result is not None
            return outcome.backoff_ms

    def test_zero_jitter_is_exact_exponential(self, graph):
        assert self._backoff(graph, 0.0, 0) == 1.0

    def test_jitter_is_seed_deterministic(self, graph):
        a = self._backoff(graph, 0.5, 3)
        b = self._backoff(graph, 0.5, 3)
        assert a == b
        assert 1.0 < a <= 1.5

    def test_jitter_streams_differ_across_lanes(self, graph):
        assert self._backoff(graph, 0.5, 0) != self._backoff(graph, 0.5, 1)

    def test_no_fault_run_never_draws_jitter(self, graph):
        # The identity gate's guarantee: with no retries there is no
        # jitter draw, so jitter>0 stays bit-identical on clean paths.
        from repro.resilience.chaos import check_bit_identity

        assert check_bit_identity(graph, ("bfs",), (0, 1)) == []


class TestHealChaosBattery:
    def test_trimmed_battery_holds_contract(self, graph):
        from repro.serving.chaos import run_heal_chaos

        report = run_heal_chaos(runs=12, seed=0)
        assert report.ok, report.summary()
        assert report.opens > 0
        assert report.replaces == report.opens
        assert report.recoveries >= 1

    def test_battery_reaches_admission_refusals(self, monkeypatch):
        """Late arrivals and tight quotas put the refusal path under the
        battery's served + shed conservation check."""
        from repro.serving.chaos import run_heal_chaos
        from repro.serving.service import TraversalService

        refused = []
        real = TraversalService._refused

        def spy(self, request, exc):
            refused.append(type(exc).__name__)
            return real(self, request, exc)

        monkeypatch.setattr(TraversalService, "_refused", spy)
        report = run_heal_chaos(runs=20, seed=0)
        assert report.ok, report.summary()
        assert "QuotaExceededError" in refused
        assert "DeadlineExceededError" in refused
