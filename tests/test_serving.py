"""Unit tests of the serving layer: admission, EDF scheduling, the
worker pool, endpoint behavior and service telemetry."""

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    InvalidLaunchError,
    QuotaExceededError,
    SessionClosedError,
)
from repro.serving import (
    AdmissionQueue,
    NeighborhoodRequest,
    PageRankRequest,
    SessionPool,
    ShortestPathRequest,
    StatsRequest,
    TenantQuota,
    TraversalService,
    VisitRequest,
)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------

class TestRequests:
    def test_requests_are_frozen_values(self):
        a = VisitRequest(problem="bfs", source=3, tenant="t")
        b = VisitRequest(problem="bfs", source=3, tenant="t")
        assert a == b
        with pytest.raises(AttributeError):
            a.source = 4

    def test_bad_slo_fields_rejected(self):
        with pytest.raises(ConfigError):
            VisitRequest(tenant="")
        with pytest.raises(ConfigError):
            VisitRequest(deadline_ms=-1.0)
        with pytest.raises(ConfigError):
            VisitRequest(iteration_budget=0)
        with pytest.raises(ConfigError):
            NeighborhoodRequest(hops=-1)
        with pytest.raises(ConfigError):
            PageRankRequest(damping=1.0)
        with pytest.raises(ConfigError):
            PageRankRequest(tolerance=0.0)

    def test_validate_against_graph(self, tiny_graph):
        with pytest.raises(InvalidLaunchError):
            VisitRequest(source=99).validate(tiny_graph)
        with pytest.raises(ConfigError):
            VisitRequest(problem="nope").validate(tiny_graph)
        with pytest.raises(ConfigError):
            # early-exit target only makes sense for BFS
            VisitRequest(problem="cc", source=0, target=1).validate(tiny_graph)
        with pytest.raises(InvalidLaunchError):
            ShortestPathRequest(source=0, target=99).validate(tiny_graph)
        VisitRequest(source=0).validate(tiny_graph)  # no raise


# ----------------------------------------------------------------------
# Admission: quotas, deadlines, EDF order
# ----------------------------------------------------------------------

class TestAdmission:
    def test_quota_accounting(self):
        queue = AdmissionQueue(default_quota=TenantQuota(max_pending=2))
        queue.submit(VisitRequest(tenant="a"), 0.0)
        queue.submit(VisitRequest(tenant="a"), 0.0)
        assert queue.pending("a") == 2
        with pytest.raises(QuotaExceededError):
            queue.submit(VisitRequest(tenant="a"), 0.0)
        # Another tenant has its own budget.
        queue.submit(VisitRequest(tenant="b"), 0.0)
        # Popping releases the slot.
        queue.pop()
        queue.submit(VisitRequest(tenant="a"), 0.0)
        assert queue.rejections == {"QuotaExceededError": 1}

    def test_spent_deadline_rejected_at_the_door(self):
        queue = AdmissionQueue()
        with pytest.raises(DeadlineExceededError):
            queue.submit(VisitRequest(deadline_ms=0.0), 5.0)
        # A replayed arrival whose budget has already elapsed.
        with pytest.raises(DeadlineExceededError):
            queue.submit(
                VisitRequest(arrival_ms=1.0, deadline_ms=2.0), 10.0
            )
        assert len(queue) == 0
        assert queue.rejections == {"DeadlineExceededError": 2}

    def test_edf_order_with_best_effort_last(self):
        queue = AdmissionQueue()
        queue.submit(VisitRequest(tenant="slack", deadline_ms=50.0), 0.0)
        queue.submit(VisitRequest(tenant="none"), 0.0)  # best-effort
        queue.submit(VisitRequest(tenant="tight", deadline_ms=5.0), 0.0)
        queue.submit(VisitRequest(tenant="mid", deadline_ms=20.0), 0.0)
        order = [queue.pop().tenant for _ in range(4)]
        assert order == ["tight", "mid", "slack", "none"]

    def test_edf_ties_break_on_admission_order(self):
        queue = AdmissionQueue()
        first = queue.submit(VisitRequest(tenant="a", deadline_ms=10.0), 0.0)
        second = queue.submit(VisitRequest(tenant="b", deadline_ms=10.0), 0.0)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_quota_supplies_default_deadline_and_budget(self):
        queue = AdmissionQueue(
            quotas={"t": TenantQuota(deadline_ms=7.0, iteration_budget=3)},
        )
        admitted = queue.submit(VisitRequest(tenant="t"), 1.0)
        assert admitted.deadline_abs == pytest.approx(8.0)
        assert admitted.iteration_budget == 3
        # An explicit request budget wins over the quota's default.
        explicit = queue.submit(
            VisitRequest(tenant="t", deadline_ms=2.0, iteration_budget=9),
            1.0,
        )
        assert explicit.deadline_abs == pytest.approx(3.0)
        assert explicit.iteration_budget == 9


# ----------------------------------------------------------------------
# Pool: checkout / return / shutdown
# ----------------------------------------------------------------------

class TestPool:
    def test_checkout_prefers_least_busy_lane(self, tiny_graph):
        with SessionPool(tiny_graph, size=2) as pool:
            a = pool.checkout()
            assert a.index == 0
            a.busy_until_ms = 10.0
            pool.checkin(a)
            b = pool.checkout()
            assert b.index == 1  # lane 0 is busy until 10 ms

    def test_checkout_exhaustion_and_return(self, tiny_graph):
        with SessionPool(tiny_graph, size=2) as pool:
            a = pool.checkout()
            b = pool.checkout()
            with pytest.raises(QuotaExceededError):
                pool.checkout()
            pool.checkin(a)
            assert pool.checkout() is a
            with pytest.raises(QuotaExceededError):
                pool.checkin(b)  # still checked out: checking in twice
                pool.checkin(b)

    def test_closed_pool_refuses_checkout(self, tiny_graph):
        pool = SessionPool(tiny_graph, size=1)
        pool.close()
        with pytest.raises(SessionClosedError):
            pool.checkout()
        pool.close()  # idempotent

    def test_fault_plan_forces_resilient_workers(self, tiny_graph):
        from repro.resilience import FaultPlan

        with SessionPool(
            tiny_graph, size=1, fault_plan=FaultPlan(),
        ) as pool:
            assert pool.resilient
            assert pool.workers[0].resilient


# ----------------------------------------------------------------------
# Service: dispatch, shedding, shutdown
# ----------------------------------------------------------------------

class TestService:
    def test_call_serves_bfs(self, tiny_graph):
        with TraversalService(tiny_graph) as service:
            resp = service.call(VisitRequest(problem="bfs", source=0))
        assert resp.ok and not resp.shed
        assert resp.labels is not None
        assert resp.latency_ms > 0
        assert resp.worker == 0
        assert resp.placement == "um_prefetch"  # the default memory mode

    def test_deadline_rejection_before_work(self, tiny_graph):
        with TraversalService(tiny_graph) as service:
            with pytest.raises(DeadlineExceededError):
                service.submit(VisitRequest(source=0, deadline_ms=0.0))
            assert service.pool.workers[0].served == 0
            # The batch path converts the refusal into a shed response.
            resp = service.call(VisitRequest(source=0, deadline_ms=0.0))
            assert resp.shed and not resp.ok
            assert "DeadlineExceededError" in resp.error
            assert service.pool.workers[0].served == 0

    def test_queued_deadline_expiry_sheds(self, tiny_graph):
        # One lane, two equally tight deadlines: the first fills the
        # lane past the second's deadline — the second must be shed,
        # not served late.
        with TraversalService(tiny_graph, pool_size=1) as service:
            responses = service.serve([
                VisitRequest(problem="bfs", source=0, tenant="first",
                             deadline_ms=0.05),
                VisitRequest(problem="bfs", source=1, tenant="second",
                             deadline_ms=0.05),
            ])
        first, second = responses
        assert first.ok
        assert second.shed and not second.ok
        assert "DeadlineExceededError" in second.error
        assert second.start_ms == second.finish_ms  # no worker time spent
        assert second.start_ms >= first.finish_ms
        assert service.requests_shed == 1

    def test_edf_dispatch_order(self, tiny_graph):
        with TraversalService(tiny_graph, pool_size=1) as service:
            service.submit(VisitRequest(source=0, tenant="slack",
                                        deadline_ms=1000.0))
            service.submit(VisitRequest(source=1, tenant="best_effort"))
            service.submit(VisitRequest(source=2, tenant="tight",
                                        deadline_ms=100.0))
            responses = service.drain()
        assert [r.tenant for r in responses] == \
            ["tight", "slack", "best_effort"]
        # One lane serves strictly in dispatch order.
        starts = [r.start_ms for r in responses]
        assert starts == sorted(starts)

    def test_two_lanes_run_concurrently(self, skewed_graph):
        with TraversalService(skewed_graph, pool_size=2) as service:
            responses = service.serve([
                VisitRequest(source=0), VisitRequest(source=1),
            ])
        # Both arrive at 0 and start immediately on separate lanes.
        assert {r.worker for r in responses} == {0, 1}
        assert all(r.start_ms == 0.0 for r in responses)

    def test_iteration_budget_is_a_typed_slo_error(self, skewed_graph):
        with TraversalService(skewed_graph) as service:
            resp = service.call(
                VisitRequest(problem="bfs", source=0, iteration_budget=1)
            )
        assert not resp.ok and not resp.shed
        assert "DeadlineExceededError" in resp.error

    def test_clean_shutdown_raises_on_late_requests(self, tiny_graph):
        service = TraversalService(tiny_graph)
        assert service.call(VisitRequest(source=0)).ok
        service.close()
        assert service.closed
        with pytest.raises(SessionClosedError):
            service.submit(VisitRequest(source=0))
        with pytest.raises(SessionClosedError):
            service.serve([VisitRequest(source=0)])
        with pytest.raises(SessionClosedError):
            service.drain()
        service.close()  # idempotent

    def test_serve_reports_earlier_pending_requests_too(self, tiny_graph):
        with TraversalService(tiny_graph) as service:
            service.submit(VisitRequest(source=1, tenant="early"))
            responses = service.serve([VisitRequest(source=0, tenant="batch")])
        assert [r.tenant for r in responses] == ["batch", "early"]

    def test_malformed_request_is_refused_not_crashed(self, tiny_graph):
        with TraversalService(tiny_graph) as service:
            resp = service.call(VisitRequest(source=99))
            assert not resp.ok and "InvalidLaunchError" in resp.error
            with pytest.raises(ConfigError):
                service.submit("not a request")  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Endpoints
# ----------------------------------------------------------------------

class TestEndpoints:
    def test_neighborhood_matches_bfs_levels(self, tiny_graph):
        from repro.core.session import EngineSession

        with TraversalService(tiny_graph) as service:
            resp = service.call(NeighborhoodRequest(source=0, hops=1))
        with EngineSession(tiny_graph) as session:
            levels = session.query("bfs", 0).labels
        want = np.flatnonzero(np.isfinite(levels) & (levels <= 1))
        np.testing.assert_array_equal(resp.value["vertices"], want)
        np.testing.assert_array_equal(
            resp.value["levels"], levels[want].astype(np.int64)
        )

    def test_shortest_path_is_a_real_path(self, skewed_graph):
        from repro.algorithms.paths import verify_path

        with TraversalService(skewed_graph) as service:
            resp = service.call(ShortestPathRequest(source=0, target=5))
        assert resp.ok
        path = resp.value
        assert path[0] == 0 and path[-1] == 5
        assert verify_path(
            skewed_graph, path, resp.result.labels, "bfs"
        )

    def test_shortest_path_from_the_cpu_floor(self, skewed_graph):
        # Every allocation fails, so the path lane descends to the CPU
        # floor; its parents must still witness a minimum-hop path.
        from repro.algorithms.paths import verify_path
        from repro.resilience import FaultPlan, FaultSpec
        from repro.testing.differential import oracle_labels

        plan = FaultPlan(
            specs=(FaultSpec("alloc_oom", at=0, count=10_000),),
        )
        with TraversalService(skewed_graph, fault_plan=plan) as service:
            resp = service.call(ShortestPathRequest(source=0, target=5))
        assert resp.ok and resp.placement == "cpu_oracle"
        assert resp.value[0] == 0 and resp.value[-1] == 5
        assert verify_path(
            skewed_graph, resp.value, oracle_labels(skewed_graph, "bfs", 0),
            "bfs",
        )

    def test_unreachable_path_is_typed_error(self, tiny_graph):
        # Vertex 2 has out-degree 0, so nothing is reachable from it.
        with TraversalService(tiny_graph) as service:
            resp = service.call(ShortestPathRequest(source=2, target=0))
        assert not resp.ok and "PathError" in resp.error

    def test_pagerank_and_stats(self, tiny_graph):
        with TraversalService(tiny_graph) as service:
            pr = service.call(PageRankRequest())
            st = service.call(StatsRequest())
        assert pr.ok and len(pr.value) == tiny_graph.num_vertices
        assert np.all(pr.value >= 0)
        assert st.ok
        assert st.value["num_vertices"] == tiny_graph.num_vertices
        assert st.value["num_edges"] == tiny_graph.num_edges
        assert st.service_ms == 0.0  # metadata lookup, no device time
        # Neither result carries a label vector.
        assert pr.labels is None and st.labels is None


# ----------------------------------------------------------------------
# Telemetry: metrics and spans
# ----------------------------------------------------------------------

class TestTelemetry:
    def test_per_tenant_metrics(self, tiny_graph):
        with TraversalService(tiny_graph) as service:
            service.serve([
                VisitRequest(source=0, tenant="a"),
                VisitRequest(source=1, tenant="a"),
                StatsRequest(tenant="b"),
            ])
            snap = service.metrics.snapshot()
        counters = snap["counters"]
        assert counters["service.requests{endpoint=visit,tenant=a}"] == 2
        assert counters["service.requests{endpoint=stats,tenant=b}"] == 1
        hists = snap["histograms"]
        assert hists["service.latency_ms{endpoint=visit,tenant=a}"]["count"] == 2

    def test_tenant_cardinality_is_bounded(self, tiny_graph):
        with TraversalService(tiny_graph, max_series=4) as service:
            for i in range(12):
                service.call(StatsRequest(tenant=f"tenant-{i}"))
        assert service.metrics.dropped_series > 0
        snap = service.metrics.snapshot()
        per_metric = [
            len([k for k in snap["counters"] if k.startswith(name + "{")])
            for name in ("service.requests",)
        ]
        assert all(n <= 5 for n in per_metric)  # 4 series + overflow fold

    def test_unified_snapshot_service_gauges(self, tiny_graph):
        from repro.observability.metrics import unified_snapshot

        with TraversalService(tiny_graph) as service:
            service.call(VisitRequest(source=0))
            snap = unified_snapshot(service=service)
        gauges = snap["gauges"]
        assert gauges["service.pool_size"] == 2
        assert gauges["service.requests_served"] == 1
        assert gauges["service.requests_shed"] == 0
        assert gauges["service.clock_ms"] > 0

    def test_service_track_spans(self, tiny_graph):
        with TraversalService(
            tiny_graph, pool_size=1, telemetry=True,
        ) as service:
            service.serve([
                VisitRequest(source=0, tenant="a", deadline_ms=0.05),
                VisitRequest(source=1, tenant="b", deadline_ms=0.05),
            ])
            trace = service.trace()
        spans = trace.spans("service", "request")
        # Every admitted request gets a request span now — shed ones
        # included (their tree is queue wait + the shed instant).
        served = [r for r in spans if not r.attrs.get("shed")]
        shed_reqs = [r for r in spans if r.attrs.get("shed")]
        sheds = trace.spans("service", "shed")
        assert len(served) == 1 and len(shed_reqs) == 1 and len(sheds) == 1
        assert served[0].attrs["tenant"] == "a"
        assert served[0].attrs["endpoint"] == "visit"
        assert served[0].attrs["request_id"] == "req-00000"
        assert served[0].duration_ms > 0
        assert sheds[0].attrs["tenant"] == "b"
        assert sheds[0].attrs["request_id"] == "req-00001"
        assert "service" in trace.categories()
        # The request tree nests: queue + dispatch under the request
        # span, engine sub-spans grafted under dispatch.
        kids = trace.children_of(served[0].sid)
        names = [r.name for r in kids]
        assert "queue" in names and "dispatch" in names
        dispatch = next(r for r in kids if r.name == "dispatch")
        grafted = trace.children_of(dispatch.sid)
        assert any(r.category == "engine" for r in grafted)

    def test_telemetry_off_by_default(self, tiny_graph):
        with TraversalService(tiny_graph) as service:
            service.call(VisitRequest(source=0))
            assert service.trace() is None


# ----------------------------------------------------------------------
# Load-generator tenant stats
# ----------------------------------------------------------------------

class TestTenantStats:
    """Regressions for the serve-bench percentile bugs: an all-shed
    tenant used to crash ``np.percentile`` on an empty list, and linear
    interpolation reported latencies nobody observed."""

    @staticmethod
    def _response(tenant, *, ok, shed=False, latency_ms=0.0,
                  degraded=False):
        from types import SimpleNamespace

        return SimpleNamespace(
            tenant=tenant, ok=ok, shed=shed, latency_ms=latency_ms,
            degraded=degraded,
        )

    def test_all_shed_tenant_reports_none(self):
        from repro.serving.loadgen import _tenant_stats

        responses = [
            self._response("hot", ok=False, shed=True) for _ in range(5)
        ]
        stats = _tenant_stats(responses, "hot")
        assert stats["requests"] == 5
        assert stats["served"] == 0
        assert stats["shed"] == 5
        assert stats["shed_rate"] == 1.0
        # None, never a fabricated 0.0 (and never an exception).
        assert stats["p50_ms"] is None
        assert stats["p95_ms"] is None
        assert stats["p99_ms"] is None

    def test_percentiles_are_observed_samples(self):
        from repro.serving.loadgen import _tenant_stats

        latencies = [1.0, 2.0, 7.0, 40.0]
        responses = [
            self._response("t", ok=True, latency_ms=l) for l in latencies
        ]
        stats = _tenant_stats(responses, "t")
        # method="nearest": every percentile is an element of the
        # sample, not an interpolated value (linear p50 here is 4.5).
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            assert stats[key] in latencies
        assert stats["p50_ms"] == 7.0
        assert stats["p99_ms"] == 40.0

    def test_stats_isolate_tenants(self):
        from repro.serving.loadgen import _tenant_stats

        responses = [
            self._response("a", ok=True, latency_ms=3.0),
            self._response("b", ok=False, shed=True),
            self._response("a", ok=False, shed=False, degraded=True),
        ]
        stats = _tenant_stats(responses, "a")
        assert stats["requests"] == 2
        assert stats["served"] == 1
        assert stats["shed"] == 0
        assert stats["errors"] == 1
        assert stats["degraded"] == 1
        assert stats["p50_ms"] == 3.0

    def test_run_serve_renders_all_shed_tenant(self):
        """End to end: a tenant whose every request arrives with a spent
        deadline produces a rendered row ('-' cells), not a crash."""
        from repro.serving.loadgen import (
            LoadSettings, TenantProfile, run_serve,
        )

        doomed = TenantProfile(
            name="doomed",
            endpoints=(("visit", 1.0),),
            deadline_ms=0.0,
            think_ms=0.0,
            quota=TenantQuota(max_pending=8),
        )
        settings = LoadSettings(
            graph="livejournal", pool_size=1, client_counts=(2,),
            requests_per_client=2, mix=(doomed,),
        )
        report = run_serve(settings=settings)
        stats = report.data["clients_2"]["doomed"]
        assert stats["served"] == 0
        assert stats["p50_ms"] is None
        assert "doomed" in report.text and "-" in report.text


# ----------------------------------------------------------------------
# Lane accounting and response bookkeeping
# ----------------------------------------------------------------------

class TestLaneAccounting:
    def test_poisoned_lane_never_leaks_from_the_pool(self, tiny_graph):
        """An untyped crash mid-serve must check the lane back in and
        leave pool capacity intact (the try/finally dispatch contract)."""
        with TraversalService(tiny_graph, pool_size=2) as service:
            worker = service.pool.workers[0]
            original = worker.session.query

            def poisoned(*args, **kwargs):
                raise RuntimeError("poisoned lane")

            worker.session.query = poisoned
            try:
                with pytest.raises(RuntimeError):
                    service.call(VisitRequest(source=0))
                assert service.pool.size == 2
                assert not any(
                    w.checked_out for w in service.pool.workers
                )
            finally:
                worker.session.query = original
            # The pool still serves: no lane was lost to the crash.
            assert service.call(VisitRequest(source=0)).ok

    def test_drain_returns_edf_dispatch_order(self, tiny_graph):
        with TraversalService(tiny_graph, pool_size=1) as service:
            service.submit(VisitRequest(source=0))
            service.submit(VisitRequest(source=1, deadline_ms=50.0))
            service.submit(VisitRequest(source=2, deadline_ms=10.0))
            responses = service.drain()
        # Tightest deadline first, best-effort last; one response each.
        assert [r.seq for r in responses] == [2, 1, 0]
        assert all(r.ok for r in responses)

    def test_serve_returns_submission_order(self, tiny_graph):
        with TraversalService(tiny_graph, pool_size=2) as service:
            requests = [
                VisitRequest(source=0),
                VisitRequest(source=1, deadline_ms=25.0),
                VisitRequest(source=2),
                VisitRequest(source=3, deadline_ms=5.0),
            ]
            responses = service.serve(requests)
        # EDF reorders dispatch, but the batch's responses come back in
        # submission order, one terminal response per request.
        assert [r.request.source for r in responses] == [0, 1, 2, 3]
        assert [r.seq for r in responses] == [0, 1, 2, 3]

    def test_served_plus_shed_conservation(self, skewed_graph):
        with TraversalService(
            skewed_graph, pool_size=2, wave_width=4,
            default_quota=TenantQuota(max_pending=64),
        ) as service:
            requests = []
            for i in range(30):
                if i % 5 == 4:
                    # Hair-trigger deadline on a non-wave-eligible
                    # problem: whatever misses a free lane at t=0 must
                    # shed (BFS visits would coalesce into one wave at
                    # t=0 and all meet the deadline).
                    requests.append(VisitRequest(
                        problem="cc", source=i, deadline_ms=0.001,
                    ))
                elif i % 5 == 3:
                    requests.append(NeighborhoodRequest(source=i, hops=2))
                else:
                    requests.append(VisitRequest(source=i))
            responses = service.serve(requests)
            assert len(responses) == 30
            assert sorted(r.seq for r in responses) == list(range(30))
            # Every admitted request is answered-or-shed exactly once.
            assert service.requests_served + service.requests_shed == 30
            shed = [r for r in responses if r.shed]
            assert shed
            assert service.requests_shed == len(shed)
            assert all(not r.ok and r.error for r in shed)

    @pytest.mark.parametrize("wave_width", [0, 4])
    def test_admission_refusals_are_not_counted(
        self, skewed_graph, wave_width,
    ):
        # The served/shed counters account for admitted requests only:
        # a deadline spent before admission and a quota refusal are
        # terminal responses (seq -1), never served or shed.
        with TraversalService(
            skewed_graph, pool_size=2, wave_width=wave_width,
            quotas={"capped": TenantQuota(max_pending=1)},
        ) as service:
            responses = service.serve([
                VisitRequest(source=0, arrival_ms=10.0),
                VisitRequest(source=1, arrival_ms=0.0, deadline_ms=1.0),
                VisitRequest(source=2, tenant="capped"),
                VisitRequest(source=3, tenant="capped"),
                VisitRequest(source=4),
                NeighborhoodRequest(source=5, hops=1),
            ])
            refused = [r for r in responses if r.seq < 0]
            assert len(refused) == 2
            assert any(r.shed for r in refused)
            assert any(
                r.error.startswith("QuotaExceededError") for r in refused
            )
            assert service.requests_served + service.requests_shed == \
                sum(r.seq >= 0 for r in responses) == 4
