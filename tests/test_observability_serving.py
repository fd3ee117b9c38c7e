"""Serving-plane observability (PR 10): request-scoped span trees,
hedge-track stitching, SLO burn-rate monitors, the flight recorder,
and golden trace bytes for a seeded multi-tenant run.

The golden scenario is a 2-lane service with sustained transfer faults
on lane 0 (drives one breaker trip and typed errors) and absorbed
fault bursts on lane 1 (drives hedged requests), serving a three-tenant
BFS mix — hedging AND a breaker trip, with ``allow_cpu_fallback=False``
so the sustained faults surface as typed errors: the CPU floor would
serve those requests instead, leaving no error path to pin.

A second golden pins the terminal paths that scenario never reaches:
MSBFS waves (one of them failing), a late wave member, dispatch-time
and brownout sheds, quota and deadline refusals at admission, and typed
errors on bare and resilient lanes — trace bytes, per-response facts,
the metrics snapshot and the flight recorder's ring.

Regenerate the golden files with ``REGEN_GOLDEN=1 python -m pytest
tests/test_observability_serving.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.graph.generators import erdos_renyi
from repro.observability.export import (
    dumps_stable,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
)
from repro.observability.metrics import MetricsRegistry, unified_snapshot
from repro.observability.recorder import FlightRecorder
from repro.observability.slo import (
    SLO_STATES,
    SLOMonitor,
    SLOPolicy,
    render_slo_report,
)
from repro.observability.summarize import render_request, request_ids
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.session import RetryPolicy
from repro.serving.admission import TenantQuota
from repro.serving.health import HealthPolicy
from repro.serving.identity import _response_facts
from repro.serving.requests import (
    NeighborhoodRequest,
    PageRankRequest,
    ShortestPathRequest,
    StatsRequest,
    VisitRequest,
)
from repro.serving.service import TraversalService

GOLDEN_DIR = Path(__file__).parent / "golden"
TENANTS = ("interactive", "batch", "analytics")


def golden_scenario(recorder=None):
    """The seeded multi-tenant run the golden files pin down: 36 BFS
    requests over three tenants, ≥1 hedge launched and ≥1 breaker
    trip, no CPU fallback (the floor would absorb the typed errors)."""
    csr = erdos_renyi(48, 200, seed=3)
    plans = {
        0: FaultPlan(specs=(
            FaultSpec(kind="transfer_fault", at=0, count=30),
        )),
        1: FaultPlan(specs=(
            FaultSpec(kind="transfer_fault", at=10, count=2),
            FaultSpec(kind="transfer_fault", at=20, count=2),
            FaultSpec(kind="transfer_fault", at=30, count=2),
        )),
    }
    with TraversalService(
        csr, pool_size=2, telemetry=True,
        fault_plans=plans,
        policy=RetryPolicy(max_retries=2, backoff_base_ms=2.0,
                           jitter=0.0, allow_cpu_fallback=False),
        health=HealthPolicy(failure_threshold=2, open_ms=6.0,
                            hedge_min_samples=8, brownout=False),
        default_quota=TenantQuota(max_pending=64),
        recorder=recorder,
    ) as service:
        responses = []
        for batch in range(4):
            responses += service.serve([
                VisitRequest(problem="bfs", source=(7 * batch + i) % 48,
                             tenant=TENANTS[i % 3], deadline_ms=80.0)
                for i in range(9)
            ])
    return service, responses


def terminal_paths_scenario():
    """Two traced services that between them reach every terminal
    response shape; returns ``[(name, service, responses), ...]``."""
    csr = erdos_renyi(48, 200, seed=3)
    out = []
    # Bare lanes: two waves (the second re-plans around a late member),
    # a dispatch-time shed, an iteration-budget error, and one deadline
    # and one quota refusal at admission.
    with TraversalService(
        csr, pool_size=2, telemetry=True, wave_width=4,
        health=HealthPolicy(brownout=False),
        slo=SLOMonitor(SLOPolicy(min_samples=2)),
        recorder=FlightRecorder(),
        quotas={"capped": TenantQuota(max_pending=1)},
    ) as service:
        responses = service.serve([
            VisitRequest(source=0, tenant="a", arrival_ms=5.0),
            VisitRequest(source=1, tenant="a", arrival_ms=0.0,
                         deadline_ms=1.0),
            VisitRequest(source=2, tenant="b", deadline_ms=40.0),
            VisitRequest(source=3, tenant="b", deadline_ms=40.0),
            VisitRequest(source=4, tenant="b", deadline_ms=40.0),
            VisitRequest(source=5, tenant="a", deadline_ms=41.0),
            VisitRequest(problem="cc", source=6, tenant="a",
                         deadline_ms=0.001),
            VisitRequest(problem="cc", source=7, tenant="b",
                         deadline_ms=0.001),
            VisitRequest(problem="cc", source=8, tenant="a",
                         deadline_ms=0.001),
            VisitRequest(source=8, tenant="b", iteration_budget=1),
            VisitRequest(source=9, tenant="capped"),
            VisitRequest(source=10, tenant="capped"),
            NeighborhoodRequest(source=11, hops=2, tenant="a"),
            ShortestPathRequest(source=0, target=20, tenant="b"),
            StatsRequest(tenant="a"),
        ])
        responses += service.serve([
            VisitRequest(source=12, tenant="a", arrival_ms=20.0,
                         deadline_ms=0.5),
            VisitRequest(source=13, tenant="a", arrival_ms=21.0),
            VisitRequest(source=14, tenant="b", arrival_ms=21.0),
            VisitRequest(source=15, tenant="b", deadline_ms=30.0),
        ])
        out.append(("bare", service, responses))
    # One resilient lane: sustained transfer faults fail singles and a
    # wave with typed errors until brownout level 3 sheds best-effort
    # work; a later lone fault is absorbed by a retry.
    with TraversalService(
        csr, pool_size=1, telemetry=True, wave_width=4,
        fault_plans={0: FaultPlan(specs=(
            FaultSpec(kind="transfer_fault", at=0, count=24),
            FaultSpec(kind="transfer_fault", at=40, count=1),
        ))},
        policy=RetryPolicy(max_retries=1, backoff_base_ms=1.0,
                           jitter=0.0, allow_cpu_fallback=False),
        health=HealthPolicy(breakers=False, brownout_admission=0.01),
        slo=SLOMonitor(SLOPolicy(min_samples=2)),
        recorder=FlightRecorder(),
        default_quota=TenantQuota(max_pending=64),
    ) as service:
        responses = []
        for batch in range(4):
            responses += service.serve([
                VisitRequest(source=(5 * batch + i) % 48,
                             tenant=("a", "b")[i % 2],
                             deadline_ms=(None, 60.0)[i % 2])
                for i in range(5)
            ] + [
                VisitRequest(problem="cc", source=batch, tenant="a",
                             deadline_ms=60.0),
                VisitRequest(source=batch, tenant="b",
                             iteration_budget=1, deadline_ms=60.0),
            ])
        out.append(("resilient", service, responses))
    return out


@pytest.fixture(scope="module")
def terminal_runs():
    return {
        name: (service, responses, service.trace())
        for name, service, responses in terminal_paths_scenario()
    }


@pytest.fixture(scope="module")
def golden_run():
    service, responses = golden_scenario()
    return service, responses, service.trace()


@pytest.fixture(scope="module")
def plain_run():
    """A healthy traced run (no faults) for span-tree structure tests."""
    csr = erdos_renyi(40, 160, seed=1)
    with TraversalService(csr, pool_size=2, telemetry=True) as service:
        responses = service.serve([
            VisitRequest(problem="bfs", source=i, tenant="t",
                         deadline_ms=50.0)
            for i in range(6)
        ])
    return service, responses, service.trace()


# ----------------------------------------------------------------------
# Request-scoped span trees
# ----------------------------------------------------------------------

class TestRequestSpanTree:

    def test_every_response_carries_a_request_id(self, plain_run):
        _, responses, _ = plain_run
        ids = [r.request_id for r in responses]
        assert all(i.startswith("req-") for i in ids)
        assert len(set(ids)) == len(ids)

    def test_every_request_has_a_request_span(self, plain_run):
        _, responses, trace = plain_run
        spans = {
            r.attrs["request_id"]: r
            for r in trace.spans("service", "request")
        }
        for response in responses:
            assert response.request_id in spans
            rec = spans[response.request_id]
            assert rec.attrs["tenant"] == response.tenant
            assert rec.start_ms == pytest.approx(response.arrival_ms)
            assert rec.end_ms == pytest.approx(response.finish_ms)

    def test_tree_nests_queue_dispatch_engine(self, plain_run):
        _, responses, trace = plain_run
        for root in trace.spans("service", "request"):
            names = {c.name for c in trace.children_of(root.sid)}
            assert "queue" in names
            dispatch = next(
                c for c in trace.children_of(root.sid)
                if c.name == "dispatch"
            )
            # Engine records are grafted under the dispatch span and
            # re-based onto the service clock.
            engine = [
                c for c in trace.children_of(dispatch.sid)
                if c.category == "engine"
            ]
            assert engine
            for rec in engine:
                assert rec.attrs["request_id"] == root.attrs["request_id"]
                assert "lane" in rec.attrs
                assert rec.start_ms >= dispatch.start_ms - 1e-9

    def test_render_request_tree(self, plain_run):
        _, responses, trace = plain_run
        rid = responses[0].request_id
        text = render_request(trace, rid)
        assert text.startswith(f"request {rid}:")
        assert "queue [service]" in text
        assert "dispatch [service]" in text
        assert "[engine]" in text

    def test_render_unknown_request(self, plain_run):
        _, _, trace = plain_run
        text = render_request(trace, "req-99999")
        assert text.startswith("no request span")
        assert "req-00000" in text  # lists the known ids

    def test_request_ids_enumerates_all(self, plain_run):
        _, responses, trace = plain_run
        assert request_ids(trace) == sorted(
            r.request_id for r in responses
        )

    def test_pagerank_carries_engine_spans(self):
        csr = erdos_renyi(40, 160, seed=1)
        with TraversalService(csr, pool_size=1, telemetry=True) as service:
            response = service.call(PageRankRequest(tenant="t"))
        trace = service.trace()
        dispatch = next(iter(trace.spans("service", "dispatch")))
        (run,) = trace.children_of(dispatch.sid)
        assert run.name == "pagerank" and run.category == "engine"
        iterations = [c for c in trace.children_of(run.sid)
                      if c.name == "iteration"]
        assert len(iterations) == response.result.iterations
        kernels = {c.name for it in iterations
                   for c in trace.children_of(it.sid)}
        assert {"transform", "vertex_kernel"} <= kernels


class TestWaveLinking:

    @pytest.fixture(scope="class")
    def wave_run(self):
        csr = erdos_renyi(40, 160, seed=2)
        with TraversalService(
            csr, pool_size=1, telemetry=True, wave_width=4,
        ) as service:
            responses = service.serve([
                VisitRequest(problem="bfs", source=i, tenant="w")
                for i in range(4)
            ])
        return service, responses, service.trace()

    def test_members_point_at_shared_wave_span(self, wave_run):
        _, responses, trace = wave_run
        waves = {r.sid: r for r in trace.spans("service", "wave")}
        assert waves
        members = [
            r for r in trace.spans("service", "request")
            if "wave_sid" in r.attrs
        ]
        assert len(members) == len(responses)
        for rec in members:
            wave = waves[rec.attrs["wave_sid"]]
            assert wave.attrs["width"] == len(responses)
            assert rec.attrs["wave_lane"] is not None

    def test_render_request_follows_wave_sid(self, wave_run):
        _, responses, trace = wave_run
        text = render_request(trace, responses[0].request_id)
        assert "shared wave traversal (via wave_sid):" in text
        assert "wave [service]" in text


# ----------------------------------------------------------------------
# Hedge stitching (satellite: distinct lane attrs, own track)
# ----------------------------------------------------------------------

class TestHedgeStitching:

    def test_scenario_hedged_and_tripped(self, golden_run):
        service, responses, _ = golden_run
        assert service.health.hedges >= 1
        assert sum(lane.opens for lane in service.health.lanes) >= 1
        assert any(r.hedged for r in responses)
        assert any(not r.ok and not r.shed for r in responses)

    def test_hedge_wrappers_on_hedge_track(self, golden_run):
        service, responses, trace = golden_run
        wrappers = trace.spans("hedge", "hedge")
        assert len(wrappers) == service.health.hedges
        hedged_ids = {r.request_id for r in responses if r.hedged}
        for rec in wrappers:
            assert rec.attrs["request_id"] in hedged_ids
            assert "won" in rec.attrs and "threshold_ms" in rec.attrs

    def test_hedge_lane_distinct_from_primary(self, golden_run):
        _, _, trace = golden_run
        dispatches = {
            r.attrs["request_id"]: r
            for r in trace.records if r.name == "dispatch"
        }
        for rec in trace.spans("hedge", "hedge"):
            primary = dispatches[rec.attrs["request_id"]]
            assert rec.attrs["lane"] != primary.attrs["worker"]

    def test_hedge_leg_records_never_leak_to_primary_tracks(
        self, golden_run,
    ):
        _, _, trace = golden_run
        # Every span grafted under a hedge wrapper is re-categorised to
        # the hedge track — the spare replica's kernels must not
        # interleave with the primary lane's engine/compute rows.
        wrappers = trace.spans("hedge", "hedge")

        def descendants(sid):
            for child in trace.children_of(sid):
                yield child
                yield from descendants(child.sid)

        for wrapper in wrappers:
            legs = list(descendants(wrapper.sid))
            assert legs
            for rec in legs:
                assert rec.category == "hedge"
                assert rec.attrs["lane"] == wrapper.attrs["lane"]

    def test_hedge_wrapper_is_sibling_of_dispatch(self, golden_run):
        _, _, trace = golden_run
        by_sid = {r.sid: r for r in trace.records}
        for rec in trace.spans("hedge", "hedge"):
            parent = by_sid[rec.parent]
            assert parent.name == "request"


# ----------------------------------------------------------------------
# SLO burn-rate monitors
# ----------------------------------------------------------------------

class TestSLOMonitor:

    def test_burn_rate_math(self):
        monitor = SLOMonitor(SLOPolicy(
            objective=0.9, fast_window_ms=40.0, slow_window_ms=200.0,
            min_samples=1,
        ))
        for i in range(10):
            monitor.record("t", float(i), hit=(i != 0))
        # 1 miss in 10 inside both windows: miss rate 0.1 against an
        # error budget of 0.1 -> burn exactly 1.0.
        assert monitor.burn_rate("t", 9.0, fast=False) == \
            pytest.approx(1.0)

    def test_ladder_escalates_to_page(self):
        monitor = SLOMonitor(SLOPolicy(objective=0.9, min_samples=4))
        alerts = []
        for i in range(8):
            alerts += monitor.record("t", float(i), hit=False)
        assert monitor.state("t") == "page"
        assert [a.state for a in alerts] == ["page"]
        assert alerts[0].escalation
        assert monitor.worst_state == "page"
        assert monitor.alerts == alerts

    def test_min_samples_guard(self):
        monitor = SLOMonitor(SLOPolicy(objective=0.9, min_samples=10))
        for i in range(9):
            assert monitor.record("t", float(i), hit=False) == []
        assert monitor.state("t") == "ok"

    def test_recovery_de_escalates(self):
        monitor = SLOMonitor(SLOPolicy(
            objective=0.5, fast_window_ms=10.0, slow_window_ms=20.0,
            min_samples=2,
        ))
        for i in range(6):
            monitor.record("t", float(i), hit=False)
        assert monitor.state("t") == "page"
        alerts = []
        for i in range(6, 40):
            alerts += monitor.record("t", float(i), hit=True)
        assert monitor.state("t") == "ok"
        assert alerts and not alerts[-1].escalation

    def test_per_tenant_objectives(self):
        monitor = SLOMonitor(objectives={"a": 0.99, "b": 0.5})
        monitor.record("a", 0.0, hit=True)
        monitor.record("b", 0.0, hit=True)
        snap = monitor.snapshot()
        assert snap["a"]["objective"] == 0.99
        assert snap["b"]["objective"] == 0.5

    def test_export_gauges(self):
        monitor = SLOMonitor(SLOPolicy(objective=0.9, min_samples=1))
        for i in range(4):
            monitor.record("t", float(i), hit=False)
        reg = MetricsRegistry()
        monitor.export(reg, now_ms=3.0)
        gauges = reg.snapshot()["gauges"]
        assert gauges["slo.objective{tenant=t}"] == pytest.approx(0.9)
        assert gauges["slo.state{tenant=t}"] == \
            float(SLO_STATES.index("page"))
        assert "slo.burn_rate{tenant=t,window=slow}" in gauges

    def test_render_report(self):
        monitor = SLOMonitor(SLOPolicy(objective=0.9, min_samples=1))
        for i in range(4):
            monitor.record("t", float(i), hit=False)
        text = render_slo_report(monitor, now_ms=3.0)
        assert "burn" in text
        assert "page" in text
        assert "Alert transitions:" in text

    def test_service_feeds_monitor_at_every_terminal(self):
        csr = erdos_renyi(40, 160, seed=1)
        monitor = SLOMonitor(SLOPolicy(objective=0.9, min_samples=2))
        with TraversalService(
            csr, pool_size=1, slo=monitor,
        ) as service:
            responses = service.serve(
                [VisitRequest(problem="bfs", source=i, tenant="t",
                              deadline_ms=50.0) for i in range(4)]
                # A spent deadline sheds -> counts as an SLO miss.
                + [VisitRequest(problem="bfs", source=0, tenant="t",
                                deadline_ms=0.0)]
            )
        assert len(responses) == 5
        snap = monitor.snapshot()
        assert snap["t"]["samples"] == 5
        assert snap["t"]["hit_rate"] == pytest.approx(4 / 5)

    def test_slo_alerts_land_on_alerts_track(self):
        csr = erdos_renyi(40, 160, seed=1)
        monitor = SLOMonitor(SLOPolicy(objective=0.9, min_samples=2))
        with TraversalService(
            csr, pool_size=1, telemetry=True, slo=monitor,
        ) as service:
            service.serve([
                VisitRequest(problem="bfs", source=i, tenant="t",
                             deadline_ms=0.0)
                for i in range(4)
            ])
            trace = service.trace()
        alerts = trace.spans("alerts", "slo_alert")
        assert alerts
        assert alerts[0].attrs["tenant"] == "t"
        assert alerts[0].attrs["state"] in SLO_STATES
        counters = service.metrics.snapshot()["counters"]
        assert any(k.startswith("slo.alerts") for k in counters)


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------

class TestFlightRecorder:

    def test_triggers_name_errors_and_breakers(self, tmp_path):
        recorder = FlightRecorder(out_dir=tmp_path / "pm")
        golden_scenario(recorder=recorder)
        triggers = [m["trigger"] for m in recorder.dumps]
        assert any(t.startswith("error:") for t in triggers)
        assert any(t.startswith("breaker:lane") for t in triggers)

    def test_bundle_files_written_and_trace_validates(self, tmp_path):
        out = tmp_path / "pm"
        recorder = FlightRecorder(out_dir=out)
        golden_scenario(recorder=recorder)
        assert recorder.dumps
        for manifest in recorder.dumps:
            names = set(manifest["files"])
            stem = manifest["stem"]
            assert f"{stem}.events.jsonl" in names
            assert f"{stem}.trace.json" in names
            assert f"{stem}.metrics.json" in names
            assert f"{stem}.manifest.json" in names
            with open(out / f"{stem}.trace.json") as fh:
                assert validate_chrome_trace(json.load(fh)) == []
            with open(out / f"{stem}.events.jsonl") as fh:
                for line in fh:
                    entry = json.loads(line)
                    assert entry["kind"] in ("serve", "health")
            with open(out / f"{stem}.manifest.json") as fh:
                on_disk = json.load(fh)
            assert on_disk["trigger"] == manifest["trigger"]

    def test_bundles_are_deterministic(self, tmp_path):
        digests = []
        for leg in ("a", "b"):
            out = tmp_path / leg
            recorder = FlightRecorder(out_dir=out)
            golden_scenario(recorder=recorder)
            digests.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            })
        assert digests[0].keys() == digests[1].keys()
        assert digests[0] == digests[1]

    def test_in_memory_manifests_without_out_dir(self):
        recorder = FlightRecorder()
        golden_scenario(recorder=recorder)
        assert recorder.dumps
        assert all(m["files"] == [] for m in recorder.dumps)

    def test_sheds_and_refusals_do_not_trigger(self):
        csr = erdos_renyi(40, 160, seed=1)
        recorder = FlightRecorder()
        with TraversalService(
            csr, pool_size=1, recorder=recorder,
            default_quota=TenantQuota(max_pending=2),
        ) as service:
            responses = service.serve([
                VisitRequest(problem="bfs", source=i, tenant="t",
                             deadline_ms=0.0)
                for i in range(6)
            ])
        assert any(r.shed for r in responses)
        assert any(r.seq < 0 for r in responses)  # quota refusals
        assert recorder.dumps == []
        assert len(recorder.ring) == len(responses)

    def test_max_dumps_cap_suppresses(self):
        recorder = FlightRecorder(max_dumps=1)
        golden_scenario(recorder=recorder)
        assert len(recorder.dumps) == 1
        assert recorder.suppressed >= 1

    def test_snapshot_folds_recorder_and_slo_gauges(self):
        csr = erdos_renyi(40, 160, seed=1)
        monitor = SLOMonitor(SLOPolicy(objective=0.9, min_samples=2))
        recorder = FlightRecorder()
        with TraversalService(
            csr, pool_size=2, health=True, slo=monitor,
            recorder=recorder,
        ) as service:
            service.serve([
                VisitRequest(problem="bfs", source=i, tenant="t",
                             deadline_ms=50.0)
                for i in range(4)
            ])
            gauges = unified_snapshot(service=service)["gauges"]
        assert gauges["service.postmortems"] == 0.0
        assert gauges["service.recorder_entries"] == 4.0
        assert "slo.state{tenant=t}" in gauges
        assert "service.lane_state{lane=0}" in gauges
        assert "service.health_hedges" in gauges

    def test_health_fold_in_unified_snapshot(self, golden_run):
        service, _, _ = golden_run
        gauges = unified_snapshot(service=service)["gauges"]
        assert gauges["service.health_hedges"] == \
            float(service.health.hedges)
        assert gauges["service.lane_opens{lane=0}"] >= 1.0
        assert "service.lane_closes{lane=0}" in gauges
        assert "service.lane_observations{lane=1}" in gauges


# ----------------------------------------------------------------------
# Golden bytes + identity
# ----------------------------------------------------------------------

def _check_golden(name: str, got: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REGEN_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(got, encoding="utf-8")
    assert path.exists(), (
        f"golden file {path} missing — regenerate with REGEN_GOLDEN=1"
    )
    assert got == path.read_text(encoding="utf-8"), (
        f"{name} drifted from the committed golden bytes; if the "
        "change is intentional, REGEN_GOLDEN=1 and commit the diff"
    )


class TestGoldenBytes:

    def test_chrome_trace_golden_bytes(self, golden_run):
        _, _, trace = golden_run
        _check_golden(
            "serve_pr10_trace.json",
            dumps_stable(to_chrome_trace(trace)) + "\n",
        )

    def test_jsonl_golden_bytes(self, golden_run):
        _, _, trace = golden_run
        _check_golden("serve_pr10_events.jsonl", to_jsonl(trace))

    def test_golden_trace_validates(self, golden_run):
        _, _, trace = golden_run
        assert validate_chrome_trace(to_chrome_trace(trace)) == []


class TestTerminalPathsGolden:

    def test_scenario_reaches_every_terminal_path(self, terminal_runs):
        service, responses, trace = terminal_runs["bare"]
        waves = [s for s in trace.spans() if s.name == "wave"]
        assert len(waves) == 2 and all(s.attrs["ok"] for s in waves)
        assert any(s.attrs["width"] == 3 for s in waves)  # re-planned
        assert sum(r.shed and r.seq >= 0 for r in responses) == 2
        refused = [r for r in responses if r.seq < 0]
        assert [r.shed for r in refused] == [True, False]
        assert refused[1].error.startswith("QuotaExceededError")
        assert any(
            not r.ok and not r.shed and r.seq >= 0 for r in responses
        )
        service, responses, trace = terminal_runs["resilient"]
        assert any(
            s.name == "wave" and not s.attrs["ok"] for s in trace.spans()
        )
        assert sum("brownout" in (r.error or "") for r in responses) == 3
        assert any(
            (r.error or "").startswith("TransferError") for r in responses
        )
        assert any(r.ok and r.attempts == 2 for r in responses)

    def test_terminal_paths_jsonl_golden_bytes(self, terminal_runs):
        _check_golden(
            "serve_terminal_paths_events.jsonl",
            "".join(to_jsonl(trace) for _, _, trace in
                    terminal_runs.values()),
        )

    def test_terminal_paths_facts_golden(self, terminal_runs):
        facts = {
            name: {
                "responses": [list(_response_facts(r)) for r in responses],
                "metrics": service.metrics_snapshot(),
                "ring": list(service.recorder.ring),
                "dumps": [m["trigger"] for m in service.recorder.dumps],
            }
            for name, (service, responses, _) in terminal_runs.items()
        }
        _check_golden(
            "serve_terminal_paths_facts.json",
            json.dumps(facts, sort_keys=True, indent=1) + "\n",
        )


class TestTraceIdentity:

    def test_observability_is_observational(self):
        from repro.serving.identity import check_trace_identity

        csr = erdos_renyi(40, 160, seed=1)
        assert check_trace_identity(csr, pool_size=2) == []

    def test_observational_over_resilient_lanes(self):
        from repro.serving.identity import check_trace_identity

        csr = erdos_renyi(40, 160, seed=1)
        assert check_trace_identity(csr, pool_size=2, resilient=True) \
            == []
