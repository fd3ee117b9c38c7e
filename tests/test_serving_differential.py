"""Service-vs-session differential battery: the frontend must never
change an answer.

Every endpoint's result has to be bit-identical — labels *and*
simulated clock readings — to what the underlying layer produces when
driven directly.  Warm-query timing depends on each session's full
history, so multi-lane comparisons replay each lane's exact served
subsequence on a fresh bare session (see ``repro.serving.identity``).
"""

import numpy as np
import pytest

from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.session import EngineSession
from repro.resilience import FaultPlan, ResilientSession
from repro.resilience.chaos import result_digest
from repro.serving import (
    NeighborhoodRequest,
    PageRankRequest,
    ShortestPathRequest,
    StatsRequest,
    TraversalService,
    VisitRequest,
    check_service_identity,
)
from repro.serving.identity import replay_mismatches
from repro.testing.differential import (
    oracle_labels,
    run_differential_case,
    service_engine,
)

QUERIES = (
    ("bfs", 0), ("bfs", 3), ("cc", 0), ("bfs", 0), ("cc", 1), ("bfs", 2),
)


class TestVisitIdentity:
    def test_single_lane_stream_is_bit_identical(self, skewed_graph):
        # pool_size=1 serves the stream in order on one session: the
        # reference is the same stream on one bare session.
        with TraversalService(skewed_graph, pool_size=1) as service:
            responses = service.serve([
                VisitRequest(problem=p, source=s) for p, s in QUERIES
            ])
        with EngineSession(skewed_graph) as session:
            for response, (problem, source) in zip(responses, QUERIES):
                want = result_digest(session.query(problem, source))
                assert result_digest(response.result) == want

    def test_two_lane_stream_replays_per_lane(self, skewed_graph):
        with TraversalService(skewed_graph, pool_size=2) as service:
            responses = service.serve([
                VisitRequest(problem=p, source=s) for p, s in QUERIES
            ])
        assert {r.worker for r in responses} == {0, 1}
        assert replay_mismatches(skewed_graph, responses) == []

    def test_check_service_identity_gate(self, skewed_graph):
        for pool_size in (1, 2):
            assert check_service_identity(
                skewed_graph, pool_size=pool_size,
            ) == []

    @pytest.mark.parametrize("mode", [
        MemoryMode.DEVICE, MemoryMode.UM_ON_DEMAND, MemoryMode.ZERO_COPY,
    ])
    def test_identity_across_memory_modes(self, skewed_graph, mode):
        config = EtaGraphConfig(memory_mode=mode)
        assert check_service_identity(
            skewed_graph, config=config, pool_size=2,
        ) == []

    def test_early_exit_target_identity(self, skewed_graph):
        with TraversalService(skewed_graph, pool_size=1) as service:
            response = service.call(
                VisitRequest(problem="bfs", source=0, target=7)
            )
        with EngineSession(skewed_graph) as session:
            want = result_digest(session.query("bfs", 0, target=7))
        assert result_digest(response.result) == want


class TestPathIdentity:
    """Shortest paths run on the lane that dispatched them, as a BFS
    with parents on its resident session."""

    STREAM = (
        VisitRequest(source=0), VisitRequest(source=1),
        ShortestPathRequest(source=0, target=5),
        ShortestPathRequest(source=2, target=7),
        VisitRequest(source=3),
    )

    @pytest.fixture(scope="class")
    def livejournal(self):
        from repro.graph import datasets

        return datasets.load("livejournal")[0]

    def test_mixed_stream_replays_per_lane(self, livejournal):
        with TraversalService(livejournal, pool_size=2) as service:
            responses = service.serve(list(self.STREAM))
        assert all(r.ok for r in responses)
        paths = [r for r in responses
                 if isinstance(r.request, ShortestPathRequest)]
        assert {r.worker for r in paths} == {0, 1}
        assert replay_mismatches(livejournal, responses) == []

    def test_gate_stream_serves_a_path_on_every_lane(self):
        from repro.graph import datasets
        from repro.serving.identity import DEFAULT_QUERIES, _requests

        slashdot = datasets.load("slashdot")[0]
        with TraversalService(slashdot, pool_size=2) as service:
            responses = service.serve(_requests(DEFAULT_QUERIES))
        assert all(r.ok for r in responses)
        assert {r.worker for r in responses
                if isinstance(r.request, ShortestPathRequest)} == {0, 1}

    def test_path_pays_no_second_placement(self, livejournal):
        with TraversalService(livejournal, pool_size=2) as service:
            warm = service.serve(list(self.STREAM[:2]))
            assert {r.worker for r in warm} == {0, 1}
            assert all(r.result.setup_ms > 0.0 for r in warm)
            path = service.call(self.STREAM[2])
        assert path.ok and path.value[0] == 0 and path.value[-1] == 5
        assert path.result.setup_ms == 0.0


class TestOtherEndpoints:
    def test_neighborhood_rides_the_same_bfs(self, skewed_graph):
        with TraversalService(skewed_graph, pool_size=1) as service:
            response = service.call(NeighborhoodRequest(source=0, hops=2))
        with EngineSession(skewed_graph) as session:
            want = result_digest(session.query("bfs", 0))
        assert result_digest(response.result) == want

    def test_shortest_path_matches_api_helper(self, skewed_graph):
        from repro.core.api import EtaGraph

        with TraversalService(skewed_graph) as service:
            response = service.call(ShortestPathRequest(source=0, target=9))
        assert response.ok
        want = EtaGraph(skewed_graph).shortest_hop_path(0, 9)
        assert response.value == want

    def test_pagerank_matches_direct_call(self, tiny_graph):
        from repro.core.pagerank import delta_pagerank

        with TraversalService(tiny_graph) as service:
            response = service.call(PageRankRequest())
        direct = delta_pagerank(tiny_graph)
        np.testing.assert_array_equal(response.value, direct.ranks)
        assert response.result.total_ms == direct.total_ms
        # Lane time includes the residual readback, as a query's does.
        assert direct.d2h_ms == direct.profiler.d2h_time_ms > 0.0
        assert response.service_ms == direct.total_ms + direct.d2h_ms

    def test_stats_matches_graph_summary(self, tiny_graph):
        from dataclasses import asdict

        from repro.graph.properties import GraphSummary

        with TraversalService(tiny_graph) as service:
            response = service.call(StatsRequest())
        assert response.value == asdict(GraphSummary.of(tiny_graph))


class TestResilientWorkers:
    def test_no_fault_resilient_service_is_bit_identical(self, skewed_graph):
        # resilient=True with no plan must add nothing: same digests as
        # a bare session.
        with TraversalService(
            skewed_graph, pool_size=1, resilient=True,
        ) as service:
            responses = service.serve([
                VisitRequest(problem=p, source=s) for p, s in QUERIES
            ])
        with EngineSession(skewed_graph) as session:
            for response, (problem, source) in zip(responses, QUERIES):
                want = result_digest(session.query(problem, source))
                assert result_digest(response.result) == want

    @pytest.mark.parametrize("plan_seed", [1, 7, 23])
    def test_faulted_service_replays_resilient_session(
        self, skewed_graph, plan_seed,
    ):
        # Under a seeded fault plan the service must be bit-identical to
        # a ResilientSession running the same plan over the same stream
        # (fresh injector each, so the deterministic schedule replays).
        plan = FaultPlan.random(plan_seed, max_faults=3)
        with TraversalService(
            skewed_graph, pool_size=1, fault_plan=plan,
        ) as service:
            responses = service.serve([
                VisitRequest(problem=p, source=s) for p, s in QUERIES
            ])
        with ResilientSession(skewed_graph, fault_plan=plan) as reference:
            for response, (problem, source) in zip(responses, QUERIES):
                outcome = reference.run(problem, source)
                assert response.ok, response.error
                assert result_digest(response.result) == \
                    result_digest(outcome.result)
                assert response.placement == outcome.final_placement
                assert response.degraded == outcome.degraded
                assert response.faults_seen == outcome.faults_seen

    def test_faulted_labels_still_match_the_oracle(self, skewed_graph):
        plan = FaultPlan.random(5, max_faults=4)
        with TraversalService(
            skewed_graph, pool_size=2, fault_plan=plan,
        ) as service:
            responses = service.serve([
                VisitRequest(problem=p, source=s) for p, s in QUERIES
            ])
        for response, (problem, source) in zip(responses, QUERIES):
            assert response.ok, response.error
            np.testing.assert_array_equal(
                response.labels, oracle_labels(skewed_graph, problem, source),
            )


class TestFuzzEngine:
    def test_service_engine_joins_differential_cases(self, skewed_graph):
        report = run_differential_case(
            skewed_graph, "bfs", 0,
            extra_engines={"etagraph-service": service_engine()},
        )
        assert report.ok, report.summary()
        assert "etagraph-service" in [e.engine for e in report.engines]

    def test_run_fuzz_with_service_engine(self):
        from repro.testing.fuzz import run_fuzz

        report = run_fuzz(
            max_cases=4, seed=11, baselines=(),
            engines=("etagraph-service",), metamorphic_every=0,
        )
        assert report.ok, report.summary()

    def test_unknown_engine_name_rejected(self):
        from repro.testing.fuzz import run_fuzz

        with pytest.raises(ValueError):
            run_fuzz(max_cases=1, engines=("no-such-engine",))
