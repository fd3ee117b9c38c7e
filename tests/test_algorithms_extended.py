"""Tests for the extension algorithms (CC, delta-PageRank) and the
fixed-point validator."""

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings, strategies as st

from repro import EtaGraph
from repro.algorithms.cc import ConnectedComponents, weakly_connected_components
from repro.algorithms.validate import validate_labels
from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.pagerank import delta_pagerank, pagerank, pagerank_reference
from repro.core.session import EngineSession
from repro.errors import ConfigError
from repro.graph import generators
from repro.graph.weights import attach_weights


class TestValidator:
    @pytest.fixture(scope="class")
    def workload(self):
        g = attach_weights(generators.rmat(9, 4000, seed=11), seed=12)
        src = int(np.argmax(g.out_degrees()))
        return g, src

    @pytest.mark.parametrize("problem", ["bfs", "sssp", "sswp"])
    def test_engine_output_validates(self, workload, problem):
        g, src = workload
        labels = EtaGraph(g).run(problem, src).labels
        report = validate_labels(g, labels, src, problem)
        assert report.ok, report

    def test_detects_wrong_source(self, workload):
        g, src = workload
        labels = EtaGraph(g).bfs(src).labels.copy()
        labels[src] = 5.0
        report = validate_labels(g, labels, src, "bfs")
        assert not report.ok
        assert report.bad_source

    def test_detects_inconsistent_label(self, workload):
        g, src = workload
        labels = EtaGraph(g).bfs(src).labels.copy()
        # Inflate one reached non-source label: some in-edge now improves it.
        reached = np.flatnonzero(np.isfinite(labels) & (labels > 0))
        labels[reached[0]] += 10
        report = validate_labels(g, labels, src, "bfs")
        assert not report.ok
        assert report.violated_edges > 0

    def test_detects_unwitnessed_label(self, workload):
        g, src = workload
        labels = EtaGraph(g).bfs(src).labels.copy()
        # Deflate a label below anything an in-edge can produce.
        reached = np.flatnonzero(np.isfinite(labels) & (labels > 1))
        labels[reached[0]] = 0.5
        report = validate_labels(g, labels, src, "bfs")
        assert not report.ok

    def test_all_unreachable_is_valid(self):
        g = generators.star_graph(5, out=False)
        labels = EtaGraph(g).bfs(0).labels
        assert validate_labels(g, labels, 0, "bfs").ok


class TestConnectedComponents:
    @given(seed=st.integers(0, 25))
    @settings(max_examples=12, deadline=None)
    def test_matches_scipy_partition(self, seed):
        g = generators.erdos_renyi(150, 300, seed=seed)
        ours = weakly_connected_components(g)
        _, ref = csgraph.connected_components(
            g.to_scipy(), directed=True, connection="weak"
        )
        # Same partition: our label within each scipy component is constant,
        # and distinct across components.
        for comp in np.unique(ref):
            members = np.flatnonzero(ref == comp)
            assert len(np.unique(ours[members])) == 1
        assert len(np.unique(ours)) == len(np.unique(ref))

    def test_component_label_is_min_member(self):
        g = generators.path_graph(6)
        labels = weakly_connected_components(g)
        assert np.all(labels == 0)

    def test_isolated_vertices_are_own_component(self):
        from repro.graph.csr import CSRGraph
        g = CSRGraph.from_edges([0], [1], num_vertices=4)
        labels = weakly_connected_components(g)
        assert labels[0] == labels[1] == 0
        assert labels[2] == 2 and labels[3] == 3

    def test_all_active_initial_frontier(self):
        p = ConnectedComponents()
        assert len(p.initial_frontier(10, 0)) == 10
        assert p.reached_mask(np.arange(5, dtype=np.float32), 0).all()

    def test_runs_through_engine_directly(self):
        g = generators.cycle_graph(20)
        with EngineSession(g) as session:
            result = session.query(ConnectedComponents(), 0)
        assert np.all(result.labels == 0)
        assert result.stats.seed_count == 20
        assert result.stats.activation_fraction() == 1.0


class TestDeltaPageRank:
    @pytest.fixture(scope="class")
    def graph(self):
        return generators.rmat(9, 3000, seed=4)

    def test_matches_power_iteration(self, graph):
        pr = delta_pagerank(graph, tolerance=1e-7)
        ref = pagerank_reference(graph, iterations=500)
        assert np.abs(pr.ranks - ref).max() < 1e-4

    def test_rank_mass_conserved(self, graph):
        """Total rank == injected mass minus undistributed residual; with
        a tight tolerance this approaches (1 - d) * |V| plus mass retained
        through sink handling."""
        pr = delta_pagerank(graph, tolerance=1e-9)
        assert pr.ranks.min() >= 1e-9  # every vertex got its base mass
        assert np.isfinite(pr.ranks).all()

    def test_hub_ranks_highest(self, graph):
        pr = delta_pagerank(graph)
        top = pr.top_vertices(5)
        in_deg = np.bincount(graph.column_indices,
                             minlength=graph.num_vertices)
        # The top-ranked vertex is among the top in-degree vertices.
        assert in_deg[top[0]] >= np.partition(in_deg, -10)[-10]

    def test_active_set_shrinks(self, graph):
        pr = delta_pagerank(graph, tolerance=1e-6)
        hist = pr.active_history
        assert hist[0] == graph.num_vertices
        assert hist[-1] < hist[0]

    def test_looser_tolerance_converges_faster(self, graph):
        fast = delta_pagerank(graph, tolerance=1e-3)
        slow = delta_pagerank(graph, tolerance=1e-7)
        assert fast.iterations < slow.iterations
        assert fast.total_ms < slow.total_ms

    def test_smp_config_does_not_change_ranks(self, graph):
        a = delta_pagerank(graph, config=EtaGraphConfig(smp=False))
        b = delta_pagerank(graph)
        assert np.allclose(a.ranks, b.ranks)

    def test_invalid_params_rejected(self, graph):
        with pytest.raises(ConfigError):
            delta_pagerank(graph, damping=1.5)
        with pytest.raises(ConfigError):
            delta_pagerank(graph, tolerance=0)

    def test_smp_shared_memory_fit_applies(self, graph):
        """A degree limit whose SMP buffers overflow an SM falls back to
        the plain kernel, as a query does, instead of failing the
        launch."""
        wide = delta_pagerank(graph, config=EtaGraphConfig(degree_limit=1024))
        plain = delta_pagerank(
            graph, config=EtaGraphConfig(degree_limit=1024, smp=False))
        assert wide.total_ms == plain.total_ms
        assert np.array_equal(wide.ranks, plain.ranks)

    @pytest.mark.parametrize("mode", list(MemoryMode))
    def test_topology_charges_match_query(self, graph, mode):
        """Iteration 0 of PageRank and of a CC query expand the same
        all-vertex frontier on fresh sessions, so they pay the same
        transform kernel and the same topology charge."""
        config = EtaGraphConfig(memory_mode=mode)
        with EngineSession(graph, config) as session:
            pr = pagerank(session)
        with EngineSession(graph, config) as session:
            cc = session.query("cc", 0)
        first_pr, first_cc = pr.stats.iterations[0], cc.stats.iterations[0]
        assert first_pr.active_vertices == graph.num_vertices
        assert first_cc.active_vertices == graph.num_vertices
        assert first_pr.transform_ms == first_cc.transform_ms
        assert first_pr.transfer_ms == first_cc.transfer_ms

        def first_bytes(timeline):
            return {iv.label: iv.nbytes for iv in timeline.intervals
                    if iv.label in ("iter-0", "zerocopy-0", "direct-0")}

        assert first_bytes(pr.timeline) == first_bytes(cc.timeline)
        if mode in (MemoryMode.ZERO_COPY, MemoryMode.DIRECT_ACCESS,
                    MemoryMode.UM_ON_DEMAND):
            assert first_bytes(pr.timeline)  # the charge was paid

    def test_zero_iteration_budget_rejected_before_placement(self, graph):
        with EngineSession(graph) as session:
            with pytest.raises(ConfigError):
                pagerank(session, max_iterations=0)
            assert session.setup_ms == 0.0
            assert not session.warm

    def test_pagerank_leaves_the_bfs_labels_in_place(self, graph):
        """PageRank's float64 residual has its own allocation, so the
        float32 BFS labels (and every memo key built on their address)
        survive it."""
        def live(session):
            return {a.name: a for a in session.memory.allocations()}

        with EngineSession(graph) as session:
            before = session.query("bfs", 0)
            labels_arr = live(session)["labels"]
            pagerank(session)
            after = session.query("bfs", 0)
            assert live(session)["labels"] is labels_arr
            residual_arr = live(session)["residual"]
            assert residual_arr.base_address != labels_arr.base_address
            assert residual_arr.data.dtype == np.float64
            assert labels_arr.data.dtype == np.float32
        assert np.array_equal(before.labels, after.labels)

    def test_query_after_pagerank_starts_warm(self, graph):
        with EngineSession(graph) as session:
            pagerank(session)
            bfs = session.query("bfs", 0)
        assert bfs.setup_ms == 0.0
        assert bfs.extras["warm_start"]
