"""End-to-end tests of the EtaGraph engine: functional exactness against
the CPU oracles, ablation behaviour, statistics and UM interaction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import EtaGraph, EtaGraphConfig, MemoryMode
from repro.algorithms import cpu_reference
from repro.errors import ConfigError, ConvergenceError
from repro.gpu.device import GTX_1080TI
from repro.graph import generators, properties
from repro.graph.weights import attach_weights
from repro.utils.units import KIB


def oracle(graph, source, problem):
    return cpu_reference.reference_labels(graph, source, problem)


@pytest.fixture(scope="module")
def social():
    g = attach_weights(generators.rmat(10, 12000, seed=7), seed=8)
    src = int(np.argmax(g.out_degrees()))
    return g, src


class TestCorrectness:
    @pytest.mark.parametrize("problem", ["bfs", "sssp", "sswp"])
    def test_matches_oracle_on_social(self, social, problem):
        g, src = social
        result = EtaGraph(g).run(problem, src)
        assert np.allclose(result.labels, oracle(g, src, problem))

    @pytest.mark.parametrize("problem", ["bfs", "sssp", "sswp"])
    @pytest.mark.parametrize(
        "mode", [MemoryMode.UM_PREFETCH, MemoryMode.UM_ON_DEMAND,
                 MemoryMode.DEVICE]
    )
    def test_memory_modes_do_not_change_labels(self, social, problem, mode):
        g, src = social
        cfg = EtaGraphConfig(memory_mode=mode)
        result = EtaGraph(g, cfg).run(problem, src)
        assert np.allclose(result.labels, oracle(g, src, problem))

    @pytest.mark.parametrize("smp", [True, False])
    def test_smp_does_not_change_labels(self, social, smp):
        g, src = social
        result = EtaGraph(g, EtaGraphConfig(smp=smp)).bfs(src)
        assert np.array_equal(result.labels, oracle(g, src, "bfs"))

    @given(k=st.sampled_from([1, 2, 3, 7, 16, 64, 1000]))
    @settings(max_examples=7, deadline=None)
    def test_degree_limit_invariance(self, k):
        """Theorem 2: traversal through shadow vertices is identical to
        traversal through original vertices, for any K."""
        g = attach_weights(generators.rmat(8, 2500, seed=3), seed=4)
        src = int(np.argmax(g.out_degrees()))
        result = EtaGraph(g, EtaGraphConfig(degree_limit=k)).sssp(src)
        assert np.allclose(result.labels, oracle(g, src, "sssp"))

    def test_path_graph(self):
        g = generators.path_graph(30)
        result = EtaGraph(g).bfs(0)
        assert list(result.labels) == list(range(30))
        assert result.iterations == 30  # 29 expanding + 1 empty-check pass

    def test_star_graph_single_iteration_work(self):
        g = generators.star_graph(100)
        result = EtaGraph(g).bfs(0)
        assert result.stats.iterations[0].edges_scanned == 100
        assert np.all(result.labels[1:] == 1)

    def test_unreachable_source_region(self):
        g = generators.star_graph(10, out=False)  # hub 0 has no out-edges
        result = EtaGraph(g).bfs(0)
        assert result.visited == 1
        assert result.iterations == 1

    def test_source_out_of_range(self, social):
        g, _ = social
        from repro.errors import InvalidLaunchError
        with pytest.raises(InvalidLaunchError):
            EtaGraph(g).bfs(g.num_vertices + 5)

    def test_weighted_required_for_sssp(self):
        g = generators.rmat(7, 500, seed=1)
        with pytest.raises(ConfigError):
            EtaGraph(g).sssp(0)

    def test_max_iterations_enforced(self):
        g = attach_weights(generators.cycle_graph(50), kind="unit")
        cfg = EtaGraphConfig(max_iterations=3)
        with pytest.raises(ConvergenceError):
            EtaGraph(g, cfg).bfs(0)


class TestStatsAndResult:
    def test_bfs_iterations_is_depth_plus_one(self, social):
        g, src = social
        result = EtaGraph(g).bfs(src)
        depth = properties.bfs_depth(g, src)
        # Final iteration discovers nothing and empties the frontier.
        assert result.iterations == depth + 1

    def test_activation_matches_reachability(self, social):
        g, src = social
        result = EtaGraph(g).bfs(src)
        assert result.stats.activation_fraction() == pytest.approx(
            properties.activation_fraction(g, src)
        )

    def test_visited_counts_match_labels(self, social):
        g, src = social
        result = EtaGraph(g).bfs(src)
        assert result.visited == int(np.isfinite(result.labels).sum())

    def test_edges_scanned_bounded_by_total(self, social):
        g, src = social
        result = EtaGraph(g).bfs(src)
        # BFS activates each vertex once: scanned <= |E|.
        assert result.stats.total_edges_scanned <= g.num_edges

    def test_total_time_composition(self, social):
        g, src = social
        result = EtaGraph(g).bfs(src)
        assert result.total_ms > 0
        assert result.kernel_ms > 0
        assert result.d2h_ms > 0

    def test_cumulative_active_fraction_reaches_one(self, social):
        g, src = social
        result = EtaGraph(g).bfs(src)
        assert result.stats.cumulative_active_fraction()[-1] == pytest.approx(1.0)

    def test_reachable_from(self, social):
        g, src = social
        mask = EtaGraph(g).reachable_from(src)
        assert mask.sum() == properties.reachable_mask(g, src).sum()


class TestMemoryBehaviour:
    def test_prefetch_transfers_whole_topology(self, social):
        g, src = social
        result = EtaGraph(g).bfs(src)
        topo_bytes = g.row_offsets.nbytes + g.column_indices.nbytes
        moved = sum(result.profiler.migration_sizes)
        # Page granularity rounds up.
        assert moved >= topo_bytes
        assert moved <= topo_bytes + 2 * 4096 * 2

    def test_on_demand_transfers_only_touched(self):
        """The uk-2006 effect: a source confined to a tiny pocket touches
        almost none of the graph, so on-demand beats prefetch."""
        g = generators.web_chain(20_000, 200_000, depth=10, pocket_size=30,
                                 pocket_depth=3, seed=9)
        on_demand = EtaGraph(
            g, EtaGraphConfig(memory_mode=MemoryMode.UM_ON_DEMAND)
        ).bfs(0)
        prefetch = EtaGraph(g).bfs(0)
        # Page granularity + permuted vertex ids make the touched set a
        # few dozen scattered pages; still a small fraction of the graph.
        assert sum(on_demand.profiler.migration_sizes) < 0.25 * sum(
            prefetch.profiler.migration_sizes
        )

    def test_prefetch_beats_on_demand_on_full_traversals(self, social):
        g, src = social
        t_pref = EtaGraph(g).bfs(src).total_ms
        t_demand = EtaGraph(
            g, EtaGraphConfig(memory_mode=MemoryMode.UM_ON_DEMAND)
        ).bfs(src).total_ms
        assert t_pref < t_demand

    def test_on_demand_overlaps_transfer_and_compute(self, social):
        g, src = social
        result = EtaGraph(
            g, EtaGraphConfig(memory_mode=MemoryMode.UM_ON_DEMAND)
        ).bfs(src)
        assert result.timeline.overlap_ms() > 0

    def test_oversubscription_flag(self):
        g = generators.rmat(9, 8000, seed=2)
        tiny = GTX_1080TI.with_capacity(16 * KIB)
        result = EtaGraph(g, EtaGraphConfig(), tiny).bfs(0)
        assert result.oversubscribed
        assert np.array_equal(result.labels, oracle(g, 0, "bfs"))

    def test_device_mode_ooms_when_too_small(self):
        from repro.errors import DeviceOutOfMemoryError
        g = generators.rmat(9, 8000, seed=2)
        tiny = GTX_1080TI.with_capacity(16 * KIB)
        cfg = EtaGraphConfig(memory_mode=MemoryMode.DEVICE)
        with pytest.raises(DeviceOutOfMemoryError):
            EtaGraph(g, cfg, tiny).bfs(0)

    def test_smp_speeds_up_kernels(self):
        g = generators.rmat(12, 120_000, seed=5)
        src = int(np.argmax(g.out_degrees()))
        with_smp = EtaGraph(g).bfs(src)
        without = EtaGraph(g, EtaGraphConfig(smp=False)).bfs(src)
        assert with_smp.kernel_ms < without.kernel_ms
        c_smp = with_smp.profiler.kernels
        c_no = without.profiler.kernels
        assert c_smp.global_load_transactions < c_no.global_load_transactions
        assert c_smp.ipc > c_no.ipc
