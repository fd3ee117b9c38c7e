"""Tests for the synthetic generators, including the surrogate-defining
properties (depth, pocket, skew) the evaluation relies on."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.graph import generators, properties
from repro.graph.csr import VERTEX_DTYPE


class TestRMAT:
    def test_deterministic(self):
        a = generators.rmat(8, 1000, seed=9)
        b = generators.rmat(8, 1000, seed=9)
        assert a == b

    def test_seed_changes_graph(self):
        a = generators.rmat(8, 1000, seed=1)
        b = generators.rmat(8, 1000, seed=2)
        assert a != b

    def test_vertex_space_is_power_of_two(self):
        g = generators.rmat(6, 500, seed=0)
        assert g.num_vertices == 64

    def test_skew_produces_hub(self):
        g = generators.rmat(10, 8192, a=0.57, b=0.19, c=0.19, seed=4)
        deg = g.out_degrees()
        assert deg.max() > 20 * max(deg.mean(), 1e-9)

    def test_uniform_probabilities_give_er_like_graph(self):
        g = generators.rmat(10, 8192, a=0.25, b=0.25, c=0.25, seed=4)
        deg = g.out_degrees()
        assert deg.max() < 10 * max(deg.mean(), 1e-9)

    def test_no_self_loops_by_default(self):
        g = generators.rmat(7, 2000, seed=5)
        src = g.edge_sources()
        assert not np.any(src == g.column_indices)

    @pytest.mark.parametrize("scale, m, a, b, c, seed", [
        (1, 5, 0.45, 0.22, 0.22, 0), (8, 3000, 0.45, 0.22, 0.22, 9),
        (13, 20000, 0.57, 0.19, 0.19, 4), (30, 500, 0.25, 0.25, 0.25, 2),
    ])
    def test_edges_match_one_draw_per_round(self, scale, m, a, b, c, seed):
        """The in-place rounds draw the same stream, and decode it the
        same way, as a fresh ``rng.random(m)`` per round in int64."""
        rng = np.random.default_rng(seed)
        src = np.zeros(m, dtype=np.int64)
        dst = np.zeros(m, dtype=np.int64)
        for _ in range(scale):
            r = rng.random(m)
            src = (src << 1) | (r >= a + b)
            dst = (dst << 1) | ((r >= a) & (r < a + b) | (r >= a + b + c))
        got = generators.rmat_edges(scale, m, a, b, c, seed=seed)
        for have, want in zip(got, (src, dst)):
            assert have.dtype == VERTEX_DTYPE
            assert np.array_equal(have, want)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(DatasetError):
            generators.rmat(5, 10, a=0.9, b=0.2, c=0.2)

    def test_invalid_scale_rejected(self):
        with pytest.raises(DatasetError):
            generators.rmat(0, 10)


class TestSocialNetwork:
    def test_exact_vertex_count(self):
        g = generators.social_network(1000, 5000, seed=1)
        assert g.num_vertices == 1000

    def test_non_power_of_two_sizes(self):
        g = generators.social_network(777, 3000, seed=2)
        assert g.num_vertices == 777
        assert g.num_edges > 0

    def test_too_small_rejected(self):
        with pytest.raises(DatasetError):
            generators.social_network(1, 10)


class TestWebChain:
    def test_depth_controls_bfs_levels(self):
        g = generators.web_chain(3000, 30000, depth=25, seed=1)
        d = properties.bfs_depth(g, 0)
        assert 25 <= d <= 28  # leaf hop may add one level

    def test_high_activation_without_pocket(self):
        g = generators.web_chain(3000, 30000, depth=10, seed=2)
        assert properties.activation_fraction(g, 0) > 0.9

    def test_scc_smaller_than_reachable_set(self):
        g = generators.web_chain(5000, 60000, depth=12, leaf_fraction=0.35,
                                 seed=3)
        scc = properties.largest_component_fraction(g, strong=True)
        act = properties.activation_fraction(g, 0)
        assert act > 0.9
        assert scc < 0.75  # leaves excluded from the strongly-connected core

    def test_pocket_isolates_source(self):
        g = generators.web_chain(
            5000, 50000, depth=10, pocket_size=40, pocket_depth=4, seed=4
        )
        act = properties.activation_fraction(g, 0)
        assert act == pytest.approx(40 / 5000, rel=0.01)
        assert properties.bfs_depth(g, 0) <= 4

    def test_pocket_all_reachable(self):
        g = generators.web_chain(
            2000, 20000, depth=5, pocket_size=30, pocket_depth=3, seed=5
        )
        assert properties.reachable_mask(g, 0).sum() == 30

    def test_pocket_too_large_rejected(self):
        with pytest.raises(DatasetError):
            generators.web_chain(100, 1000, depth=2, pocket_size=100)

    def test_depth_zero_rejected(self):
        with pytest.raises(DatasetError):
            generators.web_chain(100, 1000, depth=0)

    def test_deterministic(self):
        a = generators.web_chain(1000, 10000, depth=5, seed=6)
        b = generators.web_chain(1000, 10000, depth=5, seed=6)
        assert a == b


class TestSmallGraphs:
    def test_path(self):
        g = generators.path_graph(5)
        assert g.num_edges == 4
        assert properties.bfs_depth(g, 0) == 4

    def test_cycle(self):
        g = generators.cycle_graph(6)
        assert g.num_edges == 6
        assert properties.activation_fraction(g, 0) == 1.0

    def test_star_out(self):
        g = generators.star_graph(9)
        assert g.out_degree(0) == 9
        assert g.max_out_degree() == 9

    def test_star_in(self):
        g = generators.star_graph(9, out=False)
        assert g.out_degree(0) == 0
        assert g.out_degree(1) == 1

    def test_complete(self):
        g = generators.complete_graph(5)
        assert g.num_edges == 20

    def test_grid_dimensions(self):
        g = generators.grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # right + down edges

    def test_erdos_renyi_deterministic(self):
        assert generators.erdos_renyi(100, 500, seed=1) == \
               generators.erdos_renyi(100, 500, seed=1)


class TestSeedDeterminism:
    """Regression tests for the generators' determinism contract: every
    generator draws exclusively from a local ``np.random.default_rng(seed)``
    and never touches the module-global NumPy RNG."""

    CASES = [
        ("rmat", lambda s: generators.rmat(7, 900, seed=s)),
        ("social_network", lambda s: generators.social_network(300, 1500,
                                                               seed=s)),
        ("web_chain", lambda s: generators.web_chain(500, 4000, depth=4,
                                                     seed=s)),
        ("erdos_renyi", lambda s: generators.erdos_renyi(200, 800, seed=s)),
    ]

    @pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
    def test_same_seed_identical(self, name, make):
        assert make(42) == make(42)

    @pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
    def test_different_seeds_differ(self, name, make):
        assert make(42) != make(43)

    def test_weights_deterministic(self):
        from repro.graph.weights import uniform_int_weights

        a = uniform_int_weights(512, seed=9)
        b = uniform_int_weights(512, seed=9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, uniform_int_weights(512, seed=10))

    @pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
    def test_global_rng_state_untouched(self, name, make):
        """Generators neither read nor advance ``np.random``'s global
        state — reseeding it must not change the output, and generating
        must not consume draws from it."""
        np.random.seed(0)
        a = make(7)
        np.random.seed(12345)
        b = make(7)
        assert a == b
        np.random.seed(99)
        before = np.random.random(4)
        np.random.seed(99)
        make(7)
        after = np.random.random(4)
        assert np.array_equal(before, after)


class TestProperties:
    def test_lcc_weak_vs_strong(self):
        g = generators.path_graph(10)
        assert properties.largest_component_fraction(g) == 1.0
        assert properties.largest_component_fraction(g, strong=True) == 0.1

    def test_reachable_mask_path(self):
        g = generators.path_graph(5)
        mask = properties.reachable_mask(g, 2)
        assert list(mask) == [False, False, True, True, True]

    def test_activation_fraction_empty_graph(self):
        from repro.graph.csr import CSRGraph
        g = CSRGraph(np.zeros(1, dtype=np.int32), np.empty(0, dtype=np.int32))
        assert properties.activation_fraction(g, 0) == 0.0

    def test_degree_stats(self, skewed_graph):
        stats = properties.DegreeStats.of(skewed_graph)
        assert stats.maximum == skewed_graph.max_out_degree()
        assert stats.average == pytest.approx(skewed_graph.average_degree)
        assert stats.zeros == int((skewed_graph.out_degrees() == 0).sum())

    def test_graph_summary(self, skewed_graph):
        s = properties.GraphSummary.of(skewed_graph)
        assert s.num_edges == skewed_graph.num_edges
        assert 0 < s.lcc_fraction <= 1.0

    def test_bfs_depth_disconnected_source(self):
        g = generators.star_graph(4, out=False)  # hub has no out-edges
        assert properties.bfs_depth(g, 0) == 0
