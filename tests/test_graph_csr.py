"""Unit tests for CSRGraph construction, views and conversions."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph, VERTEX_DTYPE
from repro.graph.builder import build_csr_from_edges, symmetrize
from repro.graph import generators


def lexsort_build(src, dst, n, weights=None, dedup=True):
    """Reference CSR build on ``np.lexsort``, independent of the
    library's packed-key sort: ``(row_offsets, columns, weights)``."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float32)[order]
    if dedup and len(src):
        keep = np.ones(len(src), dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]
        if weights is not None:
            weights = weights[keep]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets.astype(np.int32), dst.astype(VERTEX_DTYPE), weights


def assert_csr_is(graph, reference):
    """``graph`` holds exactly the reference's arrays, dtypes included."""
    got = (graph.row_offsets, graph.column_indices, graph.edge_weights)
    for have, want in zip(got, reference):
        if want is None:
            assert have is None
        else:
            assert have.dtype == want.dtype
            assert have.tobytes() == want.tobytes()


def multigraph_edges(seed):
    """Random ``(n, src, dst, weights)`` with self-loops, duplicate edges
    (each with its own weight) and vertices with no in-edges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    m = int(rng.integers(0, 400))
    src = rng.integers(0, n, m)
    # Destinations avoid the top quarter: those have no in-edges.
    dst = rng.integers(0, max(1, 3 * n // 4), m)
    loops = rng.integers(0, n, m // 10)
    src = np.concatenate([src, loops, src[: m // 5]])
    dst = np.concatenate([dst, loops, dst[: m // 5]])
    weights = rng.random(len(src)).astype(np.float32) + 0.5
    return n, src, dst, weights


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges([0, 0, 1, 2], [1, 2, 2, 0])
        assert g.num_vertices == 3
        assert g.num_edges == 4
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [2]
        assert list(g.neighbors(2)) == [0]

    def test_adjacency_sorted_within_vertex(self):
        g = CSRGraph.from_edges([0, 0, 0], [5, 1, 3], num_vertices=6)
        assert list(g.neighbors(0)) == [1, 3, 5]

    def test_dedup_keeps_single_copy(self):
        g = CSRGraph.from_edges([0, 0, 0], [1, 1, 1], num_vertices=2)
        assert g.num_edges == 1

    def test_dedup_keeps_first_weight(self):
        g = CSRGraph.from_edges(
            [0, 0], [1, 1], num_vertices=2, weights=[3.0, 9.0]
        )
        assert g.num_edges == 1
        assert g.edge_weights[0] == 3.0

    def test_dedup_disabled(self):
        g = CSRGraph.from_edges([0, 0], [1, 1], num_vertices=2, dedup=False)
        assert g.num_edges == 2

    def test_empty_graph(self):
        g = CSRGraph.from_edges([], [], num_vertices=4)
        assert g.num_vertices == 4
        assert g.num_edges == 0
        assert g.average_degree == 0.0

    def test_zero_vertex_graph(self):
        g = CSRGraph(np.zeros(1, dtype=np.int32), np.empty(0, dtype=np.int32))
        assert g.num_vertices == 0
        assert g.max_out_degree() == 0

    def test_isolated_trailing_vertices(self):
        g = CSRGraph.from_edges([0], [1], num_vertices=10)
        assert g.num_vertices == 10
        assert g.out_degree(9) == 0

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges([-1], [0])

    def test_endpoint_exceeding_num_vertices_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges([0], [5], num_vertices=3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            build_csr_from_edges(np.array([0, 1]), np.array([1]))

    def test_weights_length_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges([0], [1], weights=[1.0, 2.0])

    @pytest.mark.parametrize("big", [2**31, 2**32 + 1, 2**40])
    def test_ids_beyond_int32_rejected_before_the_cast(self, big):
        """An id that an int32 cast would wrap (2**32 + 1 to vertex 1)
        or turn negative (2**31) is rejected as out of range."""
        src = np.array([0, big], dtype=np.int64)
        with pytest.raises(GraphFormatError, match="exceeds"):
            build_csr_from_edges(src, np.array([1, 2]), num_vertices=3)
        with pytest.raises(GraphFormatError, match="int32 vertex range"):
            build_csr_from_edges(src, np.array([1, 2]))
        with pytest.raises(GraphFormatError, match="exceeds"):
            build_csr_from_edges(np.array([1, 2]), src.astype(np.uint64),
                                 num_vertices=3)

    def test_num_vertices_beyond_int32_rejected(self):
        with pytest.raises(GraphFormatError, match="int32 vertex range"):
            build_csr_from_edges([0], [1], num_vertices=2**31 + 1)


class TestAgainstLexsortReference:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("dedup", [True, False])
    def test_multigraphs(self, seed, weighted, dedup):
        n, src, dst, weights = multigraph_edges(seed)
        weights = weights if weighted else None
        graph = build_csr_from_edges(src, dst, num_vertices=n,
                                     weights=weights, dedup=dedup)
        assert_csr_is(graph, lexsort_build(src, dst, n, weights, dedup))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_duplicates_keep_the_first_weight(self, weighted):
        src = np.array([3, 0, 3, 3, 0, 3, 1])
        dst = np.array([2, 1, 2, 0, 1, 2, 1])
        weights = np.arange(1, 8, dtype=np.float32) if weighted else None
        graph = build_csr_from_edges(src, dst, num_vertices=4,
                                     weights=weights)
        assert_csr_is(graph, lexsort_build(src, dst, 4, weights))
        assert graph.num_edges == 4
        if weighted:
            assert graph.edge_weights.tolist() == [2.0, 7.0, 4.0, 1.0]

    @pytest.mark.parametrize("n, src, dst", [
        (0, [], []),
        (5, [], []),
        (1, [0, 0, 0], [0, 0, 0]),
        (1, [0], [0]),
        (2**20, [2**20 - 1, 0, 2**20 - 1, 7], [0, 2**20 - 1, 3, 7]),
    ])
    @pytest.mark.parametrize("dedup", [True, False])
    def test_edge_cases(self, n, src, dst, dedup):
        src = np.array(src, dtype=np.int64)
        dst = np.array(dst, dtype=np.int64)
        weights = np.arange(len(src), dtype=np.float32)
        for w in (None, weights):
            graph = build_csr_from_edges(src, dst, num_vertices=n,
                                         weights=w, dedup=dedup)
            assert graph.num_vertices == n
            assert_csr_is(graph, lexsort_build(src, dst, n, w, dedup))


class TestValidation:
    def test_bad_first_offset(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([1, 2]), np.array([0, 0]))

    def test_offsets_must_match_edge_count(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_decreasing_offsets_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 0, 0]))

    def test_column_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1]), np.array([7]))

    def test_arrays_read_only(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.column_indices[0] = 99
        with pytest.raises(ValueError):
            tiny_graph.row_offsets[0] = 1


class TestAccessors:
    def test_degrees(self, tiny_graph):
        deg = tiny_graph.out_degrees()
        assert deg[1] == 5  # one duplicate edge dropped
        assert deg[2] == 0
        assert tiny_graph.max_out_degree() == 5

    def test_edge_sources_aligns_with_columns(self, skewed_graph):
        src = skewed_graph.edge_sources()
        assert len(src) == skewed_graph.num_edges
        # Every (src, dst) recovered from the expansion must round-trip.
        g2 = CSRGraph.from_edges(
            src, skewed_graph.column_indices,
            num_vertices=skewed_graph.num_vertices, dedup=False,
        )
        assert g2 == skewed_graph

    def test_neighbors_is_view(self, tiny_graph):
        n = tiny_graph.neighbors(0)
        assert n.base is not None  # a view, not a copy

    def test_neighbor_weights_requires_weights(self, tiny_graph):
        with pytest.raises(GraphFormatError):
            tiny_graph.neighbor_weights(0)

    def test_iter_edges_matches_columns(self, tiny_graph):
        edges = list(tiny_graph.iter_edges())
        assert len(edges) == tiny_graph.num_edges
        assert (0, 1) in edges and (5, 1) in edges


class TestConversions:
    def test_reverse_twice_is_identity(self, skewed_graph):
        assert skewed_graph.reverse().reverse() == skewed_graph

    def test_reverse_swaps_edges(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], num_vertices=3)
        r = g.reverse()
        assert list(r.neighbors(1)) == [0]
        assert list(r.neighbors(2)) == [1]
        assert list(r.neighbors(0)) == []

    def test_reverse_preserves_weights(self):
        g = CSRGraph.from_edges([0], [1], num_vertices=2, weights=[4.5])
        r = g.reverse()
        assert r.edge_weights is not None
        assert r.neighbor_weights(1)[0] == 4.5

    @pytest.mark.parametrize("seed", range(6))
    def test_reverse_matches_lexsort_build(self, seed):
        """The one-sort transpose equals the (destination, source)
        lexsort build on multigraphs with self-loops, duplicate edges,
        weights and zero-in-degree vertices."""
        rng = np.random.default_rng(seed)
        n, src, dst, weights = multigraph_edges(seed)
        g = CSRGraph.from_edges(src, dst, num_vertices=n,
                                weights=weights if seed % 2 else None,
                                dedup=False)
        if seed % 3 == 0:
            # Shuffle each adjacency list: the transpose must not rely
            # on sorted rows, only on rows grouped by source.
            within = np.lexsort((rng.random(g.num_edges), g.edge_sources()))
            g = CSRGraph(g.row_offsets, g.column_indices[within],
                         g.edge_weights[within] if g.is_weighted else None)
        assert_csr_is(g.reverse(), lexsort_build(
            g.column_indices, g.edge_sources(), n, g.edge_weights,
            dedup=False))

    def test_to_scipy_roundtrip(self, skewed_graph):
        m = skewed_graph.to_scipy()
        assert m.nnz == skewed_graph.num_edges
        coo = m.tocoo()
        g2 = CSRGraph.from_edges(
            coo.row, coo.col, num_vertices=skewed_graph.num_vertices
        )
        assert g2 == skewed_graph

    def test_with_without_weights(self, tiny_graph):
        w = np.ones(tiny_graph.num_edges, dtype=np.float32)
        wg = tiny_graph.with_weights(w)
        assert wg.is_weighted
        assert wg.without_weights() == tiny_graph
        assert tiny_graph.without_weights() is tiny_graph


class TestSpaceAccounting:
    def test_topology_words_formula(self, skewed_graph):
        g = skewed_graph
        # |E| + |V| words — Table I's accounting; the offsets array's
        # storage sentinel is excluded.
        assert g.topology_words() == g.num_edges + g.num_vertices

    def test_nbytes_includes_weights(self, weighted_skewed_graph):
        g = weighted_skewed_graph
        assert g.nbytes == g.without_weights().nbytes + 4 * g.num_edges

    def test_device_arrays_keys(self, weighted_skewed_graph):
        arrays = weighted_skewed_graph.device_arrays()
        assert set(arrays) == {"row_offsets", "column_indices", "edge_weights"}


class TestBuilderHelpers:
    def test_symmetrize(self):
        src, dst = symmetrize(np.array([0, 1]), np.array([1, 2]))
        g = CSRGraph.from_edges(src, dst, num_vertices=3)
        assert (1, 0) in list(g.iter_edges())
        assert (2, 1) in list(g.iter_edges())

    def test_vertex_dtype_is_int32(self, skewed_graph):
        assert skewed_graph.column_indices.dtype == VERTEX_DTYPE

    def test_generators_produce_valid_csr(self):
        for g in (
            generators.path_graph(5),
            generators.cycle_graph(5),
            generators.star_graph(7),
            generators.complete_graph(5),
            generators.grid_graph(3, 4),
        ):
            # _validate raises on any inconsistency.
            CSRGraph(g.row_offsets, g.column_indices)
