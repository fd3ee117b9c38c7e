"""Tests for parent tracking, path reconstruction and early-exit BFS."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import EngineSession, EtaGraph
from repro.algorithms.paths import (
    NO_PARENT,
    PathError,
    reconstruct_path,
    verify_path,
)
from repro.errors import ConfigError, InvalidLaunchError
from repro.graph import generators
from repro.graph.weights import attach_weights


@pytest.fixture(scope="module")
def social():
    g = attach_weights(generators.rmat(9, 5000, seed=81), seed=82)
    src = int(np.argmax(g.out_degrees()))
    return g, src


def run_with_parents(g, src, problem):
    with EngineSession(g) as session:
        return session.query(problem, src, parents=True)


class TestParentTracking:
    @pytest.mark.parametrize("problem", ["bfs", "sssp", "sswp"])
    def test_every_reached_vertex_has_valid_path(self, social, problem):
        g, src = social
        result = run_with_parents(g, src, problem)
        parents = result.extras["parents"]
        reached = np.flatnonzero(
            np.isfinite(result.labels) if problem != "sswp"
            else result.labels > 0
        )
        rng = np.random.default_rng(1)
        sample = rng.choice(reached, size=min(25, len(reached)),
                            replace=False)
        for v in sample:
            path = reconstruct_path(parents, src, int(v))
            assert path[0] == src and path[-1] == v
            assert verify_path(g, path, result.labels, problem)

    def test_source_has_no_parent(self, social):
        g, src = social
        result = run_with_parents(g, src, "bfs")
        assert result.extras["parents"][src] == NO_PARENT

    def test_unreached_vertices_have_no_parent(self, social):
        g, src = social
        result = run_with_parents(g, src, "bfs")
        parents = result.extras["parents"]
        unreached = np.isinf(result.labels)
        assert np.all(parents[unreached] == NO_PARENT)

    def test_disabled_by_default(self, social):
        g, src = social
        result = EtaGraph(g).bfs(src)
        assert result.extras["parents"] is None
        with EngineSession(g) as session:
            session.query("bfs", src, parents=True)
            assert session.query("bfs", src).extras["parents"] is None

    def test_bfs_path_length_equals_level(self, social):
        g, src = social
        result = run_with_parents(g, src, "bfs")
        parents = result.extras["parents"]
        v = int(np.flatnonzero(result.labels == 2)[0])
        path = reconstruct_path(parents, src, v)
        assert len(path) == 3

    @given(seed=st.integers(0, 10))
    @settings(max_examples=8, deadline=None)
    def test_sssp_paths_are_shortest(self, seed):
        g = attach_weights(generators.erdos_renyi(80, 500, seed=seed),
                           seed=seed)
        result = run_with_parents(g, 0, "sssp")
        parents = result.extras["parents"]
        reached = np.flatnonzero(np.isfinite(result.labels))[:10]
        for v in reached:
            if v == 0:
                continue
            path = reconstruct_path(parents, 0, int(v))
            assert verify_path(g, path, result.labels, "sssp")


class TestReconstructErrors:
    def test_unreached_target(self):
        parents = np.array([NO_PARENT, NO_PARENT])
        with pytest.raises(PathError, match="not reached"):
            reconstruct_path(parents, 0, 1)

    def test_cycle_detected(self):
        parents = np.array([1, 0])
        with pytest.raises(PathError, match="corrupt"):
            reconstruct_path(parents, 9, 0)  # source never reached

    def test_target_out_of_range(self):
        with pytest.raises(PathError):
            reconstruct_path(np.array([NO_PARENT]), 0, 5)

    def test_source_is_target(self):
        assert reconstruct_path(np.array([NO_PARENT]), 0, 0) == [0]

    def test_verify_rejects_nonsense(self, social):
        g, src = social
        labels = EtaGraph(g).bfs(src).labels
        assert not verify_path(g, [], labels, "bfs")
        # A "path" with a non-edge hop.
        non_neighbor = int(np.flatnonzero(
            ~np.isin(np.arange(g.num_vertices), g.neighbors(src))
        )[0])
        assert not verify_path(g, [src, non_neighbor], labels, "bfs")


class TestEarlyExit:
    def test_stops_before_full_traversal(self, social):
        g, src = social
        full = EtaGraph(g).bfs(src)
        near = int(np.flatnonzero(full.labels == 1)[0])
        early = EtaGraph(g).bfs(src, target=near)
        assert early.iterations < full.iterations
        assert early.labels[near] == 1
        assert early.extras["early_exit"]

    def test_target_label_correct(self, social):
        g, src = social
        full = EtaGraph(g).bfs(src)
        for level in (1, 2):
            candidates = np.flatnonzero(full.labels == level)
            if not len(candidates):
                continue
            t = int(candidates[-1])
            early = EtaGraph(g).bfs(src, target=t)
            assert early.labels[t] == level

    def test_rejected_for_weighted_problems(self, social):
        g, src = social
        with pytest.raises(ConfigError):
            with EtaGraph(g).session() as session:
                session.query("sssp", src, target=1)

    def test_target_out_of_range(self, social):
        g, src = social
        with pytest.raises(InvalidLaunchError):
            EtaGraph(g).bfs(src, target=g.num_vertices)

    def test_shortest_hop_path_api(self, social):
        g, src = social
        full = EtaGraph(g).bfs(src)
        v = int(np.flatnonzero(full.labels == 2)[0])
        path = EtaGraph(g).shortest_hop_path(src, v)
        assert path[0] == src and path[-1] == v
        assert len(path) == 3
