"""Tests for the baseline frameworks: functional equivalence with
EtaGraph and the cost-model properties Table III depends on."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import EtaGraph
from repro.algorithms import cpu_reference
from repro.baselines import get_framework
from repro.baselines import base
from repro.baselines.base import propagate_step
from repro.errors import ConfigError, ConvergenceError, DeviceOutOfMemoryError
from repro.gpu.device import GTX_1080TI
from repro.graph import generators
from repro.graph.weights import attach_weights
from repro.utils.units import KIB, MIB

FRAMEWORKS = ["cusha", "gunrock", "tigr", "simple-vc"]


@pytest.fixture(scope="module")
def social():
    g = attach_weights(generators.rmat(10, 12000, seed=17), seed=18)
    src = int(np.argmax(g.out_degrees()))
    return g, src


class TestRegistry:
    def test_all_frameworks_constructible(self):
        for name in FRAMEWORKS:
            fw = get_framework(name)
            assert fw.name == name

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            get_framework("mapgraph")


@pytest.mark.parametrize(
    "name", ["cusha", "gunrock", "tigr", "gts", "simple-vc", "cpu-ligra"])
def test_iteration_budget_names_the_framework(monkeypatch, name):
    """Every framework runs the one loop, so the one budget stops each
    of them: a path needs more than one iteration."""
    monkeypatch.setattr(base, "MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError, match=f"^{name} exceeded 1 "):
        get_framework(name).run(generators.path_graph(5), "bfs", 0)


class TestEquivalence:
    @pytest.mark.parametrize("fw", FRAMEWORKS)
    @pytest.mark.parametrize("problem", ["bfs", "sssp", "sswp"])
    def test_matches_oracle(self, social, fw, problem):
        g, src = social
        result = get_framework(fw).run(g, problem, src)
        expected = cpu_reference.reference_labels(g, src, problem)
        assert np.allclose(result.labels, expected)

    @pytest.mark.parametrize("fw", FRAMEWORKS)
    def test_matches_etagraph(self, social, fw):
        g, src = social
        ours = EtaGraph(g).sssp(src)
        theirs = get_framework(fw).run(g, "sssp", src)
        assert np.allclose(ours.labels, theirs.labels)

    @given(seed=st.integers(0, 15))
    @settings(max_examples=8, deadline=None)
    def test_all_engines_agree_on_random_graphs(self, seed):
        g = attach_weights(generators.erdos_renyi(200, 1200, seed=seed),
                           seed=seed)
        labels = [EtaGraph(g).sssp(0).labels]
        for fw in ("gunrock", "tigr"):
            labels.append(get_framework(fw).run(g, "sssp", 0).labels)
        for other in labels[1:]:
            assert np.allclose(labels[0], other)

    def test_iteration_counts_match(self, social):
        """Synchronous relaxation converges in the same number of rounds
        in every engine (the fixpoint trajectory is identical)."""
        g, src = social
        ours = EtaGraph(g).bfs(src)
        gunrock = get_framework("gunrock").run(g, "bfs", src)
        tigr = get_framework("tigr").run(g, "bfs", src)
        assert ours.iterations == gunrock.iterations == tigr.iterations


class TestCostModelShape:
    def test_total_exceeds_kernel(self, social):
        g, src = social
        for fw in FRAMEWORKS:
            r = get_framework(fw).run(g, "bfs", src)
            assert r.total_ms > r.kernel_ms > 0

    def test_cusha_kernel_grows_with_iterations(self):
        """Edge-centric full passes: kernel time ~ iterations x |E|."""
        shallow = generators.web_chain(4000, 40_000, depth=3, seed=1)
        deep = generators.web_chain(4000, 40_000, depth=30, seed=1)
        fw = get_framework("cusha")
        t_shallow = fw.run(shallow, "bfs", 0)
        t_deep = fw.run(deep, "bfs", 0)
        assert t_deep.kernel_ms > 3 * t_shallow.kernel_ms

    def test_etagraph_beats_tigr_on_deep_graphs(self):
        """The uk-2005 effect: many iterations magnify frontier selectivity
        (Tigr launches all virtual nodes every iteration)."""
        deep = generators.web_chain(30_000, 300_000, depth=60, seed=2)
        eta = EtaGraph(deep).bfs(0)
        tigr = get_framework("tigr").run(deep, "bfs", 0)
        assert eta.total_ms < tigr.total_ms

    def test_simple_vc_slowest_on_skewed_graph(self):
        # Large enough that lockstep long-tail and full-sweep launches
        # dominate the per-iteration launch overhead EtaGraph pays.
        g = generators.rmat(13, 250_000, seed=21)
        src = int(np.argmax(g.out_degrees()))
        naive = get_framework("simple-vc").run(g, "bfs", src)
        eta = EtaGraph(g).bfs(src)
        assert naive.kernel_ms > eta.kernel_ms

    def test_device_bytes_ordering(self, social):
        """Footprints must follow Table I: CuSha > Gunrock > Tigr > CSR."""
        g, src = social
        sizes = {
            fw: get_framework(fw).run(g, "sssp", src).device_bytes
            for fw in ("cusha", "gunrock", "tigr")
        }
        eta = EtaGraph(g).sssp(src)
        csr_bytes = eta.um_bytes + eta.device_bytes
        assert sizes["cusha"] > sizes["gunrock"] > sizes["tigr"]
        assert sizes["tigr"] > csr_bytes * 0.8  # VST ~1.3x topology only


class TestOOM:
    def test_cusha_ooms_first(self):
        g = generators.rmat(12, 150_000, seed=3)
        # Capacity that fits CSR comfortably but not 4-words-per-edge shards.
        spec = GTX_1080TI.with_capacity(
            3 * g.num_edges * 4 + 10 * g.num_vertices * 4
        )
        with pytest.raises(DeviceOutOfMemoryError):
            get_framework("cusha", spec).run(g, "bfs", 0)
        # Tigr and EtaGraph still fit.
        get_framework("tigr", spec).run(g, "bfs", 0)

    def test_everything_ooms_at_tiny_capacity(self):
        g = generators.rmat(10, 20_000, seed=4)
        spec = GTX_1080TI.with_capacity(8 * KIB)
        for fw in FRAMEWORKS:
            with pytest.raises(DeviceOutOfMemoryError):
                get_framework(fw, spec).run(g, "bfs", 0)

    def test_etagraph_survives_via_oversubscription(self):
        from repro.core.config import EtaGraphConfig
        g = generators.rmat(10, 20_000, seed=4)
        # Enough for working arrays but not the topology: UM oversubscribes.
        spec = GTX_1080TI.with_capacity(96 * KIB)
        result = EtaGraph(g, EtaGraphConfig(), spec).bfs(0)
        assert result.oversubscribed
        expected = cpu_reference.bfs_levels(g, 0)
        assert np.array_equal(result.labels, expected)


class TestPropagateStep:
    def test_empty_active(self, social):
        g, _ = social
        from repro.algorithms import get_problem
        labels = get_problem("bfs").initial_labels(g.num_vertices, 0)
        changed, attempted, nbr, edges = propagate_step(
            g, labels, np.empty(0, dtype=np.int64), get_problem("bfs")
        )
        assert len(changed) == 0 and attempted == 0 and edges == 0

    def test_single_step_from_source(self):
        from repro.algorithms import get_problem
        g = generators.star_graph(5)
        problem = get_problem("bfs")
        labels = problem.initial_labels(6, 0)
        changed, attempted, nbr, edges = propagate_step(
            g, labels, np.array([0]), problem
        )
        assert sorted(changed.tolist()) == [1, 2, 3, 4, 5]
        assert attempted == 5
        assert edges == 5

    def test_no_change_on_settled_labels(self):
        from repro.algorithms import get_problem
        g = generators.path_graph(4)
        problem = get_problem("bfs")
        labels = np.array([0, 1, 2, 3], dtype=np.float32)
        changed, attempted, _, _ = propagate_step(
            g, labels, np.array([0, 1, 2]), problem
        )
        assert len(changed) == 0
        assert attempted == 0
