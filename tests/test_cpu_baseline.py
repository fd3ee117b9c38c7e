"""Tests for the Ligra-like CPU baseline."""

import numpy as np
import pytest

from repro import EtaGraph
from repro.algorithms import cpu_reference
from repro.baselines import get_framework
from repro.baselines.cpu_ligra import CPUSpec, LigraLikeCPU, XEON_E5_2620
from repro.graph import generators
from repro.graph.weights import attach_weights


@pytest.fixture(scope="module")
def social():
    g = attach_weights(generators.rmat(11, 80_000, seed=71), seed=72)
    src = int(np.argmax(g.out_degrees()))
    return g, src


class TestCPUBaseline:
    def test_labels_correct(self, social):
        g, src = social
        r = LigraLikeCPU().run(g, "sssp", src)
        assert np.allclose(r.labels, cpu_reference.sssp_distances(g, src))

    def test_registered(self):
        assert get_framework("cpu-ligra").name == "cpu-ligra"

    def test_no_transfer_and_no_device_footprint(self, social):
        g, src = social
        r = LigraLikeCPU().run(g, "bfs", src)
        assert r.total_ms == r.kernel_ms  # host memory: nothing to copy
        assert r.device_bytes == 0

    def test_gpu_advantage_grows_with_scale(self):
        """The paper's Section I claim, executable: a tuned GPU framework
        is at least comparable to a shared-memory CPU system, and its
        kernel advantage grows with graph size (the CPU wins only while
        the problem fits its caches / the GPU is overhead-bound)."""
        ratios = []
        for scale, edges in ((11, 80_000), (13, 400_000), (15, 2_000_000)):
            g = generators.rmat(scale, edges, seed=71)
            src = int(np.argmax(g.out_degrees()))
            cpu = LigraLikeCPU().run(g, "bfs", src)
            gpu = EtaGraph(g).bfs(src)
            assert np.array_equal(gpu.labels, cpu.labels)
            ratios.append(cpu.kernel_ms / gpu.kernel_ms)
        assert ratios[-1] > 1.5  # GPU clearly ahead at scale
        assert ratios[-1] > ratios[0]  # and the gap widens

    def test_cpu_wins_tiny_graphs(self):
        """No transfer + no launch overhead: the CPU should win when the
        graph is a few hundred edges."""
        g = generators.rmat(6, 300, seed=3)
        cpu = LigraLikeCPU().run(g, "bfs", 0)
        gpu = EtaGraph(g).bfs(0)
        assert cpu.total_ms < gpu.total_ms

    def test_custom_cpu_spec(self, social):
        g, src = social
        slow_cpu = CPUSpec(num_cores=2, dram_bandwidth_gbps=20.0)
        slow = LigraLikeCPU(cpu=slow_cpu).run(g, "bfs", src)
        fast = LigraLikeCPU(cpu=XEON_E5_2620).run(g, "bfs", src)
        assert fast.kernel_ms < slow.kernel_ms

