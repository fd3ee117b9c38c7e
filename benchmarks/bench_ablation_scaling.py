"""Ablation bench: single GPU against a shared-memory CPU system.

Executable version of a Section I claim: a tuned single-GPU framework at
least matches a shared-memory CPU system at scale.
"""

import numpy as np
import pytest

from repro.baselines.cpu_ligra import LigraLikeCPU
from repro.core.api import EtaGraph


@pytest.fixture(scope="module")
def workload(ctx):
    return ctx.load("rmat25", False)


def test_gpu_vs_cpu_at_scale(benchmark, workload, ctx):
    graph, source = workload

    def run_both():
        cpu = LigraLikeCPU().run(graph, "bfs", source)
        gpu = EtaGraph(graph, device=ctx.device).bfs(source)
        return cpu, gpu

    cpu, gpu = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert np.array_equal(cpu.labels, gpu.labels)
    print(f"\n  cpu {cpu.kernel_ms:.3f} ms vs gpu kernel {gpu.kernel_ms:.3f} "
          f"ms ({cpu.kernel_ms / gpu.kernel_ms:.2f}x)")
    assert gpu.kernel_ms < cpu.kernel_ms
