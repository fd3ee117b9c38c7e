"""Ligra-like shared-memory CPU baseline.

The paper's opening claim (Section I): "carefully designed GPU-based
frameworks can achieve comparable or even orders of magnitude better
performance than shared-memory or distributed systems, such as GraphLab
and Ligra."  This baseline makes that comparison executable: a
frontier-based multicore engine in the style of Ligra's ``edgeMap`` with
a cost model for the paper's actual host — a dual-socket, 12-core
(24-thread) Xeon E5-2620 with ~120 GB/s of aggregate DRAM bandwidth.

Cost model per iteration: the frontier's edges are processed in parallel
across cores; each edge performs a random label access (one cache line
from DRAM at the observed miss rate) plus a few instructions, and every
iteration pays a parallel-for fork/join barrier.  Roofline between the
instruction and memory terms, like the GPU model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import Framework


@dataclass(frozen=True)
class CPUSpec:
    """Host machine description (the paper's evaluation server)."""

    name: str = "2x Xeon E5-2620"
    num_cores: int = 12
    threads_per_core: int = 2
    clock_ghz: float = 2.5
    dram_bandwidth_gbps: float = 110.0
    cache_line_bytes: int = 64
    #: Effective DRAM miss rate of frontier label gathers (large working
    #: sets defeat the LLC, but not completely).
    label_miss_rate: float = 0.6
    #: Instructions per scanned edge (branchy scalar code).
    instr_per_edge: float = 14.0
    #: Fork/join barrier per parallel-for (OpenMP/Cilk-style).
    barrier_us: float = 4.0

    @property
    def instr_throughput(self) -> float:
        """Aggregate scalar instructions per second (HT gives ~30%)."""
        return self.num_cores * 1.3 * self.clock_ghz * 1e9


XEON_E5_2620 = CPUSpec()


class LigraLikeCPU(Framework):
    """Frontier-based shared-memory engine (Ligra's edgeMap model)."""

    name = "cpu-ligra"

    def __init__(self, device=None, cpu: CPUSpec = XEON_E5_2620):
        # `device` is accepted for factory compatibility but unused: the
        # CPU baseline runs in host memory (that is its selling point —
        # no transfer, no capacity limit).
        super().__init__(device)
        self.cpu = cpu

    def _place(self, ctx):
        # The graph already lives in host memory: nothing to copy, no
        # device footprint.
        ctx.extras["cpu"] = self.cpu.name
        return {}, ctx.problem.initial_labels(
            ctx.csr.num_vertices, ctx.source), 0.0

    def _charge(self, ctx, arrays, step):
        cpu, edges = self.cpu, step.edges
        # Instruction term: edges over all hardware threads.
        instr_ms = edges * cpu.instr_per_edge / cpu.instr_throughput * 1e3
        # Memory term: adjacency streams sequentially (prefetched),
        # label gathers miss to DRAM at the modelled rate.
        adj_bytes = edges * 4 * (2 if ctx.csr.edge_weights is not None else 1)
        label_bytes = edges * cpu.label_miss_rate * cpu.cache_line_bytes
        mem_ms = (adj_bytes + label_bytes) / (
            cpu.dram_bandwidth_gbps * 1e9
        ) * 1e3
        return (max(instr_ms, mem_ms) + cpu.barrier_us * 1e-3,), 0.0
